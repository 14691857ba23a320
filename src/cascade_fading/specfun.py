"""Real-valued special functions used by the product-channel statistics.

Gamma, erf and the modified Bessel function K come from the C library /
scipy and are re-exported behind small validating wrappers.  The generalized
hypergeometric series pFq and a restricted Meijer G evaluator are implemented
here: every Meijer G this package needs falls into one of two structural
families (m = q, n = 0 or m = q - 1, n = 1, both with p < q), for which the
function equals a finite sum of pFq series weighted by gamma-function ratios
(Slater's theorem, see e.g. Gradshteyn & Ryzhik 9.303).  When lower
parameters collide modulo integers the residue expansion degenerates; a
symmetric epsilon-perturbation of the colliding parameters is used instead
and the evaluation is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from . import dd as _dd

__all__ = [
    "DomainError",
    "UnsupportedSpecError",
    "DegenerateParametersError",
    "SeriesOverflowError",
    "AccuracyError",
    "MeijerGSpec",
    "SlaterTerm",
    "SlaterExpansion",
    "MeijerGValue",
    "gamma_fn",
    "erf_fn",
    "bessel_k",
    "pfq",
    "build_slater_expansion",
    "meijer_g",
]

# Relative tolerance (scaled by 1 + |difference|) below which two lower
# parameters are treated as integer-separated, and the perturbation size of
# the fallback.  The perturbation is orders of magnitude above the detection
# window, both so no evaluation lands near a pole and to keep the 1/eps
# coefficient blow-up (and with it the cancellation between expansion terms)
# manageable for products with several coincident parameters; the systematic
# bias this size would cause is removed by Richardson extrapolation over the
# ladder +-eps, +-2 eps.
_DEGENERACY_TOL = 1e-6
_PERTURB_EPS = 1e-3

_MAX_TERMS = 10_000

# Peak-magnitude multipliers converting the largest intermediate magnitude
# into an absolute error estimate: the term recurrence accumulates rounding
# at a few hundred ulp over a long series in double precision, and a few
# hundred double-double ulp on the extended path.
_TERM_EPS = 1e-13
_TERM_EPS_DD = 3e-30

# Escalate an element from double to double-double evaluation when the
# tracked double-precision error exceeds this mix of absolute/relative need.
_ESCALATE_ABS = 1e-13
_ESCALATE_REL = 1e-7


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class UnsupportedSpecError(ValueError):
    """Meijer G parameters outside the two supported structural families."""


class DegenerateParametersError(ValueError):
    """Lower parameters separated by an integer: no simple-pole expansion."""


class AccuracyError(ArithmeticError):
    """Requested value could not be stabilized to a usable accuracy."""

    def __init__(self, message, value_plus=None, value_minus=None):
        super().__init__(message)
        self.value_plus = value_plus
        self.value_minus = value_minus


class SeriesOverflowError(AccuracyError):
    """pFq series failed to converge within the term cap."""

    def __init__(self, message, terms=None, last_term=None):
        super().__init__(message)
        self.terms = terms
        self.last_term = last_term


def gamma_fn(x):
    """Gamma function for real x, poles rejected."""
    x = float(x)
    if x <= 0 and x == math.floor(x):
        raise DomainError(f"gamma_fn pole at non-positive integer x={x}")
    return math.gamma(x)


def erf_fn(x):
    """Error function for real x."""
    return math.erf(float(x))


def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Symmetric in the order: K_nu = K_{-nu} is enforced by canonicalizing to
    |nu| so the identity holds bit-for-bit.
    """
    x = float(x)
    if x <= 0:
        raise DomainError(f"bessel_k requires x > 0, got x={x}")
    val = float(sp.kv(abs(float(nu)), x))
    if math.isinf(val):
        raise OverflowError(
            f"bessel_k(nu={nu}, x={x}) overflows double precision (positive)"
        )
    return val


def _pfq_series(a, b, z, tol, max_terms=_MAX_TERMS):
    """Sum the pFq series elementwise over the array z.

    Returns (values, peak, converged): `peak` is the largest |term| met per
    element (for cancellation accounting), `converged` marks elements whose
    running term dropped below tol * |partial sum| while decreasing.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    peak = np.ones_like(z)
    small_runs = np.zeros(z.shape, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_terms):
            ratio = z / (k + 1.0)
            for aj in a:
                ratio *= aj + k
            for bj in b:
                ratio /= bj + k
            prev = np.abs(term)
            term = term * ratio
            total += term
            np.maximum(peak, np.abs(term), out=peak)
            small = np.abs(term) <= tol * np.maximum(np.abs(total), 1e-300)
            small &= np.abs(term) <= prev
            # overflowed elements cannot improve; flag via peak=inf and stop
            dead = ~np.isfinite(term)
            small |= dead
            peak[dead] = np.inf
            small_runs = np.where(small, small_runs + 1, 0)
            if np.all(small_runs >= 3):
                return total, peak, np.ones(z.shape, dtype=bool), k + 1
    return total, peak, small_runs >= 3, max_terms


def pfq(a_list, b_list, z, tol=1e-12):
    """Generalized hypergeometric series pFq(a; b; z) for p <= q.

    Returns (value, achieved) where `achieved` reports whether the requested
    truncation tolerance was reached.  Raises SeriesOverflowError when the
    series has not started converging within the term cap, and DomainError
    for non-positive-integer lower parameters (poles of the series).
    """
    a = [float(v) for v in a_list]
    b = [float(v) for v in b_list]
    if len(a) > len(b):
        raise DomainError("pfq implemented for p <= q (entire series) only")
    for bj in b:
        if bj <= 0 and abs(bj - round(bj)) < 1e-12:
            raise DomainError(f"pfq lower parameter {bj} is a non-positive integer")
    scalar = np.isscalar(z) or np.ndim(z) == 0
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    values, peak, converged, n_terms = _pfq_series(a, b, zz, tol)
    if not np.all(converged):
        idx = int(np.argmin(converged))
        raise SeriesOverflowError(
            f"pFq series did not converge within {_MAX_TERMS} terms "
            f"(z={zz[idx]:g})",
            terms=n_terms,
            last_term=float(values[idx]),
        )
    achieved = bool(np.all(peak * _TERM_EPS <= np.maximum(np.abs(values), 1e-300) * max(tol, 1e-14) * 10 + 1e-290))
    if scalar:
        return float(values[0]), achieved
    return values, achieved


@dataclass(frozen=True)
class MeijerGSpec:
    """Parameter block of a Meijer G function G^{m,n}_{p,q}(x | a; b).

    Only the two families used by the product-channel closed forms are
    accepted: (m = q, n = 0) and (m = q - 1, n = 1), both with p < q so the
    associated pFq series are entire.
    """

    m: int
    n: int
    p: int
    q: int
    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if len(self.a) != self.p or len(self.b) != self.q:
            raise UnsupportedSpecError(
                f"parameter lists do not match (p={self.p}, q={self.q}): "
                f"got {len(self.a)} upper, {len(self.b)} lower"
            )
        if not (0 <= self.m <= self.q and 0 <= self.n <= self.p):
            raise UnsupportedSpecError(f"need m <= q and n <= p, got {self}")
        family_pdf = self.n == 0 and self.m == self.q
        family_cdf = self.n == 1 and self.m == self.q - 1
        if not (family_pdf or family_cdf):
            raise UnsupportedSpecError(
                f"G^{{{self.m},{self.n}}}_{{{self.p},{self.q}}} is outside the "
                "supported families (m=q, n=0) and (m=q-1, n=1)"
            )
        if self.p >= self.q:
            raise UnsupportedSpecError("need p < q for an entire expansion")

    @property
    def argument_sign(self):
        """Sign of the pFq argument: (-1)^(p - m - n)."""
        return -1.0 if (self.p - self.m - self.n) % 2 else 1.0


@dataclass(frozen=True)
class SlaterTerm:
    exponent: float
    coefficient: float
    a_params: tuple
    b_params: tuple
    index: int = 0


@dataclass(frozen=True)
class SlaterExpansion:
    terms: tuple
    argument_sign: float
    spec: "MeijerGSpec | None" = None


def _degenerate_pairs(values):
    """Indices (i, j) among `values` whose difference is ~an integer."""
    pairs = []
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            d = values[i] - values[j]
            if abs(d - round(d)) <= _DEGENERACY_TOL * (1.0 + abs(d)):
                pairs.append((i, j))
    return pairs


def build_slater_expansion(spec: MeijerGSpec) -> SlaterExpansion:
    """Residue expansion of a supported Meijer G into pFq series.

    One term per lower parameter b_h with h <= m.  Coefficients are finite
    products and ratios of gamma values; reciprocal gammas absorb the poles
    of denominator factors (a zero coefficient, not an error).  Raises
    DegenerateParametersError when two of b_1..b_m are integer-separated.
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    b_main = spec.b[:m]
    if _degenerate_pairs(b_main):
        raise DegenerateParametersError(
            f"lower parameters {b_main} contain an integer-separated pair"
        )
    terms = []
    for h in range(m):
        bh = spec.b[h]
        coeff = 1.0
        for j in range(m):
            if j != h:
                d = spec.b[j] - bh
                if d <= 0 and abs(d - round(d)) < _DEGENERACY_TOL:
                    raise DegenerateParametersError(
                        f"pole in coefficient gamma({d}) for term {h}"
                    )
                coeff *= float(sp.gamma(d))
        for j in range(n):
            u = 1.0 + bh - spec.a[j]
            if u <= 0 and abs(u - round(u)) < _DEGENERACY_TOL:
                raise DegenerateParametersError(
                    f"pole in coefficient gamma({u}) for term {h}"
                )
            coeff *= float(sp.gamma(u))
        for j in range(n, p):
            coeff *= float(sp.rgamma(spec.a[j] - bh))
        for j in range(m, q):
            coeff *= float(sp.rgamma(1.0 + bh - spec.b[j]))
        a_params = tuple(1.0 + bh - aj for aj in spec.a)
        b_params = tuple(1.0 + bh - spec.b[j] for j in range(q) if j != h)
        terms.append(SlaterTerm(bh, coeff, a_params, b_params, h))
    return SlaterExpansion(tuple(terms), spec.argument_sign, spec)


def _eval_expansion_double(expansion: SlaterExpansion, x, tol=1e-13):
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    peak_all = np.zeros_like(x)
    logx = np.log(x)
    for t in expansion.terms:
        if t.coefficient == 0.0:
            continue
        series, peak, converged, n_terms = _pfq_series(
            t.a_params, t.b_params, expansion.argument_sign * x, tol
        )
        if not np.all(converged):
            idx = int(np.argmin(converged))
            raise SeriesOverflowError(
                f"Slater term with exponent {t.exponent} did not converge "
                f"(argument {expansion.argument_sign * x[idx]:g})",
                terms=n_terms,
            )
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.exp(t.exponent * logx)
            contrib = t.coefficient * power * series
            total += contrib
            np.maximum(peak_all, np.abs(t.coefficient) * power * peak, out=peak_all)
            np.maximum(peak_all, np.abs(contrib), out=peak_all)
    return total, peak_all * _TERM_EPS


@lru_cache(maxsize=4096)
def _dd_term_parts(spec: MeijerGSpec, h: int):
    """Double-double coefficient and pFq parameters of one Slater term."""
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    bh = spec.b[h]
    coeff = (1.0, 0.0)
    for j in range(m):
        if j != h:
            coeff = _dd.mul(coeff, _dd.gamma(_dd.two_sum(spec.b[j], -bh)))
    for j in range(n):
        arg = _dd.add(_dd.two_sum(1.0, bh), (-spec.a[j], 0.0))
        coeff = _dd.mul(coeff, _dd.gamma(arg))
    for j in range(n, p):
        arg = _dd.two_sum(spec.a[j], -bh)
        try:
            coeff = _dd.mul(coeff, _dd.recip(_dd.gamma(arg)))
        except ZeroDivisionError:
            return (0.0, 0.0), (), ()
    for j in range(m, q):
        arg = _dd.add(_dd.two_sum(1.0, bh), (-spec.b[j], 0.0))
        try:
            coeff = _dd.mul(coeff, _dd.recip(_dd.gamma(arg)))
        except ZeroDivisionError:
            return (0.0, 0.0), (), ()
    a_params = tuple(
        _dd.add(_dd.two_sum(1.0, bh), (-aj, 0.0)) for aj in spec.a
    )
    b_params = tuple(
        _dd.add(_dd.two_sum(1.0, bh), (-spec.b[j], 0.0))
        for j in range(q) if j != h
    )
    return coeff, a_params, b_params


def _pfq_series_dd(a_params, b_params, z, tol, max_terms=_MAX_TERMS):
    """Double-double pFq series over the dd vector z = (hi, lo)."""
    shape = z[0].shape
    total = (np.ones(shape), np.zeros(shape))
    term = (np.ones(shape), np.zeros(shape))
    peak = np.ones(shape)
    small_runs = np.zeros(shape, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_terms):
            num = z
            for aj in a_params:
                num = _dd.mul(num, _dd.add(aj, (float(k), 0.0)))
            den = (float(k + 1), 0.0)
            for bj in b_params:
                den = _dd.mul(den, _dd.add(bj, (float(k), 0.0)))
            prev = np.abs(term[0])
            term = _dd.mul(term, _dd.div(num, den))
            total = _dd.add(total, term)
            np.maximum(peak, np.abs(term[0]), out=peak)
            small = np.abs(term[0]) <= tol * np.maximum(np.abs(total[0]), 1e-300)
            small &= np.abs(term[0]) <= prev
            dead = ~np.isfinite(term[0])
            small |= dead
            peak[dead] = np.inf
            small_runs = np.where(small, small_runs + 1, 0)
            if np.all(small_runs >= 3):
                return total, peak, True
    return total, peak, bool(np.all(small_runs >= 3))


def _eval_expansion_dd(expansion: SlaterExpansion, x):
    """Double-double evaluation of the expansion at x > 0 (array)."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    total = (np.zeros(shape), np.zeros(shape))
    peak_all = np.zeros(shape)
    sign = expansion.argument_sign
    z_dd = (sign * x, np.zeros(shape))
    for t in expansion.terms:
        coeff, a_params, b_params = _dd_term_parts(expansion.spec, t.index)
        if coeff[0] == 0.0:
            continue
        series, peak, converged = _pfq_series_dd(a_params, b_params, z_dd, 1e-31)
        if not converged:
            raise SeriesOverflowError(
                f"dd series for exponent {t.exponent} did not converge"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            power = _dd.pow_dd((x, np.zeros(shape)), t.exponent)
            contrib = _dd.mul(_dd.mul((np.full(shape, coeff[0]),
                                       np.full(shape, coeff[1])), power), series)
            total = _dd.add(total, contrib)
            np.maximum(peak_all, np.abs(coeff[0]) * power[0] * peak, out=peak_all)
            np.maximum(peak_all, np.abs(contrib[0]), out=peak_all)
    return total[0] + total[1], peak_all * _TERM_EPS_DD


def _eval_expansion(expansion: SlaterExpansion, x, tol=1e-13):
    """Evaluate a Slater expansion at x > 0 (array-valued).

    Returns (values, est_abs_err).  The error estimate tracks the largest
    intermediate magnitude: the expansion terms can exceed the result by many
    orders (they cancel), and every lost digit shows up here.  Elements whose
    double-precision estimate is too coarse are transparently re-evaluated in
    double-double arithmetic.
    """
    x = np.asarray(x, dtype=float)
    vals, est = _eval_expansion_double(expansion, x, tol)
    if expansion.spec is not None:
        weak = est > np.maximum(_ESCALATE_ABS, _ESCALATE_REL * np.abs(vals))
        if np.any(weak):
            vals = vals.copy()
            est = est.copy()
            vals_dd, est_dd = _eval_expansion_dd(expansion, x[weak])
            vals[weak] = vals_dd
            est[weak] = est_dd
    return vals, est


def _perturbation_offsets(b_main):
    """Symmetric offsets separating integer-colliding groups of b_1..b_m."""
    k = len(b_main)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, j) in _degenerate_pairs(b_main):
        parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    offsets = [0.0] * k
    for members in groups.values():
        if len(members) < 2:
            continue
        members.sort(key=lambda i: b_main[i])
        eps = _PERTURB_EPS * (1.0 + max(abs(b_main[i]) for i in members))
        g = len(members)
        for rank, i in enumerate(members):
            offsets[i] = (rank - (g - 1) / 2.0) * 2.0 * eps
    return offsets


def _perturbed_specs(spec: MeijerGSpec):
    """The Richardson ladder of perturbed specs: scales +1, -1, +2, -2."""
    offsets = _perturbation_offsets(spec.b[: spec.m])
    specs = []
    for scale in (+1.0, -1.0, +2.0, -2.0):
        b = list(spec.b)
        for i, off in enumerate(offsets):
            b[i] = b[i] + scale * off
        specs.append(
            MeijerGSpec(spec.m, spec.n, spec.p, spec.q, spec.a, tuple(b))
        )
    return specs


def _richardson(values, errors):
    """Combine the +-eps / +-2eps evaluations, cancelling the eps^2 bias.

    Returns (value, est_err): the symmetric means are even functions of the
    perturbation scale, so (4 g1 - g2) / 3 removes the quadratic term; the
    retained estimate combines the arithmetic estimates with a slice of the
    extrapolation step as a proxy for the quartic residual.
    """
    g1 = 0.5 * (values[0] + values[1])
    g2 = 0.5 * (values[2] + values[3])
    combined = (4.0 * g1 - g2) / 3.0
    step = np.abs(combined - g1)
    est = np.maximum.reduce(errors) + 1e-3 * step
    return combined, g1, g2, est


@dataclass(frozen=True)
class MeijerGValue:
    value: float
    accuracy: str  # "clean" | "perturbed"
    est_abs_err: float


def meijer_g(spec: MeijerGSpec, x, tol=1e-13):
    """Evaluate a supported Meijer G at x > 0.

    Primary path is the Slater expansion; integer-separated lower parameters
    trigger the symmetric epsilon-perturbation fallback (mean of the two
    perturbed evaluations, spread carried into the error estimate).  Raises
    AccuracyError when the two perturbed values disagree materially.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xx <= 0):
        raise DomainError("meijer_g requires x > 0")
    try:
        expansion = build_slater_expansion(spec)
    except DegenerateParametersError:
        evals = [_eval_expansion(build_slater_expansion(s), xx, tol)
                 for s in _perturbed_specs(spec)]
        vals, g1, g2, err = _richardson([e[0] for e in evals],
                                        [e[1] for e in evals])
        scale = np.maximum(np.abs(vals), 1e-300)
        bad = np.abs(g1 - g2) > 0.05 * scale + 1e-12
        if np.any(bad):
            idx = int(np.argmax(np.where(bad, np.abs(g1 - g2) / scale, 0.0)))
            raise AccuracyError(
                "epsilon-perturbation fallback did not stabilize "
                f"(x={xx[idx]:g})",
                value_plus=float(g1[idx]),
                value_minus=float(g2[idx]),
            )
        return MeijerGValue(vals if not scalar else float(vals[0]),
                            "perturbed", float(np.max(err)))
    vals, err = _eval_expansion(expansion, xx, tol)
    return MeijerGValue(vals if not scalar else float(vals[0]), "clean",
                        float(np.max(err)))

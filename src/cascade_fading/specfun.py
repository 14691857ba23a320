"""Special functions used by the product-channel statistics.

Gamma and erf come from the C library and the modified Bessel function K
from scipy, behind small validating wrappers; scipy.special is imported on
the first call that needs it, so that no recipe loads it.  A Meijer G
function is its Mellin-Barnes integral,

    G^{m,n}_{p,q}(x | a; b) = (1/(2 pi i)) int Phi(s) x^-s ds,
    Phi(s) = prod_{j<=m} Gamma(b_j+s) prod_{j<=n} Gamma(1-a_j-s)
             / (prod_{j>m} Gamma(1-b_j-s) prod_{j>n} Gamma(a_j+s)),

along a vertical line that separates the poles of Gamma(b_j+s) from those
of Gamma(1-a_j-s).  `meijer_g` accepts the two structural families the
product-channel closed forms use (m = q, n = 0 and m = q - 1, n = 1, both
with p < q).

Every Mellin-Barnes integral of the package has one kernel, `_GammaKernel`:
a product of Gamma(base + s) and Gamma(base - s) factors, in numerator or
denominator, times a power of a scale and pointing factors 1 / (xi + s).
Phi(s) is one; the Mellin transform E[Z^s] of the composite channel in
`distributions`, whose PDF and CDF are Meijer G functions, is another.  On
a vertical line it decays like exp(-pi |t| / 2) per net Gamma factor, so
the trapezoidal rule converges exponentially (Trefethen & Weideman, SIAM
Rev. 56, 2014), also after the change of variable t = w sinh(u).
`_mb_integral` is that rule, and the package's only quadrature, in three
stages: `_line_plan` places the line and sizes its nodes on Python floats
(digamma from `_psi`, two probe points on Stirling's series, `_lngamma_up`),
where numpy's per-call cost would dominate; `_line_nodes` takes a chunk of
nodes, a numpy array, on Lanczos's lnGamma (`_lngamma_parts`); `_line_sum`
sums them on the step and on twice the step, whose gap is the estimate.
`_pointwise` checks every point of a scalar or array argument and then
evaluates them one at a time, so the two agree bit for bit.

Slater's theorem (Gradshteyn & Ryzhik 9.303) writes the same G as a finite
sum of pFq series weighted by gamma ratios.  `build_slater_expansion` gives
those terms and `pfq` sums each series; no other evaluation in the package
runs on them (the small-x asymptote of the CDF in `distributions` takes its
residues as the difference of two line integrals of the Mellin transform).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
# parameters are treated as integer-separated: the Slater expansion refuses
# such pairs, and meijer_g flags them.
_DEGENERACY_TOL = 1e-6

_MAX_TERMS = 10_000

# Peak-magnitude multiplier converting the largest term of a pFq series into
# an absolute error estimate: the term recurrence accumulates rounding at a
# few hundred ulp over a long series in double precision.
_TERM_EPS = 1e-13

# The one refusal bound of a line integral, relative to its value: on its
# error estimate, the gap between the trapezoidal sums on steps h and 2h,
# and on the rounding error of its log integrand (see _line_plan).  The
# coarse sum is far less accurate than the returned fine one, so the
# estimate is conservative; tests pin the true accuracy against independent
# oracles.
_GUARD_REL = 3e-4

# Target size of the discretization and truncation errors of a line
# integral, relative to the integrand's peak on the line; the half-width of
# the trapezoidal rule's strip, as a fraction of the distance from the line
# to the nearest pole; the share of the integrand's fall up the line that
# its growth across it may take (see _line_plan); the node count beyond
# which an evaluation refuses; the iteration cap of the saddle search, and
# the Newton step, relative to 1 + |c|, that it takes as its last.
_MB_TOL = 1e-17
_MB_STRIP = 0.9
_MB_ANGLE = 0.9
_MB_MAX_NODES = 1 << 17
_SADDLE_ITERS = 100
_SADDLE_STEP = 1e-3

# Log of the integrand's peak on the line below which a line integral is
# zero in double precision.  The integrand is largest on the real axis (the
# premise of the node floor), so the integral is at most e^peak times a width
# below the largest double (for Z, two factors |Gamma(sigma + it)| <=
# Gamma(sigma) / sqrt(1 + t^2 / sigma^2) bound it by e^peak sigma_max / 2),
# and stays below 2^-1075 even after the density's division by x = 2^-1074.
_MB_LOG_ZERO = -2149 * math.log(2.0) - math.log(sys.float_info.max)


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class UnsupportedSpecError(ValueError):
    """Meijer G parameters outside the two supported structural families,
    or with no vertical line separating the poles."""


class DegenerateParametersError(ValueError):
    """Lower parameters separated by an integer: no simple-pole expansion."""


class AccuracyError(ArithmeticError):
    """Requested value could not be stabilized to a usable accuracy."""


class SeriesOverflowError(AccuracyError):
    """pFq series failed to converge within the term cap."""

    def __init__(self, message, terms=None, last_term=None):
        super().__init__(message)
        self.terms = terms
        self.last_term = last_term


def gamma_fn(x):
    """Gamma function for real x, poles rejected."""
    x = float(x)
    if x != x:
        raise DomainError("gamma_fn argument must not be NaN")
    if x <= 0 and x == math.floor(x):
        raise DomainError(f"gamma_fn pole at non-positive integer x={x}")
    return math.gamma(x)


def erf_fn(x):
    """Error function for real x."""
    x = float(x)
    if x != x:
        raise DomainError("erf_fn argument must not be NaN")
    return math.erf(x)


def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Symmetric in the order: K_nu = K_{-nu} is enforced by canonicalizing to
    |nu| so the identity holds bit-for-bit.
    """
    # imported here: scipy.special costs more import time than the rest of
    # the package, and no recipe needs it
    from scipy.special import kv

    nu, x = float(nu), float(x)
    if nu != nu or x != x:
        raise DomainError("bessel_k arguments must not be NaN")
    if x <= 0:
        raise DomainError(f"bessel_k requires x > 0, got x={x}")
    val = float(kv(abs(nu), x))
    if math.isinf(val):
        raise OverflowError(
            f"bessel_k(nu={nu}, x={x}) overflows double precision (positive)"
        )
    return val


def _pfq_series(a, b, z, tol, max_terms=_MAX_TERMS):
    """Sum the pFq series elementwise over the array z.

    Returns (values, peak, converged, terms): `peak` is the largest |term|
    met per element (for cancellation accounting), `converged` marks
    elements whose running term dropped below tol * |partial sum| while
    decreasing, for three terms in a row, and `terms` is the number of terms
    summed.
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
    for non-positive-integer lower parameters (poles of the series) and for
    NaN arguments.
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
    if np.isnan(zz).any() or any(v != v for v in a + b):
        raise DomainError("pfq arguments must not be NaN")
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


@dataclass(frozen=True)
class SlaterExpansion:
    terms: tuple
    argument_sign: float


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
    from scipy.special import gamma, rgamma  # imported here, as in bessel_k

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
            if j != h:  # no pole: the pairs are checked above
                coeff *= float(gamma(spec.b[j] - bh))
        for j in range(n):
            u = 1.0 + bh - spec.a[j]
            if u <= 0 and abs(u - round(u)) < _DEGENERACY_TOL:
                raise DegenerateParametersError(
                    f"pole in coefficient gamma({u}) for term {h}"
                )
            coeff *= float(gamma(u))
        for j in range(n, p):
            coeff *= float(rgamma(spec.a[j] - bh))
        for j in range(m, q):
            coeff *= float(rgamma(1.0 + bh - spec.b[j]))
        a_params = tuple(1.0 + bh - aj for aj in spec.a)
        b_params = tuple(1.0 + bh - spec.b[j] for j in range(q) if j != h)
        terms.append(SlaterTerm(bh, coeff, a_params, b_params))
    return SlaterExpansion(tuple(terms), spec.argument_sign)


def _psi_rows(rows, c, g=0.0):
    """(g + sum kg psi(b + sc c), sum k psi'(b + sc c)) over the rows
    (b, sc, kg, k) of real floats: digamma and trigamma summed in one loop.

    Below zero by reflection (DLMF 5.5.4 and its derivative) on x less its
    nearest integer, which keeps the digits of sin(pi x).  Up to x = 10 by
    the recurrence psi(x) = psi(x + 1) - 1/x, then by the asymptotic series
    in B_2k / x^2k (DLMF 5.11.2, 5.15.8) to k = 7: past x = 10 the first
    term left out is below 1e-15 of the value.  Raises ZeroDivisionError at
    the poles x = 0, -1, -2, ...
    """
    g2 = 0.0
    for b, sc, kg, k in rows:
        x = b + sc * c
        if x < 0.0:
            p, p1 = _psi(1.0 - x)
            t = math.pi * (x - round(x))
            sn = math.sin(t)
            p, p1 = p - math.pi * math.cos(t) / sn, (math.pi / sn) ** 2 - p1
        else:
            p = p1 = 0.0
            while x < 10.0:
                v = 1.0 / x
                p -= v
                p1 += v * v
                x += 1.0
            v = 1.0 / x
            z = v * v
            p += math.log(x) - 0.5 * v - z * (
                1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (
                    1 / 240 - z * (1 / 132 - z * (691 / 32760 - z / 12))))))
            p1 += v + 0.5 * z + v * z * (
                1 / 6 - z * (1 / 30 - z * (1 / 42 - z * (
                    1 / 30 - z * (5 / 66 - z * (691 / 2730 - z * 7 / 6))))))
        g += kg * p
        g2 += k * p1
    return g, g2


def _psi(x):
    """(digamma, trigamma) at the real float x (see _psi_rows)."""
    return _psi_rows(((x, 1.0, 1, 1),), 0.0)


# Lanczos's approximation (SIAM J. Numer. Anal. B 1, 1964) with g = 7 and
# nine terms: Gamma(z + 1) = sqrt(2 pi) t^(z + 1/2) e^-t A(z), t = z + 7.5,
# A(z) = p_0 + sum_k p_k / (z + k), k = 1..8.
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
# the columns k - 1 and p_k of the array form, p_k cast to complex once
_LANCZOS_K = np.arange(8.0)
_LANCZOS_P = np.array(_LANCZOS[1:], dtype=complex)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _lngamma_up(z):
    """Principal lnGamma at the Python complex z, Im z > 0, continuous in
    z and within 5e-8 + 1e-15 |lnGamma(z)| down to Im z = 1e-3.

    For Re z >= 0 it is Stirling's series to z^-5 (DLMF 5.11.1), after the
    recurrence lnGamma(z) = lnGamma(z + 1) - ln z has shifted z out to |z|
    >= 4, where the first term left out is below 4e-8.  Below it reflects
    (DLMF 5.5.3), lnGamma(z) = ln pi - ln sin(pi z) - lnGamma(1 - z), with
    ln sin(pi z) = -i pi z - ln 2 + i pi / 2 + ln(1 - e^(2 pi i z)), which
    is analytic on the upper half-plane (e^(2 pi i z) taken from Re z less
    its nearest integer), and lnGamma(1 - z) = conj lnGamma(1 - conj z).
    """
    if z.real < 0.0:
        e = cmath.exp(2j * math.pi * complex(z.real - round(z.real), z.imag))
        return (2.0 * _HALF_LOG_2PI + 1j * math.pi * (z - 0.5) - cmath.log(1.0 - e)
                - _lngamma_up(1.0 - z.conjugate()).conjugate())
    shift = 0.0
    while abs(z) < 4.0:
        shift += cmath.log(z)
        z += 1.0
    r = 1.0 / z
    r2 = r * r
    return ((z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI
            + r * (1 / 12 - r2 * (1 / 360 - r2 / 1260)) - shift)


def _lngamma_parts(zk, reflect):
    """(l, m) with lnGamma(z) = l + ln m - (z + 6.5) + ln(2 pi) / 2 modulo
    2 pi i, on the complex array z = zk[..., 0], given as its columns zk[...,
    k] = z + k, k = 0..7, of the Lanczos sum: Lanczos's form with its logs
    of the Lanczos sum and of the sine left in the factor m, which stays of
    modest size away from the poles (near 1 for large |z|), so that a
    product of m over many rows keeps its digits and needs no log.  The
    term linear in z is left to the caller, who sums it over rows in closed
    form.  Below Re z = 1/2 ln m leaves the principal branch, which the
    value of a product of m never sees, and m keeps its digits down to
    Re z = 0; only where `reflect` is true may z have elements with Re z <
    0, which reflect (DLMF 5.5.3), with sin(pi z) taken from Re z less its
    nearest integer and scaled by e^(-pi |Im z|), so that it keeps its
    digits near the poles and cannot overflow."""
    z = zk[..., 0]
    if reflect:
        refl = z.real < 0.0
        y = np.where(refl, 1.0 - z, z)
        l, m = _lngamma_parts(y[..., None] + _LANCZOS_K, False)
        x, v = z.real, z.imag
        n = np.rint(x)
        r = math.pi * (x - n)
        av = math.pi * np.abs(v)
        sn = (1.0 - 2.0 * np.mod(n, 2.0)) * (
            np.sin(r) * (0.5 + 0.5 * np.exp(-2.0 * av))
            + 1j * np.cos(r) * np.copysign(-0.5 * np.expm1(-2.0 * av), v))
        # ln pi - ln sin(pi z) - lnGamma(y), y = 1 - z, with the linear
        # terms (y + 6.5) + (z + 6.5) = 14 moved into l
        return (np.where(refl, _LOG_PI + 14.0 - 2.0 * _HALF_LOG_2PI - av - l, l),
                np.divide(1.0, sn * m, out=m, where=refl))
    return (z - 0.5) * np.log(z + 6.5), np.reciprocal(zk) @ _LANCZOS_P + _LANCZOS[0]


class _GammaKernel:
    """log K(s) = s log_scale + log_norm + sum_rows power lnGamma(base + sign s)
    - sum ln(xi + s), sign and power +-1: the integrand of every line
    integral, a Meijer G's Phi(s) and the Mellin transform E[Z^s] of the
    composite channel alike.  Rows are merged per distinct (base, sign),
    which identical links repeat, into `plus` (sign +1) and `minus` (sign
    -1) with their net powers.  lnGamma is taken once per distinct pair.
    On arrays it is gathered back to every row, so the sums and products
    over rows are those over all rows bit for bit; where every row is its
    own pair, as for channels without identical links, there is nothing to
    gather, and absent minus, denominator or pointing rows cost nothing.  At
    a point, and on the real slices, which run on floats, it enters once per
    pair times its net power.  Everything that does not depend on s or ln x
    is built here, once per kernel.  The kernel lists no poles: each caller
    of _mb_integral gives the edges of its strip, the poles that bound it.

    `fused`, which _line_nodes reads, takes K on an array, on the Lanczos
    lnGamma: the factors whose logs a sum of lnGamma values would add up
    (the rows' Lanczos sums, the pointing rows and a caller's factor) are
    multiplied into one array, which multiplies the exponential of the rest,
    the rows' (z - 1/2) ln(z + 6.5) and the terms linear in s of all rows,
    summed once, here; so no complex log is taken of the product only for
    the sum to exponentiate it again.  `log_probe`, which _line_plan reads
    with the real slices, takes it at one point above the real axis on
    Python complex numbers, on `_lngamma_up`, continuous along a horizontal
    segment and accurate to about 1e-7, which is all the rates that
    _line_plan reads off two such points need."""

    def __init__(self, rows, xis=(), log_scale=0.0):
        power = {}  # net power per (base, sign)
        for b, sign, pw in rows:
            power[b, sign] = power.get((b, sign), 0) + pw
        self.plus = [(b, k) for (b, sign), k in power.items() if sign > 0]
        self.minus = [(b, k) for (b, sign), k in power.items() if sign < 0]
        keys = [(b, 1) for b, _ in self.plus] + [(b, -1) for b, _ in self.minus]
        up = [keys.index((b, sign)) for b, sign, pw in rows if pw > 0]
        self.up = None if up == list(range(len(keys))) else up
        self.down = [keys.index((b, sign)) for b, sign, pw in rows if pw < 0]
        # the columns base + k - 1 of the Lanczos sum that fused adds s
        # to, and subtracts s from
        self.base = np.array([[[b]] for b, _ in self.plus]) + _LANCZOS_K
        self.mirror = np.array([[[b]] for b, _ in self.minus]) + _LANCZOS_K if self.minus else None
        self.xis = np.array(xis)
        self.xi_col = self.xis[:, None]
        self.pointing = tuple(xis)
        # slopes' rows (b, sign of c, power on psi, power on psi')
        self.psi_rows = ([(b, 1.0, k, k) for b, k in self.plus]
                         + [(b, -1.0, -k, k) for b, k in self.minus])
        self.log_scale, self.log_norm = log_scale, 0.0
        # |K(c + it)| falls like exp(-decay |t|), by pi / 2 per net Gamma
        self.decay = 0.5 * math.pi * sum(power.values())
        # the terms of fused linear in s, -(base + sign s + 6.5) +
        # ln(2 pi) / 2 per row and power, summed here
        self.fused_scale = log_scale - sum(pw * sign for (b, sign), pw in power.items())
        self.fused_norm = sum(pw * (_HALF_LOG_2PI - 6.5 - b) for (b, sign), pw in power.items())
        # where Re s keeps every Gamma argument in the right half-plane
        self.safe_lo = -min((b for b, _ in self.plus), default=-math.inf)
        self.safe_hi = min((b for b, _ in self.minus), default=math.inf)

    def log_probe(self, s):
        """log K at the Python complex s, Im s > 0, every log on its
        principal branch: lnGamma(b - s) of a minus row is the conjugate of
        lnGamma(b - conj s)."""
        v = s * self.log_scale + self.log_norm
        for b, k in self.plus:
            v += k * _lngamma_up(b + s)
        t = s.conjugate()
        for b, k in self.minus:
            v += k * _lngamma_up(b - t).conjugate()
        for xi in self.pointing:
            v -= cmath.log(xi + s)
        return v

    def fused(self, s, lx, factor, lo, hi, shift):
        """x^-s K(s) factor e^-shift, ln x = lx, on the complex array s with
        lo <= Re s <= hi: the exponential of the terms linear in s and of the
        rows' (z - 1/2) ln(z + 6.5), times the product of the rest (see the
        class docstring)."""
        col = s[:, None]
        zk = self.base + col
        if self.mirror is not None:
            zk = np.concatenate((zk, self.mirror - col))
        l, m = _lngamma_parts(zk, lo < self.safe_lo or hi > self.safe_hi)
        lg = np.add.reduce(l if self.up is None else l[self.up], axis=0,
                           initial=self.log_norm + self.fused_norm - shift)
        prod = np.multiply.reduce(m if self.up is None else m[self.up], axis=0) * factor
        if self.down:
            lg = lg - np.add.reduce(l[self.down], axis=0)
            prod = prod / np.multiply.reduce(m[self.down], axis=0)
        if self.pointing:
            prod = prod / np.multiply.reduce(self.xi_col + s, axis=0)
        return np.exp(s * (self.fused_scale - lx) + lg) * prod

    def start(self, lx, lo, hi, c, pole):
        """Where the saddle search on (lo, hi) starts: at c, the start its
        caller gives."""
        return c

    def log_size(self, c, lx, pole):
        """log of the real integrand |x^-c K(c)| (over |c| when pole)."""
        return self.log_size_bulk(c, lx, pole)[0]

    def log_size_bulk(self, c, lx, pole):
        """log_size at c, and the sum of the magnitudes of the terms it adds:
        eps times that bounds its rounding error."""
        t = c * (self.log_scale - lx)
        v, m = t + self.log_norm, abs(t) + abs(self.log_norm)
        for b, k in self.plus:
            t = k * math.lgamma(b + c)
            v, m = v + t, m + abs(t)
        for b, k in self.minus:
            t = k * math.lgamma(b - c)
            v, m = v + t, m + abs(t)
        for xi in self.pointing:
            t = math.log(abs(xi + c))
            v, m = v - t, m + abs(t)
        if pole:
            t = math.log(abs(c))
            v, m = v - t, m + abs(t)
        return v, m

    def slopes(self, c, lx, pole):
        """First and second derivative of log_size in c."""
        g, g2 = _psi_rows(self.psi_rows, c, self.log_scale - lx)
        for xi in self.pointing:
            v = 1.0 / (xi + c)
            g -= v
            g2 += v * v
        if pole:
            g, g2 = g - 1.0 / c, g2 + 1.0 / (c * c)
        return g, g2


def _meijer_kernel(spec: MeijerGSpec):
    """Phi(s) of a Meijer G: Gamma(b_j + s), j <= m, and Gamma(1 - a_j - s),
    j <= n, over Gamma(1 - b_j - s), j > m, and Gamma(a_j + s), j > n."""
    m, n = spec.m, spec.n
    return _GammaKernel([(b, 1.0, 1) for b in spec.b[:m]]
                        + [(1.0 - a, -1.0, 1) for a in spec.a[:n]]
                        + [(1.0 - b, -1.0, -1) for b in spec.b[m:]]
                        + [(a, 1.0, -1) for a in spec.a[n:]])


def _pointwise(at, x, allow_zero=False):
    """at(v) at each point v of x, all checked to be positive (or zero, when
    allowed) first: a float for a scalar x, otherwise an array of the shape
    of x.  A Python or numpy float, or an int, is one point and builds no
    array."""
    if isinstance(x, (float, int)):
        v = float(x)
        _check_point(v, allow_zero)
        return float(at(v))
    xx = np.asarray(x, dtype=float)
    points = xx.ravel().tolist()
    for v in points:
        _check_point(v, allow_zero)
    out = [at(v) for v in points]
    return float(out[0]) if xx.ndim == 0 else np.array(out).reshape(xx.shape)


def _check_point(v, allow_zero):
    if not (v >= 0.0 if allow_zero else v > 0.0):
        raise DomainError("argument must not be NaN" if v != v
                          else "argument must be positive")


def _saddle(kern, lx, lo, hi, c, pole):
    """Minimum of the convex log_size on (lo, hi) by safeguarded Newton,
    with the curvature there.

    The search starts where the kernel puts it (`start`, from the caller's
    c).  The edges are poles, where the slope g runs off like -k / (c - lo)
    and k / (hi - c).  Each step is Newton's on g times the distance to the
    edge beyond the minimum, a product that pole leaves near linear; near
    the minimum g vanishes and the step is plain Newton's.  Where hi is
    infinite the slope is concave, so steps from the left of the minimum
    stay left of it.  Any step leaving the bracket is replaced by
    bisection.  A step below _SADDLE_STEP (1 + |c|) is the last: it is
    taken if it stays in the bracket, unchecked, with the curvature of the
    point it starts from (the line only has to sit near the saddle, and
    Newton's error after it is of the order of its square).  A slope or
    curvature that is not finite ends the search with curvature NaN.
    """
    left, right = lo, hi
    c = kern.start(lx, lo, hi, c, pole)
    for _ in range(_SADDLE_ITERS):
        g, g2 = kern.slopes(c, lx, pole)
        if not (math.isfinite(g) and math.isfinite(g2)):
            return c, math.nan
        if g < 0.0:
            lo = c
        else:
            hi = c
        # Newton on (c - left) g where g > 0, on (right - c) g where g < 0
        nxt = c - g / (g2 + max(g / (c - left), -g / (right - c)))
        inside = lo < nxt < hi
        if abs(nxt - c) <= _SADDLE_STEP * (1.0 + abs(c)):
            return (nxt if inside else c), g2
        c = nxt if inside else 0.5 * (lo + hi)
    return c, g2


# A line as _line_plan places it (see there); n is the first chunk's length, 0 for none
_LinePlan = NamedTuple("_LinePlan", [
    ("lx", float), ("c", float), ("pole", bool), ("peak", float), ("a", float),
    ("eta", float), ("w", float), ("h", float), ("edge", float), ("n", int)])


def _line_plan(kern, lx, lo, hi, c, pole):
    """The _LinePlan of _mb_integral's line in the strip lo < Re s < hi at
    ln x = lx, on floats.  The strip's finite edges are the poles nearest
    the line; it may lie left of other Gamma poles, as the remainder line of
    z_cdf_asymptotic does.  Where the saddle search meets a pole of the real
    slice, or no minimum, the plan refuses.  It depends on (kernel, lx)
    alone, so scalar and array callers agree bit for bit.  The peak's log
    carries a rounding error of about eps times the sum of the magnitudes of
    its terms (log_size_bulk), a relative error of the value.  Where the peak
    plus that error proves the value zero in double precision
    (_MB_LOG_ZERO), the plan has no nodes; elsewhere, where that error
    exceeds _GUARD_REL, it refuses.

    The rule is the trapezoidal one in u, with t = w sinh(u): steps as fine
    as a uniform rule's across the peak at t = 0, growing geometrically
    along the shoulder, where the integrand near a pole falls like 1/t
    before its exponential decay sets in.  The strip |Im u| < eta maps onto
    a hyperbolic region that meets the real axis exactly on [c - a, c + a]
    (w = a / sin eta), so the pole-free strip and the edge bound of a
    uniform rule carry over with the step h = 2 pi eta / (edge - peak +
    budget).  The region opens with height: at Im s = t its edge lies
    sqrt(a^2 + t^2 tan^2 eta) off the line, where x^-s M(s) grows at the
    rate rise = d/dc log|integrand| and falls at the rate fall = -d/dt
    log|integrand|.  Both are read off one complex difference of log_probe
    across the strip at the height T where `decay` has spent the error
    budget, and so is the average fall below it, avg = (peak -
    log|integrand(c + iT)|) / T.

    The angle follows from the strip bound.  Above the height where the
    line itself has fallen by the budget the line bounds the error; below
    it the edge must stay under the bound on the real axis, so the growth
    across, about rise t tan eta, may not exceed the line's fall up to t.
    Where the fall is fastest first (the 1/t shoulder next to a pole) that
    fall is at least t avg up to T, and past T it grows at about the rate
    fall: tan eta = sigma min(fall, avg) / rise.  The share sigma =
    _MB_ANGLE = 0.9 leaves a tenth of the fall for the weight |cosh u|, which
    grows along the edge by ln(T tan eta / a) more than on the line: about
    3 on the deep outage tail, where the line falls by about 30 up to T.
    Where the fall grows with height instead (a Gaussian peak, avg = fall /
    2), the growth across is quadratic in the offset and stays bounded
    along the edge for eta < pi/4, which tan eta = fall / (2 rise) keeps;
    the angle is the wider of the two, that one alone where avg is not
    positive or NaN.  The ratio is over max(rise, fall), so tan eta is at
    most _MB_ANGLE.

    Past the peak log|integrand| falls almost linearly in t.  The first
    chunk reaches two nodes past where it crosses the floor on the line
    through its value at height T, weight ln(1 + (t / w)^2) / 2 included, at
    the fall rate there (min(cap, .) also absorbs a NaN or infinite reach).
    """
    try:
        c, curv = _saddle(kern, lx, lo, hi, c, pole)
        peak, bulk = kern.log_size_bulk(c, lx, pole)
        if not curv > 0.0:
            raise ValueError("no minimum")
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        # a pole of digamma or lnGamma met by the search, or an overflowing lnGamma
        raise AccuracyError(
            f"Mellin-Barnes integrand has no saddle on a line (ln x = {lx:.6g})") from exc
    r = sys.float_info.epsilon * bulk
    if peak + r < _MB_LOG_ZERO:
        # Far out the saddle line has no digits left to size a step from,
        # and the value is zero anyway: no nodes
        return _LinePlan(lx, c, pole, peak, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    if not r <= _GUARD_REL:
        raise AccuracyError(
            f"Mellin-Barnes integrand keeps no digits on its line (ln x = {lx:.6g}): "
            f"its log carries a rounding error of {r:.1e}")
    # The node count grows like (edge - peak + budget) / eta.  Any a short
    # of the nearest pole is valid, and edge - peak grows only like
    # ln(1 / (1 - a / d)) at distance d, so a reaches _MB_STRIP of the way to
    # the pole, but no wider than where the bound grows by 1/_MB_TOL through
    # the curvature at the saddle (wider strips only lengthen the sum).
    budget = 1.0 - math.log(_MB_TOL)
    width = math.sqrt(2.0 * budget / curv)
    a = min(_MB_STRIP * min(c - lo, hi - c), width)
    # across the strip at height T the real part of the change of the log
    # is the growth across the line, the imaginary part (Cauchy-Riemann) the
    # fall up it over the same distance: every log on its principal branch
    top = width + budget / kern.decay
    s2, s3 = complex(c - a, top), complex(c + a, top)
    try:
        e0, e1 = kern.log_size(c - a, lx, pole), kern.log_size(c + a, lx, pole)
        v2 = kern.log_probe(s2) - s2 * lx
        v3 = kern.log_probe(s3) - s3 * lx
        if pole:
            v2, v3 = v2 - cmath.log(s2), v3 - cmath.log(s3)
    except (ZeroDivisionError, ValueError) as exc:
        # a zero of the integrand (a pole of a denominator's Gamma) at c -+ a
        raise AccuracyError(
            f"Mellin-Barnes integrand vanishes on its strip (ln x = {lx:.6g})") from exc
    # the larger of the two, NaN if either is
    edge = e0 if e0 >= e1 or e0 != e0 else e1
    step = v3 - v2
    rise, fall = abs(step.real), step.imag
    if not fall > 0.0:
        raise AccuracyError(
            f"Mellin-Barnes integrand does not decay up the line (ln x = {lx:.6g})")
    # the average fall from the peak up to height T, per distance 2a as the
    # rates above
    avg = (peak - 0.5 * (v2.real + v3.real)) * 2.0 * a / top
    spend = max(0.5 * fall, _MB_ANGLE * min(fall, avg)) if avg > 0.0 else 0.5 * fall
    eta = math.atan(spend / max(rise, fall))
    w = a / math.sin(eta)
    h = 2.0 * math.pi * eta / (edge - peak + budget)
    floor = peak + math.log(_MB_TOL)
    at_top = 0.5 * (v2.real + v3.real + math.log1p((top / w) ** 2))
    reach = math.asinh(max(top + (at_top - floor) * 2.0 * a / fall, 0.0) / w)
    return _LinePlan(lx, c, pole, peak, a, eta, w, h, edge, int(min(_MB_MAX_NODES, reach / h)) + 3)


def _line_nodes(kern, plan, k0, n):
    """The integrand on the nodes u = k h, k0 <= k < k0 + n, of the plan's
    line, scaled by e^-peak, times the weight dt/du = w cosh(u) less its
    factor w, which the sum's scale takes."""
    u = plan.h * np.arange(k0, k0 + n)
    s = 1j * plan.w * np.sinh(u) + plan.c
    weight = np.cosh(u)
    return kern.fused(s, plan.lx, weight / s if plan.pole else weight, plan.c, plan.c, plan.peak)


def _line_sum(plan, values, lead):
    """(value, error estimate) times e^lead from the node chunks `values`,
    cut at the floor: the trapezoidal sum on the step h and its gap to the
    sum on 2h; no chunks sum to zero, signed as the integrand at the peak.
    e^lead enters the log of the scale, so a value it brings back from below
    the smallest double keeps its digits; beyond the largest it refuses."""
    if not values:
        return (math.copysign(0.0, plan.c) if plan.pole else 0.0), 0.0
    re = (values[0] if len(values) == 1 else np.concatenate(values)).real
    head = 0.5 * re.item(0)
    fine = head + float(np.add.reduce(re[1:]))
    coarse = 2.0 * (head + float(np.add.reduce(re[2::2])))
    step = plan.h * plan.w / math.pi
    try:
        scale = step * math.exp(plan.peak + lead)
    except OverflowError:
        # e^(peak + lead) alone passes the largest double, but times the
        # small h w / pi the value may not: take it in two halves
        try:
            half = math.exp(0.5 * (plan.peak + lead))
        except OverflowError:
            half = math.inf
        value, err = half * (step * fine) * half, half * (step * abs(fine - coarse)) * half
        if not (math.isfinite(value) and math.isfinite(err)):
            raise AccuracyError(
                f"Mellin-Barnes integral overflows a double (ln x = {plan.lx:.6g})") from None
        return value, err
    return scale * fine, scale * abs(fine - coarse)


def _mb_integral(kern, lx, lo, hi, c, pole, lead=0.0):
    """e^lead / pi int_0^inf Re[x^-s M(s) / s^pole] dt on a vertical line in
    the pole-free strip lo < Re s < hi, at ln x = lx: (value, error
    estimate).  |integrand| decreases in |t|: chunks of nodes, the plan's
    first, then each twice the last, are added until it drops below the
    floor, _MB_TOL of the peak, up to _MB_MAX_NODES nodes.  The sum stops at
    the first node there, so the chunking never changes the value."""
    plan = _line_plan(kern, lx, lo, hi, c, pole)
    chunks, k0, n = [], 0, plan.n
    while n:
        n = min(n, _MB_MAX_NODES - k0)
        v = _line_nodes(kern, plan, k0, n)
        below = np.abs(v) < _MB_TOL  # the floor, on nodes scaled by e^-peak
        if not k0:
            below[0] = False  # node 0 is the peak itself
        cut = below.argmax()  # the first node below the floor, or 0 for none
        if cut or below[0]:
            chunks.append(v[:cut])
            break
        chunks.append(v)
        k0 += n
        if k0 >= _MB_MAX_NODES:
            raise AccuracyError(
                f"Mellin-Barnes integral needs more than {_MB_MAX_NODES} nodes "
                f"(ln x = {lx:.6g})")
        n *= 2
    return _line_sum(plan, chunks, lead)


@dataclass(frozen=True)
class MeijerGValue:
    value: float
    accuracy: str  # "clean" | "perturbed"
    est_abs_err: float


def meijer_g(spec: MeijerGSpec, x):
    """Evaluate a supported Meijer G at x > 0 (scalar or array).

    The Mellin-Barnes integral is summed on the saddle line of the strip
    -min(b_1..b_m) < Re s < 1 - a_1 (no right edge when n = 0), by the same
    trapezoidal rule as z_cdf and z_pdf; `est_abs_err` is the largest gap
    between the sums on steps h and 2h.  `accuracy` is "perturbed" when two
    of b_1..b_m are integer-separated, a case the line needs no special
    treatment for.  Raises DomainError unless x is positive and finite,
    UnsupportedSpecError when no vertical line separates the poles
    (a_1 - 1 >= min(b_1..b_m)), and AccuracyError when an error estimate
    exceeds 3e-4 of |G|, or is 0 for a nonzero G (it has underflowed).
    """
    x = _pointwise(_finite, x)  # every point is checked before any is evaluated
    lo = -min(spec.b[:spec.m])
    hi = 1.0 - spec.a[0] if spec.n else math.inf
    if not lo < hi:
        raise UnsupportedSpecError(
            f"no vertical line separates the poles of {spec}: "
            "a_1 - 1 >= min(b_1..b_m)")
    kern = _meijer_kernel(spec)
    c = 0.5 * (lo + hi) if spec.n else lo + 1.0
    errs = [0.0]

    def at(v):
        val, err = _mb_integral(kern, math.log(v), lo, hi, c, False)
        # an estimate that underflowed to 0 bounds nothing
        if not (err <= _GUARD_REL * abs(val) and (err > 0.0 or val == 0.0)):
            raise AccuracyError(
                f"Meijer G evaluation lost too much precision at x={v:g} "
                f"(value ~ {val:.6e}, error estimate {err:.1e})")
        errs.append(err)
        return val

    value = _pointwise(at, x)
    accuracy = "perturbed" if _degenerate_pairs(spec.b[:spec.m]) else "clean"
    return MeijerGValue(value, accuracy, max(errs))


def _finite(v):
    if v == math.inf:
        raise DomainError("meijer_g requires finite x")
    return v

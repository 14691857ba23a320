"""Special functions used by the product-channel statistics.

Gamma and erf come from the C library and the modified Bessel function K
from scipy, behind small validating wrappers.  A Meijer G function is its
Mellin-Barnes integral,

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
`_mb_integral` is that rule: the line sits at the saddle of the real
integrand, the step follows from the pole-free strip around it, the map's
angle from how fast the integrand grows across the line against how fast it
falls up it, and the sum on twice the step, taken from the same nodes,
gives the error estimate.  The saddle search runs on Python floats, with
the C library's lnGamma and the digamma and trigamma written here (`_psi`),
from a start the kernel gives (for Z the saddle of its lognormal model) to
its first Newton step below 1e-3; from scipy.special the line takes only
the complex lnGamma.  Numpy holds only the node arrays and their sums; the
rest of a call runs on Python floats, where numpy's per-call cost would
dominate at these sizes.
`_pointwise` checks every point of a scalar or array argument and then
evaluates them one at a time, so the two agree bit for bit.

Slater's theorem (Gradshteyn & Ryzhik 9.303) writes the same G as a finite
sum of pFq series weighted by gamma ratios.  `build_slater_expansion` gives
those terms and `pfq` sums each series; no other evaluation in the package
runs on them (the small-x asymptote of the CDF takes its residues from the
Mellin transform in `distributions`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

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

# Refusal guard on the error estimate of a line integral, the gap between
# the trapezoidal sums on steps h and 2h, relative to the value.  The coarse
# sum is far less accurate than the returned fine one, so the estimate is
# conservative; tests pin the true accuracy against independent oracles.
_GUARD_REL = 3e-4

# Target size of the discretization and truncation errors of a line
# integral, relative to the integrand's peak on the line; the half-width of
# the trapezoidal rule's strip, as a fraction of the distance from the line
# to the nearest pole; the share of the integrand's fall up the line that
# its growth across the line may take along the edge of the sinh-mapped
# strip (tan eta = _MB_ANGLE * fall / rise); the node count beyond which an
# evaluation refuses; the iteration cap of the saddle search, and the Newton
# step, relative to 1 + |c|, that it takes as its last.
_MB_TOL = 1e-17
_MB_STRIP = 0.9
_MB_ANGLE = 0.5
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
                coeff *= float(sp.gamma(spec.b[j] - bh))
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


class _GammaKernel:
    """log K(s) = s log_scale + log_norm + sum_rows power lnGamma(base + sign s)
    - sum ln(xi + s), sign and power +-1: the integrand that _mb_integral
    sums, a Meijer G's Phi(s) and the Mellin transform E[Z^s] of the
    composite channel alike.  Rows are merged per distinct (base, sign),
    which identical links repeat, into `plus` (sign +1) and `minus` (sign
    -1) with their net powers.  Complex lnGamma is taken once per distinct
    pair and gathered back to every row, so the sum over rows is that over
    all rows bit for bit; where every row is its own pair, as for channels
    without identical links, there is nothing to gather, and absent minus,
    denominator or pointing rows cost nothing.  The real slices run on
    floats, once per pair times its net power.  Everything that does not
    depend on s or ln x is built here, once per kernel."""

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
        # the columns that log_moment adds s to, and subtracts s from
        self.base = np.array([[b] for b, _ in self.plus])
        self.mirror = np.array([[b] for b, _ in self.minus]) if self.minus else None
        self.xis = np.array(xis)
        self.xi_col = self.xis[:, None]
        self.pointing = tuple(xis)
        # slopes' rows (b, sign of c, power on psi, power on psi')
        self.psi_rows = ([(b, 1.0, k, k) for b, k in self.plus]
                         + [(b, -1.0, -k, k) for b, k in self.minus])
        self.log_scale, self.log_norm = log_scale, 0.0
        # the poles next to the strip: those of the numerator's Gammas and of
        # 1 / (xi + s); |K(c + it)| falls like exp(-decay |t|), by pi / 2 per
        # net Gamma
        self.pole_list = ([-b for b, k in self.plus if k > 0]
                          + [b for b, k in self.minus if k > 0] + [-xi for xi in xis])
        self.poles = np.array(self.pole_list)
        self.decay = 0.5 * math.pi * sum(power.values())

    def log_moment(self, s):
        """log K on the complex array s."""
        lg = sp.loggamma(self.base + s)
        if self.minus:
            lg = np.concatenate((lg, sp.loggamma(self.mirror - s)))
        out = s * self.log_scale + self.log_norm + np.add.reduce(
            lg if self.up is None else lg[self.up], axis=0)
        if self.down:
            out = out - np.add.reduce(lg[self.down], axis=0)
        if self.pointing:
            out = out - np.add.reduce(np.log(self.xi_col + s), axis=0)
        return out

    def start(self, lx, lo, hi, c, pole):
        """Where the saddle search on (lo, hi) starts: at c, the start its
        caller gives."""
        return c

    def log_size(self, c, lx, pole):
        """log of the real integrand x^-c K(c) (over |c| when pole)."""
        v = c * (self.log_scale - lx) + self.log_norm
        for b, k in self.plus:
            v += k * math.lgamma(b + c)
        for b, k in self.minus:
            v += k * math.lgamma(b - c)
        for xi in self.pointing:
            v -= math.log(xi + c)
        return v - math.log(abs(c)) if pole else v

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
    curvature that is not finite raises AccuracyError.
    """
    left, right = lo, hi
    c = kern.start(lx, lo, hi, c, pole)
    for _ in range(_SADDLE_ITERS):
        g, g2 = kern.slopes(c, lx, pole)
        if not (math.isfinite(g) and math.isfinite(g2)):
            raise AccuracyError(
                f"Mellin-Barnes integrand has no saddle on a line (ln x = {lx:.6g})")
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


def _mb_integral(kern, lx, lo, hi, c, pole, lead=0.0):
    """e^lead / pi int_0^inf Re[x^-s M(s) / s^pole] dt on a vertical line in
    the pole-free strip lo < Re s < hi, at ln x = lx: (value, error
    estimate).  The factor e^lead enters the log of the scale before it is
    exponentiated, so a value it brings back from below the smallest double
    keeps its digits.

    The _GammaKernel gives log M on complex arrays (`log_moment`), the real
    slice log(x^-c M(c) / |c|^pole) and its first two derivatives in c on
    floats (`log_size`, `slopes`), the poles next to the strip (`poles`), the
    rate at which |M(c + it)| falls in |t| far up the line (`decay`), and
    where in the strip the saddle search starts (`start`, from c).  Where
    the search meets a pole of the real slice, or no minimum, the call
    refuses.  Every quantity depends on (kernel, lx) alone, so scalar and
    array callers agree bit for bit.  Where the peak on
    the line proves the value zero in double precision (_MB_LOG_ZERO), it is
    returned without nodes.

    The rule is the trapezoidal one in u, with t = w sinh(u): steps as fine
    as a uniform rule's across the peak at t = 0, growing geometrically
    along the shoulder, where the integrand near a pole falls like 1/t
    before its exponential decay sets in.  The strip |Im u| < eta maps onto
    a hyperbolic region that meets the real axis exactly on [c - a, c + a]
    (w = a / sin eta), so the pole-free strip and the edge bound of a
    uniform rule carry over with the step h = 2 pi eta / (edge - peak +
    budget).  The region opens with height: at Im s = T its edge lies
    sqrt(a^2 + T^2 tan^2 eta) off the line, where x^-s M(s) grows at the
    rate d/dc log|integrand| and falls at the rate -d/dt log|integrand|.  Both
    are read off one complex difference of log_moment across the strip at
    the height where `decay` has spent the error budget, and tan eta is
    _MB_ANGLE times their ratio, at most _MB_ANGLE (beyond eta = pi/4 a
    Gaussian peak grows along the edge).
    """
    try:
        c, curv = _saddle(kern, lx, lo, hi, c, pole)
        peak = kern.log_size(c, lx, pole)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        # a pole of digamma or lnGamma met by the search, or lnGamma beyond
        # the largest double
        raise AccuracyError(
            f"Mellin-Barnes integrand has no saddle on a line (ln x = {lx:.6g})"
        ) from exc
    if not curv > 0.0:
        raise AccuracyError(
            f"Mellin-Barnes integrand has no saddle on a line (ln x = {lx:.6g})")
    if peak < _MB_LOG_ZERO:
        # Far out the saddle line has no digits left to size a step from,
        # and the value is zero anyway: signed as the integrand at the peak.
        return (math.copysign(0.0, c) if pole else 0.0), 0.0
    near = min(abs(c - p) for p in kern.pole_list)
    if pole:
        near = min(near, abs(c))

    def log_integrand(s):
        logv = kern.log_moment(s) - s * lx
        return logv - np.log(s) if pole else logv

    # The integrand is analytic in the region and bounded there by its real
    # value at c +- a, so the discretization error falls like
    # exp(-2 pi eta / h) times that bound; the node count grows like
    # (edge - peak + budget) / eta.  Any a short of the nearest pole is
    # valid, and edge - peak grows only like ln(1 / (1 - a / d)) at distance
    # d, so a reaches _MB_STRIP of the way to the pole.  It grows no wider
    # than where the bound grows by 1/_MB_TOL through the curvature at the
    # saddle (wider strips only lengthen the sum).
    budget = 1.0 - math.log(_MB_TOL)
    width = math.sqrt(2.0 * budget / curv)
    a = min(_MB_STRIP * near, width)
    # the integrand at c -+ a on the real axis and at the height T where
    # `decay` has spent the budget: across the strip at height T the real
    # part of the change of its log is the growth across the line, the
    # imaginary part (Cauchy-Riemann) the fall up it over the same distance
    top = width + budget / kern.decay
    v0, v1, v2, v3 = log_integrand(
        np.array([c - a, c + a, c - a + 1j * top, c + a + 1j * top])).tolist()
    # the larger real part, NaN if either is (as numpy's max)
    edge = v0.real if v0.real >= v1.real or v0.real != v0.real else v1.real
    step = v3 - v2
    rise, fall = abs(step.real), step.imag
    if not fall > 0.0:
        raise AccuracyError(
            f"Mellin-Barnes integrand does not decay up the line (ln x = {lx:.6g})")
    eta = math.atan(_MB_ANGLE * fall / max(rise, fall))
    w = a / math.sin(eta)
    h = 2.0 * math.pi * eta / (edge - peak + budget)
    # |integrand| decreases in |t|: add nodes until it drops below the floor.
    # Past the peak log|integrand| falls almost linearly in t.  The first
    # chunk reaches two nodes past where it crosses the floor on the line
    # through its value at height T, weight log cosh(u) = ln(1 + (t / w)^2)
    # / 2 included, at the fall rate there (min(cap, .) also absorbs a NaN
    # or infinite reach); a chunk that falls short is followed by one twice
    # its size.  The sum stops at the first node below the floor, so the
    # chunking never changes the value.
    floor = peak + math.log(_MB_TOL)
    at_top = 0.5 * (v2.real + v3.real + math.log1p((top / w) ** 2))
    reach = math.asinh(max(top + (at_top - floor) * 2.0 * a / fall, 0.0) / w)
    chunks, k0 = [], 0
    n = int(min(_MB_MAX_NODES, reach / h)) + 3
    while True:
        n = min(n, _MB_MAX_NODES - k0)
        u = h * np.arange(k0, k0 + n)
        # the weight dt/du = w cosh(u), its factor w taken out into the scale
        logv = log_integrand(c + 1j * (w * np.sinh(u))) + np.log(np.cosh(u))
        below = logv.real < floor
        if not k0:
            below[0] = False  # node 0 is the peak itself
        cut = below.argmax()  # the first node below the floor, or 0 for none
        if cut or below[0]:
            chunks.append(logv[:cut])
            break
        chunks.append(logv)
        k0 += n
        if k0 >= _MB_MAX_NODES:
            raise AccuracyError(
                f"Mellin-Barnes integral needs more than {_MB_MAX_NODES} nodes "
                f"(ln x = {lx:.6g})")
        n *= 2
    logv = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    re = np.exp(logv - peak).real
    head = 0.5 * re.item(0)
    fine = head + float(np.add.reduce(re[1:]))
    coarse = 2.0 * (head + float(np.add.reduce(re[2::2])))
    scale = h * w / math.pi * math.exp(peak + lead)
    return scale * fine, scale * abs(fine - coarse)


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

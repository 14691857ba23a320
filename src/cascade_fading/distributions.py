"""Statistics of products of Gamma-Gamma and misalignment fading factors.

The composite channel is Z = Z1 * Z2 with Z1 a product of N independent
Gamma-Gamma variates and Z2 a product of L power-law misalignment factors
(L <= N).  PDF and CDF of Z are Meijer G functions, and a Meijer G function is
its Mellin-Barnes integral.  For Z the integrand is elementary:

    E[Z^s] = prod Gamma(alpha+s) Gamma(beta+s) / (Gamma(alpha) Gamma(beta))
                  * (Omega / (alpha beta))^s
           * prod A_o^s xi / (xi + s),        Re s > -min(alpha, beta, xi).

With s = c + i t on a vertical line,

    F(x)     = (1/pi) int_0^inf Re[-x^-s E[Z^s] / s] dt,   -b_min < c < 0,
    1 - F(x) = (1/pi) int_0^inf Re[ x^-s E[Z^s] / s] dt,    c > 0,
    f(x)     = (1/(pi x)) int_0^inf Re[x^-s E[Z^s]] dt,     c > -b_min.

E[Z^s] is specfun's gamma-product kernel, the one meijer_g integrates too:
a row Gamma(shape + s) per shape, a row 1 / (xi + s) per pointing factor,
and the scale and the normalisation as its linear and constant terms.
_MellinLaw only builds those rows, once per channel, and adds the strip's
edge b_min, E[ln Z] and the start of the saddle search.  The integrand
decays like exp(-N pi |t|), and specfun's Mellin-Barnes engine sums it: the
line sits at the saddle of the real integrand, and the nodes t = w sinh(u)
lie evenly in u, fine across the peak and sparse along the 1/t shoulder
that a nearby pole gives the deep outage tail.  Coincident parameters only
merge poles off the line, so they need no special treatment.  Scalar and
array arguments go through specfun's one pointwise front, as gg_pdf and
z2_pdf do.

Closing the line of F to the left picks up the residues of -x^-s E[Z^s] / s;
z_cdf_asymptotic takes those nearest the origin as F's line integral less
that of the same integrand on a line in the pole-free gap past them, by the
same rule.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .specfun import (
    AccuracyError,
    DegenerateParametersError,
    DomainError,
    _GUARD_REL,
    _GammaKernel,
    _degenerate_pairs,
    _mb_integral,
    _pointwise,
)

__all__ = [
    "GammaGammaParams",
    "PointingErrorParams",
    "CompositeProduct",
    "gg_pdf",
    "z1_pdf",
    "z1_cdf",
    "z2_pdf",
    "z_pdf",
    "z_cdf",
    "z_cdf_asymptotic",
    "sample_z",
]

# Gamma-Gamma shapes stay below this: math.lgamma, which the law's
# normalisation takes of each, overflows a double from about 2.556e305.
_SHAPE_MAX = 2.5e305

# z_cdf_asymptotic: the refusal guard on its error estimate, relative; how
# far past the first gamma pole to search for the poles it keeps.
_ASYMPTOTE_TOL = 1e-2
_CLUSTER_DEPTH = 32.0

# sample_z draws each factor through a buffer of this many variates, so a
# draw of n values holds one n-array and one block, not a temporary per
# factor.
_SAMPLE_BLOCK = 1 << 16


def check_count(value, what, least=1):
    """value as an int, or DomainError naming `what` unless it is an integer
    >= `least`."""
    try:
        count = operator.index(value)
    except TypeError:
        count = least - 1
    if count < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return count


@dataclass(frozen=True)
class GammaGammaParams:
    """Shaping parameters (alpha, beta) and mean Omega of one turbulence link."""

    alpha: float
    beta: float
    omega: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf
                and 0 < self.omega < math.inf):
            raise DomainError(f"Gamma-Gamma parameters must be positive and finite: {self}")
        rate = self.alpha * self.beta
        if not (0 < rate < math.inf and 0 < self.omega / rate < math.inf
                and max(self.alpha, self.beta) < _SHAPE_MAX):
            raise DomainError(f"Gamma-Gamma law leaves the double range (alpha beta or "
                              f"Omega / (alpha beta) is 0 or inf, or lnGamma of a shape "
                              f"overflows): {self}")


@dataclass(frozen=True)
class PointingErrorParams:
    """Misalignment fading parameters of one link.

    xi is the squared ratio of equivalent beam radius to jitter standard
    deviation, a_o the collected power fraction at zero displacement.  The
    PDF is xi/A_o^xi * x^(xi-1) supported on [0, A_o].
    """

    xi: float
    a_o: float

    def __post_init__(self):
        if not 0 < self.xi < math.inf:
            raise DomainError(f"xi must be positive and finite, got {self.xi}")
        if not 0.0 < self.a_o <= 1.0:
            raise DomainError(f"a_o must lie in (0, 1], got {self.a_o}")


@dataclass(frozen=True)
class CompositeProduct:
    """The composite channel Z: N Gamma-Gamma links, L of them misaligned.

    Links are stored in a canonical sorted order so that permuting the input
    sequences yields an identical object (and bit-identical statistics).
    """

    gg_links: tuple
    pe_links: tuple = ()

    def __post_init__(self):
        gg = tuple(sorted(self.gg_links, key=lambda g: (g.alpha, g.beta, g.omega)))
        pe = tuple(sorted(self.pe_links, key=lambda p: (p.xi, p.a_o)))
        object.__setattr__(self, "gg_links", gg)
        object.__setattr__(self, "pe_links", pe)
        if self.n < 1:
            raise DomainError("at least one Gamma-Gamma link is required")
        if self.l > self.n:
            raise DomainError(f"L={self.l} misaligned links exceed N={self.n}")

    @property
    def n(self):
        return len(self.gg_links)

    @property
    def l(self):
        return len(self.pe_links)

    @property
    def b_tuple(self):
        """Exponent tuple [alpha_1..alpha_N, beta_1..beta_N, xi_1..xi_L]."""
        return tuple(
            [g.alpha for g in self.gg_links]
            + [g.beta for g in self.gg_links]
            + [p.xi for p in self.pe_links]
        )

    @cached_property
    def is_degenerate(self):
        """True when the exponent tuple has an integer-separated pair;
        scanned on first use and kept for the life of the channel."""
        return bool(_degenerate_pairs(self.b_tuple))

    @cached_property
    def _law(self):
        """The Mellin transform behind z_cdf and z_pdf, built on first use
        and kept for the life of the channel."""
        return _MellinLaw(self)

    @cached_property
    def _replicas(self):
        return {}

    def replicated(self, times):
        """Product law of `times` independent copies multiplied together,
        built once per count and kept for the life of the channel, so a
        sweep over one channel builds one Mellin transform."""
        times = check_count(times, "the number of copies")
        if times not in self._replicas:
            self._replicas[times] = CompositeProduct(self.gg_links * times,
                                                     self.pe_links * times)
        return self._replicas[times]


class _MellinLaw(_GammaKernel):
    """log E[Z^s] = s log_scale + log_norm + sum lnGamma(shape + s)
    - sum ln(xi + s): the kernel that specfun._mb_integral integrates for
    z_cdf and z_pdf, with the bounds of its strip (b_min), E[ln Z] and
    Var[ln Z].  log E[Z^s] is the cumulant generating function of ln Z, so
    the saddle of the integrand is a saddlepoint (Daniels, Ann. Math.
    Statist. 25, 1954), and the saddle search starts from that of its
    two-cumulant (lognormal) model."""

    def __init__(self, ch: CompositeProduct):
        shapes = [g.alpha for g in ch.gg_links] + [g.beta for g in ch.gg_links]
        xis = [p.xi for p in ch.pe_links]
        log_scale = (sum(math.log(g.omega / (g.alpha * g.beta)) for g in ch.gg_links)
                     + sum(math.log(p.a_o) for p in ch.pe_links))
        super().__init__([(b, 1.0, 1) for b in shapes], xis, log_scale)
        # the constant term, once per distinct shape times its count
        self.log_norm = (sum(math.log(xi) for xi in xis)
                         - sum(k * math.lgamma(b) for b, k in self.plus))
        self.shapes = np.array(shapes)
        self.b_min = min(shapes + xis)
        self.mean_shape = sum(shapes) / len(shapes)
        # E[ln Z] and Var[ln Z], the slope and curvature of log E[Z^s] at 0
        self.mean_log, self.var_log = self.slopes(0.0, 0.0, False)

    def start(self, lx, lo, hi, c, pole):
        """The saddle of the lognormal model of the integrand, log E[Z^s] ~
        s E[ln Z] + s^2 Var[ln Z] / 2, with d = ln x - E[ln Z]: d / Var, or
        with the pole at 0 the root of Var s^2 - d s - 1 on the strip's side
        of it.

        Far right of the bulk log E[Z^s] grows like s ln s, not s^2, and
        the lognormal saddle falls far short of the true one, which Newton
        then approaches only by factors.  Where the strip has no right edge,
        the start moves up to where the slope's asymptote, ln x - log_scale
        = sum ln(shape + s) <= n ln(mean shape + s) over the n shapes (by
        concavity), holds with equality.  That point lies left of the root
        of sum ln(shape + s), and so of the saddle, since digamma falls
        short of ln and the pointing rows and the pole only lower the slope
        there.  The start is kept to the inner half between each finite edge
        and the caller's c."""
        d, v = lx - self.mean_log, self.var_log
        if pole:
            r = math.sqrt(d * d + 4.0 * v)
            # each root in the form without cancellation
            if hi <= 0.0:
                s = -2.0 / (r + d) if d >= 0.0 else 0.5 * (d - r) / v
            else:
                s = 0.5 * (d + r) / v if d >= 0.0 else 2.0 / (r - d)
        else:
            s = d / v
        if hi == math.inf:
            n = self.shapes.size
            s = max(s, math.exp(min((lx - self.log_scale) / n, 700.0)) - self.mean_shape)
        return min(max(s, 0.5 * (lo + c)), 0.5 * (c + hi))


def _line_integral(law: _MellinLaw, lx, kind, lead=0.0):
    """One Mellin-Barnes integral at ln x = lx, times e^lead: (value, error
    estimate).

    kind "F" gives P(Z <= x) on a line in (-b_min, 0), "Q" gives P(Z > x) on
    a line right of the origin and "f" gives x times the density on a line
    right of -b_min.
    """
    if kind == "F":
        val, err = _mb_integral(law, lx, -law.b_min, 0.0, -0.5 * law.b_min, True, lead)
        return -val, err
    if kind == "Q":
        return _mb_integral(law, lx, 0.0, math.inf, 1.0, True, lead)
    return _mb_integral(law, lx, -law.b_min, math.inf, 0.0, False, lead)


def _accuracy_fail(what, val, err):
    raise AccuracyError(
        f"{what} evaluation lost too much precision "
        f"(value ~ {val:.6e}, error estimate {err:.1e})"
    )


def _cdf_at(law: _MellinLaw, x):
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    lx = math.log(x)
    if lx < law.mean_log:
        val, err = _line_integral(law, lx, "F")
    else:
        q, err = _line_integral(law, lx, "Q")
        val = 1.0 - q
    # a probability, up to its error estimate: a value out of range is
    # wrong by more than its estimate admits
    if not (err <= _GUARD_REL * abs(val) and -err <= val <= 1.0 + err):
        _accuracy_fail("CDF", val, err)
    return min(val, 1.0) if val > 0.0 else 0.0


def _pdf_at(law: _MellinLaw, x):
    if x == math.inf:
        return 0.0
    # the density's 1/x enters the log of the scale, so that f keeps its
    # digits where x f(x) would be subnormal; where f itself is so small
    # that its estimate underflows, the estimate proves nothing
    lx = math.log(x)
    val, err = _line_integral(law, lx, "f", -lx)
    if not (err <= _GUARD_REL * abs(val) and (err > 0.0 or val == 0.0)):
        _accuracy_fail("PDF", val, err)
    return val


def z_cdf(ch: CompositeProduct, x):
    """CDF of the composite product Z at x >= 0 (scalar or array).

    Below E[ln Z] the Mellin-Barnes integral of F is taken on a line left of
    the origin, above it the complement's on a line right of it, so the
    small side of the distribution keeps its relative precision.  Returns a
    value in [0, 1], or raises AccuracyError where the error estimate exceeds
    3e-4 of the value or the value lies outside [0, 1] by more than its
    estimate.
    """
    return _pointwise(partial(_cdf_at, ch._law), x, allow_zero=True)


def z_pdf(ch: CompositeProduct, x):
    """PDF of the composite product Z at x > 0 (scalar or array), by the
    Mellin-Barnes integral on its saddle line."""
    return _pointwise(partial(_pdf_at, ch._law), x)


def _pole_clusters(law: _MellinLaw, rho):
    """Poles of E[Z^s], at -(shape + k) for k >= 0 and at -xi, chained where
    neighbours lie closer than rho: the pole-free strip between the clusters
    that reach Re s >= -(b_min + 1) and the next one, as (the next one's
    first pole, their last pole).  The search starts past the first gamma
    poles and deepens until a cluster follows those."""
    for depth in law.shapes.min() + np.arange(3.0, _CLUSTER_DEPTH, 2.0):
        poles = np.sort(np.concatenate(
            [-(b + np.arange(max(depth - b, 0.0))) for b in law.shapes]
            + [-law.xis[law.xis < depth]]))[::-1]
        clusters = np.split(poles, np.flatnonzero(poles[:-1] - poles[1:] >= rho) + 1)
        kept = sum(c[0] >= -(law.b_min + 1.0) for c in clusters)
        if len(clusters) > kept:
            return float(clusters[kept][0]), float(clusters[kept - 1][-1])
    raise AccuracyError(f"poles of E[Z^s] too dense to part {rho:.3g} apart")


def _asymptote_at(law: _MellinLaw, x):
    if x == 0.0:
        return 0.0
    if x == math.inf:
        raise AccuracyError("the power-law CDF limit does not hold at x = inf; use z_cdf")
    lx = math.log(x)
    # poles closer than rho act as one multiple pole on the scale of x^-s,
    # which varies by at most e^(+-1) over rho; rho <= b_min keeps the pole
    # of 1/s at the origin out of every cluster
    rho = min(1.0 / max(1.0, abs(lx)), law.b_min)
    lo, hi = _pole_clusters(law, rho)
    f, f_err = _line_integral(law, lx, "F")
    r, r_err = _mb_integral(law, lx, lo, hi, 0.5 * (lo + hi), True)
    # F less the line of -x^-s E[Z^s] / s in the gap, whose integrand is
    # -1 times the one _mb_integral sums
    val, err = f + r, abs(r) + f_err + r_err
    if not (err <= _ASYMPTOTE_TOL * val and val <= 1.0):
        raise AccuracyError(
            f"power-law CDF limit does not hold at x={x:g} (error estimate "
            f"{err:.1e} against a strip sum of {val:.3e}); use z_cdf")
    return val


def z_cdf_asymptotic(ch: CompositeProduct, x):
    """Small-x limit of the CDF (scalar or array): the residues of
    -x^-s E[Z^s] / s in the strip -(b_min + 1) <= Re s < 0, extended past it
    to the next gap of at least 1 / max(1, |ln x|) between poles, so that
    coincident parameters give the x^b (ln 1/x)^k terms of a multiple pole.
    By Cauchy's theorem they are F's line integral less that of the same
    integrand on a line in the gap, the remainder; its size and both lines'
    error estimates estimate the error.  Beyond 1e-2 of the value, or for a
    limit above 1, it raises AccuracyError (use z_cdf there)."""
    return _pointwise(partial(_asymptote_at, ch._law), x, allow_zero=True)


def z1_pdf(links, x):
    """PDF of a pure Gamma-Gamma product (no misalignment)."""
    return z_pdf(CompositeProduct(tuple(links)), x)


def z1_cdf(links, x):
    """CDF of a pure Gamma-Gamma product (no misalignment)."""
    return z_cdf(CompositeProduct(tuple(links)), x)


def gg_pdf(p: GammaGammaParams, x):
    """Single-link Gamma-Gamma PDF via the Bessel-K closed form,
    2 r^s / (Gamma(alpha) Gamma(beta)) x^(s - 1) K_nu(z), z = 2 sqrt(r x),
    with s = (alpha + beta) / 2, nu = |alpha - beta| and r = alpha beta /
    Omega.

    It is taken in log space, ln K_nu(z) from scipy's scaled K_nu(z) e^z,
    so that neither the power nor K_nu overflows or underflows far from the
    bulk.  Where K_nu(z) e^z overflows (small z and nu > 1.9, or large nu),
    ln K_nu(z) is summed up from the order nu - round(nu) by the recurrence
    K_(mu+1) = K_(mu-1) + (2 mu / z) K_mu (DLMF 10.29.1) on the ratios
    K_(mu+1) / K_mu, which it keeps to a few ulp (K grows with the order).
    Past z ~ 1e9, where scipy gives NaN, K_nu(z) e^z is sqrt(pi / 2z) to
    within (4 nu^2 - 1) / 8z (DLMF 10.40.2); e^-z makes the density zero
    there unless s exceeds about 1e7.  A density beyond the largest double
    raises AccuracyError, as z_pdf's does."""
    # imported here: scipy.special costs more import time than the rest of
    # the package, and no recipe needs it
    from scipy.special import kve

    s = 0.5 * (p.alpha + p.beta)
    rate = p.alpha * p.beta / p.omega
    nu = abs(p.alpha - p.beta)
    log_c = (math.log(2.0) - math.lgamma(p.alpha) - math.lgamma(p.beta)
             + s * math.log(rate))

    def at(v):
        if v == math.inf:
            return 0.0
        z = 2.0 * math.sqrt(rate) * math.sqrt(v)  # r x may underflow
        k = float(kve(nu, z))
        if k < math.inf:
            log_k = math.log(k)
        elif k == math.inf:
            mu = nu - round(nu)
            k = float(kve(mu, z))
            ratio = float(kve(mu + 1.0, z)) / k
            log_k = math.log(k)
            while mu < nu - 0.5:
                log_k += math.log(ratio)
                mu += 1.0
                ratio = 1.0 / ratio + 2.0 * mu / z
        else:
            log_k = 0.5 * math.log(0.5 * math.pi / z)
        log_f = log_c + (s - 1.0) * math.log(v) + log_k - z
        try:
            return math.exp(log_f)
        except OverflowError:
            raise AccuracyError(
                f"gamma-gamma density overflows a double (ln x = {math.log(v):.6g})") from None

    return _pointwise(at, x)


def z2_pdf(links, x):
    """PDF of a product of misalignment factors (common xi).

    The log-power closed form is a valid density only when all xi agree
    (the zero-displacement fractions A_o may differ); heterogeneous xi are
    rejected.  Support is [0, prod(A_o)]; beyond it the PDF is zero.
    """
    from scipy.special import xlogy  # imported here, as in gg_pdf

    links = tuple(links)
    if not links:
        raise DomainError("need at least one misaligned link")
    big_l = len(links)
    xis = [p.xi for p in links]
    if max(xis) - min(xis) > 1e-9 * (1.0 + max(xis)):
        raise DegenerateParametersError(
            "the log-power product form requires a common xi across links; "
            "use the composite z_pdf for heterogeneous exponents"
        )
    xi = xis[0]
    edge = math.prod(p.a_o for p in links)
    # in log space and relative to the edge: the constant
    # prod xi / A_o^xi = xi^L / edge^xi overflows a double long before the
    # density does (large xi, small A_o)
    log_c = sum(math.log(p.xi) for p in links) - math.lgamma(big_l) - math.log(edge)

    def at(v):
        if v > edge:
            return 0.0
        # ln(edge / v)^(L - 1) is 1 for L = 1, also at the edge, and 0 there
        # for L > 1
        return np.exp(log_c + (xi - 1.0) * math.log(v / edge)
                      + xlogy(big_l - 1, math.log(edge / v)))

    return _pointwise(at, x)


def sample_z(ch: CompositeProduct, rng: np.random.Generator, count: int):
    """Draw `count` i.i.d. realizations of Z.

    Each Gamma-Gamma factor is the product of two independent gamma variates
    with shapes (alpha, beta) and scales (1/alpha, Omega/beta); each
    misalignment factor is A_o * U^(1/xi) by CDF inversion.  Deterministic
    for a given generator state.  The first factor is drawn straight into the
    result; each later one is drawn in blocks of _SAMPLE_BLOCK into one
    buffer and multiplied into the result in place.  This consumes the
    generator, and gives the same values, as drawing each factor's `count`
    variates at once and multiplying them together.
    """
    count = check_count(count, "the draw count")
    z = np.empty(count)
    buf = np.empty(min(count, _SAMPLE_BLOCK))

    def blocks():
        for lo in range(0, count, _SAMPLE_BLOCK):
            zb = z[lo:lo + _SAMPLE_BLOCK]
            yield buf[:zb.size], zb

    (shape, scale), *gammas = [(s, c) for g in ch.gg_links
                               for s, c in ((g.alpha, 1.0 / g.alpha), (g.beta, g.omega / g.beta))]
    for _, zb in blocks():
        rng.standard_gamma(shape, out=zb)
        zb *= scale
    for shape, scale in gammas:
        for b, zb in blocks():
            rng.standard_gamma(shape, out=b)
            b *= scale
            zb *= b
    for p in ch.pe_links:
        for b, zb in blocks():
            rng.random(out=b)
            b **= 1.0 / p.xi  # `**`, as in u ** (1/xi): the same fast paths (0.5, 2)
            b *= p.a_o
            zb *= b
    return z

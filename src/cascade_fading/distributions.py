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
z_cdf_asymptotic sums those nearest the origin, each by the trapezoidal rule
on a circle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy import special as sp

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

# Refusal guards on the error estimate besides the CDF's relative
# _GUARD_REL: the PDF's relative one, and the CDF's absolute slack.
_GUARD_REL_PDF = 2e-3
_GUARD_ABS = 1e-9

# The log of the largest double: a density beyond it is returned as inf.
_LOG_MAX = math.log(sys.float_info.max)

# z_cdf_asymptotic: the refusal guard on its error estimate, relative; the
# agreement of a residue's sums on n and n/2 nodes, relative to the mean term,
# and the node counts n tried; how far past the first gamma pole to search.
_ASYMPTOTE_TOL = 1e-2
_RESIDUE_TOL = 1e-13
_RESIDUE_NODES = 64 << np.arange(9)
_CLUSTER_DEPTH = 32.0

# sample_z draws each factor through a buffer of this many variates, so a
# draw of n values holds one n-array and one block, not a temporary per
# factor.
_SAMPLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class GammaGammaParams:
    """Shaping parameters (alpha, beta) and mean Omega of one turbulence link."""

    alpha: float
    beta: float
    omega: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and self.omega > 0):
            raise DomainError(f"Gamma-Gamma parameters must be positive: {self}")


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
        if not self.xi > 0:
            raise DomainError(f"xi must be positive, got {self.xi}")
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
        if times < 1:
            raise DomainError("need at least one copy")
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
        # E[ln Z] and Var[ln Z], the slope and curvature of log E[Z^s] at 0
        self.mean_log, self.var_log = self.slopes(0.0, 0.0, False)

    def start(self, lx, lo, hi, c, pole):
        """The saddle of the lognormal model of the integrand, log E[Z^s] ~
        s E[ln Z] + s^2 Var[ln Z] / 2, with d = ln x - E[ln Z]: d / Var, or
        with the pole at 0 the root of Var s^2 - d s - 1 on the strip's side
        of it.  It is kept to the inner half between each finite edge and
        the caller's c."""
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
    if not err <= _GUARD_REL * abs(val) + _GUARD_ABS:
        _accuracy_fail("CDF", val, err)
    return val


def _pdf_at(law: _MellinLaw, x):
    if x == math.inf:
        return 0.0
    # the density's 1/x enters the log of the scale, so that f keeps its
    # digits where x f(x) would be subnormal; where f itself is so small
    # that its estimate underflows, the estimate proves nothing
    lx = math.log(x)
    val, err = _line_integral(law, lx, "f", -lx)
    if not (err <= _GUARD_REL_PDF * abs(val) + 1e-12 and (err > 0.0 or val == 0.0)):
        _accuracy_fail("PDF", val, err)
    return val


def z_cdf(ch: CompositeProduct, x):
    """CDF of the composite product Z at x >= 0 (scalar or array).

    Below E[ln Z] the Mellin-Barnes integral of F is taken on a line left of
    the origin, above it the complement's on a line right of it, so the
    small side of the distribution keeps its relative precision.  Raises
    AccuracyError when the error estimate exceeds the refusal guard.
    """
    return _pointwise(partial(_cdf_at, ch._law), x, allow_zero=True)


def z_pdf(ch: CompositeProduct, x):
    """PDF of the composite product Z at x > 0 (scalar or array), by the
    Mellin-Barnes integral on its saddle line."""
    return _pointwise(partial(_pdf_at, ch._law), x)


def _pole_clusters(law: _MellinLaw, rho):
    """Poles of E[Z^s], at -(shape + k) for k >= 0 and at -xi, chained where
    neighbours lie closer than rho: (the clusters reaching the strip
    Re s >= -(b_min + 1), the next two).  The search starts past the first
    gamma poles and deepens until no pole past it can chain into those."""
    for depth in law.shapes.min() + np.arange(3.0, _CLUSTER_DEPTH, 2.0):
        poles = np.sort(np.concatenate([-(b + np.arange(depth - b)) for b in law.shapes]
                                       + [-law.xis[law.xis < depth]]))[::-1]
        clusters = np.split(poles, np.flatnonzero(poles[:-1] - poles[1:] >= rho) + 1)
        if clusters[-1][-1] + depth < rho:
            clusters.pop()  # it may go on past the depth
        kept = sum(c[0] >= -(law.b_min + 1.0) for c in clusters)
        if len(clusters) >= kept + 2:
            return clusters[:kept], clusters[kept:kept + 2]
    raise AccuracyError(f"poles of E[Z^s] too dense to part {rho:.3g} apart")


def _cluster_residue(law: _MellinLaw, lx, cluster, rho):
    """Residue of -x^-s E[Z^s] / s at a pole cluster, ln x = lx, by the
    trapezoidal rule in log space on a circle that clears it by rho / 2, the
    nodes doubling from 64 until the sum on every other node agrees:
    (log scale, value, mean term magnitude), the last two in e^(log scale).
    The previous circle's nodes are the even ones of the next, so a doubling
    evaluates only the new odd ones."""
    mid, r = 0.5 * (cluster[0] + cluster[-1]), 0.5 * (cluster[0] - cluster[-1] + rho)
    logv = None
    for n in _RESIDUE_NODES:
        k = np.arange(n) if logv is None else np.arange(1, n, 2)
        z = r * np.exp(2j * math.pi / n * k)
        new = law.log_moment(mid + z) - (mid + z) * lx - np.log(-mid - z) + np.log(z)
        logv = new if logv is None else np.column_stack((logv, new)).ravel()
        top = float(logv.real.max())
        v = np.exp(logv - top)
        full, mass = v.mean(), np.abs(v).mean()
        if abs(full - v[::2].mean()) <= _RESIDUE_TOL * mass:
            return top, full.real, mass
    raise AccuracyError(f"residue near s = {cluster[0]:.6g} needs more than "
                        f"{_RESIDUE_NODES[-1]} nodes (ln x = {lx:.6g})")


def _asymptote_at(law: _MellinLaw, x):
    if x == 0.0:
        return 0.0
    if x == math.inf:
        raise AccuracyError("the power-law CDF limit does not hold at x = inf; use z_cdf")
    lx = math.log(x)
    # x^-s varies by at most e^(+-1) on a circle of radius rho; rho <= b_min
    # keeps the pole of 1/s at the origin out of every circle.
    rho = min(1.0 / max(1.0, abs(lx)), law.b_min)
    kept, omitted = _pole_clusters(law, rho)
    t, v, m = np.array([_cluster_residue(law, lx, c, rho) for c in kept + omitted]).T
    w, k = np.exp(t - t.max()), len(kept)
    val = w[:k] @ v[:k]
    err = _RESIDUE_TOL * (w[:k] @ m[:k]) + w[k:] @ np.abs(v[k:])
    log_val = t.max() + math.log(val) if val > 0.0 else math.nan
    if not (err <= _ASYMPTOTE_TOL * val and log_val <= 0.0):
        raise AccuracyError(
            f"power-law CDF limit does not hold at x={x:g} (next residues "
            f"{err:.1e} against a strip sum of {val:.3e}); use z_cdf")
    return math.exp(log_val)


def z_cdf_asymptotic(ch: CompositeProduct, x):
    """Small-x limit of the CDF (scalar or array): the residues of
    -x^-s E[Z^s] / s in the strip -(b_min + 1) <= Re s < 0.  Poles closer
    than 1 / max(1, |ln x|) share a circle, so coincident parameters give
    the x^b (ln 1/x)^k terms of a multiple pole.  The next two clusters'
    residues estimate the error; beyond 1e-2 of the value, or for a limit
    above 1, it raises AccuracyError (use z_cdf there)."""
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
    there unless s exceeds about 1e7."""
    s = 0.5 * (p.alpha + p.beta)
    rate = p.alpha * p.beta / p.omega
    nu = abs(p.alpha - p.beta)
    log_c = (math.log(2.0) - math.lgamma(p.alpha) - math.lgamma(p.beta)
             + s * math.log(rate))

    def at(v):
        if v == math.inf:
            return 0.0
        z = 2.0 * math.sqrt(rate) * math.sqrt(v)  # r x may underflow
        k = float(sp.kve(nu, z))
        if k < math.inf:
            log_k = math.log(k)
        elif k == math.inf:
            mu = nu - round(nu)
            k = float(sp.kve(mu, z))
            ratio = float(sp.kve(mu + 1.0, z)) / k
            log_k = math.log(k)
            while mu < nu - 0.5:
                log_k += math.log(ratio)
                mu += 1.0
                ratio = 1.0 / ratio + 2.0 * mu / z
        else:
            log_k = 0.5 * math.log(0.5 * math.pi / z)
        log_f = log_c + (s - 1.0) * math.log(v) + log_k - z
        return math.exp(log_f) if log_f < _LOG_MAX else math.inf

    return _pointwise(at, x)


def z2_pdf(links, x):
    """PDF of a product of misalignment factors (common xi).

    The log-power closed form is a valid density only when all xi agree
    (the zero-displacement fractions A_o may differ); heterogeneous xi are
    rejected.  Support is [0, prod(A_o)]; beyond it the PDF is zero.
    """
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
                      + sp.xlogy(big_l - 1, math.log(edge / v)))

    return _pointwise(at, x)


def sample_z(ch: CompositeProduct, rng: np.random.Generator, count: int):
    """Draw `count` i.i.d. realizations of Z.

    Each Gamma-Gamma factor is the product of two independent gamma variates
    with shapes (alpha, beta) and scales (1/alpha, Omega/beta); each
    misalignment factor is A_o * U^(1/xi) by CDF inversion.  Deterministic
    for a given generator state.  A factor's variates are drawn in blocks of
    _SAMPLE_BLOCK into one buffer and multiplied into the result in place;
    this consumes the generator, and gives the same values, as drawing the
    factor's `count` variates at once.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    z = np.ones(count)
    buf = np.empty(min(count, _SAMPLE_BLOCK))

    def blocks():
        for lo in range(0, count, _SAMPLE_BLOCK):
            b = buf[:min(count - lo, _SAMPLE_BLOCK)]
            yield b, z[lo:lo + b.size]

    for g in ch.gg_links:
        for shape, scale in ((g.alpha, 1.0 / g.alpha), (g.beta, g.omega / g.beta)):
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

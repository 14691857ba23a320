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

The integrand decays like exp(-N pi |t|), so the trapezoidal rule converges
exponentially in the step (Trefethen & Weideman, SIAM Rev. 56, 2014).  The
line sits at the saddle of the real integrand, the step follows from the
pole-free strip around it, and the sum on twice the step, taken from the same
nodes, gives the error estimate.  Coincident parameters only merge poles off
the line, so they need no special treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from .specfun import (
    AccuracyError,
    DegenerateParametersError,
    DomainError,
    MeijerGSpec,
    _degenerate_pairs,
    build_slater_expansion,
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

# Refusal guards on the error estimate, the gap between the trapezoidal sums
# on steps h and 2h.  The coarse sum is far less accurate than the returned
# fine one, so the estimate is conservative; tests pin the true accuracy
# against independent oracles.
_GUARD_REL = 3e-4
_GUARD_REL_PDF = 2e-3
_GUARD_ABS = 1e-9

# Target size of the discretization and truncation errors of a line
# integral, relative to the integrand's peak on the line; the node count
# beyond which an evaluation refuses; the iteration cap of the saddle search.
_MB_TOL = 1e-17
_MB_MAX_NODES = 1 << 16
_SADDLE_ITERS = 100

# z_cdf_asymptotic integrates pointing factors with xi at least this large
# out of the residue sum: their gamma-ratio coefficients overflow near
# xi ~ 170, and their own x^xi terms are negligible against x^b_min.
_ASYMPTOTIC_XI = 64.0

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

    @property
    def a_tuple(self):
        """Upper-parameter tuple [1, xi_1 + 1, .., xi_L + 1]."""
        return tuple([1.0] + [p.xi + 1.0 for p in self.pe_links])

    @property
    def rate_scale(self):
        """Maps x to the Meijer argument: prod(ab/Omega) / prod(A_o)."""
        s = 1.0
        for g in self.gg_links:
            s *= g.alpha * g.beta / g.omega
        for p in self.pe_links:
            s /= p.a_o
        return s

    @property
    def prefactor(self):
        """prod(xi) / prod(Gamma(alpha) Gamma(beta)) in front of both G's."""
        logc = 0.0
        for g in self.gg_links:
            logc -= math.lgamma(g.alpha) + math.lgamma(g.beta)
        for p in self.pe_links:
            logc += math.log(p.xi)
        return math.exp(logc)

    @property
    def is_degenerate(self):
        """True when the exponent tuple has an integer-separated pair."""
        return bool(_degenerate_pairs(self.b_tuple))

    def replicated(self, times):
        """Product law of `times` independent copies multiplied together."""
        if times < 1:
            raise DomainError("need at least one copy")
        return CompositeProduct(self.gg_links * times, self.pe_links * times)


def _cdf_spec(ch: CompositeProduct) -> MeijerGSpec:
    q = 2 * ch.n + ch.l + 1
    return MeijerGSpec(q - 1, 1, ch.l + 1, q, ch.a_tuple, ch.b_tuple + (0.0,))


class _MellinLaw:
    """log E[Z^s] = s log_scale + log_norm + sum lnGamma(shape + s)
    - sum ln(xi + s), with its real slices used to place a line."""

    def __init__(self, ch: CompositeProduct):
        self.shapes = np.array([g.alpha for g in ch.gg_links]
                               + [g.beta for g in ch.gg_links])
        self.xis = np.array([p.xi for p in ch.pe_links])
        self.log_scale = (sum(math.log(g.omega / (g.alpha * g.beta)) for g in ch.gg_links)
                          + sum(math.log(p.a_o) for p in ch.pe_links))
        self.log_norm = float(np.sum(np.log(self.xis)) - np.sum(sp.gammaln(self.shapes)))
        self.poles = -np.concatenate((self.shapes, self.xis))
        self.b_min = -float(np.max(self.poles))
        # E[ln Z], the slope of log E[Z^s] at s = 0
        self.mean_log = float(self.log_scale + np.sum(sp.digamma(self.shapes))
                              - np.sum(1.0 / self.xis))

    def log_moment(self, s):
        """log E[Z^s] on the complex array s."""
        out = s * self.log_scale + self.log_norm
        out = out + np.sum(sp.loggamma(self.shapes[:, None] + s), axis=0)
        return out - np.sum(np.log(self.xis[:, None] + s), axis=0)

    def log_size(self, c, lx, pole):
        """log of the real integrand x^-c E[Z^c] (over |c| when pole)."""
        v = (c * (self.log_scale - lx) + self.log_norm
             + np.sum(sp.gammaln(self.shapes + c)) - np.sum(np.log(self.xis + c)))
        return float(v) - (math.log(abs(c)) if pole else 0.0)

    def slopes(self, c, lx, pole):
        """First and second derivative of log_size in c."""
        g = (self.log_scale - lx + np.sum(sp.digamma(self.shapes + c))
             - np.sum(1.0 / (self.xis + c)))
        g2 = np.sum(sp.zeta(2.0, self.shapes + c)) + np.sum((self.xis + c) ** -2.0)
        if pole:
            g, g2 = g - 1.0 / c, g2 + 1.0 / (c * c)
        return float(g), float(g2)


def _saddle(law: _MellinLaw, lx, lo, hi, c, pole):
    """Minimum of the convex log_size on (lo, hi) by safeguarded Newton,
    with the curvature there.

    Where hi is infinite the slope is concave, so Newton steps from the left
    of the minimum stay left of it; any step leaving the bracket is replaced
    by bisection.
    """
    for _ in range(_SADDLE_ITERS):
        g, g2 = law.slopes(c, lx, pole)
        if g < 0.0:
            lo = c
        else:
            hi = c
        nxt = c - g / g2
        if abs(nxt - c) <= 1e-10 * (1.0 + abs(c)):
            break
        c = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return c, g2


def _line_integral(law: _MellinLaw, lx, kind):
    """One Mellin-Barnes integral at ln x = lx: (value, error estimate).

    kind "F" gives P(Z <= x), "Q" gives P(Z > x) and "f" gives x times the
    density.  Every quantity depends on (law, lx) alone, so scalar and array
    calls agree bit for bit.
    """
    pole = kind != "f"
    if kind == "F":
        c, curv = _saddle(law, lx, -law.b_min, 0.0, -0.5 * law.b_min, True)
    else:
        lo = 0.0 if pole else -law.b_min
        c, curv = _saddle(law, lx, lo, math.inf, 1.0 if pole else 0.0, pole)
    poles = np.append(law.poles, 0.0) if pole else law.poles
    peak = law.log_size(c, lx, pole)
    # The integrand is analytic in the strip |Re s - c| < a and bounded there
    # by its real value at c +- a, so the discretization error falls like
    # exp(-2 pi a / h) times that bound.  a stays half-way to the nearest
    # pole, and no wider than where the bound grows by 1/_MB_TOL through the
    # curvature at the saddle (wider strips only lengthen the sum).
    budget = 1.0 - math.log(_MB_TOL)
    a = min(0.5 * float(np.min(np.abs(c - poles))), math.sqrt(2.0 * budget / curv))
    edge = max(law.log_size(c - a, lx, pole), law.log_size(c + a, lx, pole))
    h = 2.0 * math.pi * a / (edge - peak + budget)
    # |integrand| decreases in |t|: add nodes until it drops below the floor
    floor = peak + math.log(_MB_TOL)
    chunks, k0, n = [], 0, 64
    while True:
        s = c + 1j * (h * np.arange(k0, k0 + n))
        logv = law.log_moment(s) - s * lx
        if pole:
            logv = logv - np.log(s)
        small = logv.real < floor
        small[0] &= k0 > 0  # node 0 is the peak itself
        if small.any():
            chunks.append(logv[:int(np.argmax(small))])
            break
        chunks.append(logv)
        k0, n = k0 + n, 2 * n
        if k0 >= _MB_MAX_NODES:
            raise AccuracyError(
                f"Mellin-Barnes integral needs more than {_MB_MAX_NODES} nodes "
                f"(ln x = {lx:.6g})")
    re = np.exp(np.concatenate(chunks) - peak).real
    fine = 0.5 * re[0] + np.sum(re[1:])
    coarse = 2.0 * (0.5 * re[0] + np.sum(re[2::2]))
    scale = h / math.pi * math.exp(peak)
    sign = -1.0 if kind == "F" else 1.0
    return sign * scale * fine, scale * abs(fine - coarse)


def _accuracy_fail(what, val, err):
    raise AccuracyError(
        f"{what} evaluation lost too much precision "
        f"(value ~ {val:.6e}, error estimate {err:.1e})"
    )


def _as_array(x, allow_zero=False):
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.isnan(xx)):
        raise DomainError("argument must not be NaN")
    if np.any(xx < 0) or (not allow_zero and np.any(xx <= 0)):
        raise DomainError("argument must be positive")
    return xx, scalar


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
    val, err = _line_integral(law, math.log(x), "f")
    val, err = val / x, err / x
    if not err <= _GUARD_REL_PDF * abs(val) + 1e-12:
        _accuracy_fail("PDF", val, err)
    return val


def z_cdf(ch: CompositeProduct, x):
    """CDF of the composite product Z at x >= 0 (scalar or array).

    Below E[ln Z] the Mellin-Barnes integral of F is taken on a line left of
    the origin, above it the complement's on a line right of it, so the
    small side of the distribution keeps its relative precision.  Raises
    AccuracyError when the error estimate exceeds the refusal guard.
    """
    xx, scalar = _as_array(x, allow_zero=True)
    law = _MellinLaw(ch)
    out = np.array([_cdf_at(law, v) for v in xx.flat]).reshape(xx.shape)
    return float(out[0]) if scalar else out


def z_pdf(ch: CompositeProduct, x):
    """PDF of the composite product Z at x > 0 (scalar or array), by the
    Mellin-Barnes integral on its saddle line."""
    xx, scalar = _as_array(x)
    law = _MellinLaw(ch)
    out = np.array([_pdf_at(law, v) for v in xx.flat]).reshape(xx.shape)
    return float(out[0]) if scalar else out


def z_cdf_asymptotic(ch: CompositeProduct, x):
    """Small-x limit of the CDF: the finite sum of x^(B_i) residue terms.

    Requires an exponent tuple free of integer separations; for coincident
    parameters use the exact z_cdf instead.  A pointing factor with
    xi >= 64 multiplies each term c_i x^(b_i) of the others by its exact
    moment E[l^(-b_i)] = A_o^(-b_i) xi / (xi - b_i).
    """
    xx, scalar = _as_array(x, allow_zero=True)
    big = [p for p in ch.pe_links if p.xi >= _ASYMPTOTIC_XI]
    rest = CompositeProduct(ch.gg_links,
                            tuple(p for p in ch.pe_links if p.xi < _ASYMPTOTIC_XI))
    try:
        expansion = build_slater_expansion(_cdf_spec(rest))
    except DegenerateParametersError:
        raise DegenerateParametersError(
            "exponent tuple has integer-separated entries; the power-law "
            "limit does not apply, use z_cdf"
        ) from None
    z = xx * rest.rate_scale
    out = np.zeros_like(z)
    pos = z > 0
    zp = z[pos]
    acc = np.zeros_like(zp)
    with np.errstate(over="ignore", invalid="ignore"):
        for term in expansion.terms:
            coeff = term.coefficient
            for p in big:
                coeff *= np.power(p.a_o, -term.exponent) * p.xi / (p.xi - term.exponent)
            acc += coeff * np.power(zp, term.exponent)
        out[pos] = acc * rest.prefactor
    if rest.prefactor == 0.0 or not np.all(np.isfinite(out)):
        raise AccuracyError(
            "power-law CDF limit is out of double range here (residue "
            "coefficients overflow or the prefactor underflows); use z_cdf"
        )
    return float(out[0]) if scalar else out


def z1_pdf(links, x):
    """PDF of a pure Gamma-Gamma product (no misalignment)."""
    return z_pdf(CompositeProduct(tuple(links)), x)


def z1_cdf(links, x):
    """CDF of a pure Gamma-Gamma product (no misalignment)."""
    return z_cdf(CompositeProduct(tuple(links)), x)


def gg_pdf(p: GammaGammaParams, x):
    """Single-link Gamma-Gamma PDF via the Bessel-K closed form."""
    xx, scalar = _as_array(x)
    s = 0.5 * (p.alpha + p.beta)
    rate = p.alpha * p.beta / p.omega
    arg = 2.0 * np.sqrt(rate * xx)
    nu = abs(p.alpha - p.beta)
    val = (
        2.0
        / (math.gamma(p.alpha) * math.gamma(p.beta))
        * rate**s
        * xx ** (s - 1.0)
        * sp.kv(nu, arg)
    )
    return float(val[0]) if scalar else val


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
    edge = 1.0
    for p in links:
        edge *= p.a_o
    xx, scalar = _as_array(x)
    out = np.zeros_like(xx)
    inside = xx <= edge
    xin = xx[inside]
    if xin.size:
        if big_l >= 5:
            log_c = -math.lgamma(big_l) + sum(math.log(p.xi) for p in links)
            log_c -= sum(p.xi * math.log(p.a_o) for p in links)
            with np.errstate(divide="ignore"):
                log_ln = np.where(
                    xin < edge, (big_l - 1) * np.log(np.log(edge / xin)), -np.inf
                )
            out[inside] = np.exp(log_c + (xi - 1.0) * np.log(xin) + log_ln)
        else:
            c = 1.0 / math.factorial(big_l - 1)
            for p in links:
                c *= p.xi / p.a_o**p.xi
            out[inside] = c * xin ** (xi - 1.0) * np.log(edge / xin) ** (big_l - 1)
    return float(out[0]) if scalar else out


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

"""Independent Mellin-Barnes oracle for the CDF and PDF of Z = Z1 * Z2.

Z is a product of Gamma-Gamma factors (alpha, beta, Omega) and pointing
factors (xi, A_o), so its Mellin moments are elementary in log-gamma terms:

    E[Z^s] = prod Gamma(alpha+s) Gamma(beta+s) / (Gamma(alpha) Gamma(beta))
                  * (Omega / (alpha beta))^s
           * prod A_o^s xi / (xi + s),        Re s > -min(alpha, beta, xi).

Inverting on a vertical line Re s = c gives, with s = c + i t,

    F(x)     = 1/(2 pi) int x^-s (-E[Z^s] / s) dt,   -b_min < c < 0,
    1 - F(x) = 1/(2 pi) int x^-s ( E[Z^s] / s) dt,    0 < c,
    f(x)     = 1/(2 pi x) int x^-s E[Z^s] dt,        -b_min < c.

The integrands decay like exp(-N pi |t|), so the trapezoidal rule converges
exponentially in the step (Trefethen & Weideman, SIAM Rev. 56, 2014).  The
line sits at the saddle of the real integrand, where cancellation is least,
and the step is set from the distance to the nearest pole.  Every reference
is computed twice, on two different lines with two different steps (for the
CDF: once through F and once through its complement, which differ by the
residue at s = 0), and is trusted only when both agree.

Nothing here imports the package: the laws are plain tuples.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, loggamma

# Target size of the discretization and truncation errors, relative to the
# largest value of the integrand on the line.
_TOL = 1e-17
# Two evaluations must agree this closely (absolute for the CDF, relative to
# max(1, f) for the PDF) before a reference is trusted.
AGREE = 1e-10


class UntrustedReference(ArithmeticError):
    """The two contour/step evaluations of a reference disagree."""


class Law:
    """Product law: gg = ((alpha, beta, omega), ...), pe = ((xi, a_o), ...)."""

    def __init__(self, gg, pe=()):
        self.gg = tuple((float(a), float(b), float(o)) for a, b, o in gg)
        self.pe = tuple((float(xi), float(ao)) for xi, ao in pe)
        if not self.gg:
            raise ValueError("need at least one Gamma-Gamma factor")
        self.b_min = min([min(a, b) for a, b, _ in self.gg] + [xi for xi, _ in self.pe])
        self._lg0 = sum(gammaln(a) + gammaln(b) for a, b, _ in self.gg)
        self._log_scale = sum(math.log(o / (a * b)) for a, b, o in self.gg)
        self._log_scale += sum(math.log(ao) for _, ao in self.pe)

    def log_moment(self, s):
        """log E[Z^s] for complex s (array) right of -b_min."""
        s = np.asarray(s, dtype=complex)
        out = s * self._log_scale - self._lg0
        for a, b, _ in self.gg:
            out = out + loggamma(a + s) + loggamma(b + s)
        for xi, _ in self.pe:
            out = out + math.log(xi) - np.log(xi + s)
        return out

    def log_moment_real(self, c):
        """log E[Z^c] for real c > -b_min."""
        out = c * self._log_scale - self._lg0
        for a, b, _ in self.gg:
            out += gammaln(a + c) + gammaln(b + c)
        for xi, _ in self.pe:
            out += math.log(xi) - math.log(xi + c)
        return out

    def poles(self):
        """Leftmost pole of each moment factor (all poles are real)."""
        return [-a for a, _, _ in self.gg] + [-b for _, b, _ in self.gg] + [-xi for xi, _ in self.pe]


def _line_integral(law, lx, c, kind, h_scale=1.0):
    """(1/pi) int_0^inf Re[x^-s g(s)] dt on Re s = c by the trapezoidal rule.

    kind: "F" (g = -E/s), "Q" (g = E/s) or "f" (g = E).
    """
    with_pole = kind in ("F", "Q")
    poles = law.poles() + ([0.0] if with_pole else [])
    d = min(abs(c - p) for p in poles)

    def log_mag(cc):
        v = -cc * lx + law.log_moment_real(cc)
        if with_pole:
            v -= math.log(abs(cc))
        return v

    peak = log_mag(c)
    # On the lines Re s = c +- d/2 the integrand is bounded by its real-axis
    # value there; the trapezoid error then falls like exp(-pi d / h) times
    # that bound.
    edge = max(log_mag(c - 0.5 * d), log_mag(c + 0.5 * d))
    h = h_scale * math.pi * d / (edge - peak - math.log(_TOL) + 1.0)
    # truncate where |integrand| (monotone in |t|) drops below _TOL * peak
    t_max = 1.0
    while True:
        v = law.log_moment(c + 1j * t_max).real - c * lx
        if with_pole:
            v -= math.log(abs(complex(c, t_max)))
        if v < peak + math.log(_TOL):
            break
        t_max *= 1.5
    t = np.arange(0.0, t_max + h, h)
    s = c + 1j * t
    logv = law.log_moment(s) - s * lx
    vals = np.exp(logv)
    if kind == "F":
        vals = -vals / s
    elif kind == "Q":
        vals = vals / s
    re = vals.real
    total = h * (0.5 * re[0] + re[1:].sum()) / math.pi
    return float(total)


def _saddle(law, lx, lo, hi, with_pole):
    """Real c in (lo, hi) minimising the integrand magnitude."""

    def phi(c):
        v = -c * lx + law.log_moment_real(c)
        if with_pole:
            v -= math.log(abs(c))
        return v

    res = minimize_scalar(phi, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-6 * (hi - lo)})
    return float(res.x)


def _cdf_pair(law, x):
    lx = math.log(x)
    bm = law.b_min
    c_f = _saddle(law, lx, -bm * (1 - 1e-6), -1e-9 * bm, True)
    c_q = _saddle(law, lx, 1e-9, 50.0 + 2.0 * bm, True)
    f_val = _line_integral(law, lx, c_f, "F")
    q_val = _line_integral(law, lx, c_q, "Q", h_scale=0.8)
    return f_val, 1.0 - q_val, q_val


def cdf(law, x):
    """Reference P(Z <= x): returns (value, complement).

    Raises UntrustedReference when the two routes disagree by more than
    AGREE.  The complement is returned separately because the upper tail
    keeps its relative precision there.
    """
    if x <= 0:
        return 0.0, 1.0
    f_val, f_from_q, q_val = _cdf_pair(law, x)
    if not abs(f_val - f_from_q) <= AGREE:
        raise UntrustedReference(f"CDF routes disagree at x={x!r}: {f_val!r} vs {f_from_q!r}")
    # keep whichever route carries the small side of the distribution
    value = f_val if f_val < 0.5 else f_from_q
    return value, (1.0 - f_val if f_val < 0.5 else q_val)


def pdf(law, x):
    """Reference density f(x), x > 0.

    Raises UntrustedReference when the two lines disagree by more than
    AGREE (relative to max(1, f)).
    """
    lx = math.log(x)
    bm = law.b_min
    c1 = _saddle(law, lx, -bm * (1 - 1e-6), 50.0 + 2.0 * bm, False)
    # a second line, shifted by a quarter of the way to the nearest pole
    d = min(abs(c1 - p) for p in law.poles())
    c2 = c1 + 0.25 * d if c1 + 0.25 * d < 50.0 + 2.0 * bm else c1 - 0.25 * d
    v1 = _line_integral(law, lx, c1, "f")
    v2 = _line_integral(law, lx, c2, "f", h_scale=0.8)
    v1 /= x
    v2 /= x
    if not abs(v1 - v2) <= AGREE * max(1.0, abs(v1)):
        raise UntrustedReference(f"PDF lines disagree at x={x!r}: {v1!r} vs {v2!r}")
    return v1


def cdf_inverse(law, target, lo=1e-12, hi=1e6):
    """x with F(x) = target (bisection in log x on the reference CDF)."""
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(60):
        mid = 0.5 * (llo + lhi)
        if cdf(law, math.exp(mid))[0] < target:
            llo = mid
        else:
            lhi = mid
    return math.exp(0.5 * (llo + lhi))


def has_coincident_parameters(law, tol=1e-6):
    """True when two exponents (alpha, beta, xi) differ by ~an integer."""
    b = [a for a, _, _ in law.gg] + [bb for _, bb, _ in law.gg] + [xi for xi, _ in law.pe]
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            d = b[i] - b[j]
            if abs(d - round(d)) <= tol * (1.0 + abs(d)):
                return True
    return False


# The README's accuracy promise for the CDF: absolute error below ~1e-6,
# below ~6e-5 at the tail-model seam (complement under 3e-2) for products
# with coincident parameters.  It states nothing for the PDF, which is held
# to the same absolute bounds.
TOL_ABS = 1e-6
TOL_SEAM = 6e-5
SEAM_COMPLEMENT = 3e-2


def tolerance(law, complement):
    """Documented absolute tolerance at a point with reference 1 - F."""
    if complement < SEAM_COMPLEMENT and has_coincident_parameters(law):
        return TOL_SEAM
    return TOL_ABS

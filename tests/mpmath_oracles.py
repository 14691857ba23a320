"""Independent references for the Meijer G closed forms, shared by the test
modules: mpmath.meijerg sums the hypergeometric series at raised precision
(integer-separated parameters perturbed), a route independent of the line
integral.  Constants, the pointing factors' upper parameters and arguments
are taken at the working precision.  mpmath_gg_pdf is the single link's
Bessel-K closed form."""

import math

import mpmath

from cascade_fading.specfun import MeijerGSpec


def mpmath_meijer_g(spec, x):
    """G^{m,n}_{p,q}(x | a; b) by mpmath at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.meijerg([spec.a[:spec.n], spec.a[spec.n:]],
                                    [spec.b[:spec.m], spec.b[spec.m:]], x))


def cdf_meijer_form(ch):
    """(C, R, spec) with F(x) = C G(R x | spec), the paper's closed form.
    C and R are mpmath numbers at the working precision: in double
    precision C underflows to 0 for (60, 40)^3, and its rounding moves
    1 - F by 6e-6 relative at 1 - F = 1e-10."""
    q = 2 * ch.n + ch.l + 1
    upper = (1.0,) + tuple(p.xi + 1.0 for p in ch.pe_links)
    spec = MeijerGSpec(q - 1, 1, ch.l + 1, q, upper, ch.b_tuple + (0.0,))
    c = (mpmath.fprod(mpmath.mpf(p.xi) for p in ch.pe_links)
         / mpmath.fprod(mpmath.gamma(mpmath.mpf(g.alpha)) * mpmath.gamma(mpmath.mpf(g.beta))
                        for g in ch.gg_links))
    rate = (mpmath.fprod(mpmath.mpf(g.alpha) * g.beta / g.omega for g in ch.gg_links)
            / mpmath.fprod(mpmath.mpf(p.a_o) for p in ch.pe_links))
    return c, rate, spec


def _upper(ch):
    """The upper parameters xi + 1 of the pointing factors at the working
    precision.  MeijerGSpec keeps them as doubles, whose rounding (up to
    1e-15) leaves Gamma(xi + s) / Gamma(xi + 1 + s) a little off 1 / (xi + s):
    that moved 1 - F by up to 5e-15, 4e-4 relative at 1 - F = 1e-11."""
    return [mpmath.mpf(p.xi) + 1 for p in ch.pe_links]


def _cdf(ch, x):
    c, rate, spec = cdf_meijer_form(ch)
    return c * mpmath.meijerg([[1], _upper(ch)], [spec.b[:-1], spec.b[-1:]], x * rate)


def mpmath_cdf(ch, x):
    """F(x) from mpmath.meijerg at 30 digits."""
    with mpmath.workdps(30):
        return float(_cdf(ch, x))


def mpmath_sf(ch, x):
    """1 - F(x) from mpmath.meijerg at 40 digits: 1 - F keeps only the
    digits of F beyond its leading nines."""
    with mpmath.workdps(40):
        return float(1 - _cdf(ch, x))


def mpmath_pdf(ch, x, dps=30):
    """f(x) = C / x G(R x | xi + 1; b) from mpmath.meijerg at dps digits."""
    with mpmath.workdps(dps):
        c, rate, _ = cdf_meijer_form(ch)
        return float(c / mpmath.mpf(x) * mpmath.meijerg(
            [[], _upper(ch)], [list(ch.b_tuple), []], x * rate))


def mpmath_gg_pdf(p, x):
    """The Gamma-Gamma density 2 r^s / (Gamma(alpha) Gamma(beta))
    x^(s - 1) K_(alpha - beta)(2 sqrt(r x)), r = alpha beta / Omega and
    s = (alpha + beta) / 2, by mpmath at 30 digits."""
    with mpmath.workdps(30):
        a, b, x = mpmath.mpf(p.alpha), mpmath.mpf(p.beta), mpmath.mpf(x)
        r = a * b / p.omega
        s = (a + b) / 2
        return float(2 * r**s / (mpmath.gamma(a) * mpmath.gamma(b)) * x ** (s - 1)
                     * mpmath.besselk(a - b, 2 * mpmath.sqrt(r * x)))


def mpmath_strip_residues(ch, x):
    """The residues of -x^-s E[Z^s] / s that z_cdf_asymptotic keeps, at 50
    digits.  The poles -(shape + k) and -xi are listed and chained here in
    plain Python by the README's rule: neighbours closer than rho =
    min(1 / max(1, |ln x|), b_min) share a cluster, and the clusters that
    reach Re s >= -(b_min + 1) are kept.  Each cluster's residue is the
    trapezoidal rule on a circle that clears it by rho / 2, its nodes
    doubled until two sums agree to 1e-30 of the later one."""
    shapes = [v for g in ch.gg_links for v in (g.alpha, g.beta)]
    xis = [p.xi for p in ch.pe_links]
    b_min = min(shapes + xis)
    rho = min(1.0 / max(1.0, abs(math.log(x))), b_min)
    deep = b_min + 32.0  # every gamma pole above -deep is listed
    poles = sorted([-(b + k) for b in shapes for k in range(int(deep - b) + 1)]
                   + [-xi for xi in xis], reverse=True)
    clusters = [[poles[0]]]
    for p in poles[1:]:
        if clusters[-1][-1] - p < rho:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    kept = [c for c in clusters if c[0] >= -(b_min + 1.0)]
    assert kept[-1][-1] - rho > -deep, "kept clusters reach past the listed poles"
    with mpmath.workdps(50):
        lx = mpmath.log(mpmath.mpf(x))
        scale = (mpmath.fsum(mpmath.log(mpmath.mpf(g.omega) / (mpmath.mpf(g.alpha) * g.beta))
                             for g in ch.gg_links)
                 + mpmath.fsum(mpmath.log(mpmath.mpf(p.a_o)) for p in ch.pe_links))
        norm = (mpmath.fprod(mpmath.mpf(xi) for xi in xis)
                / mpmath.fprod(mpmath.gamma(mpmath.mpf(b)) for b in shapes))

        def integrand(s):
            """-x^-s E[Z^s] / s"""
            return -(mpmath.exp(s * (scale - lx)) * norm
                     * mpmath.fprod(mpmath.gamma(b + s) for b in shapes)
                     / mpmath.fprod(xi + s for xi in xis) / s)

        total = 0
        for c in kept:
            mid = (mpmath.mpf(c[0]) + c[-1]) / 2
            r = (mpmath.mpf(c[0]) - c[-1] + rho) / 2
            n = 16
            terms = [integrand(mid + z) * z
                     for z in (r * mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n))]
            prev = mpmath.fsum(terms) / n
            while True:
                # the new nodes sit halfway between the old ones
                n *= 2
                terms += [integrand(mid + z) * z
                          for z in (r * mpmath.expjpi(mpmath.mpf(2 * k) / n)
                                    for k in range(1, n, 2))]
                now = mpmath.fsum(terms) / n
                if abs(now - prev) <= 1e-30 * abs(now):
                    break
                assert n < 1 << 14, "residue sum does not settle"
                prev = now
            total += now.real
        return float(total)

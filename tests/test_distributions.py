"""Product-channel statistics against quadrature, convolution and sampling
oracles.  Every [derived] expectation here is computed by an independent
numerical method in the test itself."""

import cmath
import gc
import math
import os
import subprocess
import sys
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from cascade_fading import distributions, specfun
from cascade_fading.distributions import (
    CompositeProduct,
    GammaGammaParams,
    PointingErrorParams,
    gg_pdf,
    sample_z,
    z1_cdf,
    z1_pdf,
    z2_pdf,
    z_cdf,
    z_cdf_asymptotic,
    z_pdf,
)
from cascade_fading.mc import mc_cdf
from cascade_fading.specfun import (
    AccuracyError,
    DegenerateParametersError,
    DomainError,
    MeijerGSpec,
    bessel_k,
    build_slater_expansion,
)
from mpmath_oracles import (
    cdf_meijer_form, mpmath_cdf, mpmath_gg_pdf, mpmath_pdf, mpmath_sf, mpmath_strip_residues)

WEAK = GammaGammaParams(10.02, 2.98)
STRONG = GammaGammaParams(4.942, 1.231)
PE_A = PointingErrorParams(6.7, 0.8)
PE_B = PointingErrorParams(5.1, 0.9)

MIXED_11 = CompositeProduct((WEAK,), (PE_A,))
MIXED_21 = CompositeProduct((WEAK, STRONG), (PE_A,))
MIXED_22 = CompositeProduct((WEAK, STRONG), (PE_A, PE_B))
WS = CompositeProduct((WEAK, STRONG))


class TestGammaGammaPdf:
    def test_double_rayleigh_point(self):
        # alpha = beta = 1 collapses to 2 K_0(2 sqrt x)
        p = GammaGammaParams(1.0, 1.0, 1.0)
        assert gg_pdf(p, 1.0) == pytest.approx(2.0 * bessel_k(0.0, 2.0), rel=1e-12)

    def test_normalization(self):
        p = GammaGammaParams(10.02, 2.98, 1.0)
        val, _ = integrate.quad(lambda t: gg_pdf(p, t), 0.0, 60.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_mean_is_omega(self):
        p = GammaGammaParams(4.94, 1.23, 2.5)
        val, _ = integrate.quad(lambda t: t * gg_pdf(p, t), 0.0, 400.0, limit=400)
        assert val == pytest.approx(2.5, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            gg_pdf(WEAK, 0.0)

    @pytest.mark.parametrize("x", [1e-100, 1e-60, 1e300])
    def test_far_from_the_bulk(self, x):
        # x^(s - 1) and K_nu(z) overflow and underflow against each other
        # here; the densities are 2.59e-197, 4.10e-118 and 0 in double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = gg_pdf(WEAK, x)
        assert value == pytest.approx(mpmath_gg_pdf(WEAK, x), rel=1e-12, abs=0.0)


class TestZ1:
    def test_single_factor_reduces_to_gg(self):
        for x in (0.1, 1.0, 5.0):
            assert z1_pdf((WEAK,), x) == pytest.approx(gg_pdf(WEAK, x), abs=1e-9)

    def test_cdf_single_factor_quadrature(self):
        oracle, _ = integrate.quad(lambda t: gg_pdf(WEAK, t), 0.0, 1.0, limit=300)
        assert z1_cdf((WEAK,), 1.0) == pytest.approx(oracle, abs=1e-8)

    def test_cdf_vanishes_at_origin(self):
        assert z1_cdf((WEAK,), 0.0) == 0.0

    def test_normalization_two_strong_links(self):
        links = (GammaGammaParams(4.94, 1.23), GammaGammaParams(4.94, 1.23))
        hi = 800.0
        val, _ = integrate.quad(lambda t: z1_pdf(links, t), 0.0, hi, limit=400)
        assert val + (1.0 - z1_cdf(links, hi)) == pytest.approx(1.0, abs=1e-7)

    def test_matches_composite_with_no_misalignment_bitwise(self):
        links = (WEAK, STRONG)
        ch = CompositeProduct(links)
        for x in (0.05, 0.4, 1.0, 3.0):
            assert z1_cdf(links, x) == z_cdf(ch, x)
            assert z1_pdf(links, x) == z_pdf(ch, x)


def _z2_conv_l2(links, x):
    """Direct convolution for two misalignment factors."""
    l1, l2 = links
    lo = x / l1.a_o
    if lo >= l2.a_o:
        return 0.0
    def f(y):
        u = x / y
        return (l1.xi / l1.a_o**l1.xi * u ** (l1.xi - 1)
                * l2.xi / l2.a_o**l2.xi * y ** (l2.xi - 1) / y)
    val, _ = integrate.quad(f, lo, l2.a_o, limit=200)
    return val


class TestZ2:
    def test_single_link_power_law(self):
        p = PE_A
        for x in (0.1, 0.5, 0.79):
            assert z2_pdf((p,), x) == pytest.approx(
                p.xi / p.a_o**p.xi * x ** (p.xi - 1), rel=1e-13)

    def test_log_special_case(self):
        # two unit links with xi = 1: density is ln(1/x) on (0, 1]
        links = (PointingErrorParams(1.0, 1.0),) * 2
        for x in (0.05, 0.3, 0.9):
            assert z2_pdf(links, x) == pytest.approx(math.log(1.0 / x), rel=1e-12)
        total, _ = integrate.quad(lambda t: z2_pdf(links, t), 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_l2_against_convolution(self):
        links = (PointingErrorParams(6.7, 0.8), PointingErrorParams(6.7, 0.95))
        for x in np.linspace(0.05, 0.7, 9):
            assert z2_pdf(links, float(x)) == pytest.approx(
                _z2_conv_l2(links, float(x)), abs=1e-6)

    def test_l3_against_recursive_convolution(self):
        # convolve the two-link closed form with a third factor
        links = (PointingErrorParams(6.7, 0.8),) * 3
        third = links[2]
        edge12 = links[0].a_o * links[1].a_o
        for x in np.linspace(0.03, 0.45, 8):
            lo = x / third.a_o
            def f(y):
                u = x / y
                return (z2_pdf(links[:2], y)
                        * third.xi / third.a_o**third.xi * u ** (third.xi - 1) / y)
            oracle, _ = integrate.quad(f, lo, edge12, limit=300)
            assert z2_pdf(links, float(x)) == pytest.approx(oracle, abs=1e-6)

    def test_support(self):
        links = (PointingErrorParams(6.7, 0.8), PointingErrorParams(6.7, 0.9))
        edge = 0.8 * 0.9
        assert z2_pdf(links, edge * 1.0001) == 0.0
        assert z2_pdf(links, edge) == 0.0  # continuous extension, L >= 2
        with pytest.raises(DomainError):
            z2_pdf(links, 0.0)

    def test_heterogeneous_xi_rejected(self):
        with pytest.raises(DegenerateParametersError):
            z2_pdf((PE_A, PointingErrorParams(3.0, 0.8)), 0.3)

    def test_log_space_path_l5(self):
        # closed form recomputed here without the log-space route
        links = (PointingErrorParams(4.2, 0.9),) * 5
        x = 0.3
        edge = 0.9**5
        expect = (1.0 / math.factorial(4) * (4.2 / 0.9**4.2) ** 5
                  * x ** (4.2 - 1.0) * math.log(edge / x) ** 4)
        assert z2_pdf(links, x) == pytest.approx(expect, rel=1e-12)

    def test_log_space_path_l4(self):
        # the constant prod xi / A_o^xi, about 1e637 here, overflows a
        # double; the density does not (closed form at 40 digits)
        links = (PointingErrorParams(300.0, 0.3),) * 4
        x = 0.99 * 0.3**4
        with mpmath.workdps(40):
            xi, a, xm = mpmath.mpf(300.0), mpmath.mpf(0.3), mpmath.mpf(x)
            expect = float(xi**4 / 6 / a**1200 * xm**299 * mpmath.log(a**4 / xm) ** 3)
        assert z2_pdf(links, x) == pytest.approx(expect, rel=1e-12)
        # one link at its edge: xi / A_o
        assert z2_pdf((PointingErrorParams(2.0, 0.5),), 0.5) == 4.0


class TestComposite:
    def test_tuples(self):
        assert MIXED_21.b_tuple == (4.942, 10.02, 1.231, 2.98, 6.7)

    def test_link_order_is_canonical(self):
        a = CompositeProduct((WEAK, STRONG), (PE_A, PE_B))
        b = CompositeProduct((STRONG, WEAK), (PE_B, PE_A))
        assert a == b
        for x in (0.1, 1.0):
            assert z_cdf(a, x) == z_cdf(b, x)

    def test_l_cannot_exceed_n(self):
        with pytest.raises(DomainError):
            CompositeProduct((WEAK,), (PE_A, PE_B))

    def test_n_zero_disallowed(self):
        with pytest.raises(DomainError):
            CompositeProduct((), (PE_A,))

    def test_degeneracy_flag(self):
        assert CompositeProduct((WEAK, WEAK)).is_degenerate
        assert not MIXED_21.is_degenerate

    @pytest.mark.parametrize("make", [
        lambda: GammaGammaParams(math.inf, 2.0), lambda: GammaGammaParams(2.0, math.inf),
        lambda: GammaGammaParams(2.0, 2.0, math.inf), lambda: GammaGammaParams(math.nan, 2.0),
        lambda: PointingErrorParams(math.inf, 0.8), lambda: PointingErrorParams(math.nan, 0.8),
    ], ids=["alpha", "beta", "omega", "alpha_nan", "xi", "xi_nan"])
    def test_non_finite_parameters_refused(self, make):
        # an infinite alpha reached z_cdf's bare math domain error, and an
        # infinite xi ran the line to its node cap before refusing
        with pytest.raises(DomainError):
            make()


class TestCompositeCdfPdf:
    def test_n1l1_cdf_against_double_quadrature(self):
        # F(x) = E_r[F_l(x / r)] with the misalignment CDF in closed trivial
        # form; the turbulence density comes from the Bessel-K expression
        p, pe = WEAK, PE_A
        for x in (0.1, 0.3, 0.8):
            def f(u):
                w = x / u
                fl = min((w / pe.a_o) ** pe.xi, 1.0)
                return gg_pdf(p, u) * fl
            oracle, _ = integrate.quad(f, 0.0, 50.0, limit=400)
            assert z_cdf(MIXED_11, x) == pytest.approx(oracle, abs=1e-7)

    def test_n1l1_pdf_against_mellin_quadrature(self):
        # f(x) = int f_r(y) f_l(x/y) / y dy over y >= x / A_o
        p, pe = WEAK, PE_A
        for x in (0.2, 0.6, 1.1):
            def f(y):
                w = x / y
                return gg_pdf(p, y) * pe.xi / pe.a_o**pe.xi * w ** (pe.xi - 1) / y
            oracle, _ = integrate.quad(f, x / pe.a_o, 60.0, limit=400)
            assert z_pdf(MIXED_11, x) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("ch,hi", [
        (CompositeProduct((WEAK,)), 40.0),
        (MIXED_11, 40.0),
        (CompositeProduct((WEAK, STRONG)), 500.0),
        (MIXED_22, 300.0),
    ])
    def test_normalization(self, ch, hi):
        val, _ = integrate.quad(lambda t: z_pdf(ch, t), 0.0, hi, limit=500)
        assert val == pytest.approx(z_cdf(ch, hi), abs=5e-7)
        assert z_cdf(ch, hi) >= 1.0 - 2e-7
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_normalization_coincident_pair(self):
        # coincident parameters take the same line integral as distinct
        # ones; normalization is checked over the bulk against the CDF, plus
        # the CDF limit itself
        ch = CompositeProduct((WEAK, WEAK))
        hi = 3.3  # ~97.5 percent of the mass
        val, _ = integrate.quad(lambda t: z_pdf(ch, t), 0.0, hi, limit=500)
        assert val == pytest.approx(z_cdf(ch, hi), abs=5e-7)
        assert z_cdf(ch, 300.0) >= 1.0 - 1e-6

    @pytest.mark.parametrize("ch", [MIXED_11, MIXED_21, MIXED_22,
                                    CompositeProduct((WEAK, WEAK))])
    def test_cdf_monotone_and_in_range(self, ch):
        grid = np.exp(np.linspace(math.log(1e-4), math.log(80.0), 400))
        vals = z_cdf(ch, grid)
        # the slack is far above the ~1e-13 error of the line integral,
        # also where the CDF switches from F to 1 - Q at E[ln Z]
        assert np.all(np.diff(vals) >= -1e-7)
        assert np.all(vals >= -1e-9) and np.all(vals <= 1.0 + 1e-9)
        assert vals[-1] > 1.0 - 1e-6

    @pytest.mark.parametrize("ch", [MIXED_11, MIXED_21, MIXED_22])
    def test_cdf_derivative_matches_pdf(self, ch):
        for x in (0.2, 0.5, 1.0, 2.0):
            h = 3e-4 * x
            deriv = (z_cdf(ch, x + h) - z_cdf(ch, x - h)) / (2 * h)
            assert deriv == pytest.approx(z_pdf(ch, x), rel=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            z_pdf(MIXED_11, -1.0)
        assert z_cdf(MIXED_11, 0.0) == 0.0

    def test_non_finite_arguments(self):
        for fn in (z_cdf, z_pdf):
            with pytest.raises(DomainError):
                fn(MIXED_21, math.nan)
            with pytest.raises(DomainError):
                fn(MIXED_21, np.array([0.5, math.nan]))
        assert z_cdf(MIXED_21, math.inf) == 1.0
        assert z_pdf(MIXED_21, math.inf) == 0.0
        assert list(z_cdf(MIXED_21, np.array([0.0, math.inf]))) == [0.0, 1.0]

    def test_underflowed_tails(self):
        # far out the integrand's peak proves the value zero in double
        # precision, even after the density's division by x: the upper
        # tail gives CDF 1 and PDF +0.0, the lower one CDF and PDF +0.0
        weak = CompositeProduct((WEAK,))
        for x in (1e30, 1e50, 1e100, 1e200, 1e300):
            assert z_cdf(weak, x) == 1.0
            assert repr(z_pdf(weak, x)) == "0.0"
        ch = CompositeProduct((WEAK,) * 3, (PE_A, PointingErrorParams(1.5, 0.7)))
        assert repr(z_pdf(ch, 1e100)) == "0.0"
        assert repr(z_pdf(weak, 5e-324)) == "0.0"
        assert repr(z_cdf(weak, 5e-324)) == "0.0"

    @pytest.mark.parametrize("ch", [MIXED_22, CompositeProduct((WEAK, WEAK))])
    def test_array_matches_scalar_bitwise(self, ch):
        grid = np.exp(np.linspace(math.log(1e-3), math.log(30.0), 23))
        cdf, pdf = z_cdf(ch, grid), z_pdf(ch, grid)
        for i, x in enumerate(grid):
            assert z_cdf(ch, float(x)) == cdf[i]
            assert z_pdf(ch, float(x)) == pdf[i]

    @pytest.mark.parametrize("ch", [MIXED_22, CompositeProduct((WEAK, WEAK))])
    def test_scalar_kinds_match_bitwise(self, ch):
        # a Python float, a numpy float and an int are one point each and
        # build no array; a 0-d array and a 1-element array go through the
        # array path: all give the same bits, and every scalar kind a float
        for fn in (z_cdf, z_pdf):
            for x in (0.37, 2.0):
                want = repr(fn(ch, np.array([x]))[0].item())
                kinds = [x, np.float64(x), np.array(x)] + ([int(x)] if x == int(x) else [])
                for arg in kinds:
                    got = fn(ch, arg)
                    assert type(got) is float and repr(got) == want, (fn, arg)

    @pytest.mark.parametrize("fn,x,error,message", [
        (z_cdf, math.nan, DomainError, "argument must not be NaN"),
        (z_pdf, math.nan, DomainError, "argument must not be NaN"),
        (z_cdf, -1.0, DomainError, "argument must be positive"),
        (z_pdf, -1.0, DomainError, "argument must be positive"),
        (z_pdf, 0.0, DomainError, "argument must be positive"),
        (z_cdf_asymptotic, -1.0, DomainError, "argument must be positive"),
        (z_pdf, 1e-160, AccuracyError, "PDF evaluation lost too much precision "
                                       "(value ~ 4.104779e-316, error estimate 0.0e+00)"),
    ])
    def test_scalar_kinds_refuse_alike(self, fn, x, error, message):
        ch = CompositeProduct((WEAK,))
        kinds = [x, np.float64(x), np.array(x), np.array([x])]
        if math.isfinite(x) and x == int(x):
            kinds.append(int(x))
        for arg in kinds:
            with pytest.raises(error) as info:
                fn(ch, arg)
            assert str(info.value) == message, arg


@pytest.mark.slow
class TestAgainstLargeMonteCarlo:
    """Channels where the CDF was once silently wrong, raised a bare
    ValueError, or refused.  The reference is mc_cdf at 1.6e7 samples (one
    standard error ~1.1e-4); the pinned values hold to the documented 1e-6."""

    N = 16 * 10**6

    @pytest.mark.parametrize("ch,x,expect,seed", [
        (CompositeProduct((WEAK,) * 3), 1.0, 0.7016804, 41),
        (CompositeProduct((GammaGammaParams(60.0, 40.0),) * 3), 1.0, 0.566137, 42),
        (CompositeProduct((WEAK,) * 3), 3.0, 0.934885, 43),
    ])
    def test_cdf(self, ch, x, expect, seed):
        value = z_cdf(ch, x)
        est = mc_cdf(ch, x, self.N, seed)
        assert abs(value - est.value) <= 4 * est.std_error
        assert value == pytest.approx(expect, abs=1e-6)


@st.composite
def _products(draw):
    shape = st.floats(0.5, 60.0)
    n = draw(st.integers(1, 4))
    l = draw(st.integers(0, n))
    gg = tuple(GammaGammaParams(draw(shape), draw(shape)) for _ in range(n))
    pe = tuple(PointingErrorParams(draw(st.floats(1.0, 1e4)), draw(st.floats(0.05, 1.0)))
               for _ in range(l))
    return CompositeProduct(gg, pe)


@pytest.mark.slow
class TestCdfProperties:
    @given(_products())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_refuses_or_matches_monte_carlo(self, ch):
        # x at fixed quantiles of an independent sample of the law
        xs = np.quantile(sample_z(ch, np.random.default_rng(5), 20_000),
                         [0.02, 0.2, 0.5, 0.8, 0.98])
        try:
            vals = z_cdf(ch, xs)
        except AccuracyError:
            return
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)
        for k, (x, v) in enumerate(zip(xs, vals)):
            est = mc_cdf(ch, float(x), 200_000, 700 + k)
            assert abs(v - est.value) <= 5 * est.std_error, (x, v, est)


@st.composite
def _small_products(draw):
    """Channels as _products draws them, every exponent (alpha, beta, xi)
    at most 20, which keeps mpmath.meijerg fast."""
    shape = st.floats(0.5, 20.0)
    n = draw(st.integers(1, 4))
    l = draw(st.integers(0, n))
    gg = tuple(GammaGammaParams(draw(shape), draw(shape)) for _ in range(n))
    pe = tuple(PointingErrorParams(draw(st.floats(1.0, 20.0)), draw(st.floats(0.05, 1.0)))
               for _ in range(l))
    return CompositeProduct(gg, pe)


def _at_tail_probability(ch, p, upper):
    """x where F(x) (1 - F(x) when upper) lies within a factor 2 of p, by
    bisection in ln x on z_cdf: the placement only has to land in the
    range the check covers, not be exact (1 - z_cdf is only good to about
    1e-16 absolute, which the margin of p above 1e-12 / 2 covers)."""
    def tail(lx):
        f = z_cdf(ch, math.exp(lx))
        return 1.0 - f if upper else f

    step = 1.0 if upper else -1.0
    near = ch._law.mean_log
    while not tail(near) > p:
        near -= step
    far = near + step
    while tail(far) > p:
        near, far = far, far + 2.0 * (far - near)
    while True:
        mid = 0.5 * (near + far)
        t = tail(mid)
        if 0.5 * p < t < 2.0 * p:
            return math.exp(mid)
        near, far = (mid, far) if t > p else (near, mid)


class TestMpmathProperties:
    """Random channels against mpmath.meijerg on the small side of the
    distribution: F where F <= 0.5, 1 - F where 1 - F <= 0.5, both down to
    1e-12, and the density there."""

    @given(_small_products(), st.floats(math.log(2.5e-12), math.log(0.25)), st.booleans())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_mpmath(self, ch, log_p, upper):
        x = _at_tail_probability(ch, math.exp(log_p), upper)
        if upper:
            # Q = 1 - F to 1e-12 of itself; the CDF 1 - Q to that plus its
            # rounding
            sf = mpmath_sf(ch, x)
            assert 1e-12 <= sf <= 0.5
            q = distributions._line_integral(ch._law, math.log(x), "Q")[0]
            assert q == pytest.approx(sf, rel=1e-12, abs=0.0)
            assert z_cdf(ch, x) == pytest.approx(1.0 - sf, rel=0.0, abs=1e-12 * sf + 2.0**-53)
        else:
            cdf = mpmath_cdf(ch, x)
            assert 1e-12 <= cdf <= 0.5
            assert z_cdf(ch, x) == pytest.approx(cdf, rel=1e-12, abs=0.0)
        assert z_pdf(ch, x) == pytest.approx(mpmath_pdf(ch, x), rel=1e-10, abs=0.0)


class TestAsymptote:
    def test_leading_exponent_is_min_of_tuple(self):
        ch = MIXED_21
        bmin = min(ch.b_tuple)
        r = (z_cdf_asymptotic(ch, 2e-6) / z_cdf_asymptotic(ch, 1e-6))
        assert math.log(r, 2.0) == pytest.approx(bmin, rel=1e-3)

    def test_ratio_to_exact_single_link(self):
        ch = CompositeProduct((WEAK,))
        x = 1e-3
        assert z_cdf_asymptotic(ch, x) / z_cdf(ch, x) == pytest.approx(1.0, abs=0.01)

    def test_ratio_to_exact_mixed(self):
        x = 1e-4
        assert (z_cdf_asymptotic(MIXED_21, x) / z_cdf(MIXED_21, x)
                == pytest.approx(1.0, abs=0.02))

    def test_coincident_weak_pair(self):
        # the double poles at -2.98 and -3.98 give x^b (ln 1/x) terms
        ch = CompositeProduct((WEAK, WEAK))
        assert z_cdf_asymptotic(ch, 1e-4) / z_cdf(ch, 1e-4) == pytest.approx(1.0, abs=0.01)
        assert z_cdf_asymptotic(ch, 1e-6) / z_cdf(ch, 1e-6) == pytest.approx(1.0, rel=1e-6)

    def test_coincident_weak_triple_with_pointing(self):
        ch = CompositeProduct((WEAK, WEAK, WEAK), (PE_A,))
        assert z_cdf_asymptotic(ch, 1e-4) / z_cdf(ch, 1e-4) == pytest.approx(1.0, abs=0.01)
        assert z_cdf_asymptotic(ch, 1e-6) / z_cdf(ch, 1e-6) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("ch", [CompositeProduct((WEAK, WEAK)),
                                    CompositeProduct((WEAK, WEAK, WEAK), (PE_A,))],
                             ids=["weak2", "weak3_pe"])
    def test_coincident_against_mpmath(self, ch):
        # the paper's closed form by mpmath's hypergeometric series
        assert z_cdf_asymptotic(ch, 1e-6) == pytest.approx(mpmath_cdf(ch, 1e-6), rel=1e-6, abs=0.0)

    def test_pointing_pole_far_from_gamma_poles(self):
        # the strip holds only -xi; the next clusters start 38 units left
        ch = CompositeProduct((GammaGammaParams(40.0, 50.0),), (PointingErrorParams(1.2, 0.8),))
        for x in (1e-2, 1e-4):
            assert z_cdf_asymptotic(ch, x) / z_cdf(ch, x) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("ch", [MIXED_21, WS], ids=["mixed21", "ws"])
    def test_matches_truncated_slater_series(self, ch):
        for x in (1e-6, 1e-4):
            assert z_cdf_asymptotic(ch, x) == pytest.approx(_strip_slater(ch, x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ch,x", [
        (CompositeProduct((STRONG,) * 6), 1e-6),
        (CompositeProduct((STRONG,) * 6), 1e-20),
        # the flattened branch law of recipe fig8_n3
        (CompositeProduct((WEAK,) * 6, (PointingErrorParams(130.79700001061087,
                                                            0.3900061737674387),) * 6), 1e-10),
        (CompositeProduct((WEAK, WEAK)), 1e-6),
        (CompositeProduct((WEAK, WEAK, WEAK), (PE_A,)), 1e-6),
        # the strip holds only -xi, 38 units right of the next poles
        (CompositeProduct((GammaGammaParams(40.0, 50.0),), (PointingErrorParams(1.2, 0.8),)), 0.3),
    ], ids=["strong6_1e-6", "strong6_1e-20", "fig8_n3_flat", "weak2", "weak3_pe", "pe_far_0.3"])
    def test_matches_strip_residue_oracle(self, ch, x):
        # 50-digit residues on circles, from poles listed apart from the
        # library
        assert (z_cdf_asymptotic(ch, x)
                == pytest.approx(mpmath_strip_residues(ch, x), rel=1e-12, abs=0.0))

    def test_near_coincident_pairs_are_continuous(self):
        # F itself moves by 3e-3 between delta = 0 and 1e-3, so the pin is
        # on the ratio to z_cdf: no refusal and no jump as the poles part
        x = 1e-4
        ratios = []
        for delta in (0.0, 1e-9, 1e-7, 1e-5, 1e-3):
            ch = CompositeProduct((GammaGammaParams(10.02 + delta, 2.98 + delta), WEAK))
            ratios.append(z_cdf_asymptotic(ch, x) / z_cdf(ch, x))
        assert ratios == pytest.approx([ratios[0]] * 5, rel=1e-6)

    def test_array_matches_scalar_bitwise(self):
        ch = CompositeProduct((WEAK, WEAK, WEAK), (PE_A,))
        xs = np.array([0.0, 1e-6, 1e-5, 1e-4])
        vec = z_cdf_asymptotic(ch, xs)
        assert z_cdf_asymptotic(ch, 0.0) == 0.0
        for x, v in zip(xs, vec):
            assert z_cdf_asymptotic(ch, float(x)) == v

    @pytest.mark.parametrize("x,exact", [(0.05, 6.7e-15), (0.1, 1.0e-9), (0.2, 1.2e-5)])
    def test_out_of_double_range_refuses(self, x, exact):
        # the next poles lie one unit or less past the strip, so at these x
        # the residues left out are as large as the sum kept
        ch = CompositeProduct((GammaGammaParams(60.1, 40.3), GammaGammaParams(61.7, 40.9),
                               GammaGammaParams(62.35, 41.45)))
        with pytest.raises(AccuracyError):
            z_cdf_asymptotic(ch, x)
        assert z_cdf(ch, x) == pytest.approx(exact, rel=0.05)

    def test_remainder_overflow_named(self):
        # the remainder line's scale at x = 1e300 exceeds the largest double
        ch = CompositeProduct((GammaGammaParams(1025.3062415742763, 984.8015550453262),) * 2)
        with pytest.raises(AccuracyError, match=r"overflows a double \(ln x = 690.776\)"):
            z_cdf_asymptotic(ch, 1e300)

    def test_pointing_moment_overflow_refuses(self):
        # x is 1e197 times the scale A_o of Z, far outside the power-law
        # regime: the residues grow past the strip (the sum is taken in log
        # space, so nothing overflows)
        ch = CompositeProduct((GammaGammaParams(3.3, 1.7),), (PointingErrorParams(200.1, 1e-200),))
        with pytest.raises(AccuracyError):
            z_cdf_asymptotic(ch, 1e-3)


def _strip_slater(ch, x):
    """The CDF's Slater series cut to the powers x^(b + k) with
    b + k <= b_min + 1: each term of build_slater_expansion times the pFq
    series of its parameters, summed by the term recurrence."""
    c, rate, spec = cdf_meijer_form(ch)
    expansion = build_slater_expansion(spec)
    z = x * rate
    edge = min(ch.b_tuple) + 1.0
    total = 0.0
    for t in expansion.terms:
        term, k = t.coefficient * z**t.exponent, 0
        while t.exponent + k <= edge:
            total += term
            term *= (math.prod(a + k for a in t.a_params) / math.prod(b + k for b in t.b_params)
                     * expansion.argument_sign * z / (k + 1))
            k += 1
    return float(c * total)


class TestAsymptoteProperties:
    @given(_products())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_refuses_or_matches_exact(self, ch):
        # x at low quantiles of an independent sample of the law, and below
        q = np.quantile(sample_z(ch, np.random.default_rng(5), 20_000), [1e-3, 1e-2, 0.1])
        for x in (q[0] * 1e-3, *q):
            try:
                exact = z_cdf(ch, x)
                approx = z_cdf_asymptotic(ch, x)
            except AccuracyError:
                continue
            assert math.isfinite(approx)
            assert abs(approx / exact - 1.0) <= 2e-2, (x, approx, exact)


class TestSampling:
    def test_count_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sample_z(MIXED_11, rng, 0)

    def test_gg_factor_mean(self):
        rng = np.random.default_rng(42)
        omega = 2.5
        ch = CompositeProduct((GammaGammaParams(4.94, 1.23, omega),))
        n = 10**6
        s = sample_z(ch, rng, n)
        se = s.std() / math.sqrt(n)
        assert abs(s.mean() - omega) < 3 * se

    def test_huge_xi_concentrates_at_a_o(self):
        rng = np.random.default_rng(7)
        ch = CompositeProduct((WEAK,), (PointingErrorParams(1e6, 0.8),))
        ch_gg = CompositeProduct((WEAK,))
        s = sample_z(ch, rng, 50_000)
        rng2 = np.random.default_rng(7)
        s_gg = sample_z(ch_gg, rng2, 50_000)
        assert np.allclose(s, 0.8 * s_gg, rtol=2e-4)

    def test_empirical_cdf_ks_consistency(self):
        from cascade_fading.mc import ks_statistic
        rng = np.random.default_rng(123)
        n = 10**6
        s = sample_z(MIXED_21, rng, n)
        assert ks_statistic(MIXED_21, s) < 1.63 / math.sqrt(n)


def _doubling_reference(law, lx, kind):
    """The line integral on the nodes of specfun's plan for the line,
    evaluated in chunks of 64, 128, ... nodes, cut at the first node below
    the floor and refused once 2^16 nodes have been passed, and summed by
    specfun's sum.  Returns (value, error estimate, nodes summed)."""
    strip = {"F": (-law.b_min, 0.0, -0.5 * law.b_min, True), "Q": (0.0, math.inf, 1.0, True),
             "f": (-law.b_min, math.inf, 0.0, False)}[kind]
    plan = specfun._line_plan(law, lx, *strip)
    chunks, k0, n = [], 0, 64
    while plan.n:  # a plan without nodes has the value zero
        v = specfun._line_nodes(law, plan, k0, n)
        small = np.abs(v) < specfun._MB_TOL
        small[0] &= k0 > 0
        if small.any():
            chunks.append(v[:int(np.argmax(small))])
            break
        chunks.append(v)
        k0, n = k0 + n, 2 * n
        if k0 >= 1 << 16:
            raise AccuracyError("node cap")
    val, err = specfun._line_sum(plan, chunks, 0.0)
    return (-val if kind == "F" else val), err, sum(v.size for v in chunks)


def _outcome(fn, *args):
    """(value, error estimate) as reprs, which tell -0.0 from 0.0, or the
    type of the exception raised."""
    try:
        val, err = fn(*args)[:2]
    except Exception as exc:  # the type is the outcome compared
        return type(exc)
    return repr(float(val)), repr(float(err))


# the channels of the benchmark's scalar workload
SCALAR_CHANNELS = {
    "clean_pair": CompositeProduct((WEAK, STRONG)),
    "pointing_pair": CompositeProduct((WEAK, STRONG), (PE_A, PE_B)),
    "coincident_pair": CompositeProduct((WEAK, WEAK)),
}


class _NodeCount:
    """Counts the nodes passed to either complex form of the Mellin law,
    _MellinLaw.log_probe and fused, while installed."""

    def __init__(self, monkeypatch):
        self.nodes = 0
        for name in ("log_probe", "fused"):
            monkeypatch.setattr(distributions._MellinLaw, name, self._counted(name))

    def _counted(self, name):
        inner = getattr(distributions._MellinLaw, name)

        def form(law, s, *args):
            self.nodes += np.size(s)
            return inner(law, s, *args)

        return form


class _ShortFirstChunk:
    """The math module, but with the first chunk's reach cut to zero: the
    log cosh weight it adds at height T is pushed far down."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def log1p(v):
        return math.log1p(v) - 1e3


class TestNodeSchedule:
    """The node chunks are sized from the integrand's decay; the sum is cut
    at the first node below the floor however the nodes are chunked, so
    every value, error estimate and refusal equals that of the same mapped
    nodes taken in doubling chunks."""

    @pytest.mark.parametrize("ch", [
        *SCALAR_CHANNELS.values(),
        CompositeProduct((GammaGammaParams(60.0, 40.0),) * 3),
        CompositeProduct((WEAK,) * 3, (PE_A, PE_B)),
    ], ids=[*SCALAR_CHANNELS, "g60_40_cubed", "weak3_pe2"])
    def test_matches_doubling_reference(self, ch):
        law = ch._law
        for x in np.exp(np.linspace(math.log(1e-6), math.log(50.0), 15)):
            for kind in "FQf":
                args = (law, math.log(x), kind)
                assert (_outcome(distributions._line_integral, *args)
                        == _outcome(_doubling_reference, *args)), (x, kind)

    @pytest.mark.parametrize("x", [1e30, 1e50, 1e100, 1e-300, 5e-324])
    def test_matches_doubling_reference_far_out(self, x):
        law = CompositeProduct((WEAK,))._law
        for kind in "FQf":
            args = (law, math.log(x), kind)
            assert (_outcome(distributions._line_integral, *args)
                    == _outcome(_doubling_reference, *args)), kind

    @pytest.mark.parametrize("label", SCALAR_CHANNELS)
    # the first chunk extrapolates the fall at height T down to the floor;
    # the overshoot measured is at most 16%, the complex nodes at the top
    # corners of the strip in every call included
    @pytest.mark.parametrize("lo,hi,bound", [(1e-3, 10.0, 1.25), (1e-7, 20.0, 1.25)])
    def test_evaluates_few_unused_nodes(self, label, lo, hi, bound, monkeypatch):
        law = SCALAR_CHANNELS[label]._law
        used = 0
        for x in np.exp(np.linspace(math.log(lo), math.log(hi), 40)):
            lx = math.log(x)
            for kind in ("F" if lx < law.mean_log else "Q", "f"):
                used += _doubling_reference(law, lx, kind)[2]
        count = _NodeCount(monkeypatch)
        for x in np.exp(np.linspace(math.log(lo), math.log(hi), 40)):
            z_cdf(SCALAR_CHANNELS[label], x)
            z_pdf(SCALAR_CHANNELS[label], x)
        assert count.nodes <= bound * used

    def test_refusal_evaluates_at_most_the_cap(self, monkeypatch):
        # the clean pair's CDF at x = 1e-6 evaluates the two complex nodes
        # at the top corners of the strip, which set its angle, and one chunk
        # of 122 nodes, and cuts the sum at node 120: smaller caps force the
        # refusals
        ch = SCALAR_CHANNELS["clean_pair"]
        count = _NodeCount(monkeypatch)
        # a cap inside the first chunk sizes it at the cap itself
        monkeypatch.setattr(specfun, "_MB_MAX_NODES", 96)
        with pytest.raises(AccuracyError, match="96 nodes"):
            z_cdf(ch, 1e-6)
        assert count.nodes == 2 + specfun._MB_MAX_NODES
        # a cap inside a later chunk clips that chunk
        count.nodes = 0
        monkeypatch.setattr(specfun, "math", _ShortFirstChunk())
        with pytest.raises(AccuracyError, match="96 nodes"):
            z_cdf(ch, 1e-6)
        assert count.nodes == 2 + specfun._MB_MAX_NODES

    def test_short_first_chunk_is_continued(self, monkeypatch):
        # where the first chunk's reach falls short, later chunks, each
        # twice the size of the one before, carry the sum to the same cut
        law = SCALAR_CHANNELS["clean_pair"]._law
        for x in (1e-6, 0.3, 20.0):
            for kind in "FQf":
                args = (law, math.log(x), kind)
                expect = _outcome(_doubling_reference, *args)
                calls = []
                inner = distributions._MellinLaw.fused
                with monkeypatch.context() as m:
                    m.setattr(distributions._MellinLaw, "fused",
                              lambda law, *args: calls.append(1) or inner(law, *args))
                    m.setattr(specfun, "math", _ShortFirstChunk())
                    assert _outcome(distributions._line_integral, *args) == expect
                assert len(calls) > 1, (x, kind)

    def test_cap_counts_node_indices(self, monkeypatch):
        # the first node below the floor has index `used`: a cap of
        # used + 1 nodes reaches it, a cap of `used` refuses after the two
        # complex nodes at the top corners of the strip and `used` line nodes
        law = SCALAR_CHANNELS["clean_pair"]._law
        lx = math.log(1e-6)
        val, err, used = _doubling_reference(law, lx, "F")
        assert used == 120
        monkeypatch.setattr(specfun, "_MB_MAX_NODES", used + 1)
        assert distributions._line_integral(law, lx, "F") == (val, err)
        monkeypatch.setattr(specfun, "_MB_MAX_NODES", used)
        count = _NodeCount(monkeypatch)
        with pytest.raises(AccuracyError):
            distributions._line_integral(law, lx, "F")
        assert count.nodes == 2 + used

    # evaluated nodes per call on the deep outage tail, x from 1e-7 to 1e-3
    # (F from 1e-8 or below): about 1.15 times those measured (110, 102 and
    # 80); the uniform step on the same strip takes 885, 800 and 306
    @pytest.mark.parametrize("label", SCALAR_CHANNELS)
    def test_deep_tail_node_budget(self, label, monkeypatch):
        bound = {"clean_pair": 126, "pointing_pair": 117, "coincident_pair": 92}[label]
        ch = SCALAR_CHANNELS[label]
        count = _NodeCount(monkeypatch)
        grid = np.exp(np.linspace(math.log(1e-7), math.log(1e-3), 20))
        for x in grid:
            z_cdf(ch, x)
            z_pdf(ch, x)
        assert count.nodes <= bound * 2 * grid.size

    def test_deep_tail_nodes(self, monkeypatch):
        # the clean pair's F and f lines on the deep outage tail evaluate
        # 110 nodes a line on average, the two complex nodes at the strip's
        # top corners included; an angle of half the fall rate alone takes
        # 147
        ch = SCALAR_CHANNELS["clean_pair"]
        count = _NodeCount(monkeypatch)
        grid = np.exp(np.linspace(math.log(1e-7), math.log(1e-3), 40))
        for x in grid:
            z_cdf(ch, x)
            z_pdf(ch, x)
        assert count.nodes <= 115 * 2 * grid.size


DEEP_TAIL_CHANNELS = {
    **SCALAR_CHANNELS,
    "weak3_pe2": CompositeProduct((WEAK,) * 3, (PE_A, PointingErrorParams(1.5, 0.7))),
}
# x where F is about 1e-8, 1e-6, 1e-4 and 1e-2
DEEP_TAIL = {
    "clean_pair": (1.21e-07, 5.09e-06, 0.000215, 0.00941),
    "pointing_pair": (5.89e-08, 2.48e-06, 0.000105, 0.00461),
    "coincident_pair": (0.0002, 0.00108, 0.00638, 0.0477),
    "weak3_pe2": (2.73e-07, 5.88e-06, 0.000127, 0.00309),
}


class TestDeepTailOracle:
    """The outage tail, where the diversity order shows, against
    mpmath.meijerg at 30 digits: the hypergeometric series at raised
    precision, a route independent of the line integral."""

    @pytest.mark.parametrize("label", DEEP_TAIL)
    def test_cdf_and_pdf(self, label):
        ch = DEEP_TAIL_CHANNELS[label]
        for x in DEEP_TAIL[label]:
            assert z_cdf(ch, x) == pytest.approx(mpmath_cdf(ch, x), rel=1e-13, abs=0.0)
            assert z_pdf(ch, x) == pytest.approx(mpmath_pdf(ch, x), rel=1e-13, abs=0.0)


class TestFallRateTrapOracle:
    """(40, 50)·pe(1.2, 0.8) falls far more slowly up the line than its
    decay rate, and faster with height: the strip's angle may widen with the
    average fall up to the probe's height only where that stays below the
    fall rate there.  Against mpmath.meijerg at 30 digits; at a share of 0.9
    of the fall rate alone the PDF at 0.3 is 1.1e-12 off, with no refusal."""

    def test_cdf_and_pdf(self):
        ch = CompositeProduct((GammaGammaParams(40.0, 50.0),), (PointingErrorParams(1.2, 0.8),))
        for x in (0.01, 0.3, 1.0, 3.0):
            assert z_cdf(ch, x) == pytest.approx(mpmath_cdf(ch, x), rel=1e-13, abs=0.0)
            assert z_pdf(ch, x) == pytest.approx(mpmath_pdf(ch, x), rel=1e-13, abs=0.0)


FAR_TAIL_CHANNELS = {
    "weak": CompositeProduct((WEAK,)),
    "pointing_pair": SCALAR_CHANNELS["pointing_pair"],
    "strong6": CompositeProduct((STRONG,) * 6),
    "small_shapes": CompositeProduct((GammaGammaParams(0.6, 0.5), GammaGammaParams(0.7, 0.55))),
    "weak3_pe2": DEEP_TAIL_CHANNELS["weak3_pe2"],
}


class TestFarTailOracle:
    """Far below the outage region, where the saddle line sits next to the
    first pole of E[Z^s] and x^-s grows fastest across the line, against
    mpmath.meijerg at 30 digits."""

    @pytest.mark.parametrize("label", FAR_TAIL_CHANNELS)
    def test_cdf_and_pdf(self, label):
        ch = FAR_TAIL_CHANNELS[label]
        for x in (1e-100, 1e-30, 1e-15, 1e-10, 1e-7):
            assert z_cdf(ch, x) == pytest.approx(mpmath_cdf(ch, x), rel=1e-12, abs=0.0), x
            assert z_pdf(ch, x) == pytest.approx(mpmath_pdf(ch, x), rel=1e-12, abs=0.0), x


# x where 1 - F is about 1e-2, 1e-6 and 1e-10
UPPER_TAIL = {
    "clean_pair": (7.09, 56.7, 179.0),
    "pointing_pair": (3.82, 32.3, 105.0),
    "coincident_pair": (5.22, 30.0, 81.6),
    "weak3_pe2": (2.3, 25.4, 101.0),
    "g60_40_cubed": (2.11, 4.72, 7.87),
}
UPPER_TAIL_CHANNELS = {
    **DEEP_TAIL_CHANNELS,
    "g60_40_cubed": CompositeProduct((GammaGammaParams(60.0, 40.0),) * 3),
}


class TestUpperTailOracle:
    """The CDF above E[ln Z], where it is 1 - Q with Q the line integral
    right of the origin, against 1 - F from mpmath.meijerg at 40 digits.
    Q itself is pinned relative to 1 - F; the CDF, which cannot hold that
    in double precision, to the rounding of 1 - Q on top."""

    @pytest.mark.parametrize("label", [
        pytest.param(label, marks=pytest.mark.slow) if label == "g60_40_cubed" else label
        for label in UPPER_TAIL])
    def test_complement(self, label):
        ch = UPPER_TAIL_CHANNELS[label]
        law = ch._law
        for x in UPPER_TAIL[label]:
            sf = mpmath_sf(ch, x)
            assert math.log(x) >= law.mean_log  # the Q branch
            q = distributions._line_integral(law, math.log(x), "Q")[0]
            assert q == pytest.approx(sf, rel=1e-12, abs=0.0), x
            assert z_cdf(ch, x) == pytest.approx(1.0 - sf, rel=0.0, abs=1e-12 * sf + 2.0**-53), x


class _SaddleLog:
    """Counts _GammaKernel.slopes calls, and records each _saddle call as
    (kernel, lx, lo, hi, pole, c returned), while installed."""

    def __init__(self, monkeypatch):
        self.slopes, self.lines = 0, []
        slopes, saddle = specfun._GammaKernel.slopes, specfun._saddle

        def count(kern, *args):
            self.slopes += 1
            return slopes(kern, *args)

        def record(kern, lx, lo, hi, c, pole):
            out = saddle(kern, lx, lo, hi, c, pole)
            self.lines.append((kern, lx, lo, hi, pole, out[0]))
            return out

        monkeypatch.setattr(specfun._GammaKernel, "slopes", count)
        monkeypatch.setattr(specfun, "_saddle", record)


def _slope_root(kern, lx, lo, hi, pole):
    """The root of log_size's slope on (lo, hi), by bisection down to
    adjacent floats (an infinite hi is first replaced by doubling)."""
    if hi == math.inf:
        hi = max(lo, 0.0) + 1.0
        while kern.slopes(hi, lx, pole)[0] < 0.0:
            lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if kern.slopes(mid, lx, pole)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


# channels whose strip edges the start must keep clear of: (60, 40)^3 has
# a narrow ln Z, and weak.pe(0.7, 0.8) has its pointing pole as the edge
STRIP_CHANNELS = {
    "weak": CompositeProduct((WEAK,)),
    "g60_40_cubed": UPPER_TAIL_CHANNELS["g60_40_cubed"],
    "weak_pe": CompositeProduct((WEAK,), (PointingErrorParams(0.7, 0.8),)),
    "coincident_pair": SCALAR_CHANNELS["coincident_pair"],
}
# the line integrals there that return exactly zero, by ln x (none at
# E[ln Z] -+ 1e-9), as before the search started from the lognormal saddle;
# all others return a nonzero value, and none refuses
STRIP_ZEROS = {
    "weak": {-700.0: "Ff", 50.0: "Qf", 700.0: "Qf"},
    "g60_40_cubed": {-700.0: "Ff", -50.0: "Ff", 50.0: "Qf", 700.0: "Qf"},
    "weak_pe": {50.0: "Qf", 700.0: "Qf"},
    "coincident_pair": {-700.0: "Ff", 50.0: "Qf", 700.0: "Qf"},
}


class TestSaddleSearch:
    """The saddle search starts from the saddle of the lognormal model of
    ln Z, or far right from the asymptote of the slope, and stops on its
    first Newton step below 1e-3 (1 + |c|).  The pins are counts and
    positions, not timings."""

    GRID = np.exp(np.linspace(math.log(1e-7), math.log(50.0), 40))

    def test_few_slope_evaluations(self, monkeypatch):
        # a fixed start (-b_min / 2, 1 or 0) and a stop that confirms a step
        # below 1e-10 took 5.37 per line here (5.32 on the benchmark's pool)
        for ch in SCALAR_CHANNELS.values():
            ch._law  # E[ln Z] and Var[ln Z] cost one evaluation per law
        log = _SaddleLog(monkeypatch)
        self._run_grid()
        assert len(log.lines) == 2 * len(SCALAR_CHANNELS) * self.GRID.size
        assert log.slopes <= 3.2 * len(log.lines)

    def _run_grid(self):
        for ch in SCALAR_CHANNELS.values():
            for x in self.GRID:
                z_cdf(ch, x)
                z_pdf(ch, x)

    def test_line_sits_at_the_saddle(self, monkeypatch):
        log = _SaddleLog(monkeypatch)
        self._run_grid()
        for ch in STRIP_CHANNELS.values():
            for lx in self._log_points(ch._law):
                for kind in "FQf":
                    distributions._line_integral(ch._law, lx, kind)
        assert len(log.lines) == 6 * self.GRID.size + 4 * 6 * 3
        for kern, lx, lo, hi, pole, c in log.lines:
            root = _slope_root(kern, lx, lo, hi, pole)
            assert abs(c - root) <= 1e-5 * (1.0 + abs(root)), (lx, lo, hi, pole)

    @staticmethod
    def _log_points(law):
        return (-700.0, -50.0, law.mean_log - 1e-9, law.mean_log + 1e-9, 50.0, 700.0)

    @pytest.mark.parametrize("label", STRIP_CHANNELS)
    def test_few_slope_evaluations_far_out(self, label, monkeypatch):
        # at ln x = 700 the saddle of the Q and f lines lies near
        # e^(700 / n) for n shapes; Newton from the lognormal saddle alone
        # took 35-79 slope evaluations there
        law = STRIP_CHANNELS[label]._law
        log = _SaddleLog(monkeypatch)
        for lx in (-700.0, 700.0):
            for kind in "FQf":
                before = log.slopes
                val, err = distributions._line_integral(law, lx, kind)
                assert log.slopes - before <= 10, (lx, kind)
                assert (val == 0.0) == (kind in STRIP_ZEROS[label].get(lx, "")), (lx, kind)

    @pytest.mark.parametrize("label", STRIP_CHANNELS)
    def test_start_inside_the_strip(self, label, monkeypatch):
        law = STRIP_CHANNELS[label]._law
        starts = []
        start = distributions._MellinLaw.start

        def record(kern, lx, lo, hi, c, pole):
            out = start(kern, lx, lo, hi, c, pole)
            starts.append((lo, out, hi))
            return out

        monkeypatch.setattr(distributions._MellinLaw, "start", record)
        for lx in self._log_points(law):
            zeros = STRIP_ZEROS[label].get(lx, "")
            for kind in "FQf":
                del starts[:]
                val, err = distributions._line_integral(law, lx, kind)
                [(lo, c, hi)] = starts
                assert lo < c < hi, (lx, kind)
                assert math.isfinite(val) and (val == 0.0) == (kind in zeros), (lx, kind)


class TestSubnormalScale:
    def test_pdf_keeps_its_digits(self):
        # x f(x) is 3e-317 here, subnormal: f is formed without it
        ch = CompositeProduct((GammaGammaParams(35.9, 1.056),), (PointingErrorParams(7.73, 0.677),))
        assert z_pdf(ch, 1e-300) == pytest.approx(mpmath_pdf(ch, 1e-300, dps=60), rel=1e-12, abs=0.0)

    def test_pdf_with_an_underflowed_estimate_refuses(self):
        # f(1e-160) of one weak link is about 1e-317: its error estimate
        # underflows to zero, which bounds nothing
        with pytest.raises(AccuracyError):
            z_pdf(CompositeProduct((WEAK,)), 1e-160)

    def test_pdf_beyond_the_largest_double_refuses(self):
        # f(5e-324) of (0.01, 3.0) is about x^-0.99 / 200 = e^732
        with pytest.raises(AccuracyError, match=r"overflows a double \(ln x = -744.44\)"):
            z_pdf(CompositeProduct((GammaGammaParams(0.01, 3.0),)), 5e-324)

    def test_pdf_near_the_largest_double(self):
        # f = 6.7e305 here, but e^(peak) alone, before h w / pi, overflows
        p = GammaGammaParams(0.01, 3.0)
        x = math.exp(-716.0)
        assert z_pdf(CompositeProduct((p,)), x) == pytest.approx(
            mpmath_gg_pdf(p, x), rel=1e-13, abs=0.0)

    def test_pdf_just_past_the_largest_double_refuses(self):
        # f(e^-722) of (0.01, 3.0) is about 2.6e308
        with pytest.raises(AccuracyError, match=r"overflows a double \(ln x = -722\)"):
            z_pdf(CompositeProduct((GammaGammaParams(0.01, 3.0),)), math.exp(-722.0))

    def test_gg_pdf_beyond_the_largest_double_refuses(self):
        # the closed form refuses where z_pdf of the same law does, not inf
        with pytest.raises(AccuracyError, match=r"overflows a double \(ln x = -744.44\)"):
            gg_pdf(GammaGammaParams(0.01, 3.0), 5e-324)


class TestMellinLawSlices:
    """The real slices of the line integral's kernel run on floats; their
    values against scipy are pinned by test_specfun's TestMeijerGKernel."""

    def test_no_real_scipy_function_on_the_path(self):
        # the saddle search, the law and the meijer_g kernel use math,
        # specfun._psi and the Lanczos lnGamma of specfun: in a fresh
        # interpreter no scipy module is loaded along the whole path
        code = """
import sys
from cascade_fading import specfun
from cascade_fading.distributions import (
    CompositeProduct, GammaGammaParams, PointingErrorParams, z_cdf, z_cdf_asymptotic, z_pdf)
ch = CompositeProduct((GammaGammaParams(10.02, 2.98), GammaGammaParams(4.942, 1.231)),
                      (PointingErrorParams(6.7, 0.8), PointingErrorParams(5.1, 0.9)))
for x in (1e-6, 0.3, 5.0):
    assert 0.0 < z_cdf(ch, x) < 1.0 and z_pdf(ch, x) > 0.0
assert z_cdf_asymptotic(ch, 1e-6) > 0.0
assert specfun.meijer_g(specfun.MeijerGSpec(2, 1, 1, 3, (1.0,), (4.94, 1.23, 0.0)), 0.1).value > 0.0
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestLawPerChannel:
    def test_built_once_per_channel(self, monkeypatch):
        builds = []
        inner = distributions._MellinLaw.__init__

        def init(law, ch):
            builds.append(1)
            inner(law, ch)

        monkeypatch.setattr(distributions._MellinLaw, "__init__", init)
        ch = CompositeProduct((WEAK, STRONG), (PE_A,))
        for x in np.exp(np.linspace(math.log(1e-3), math.log(10.0), 50)):
            z_cdf(ch, x)
            z_pdf(ch, x)
        assert len(builds) == 1
        # an equal channel builds its own; the law leaves eq, hash and repr
        # alone and dies with its channel
        twin = CompositeProduct((STRONG, WEAK), (PE_A,))
        assert z_cdf(twin, 0.5) == z_cdf(ch, 0.5)
        assert len(builds) == 2
        assert twin == ch and hash(twin) == hash(ch) and repr(twin) == repr(ch)
        ref = weakref.ref(ch._law)
        del ch
        gc.collect()
        assert ref() is None

    def test_lngamma_once_per_distinct_shape(self, monkeypatch):
        # weak^3 repeats each of its two shapes three times: both complex
        # forms of the law take lnGamma once per distinct shape, and the
        # fused one gathers its parts back to all six rows bit for bit
        law = DEEP_TAIL_CHANNELS["weak3_pe2"]._law
        s = -1.3 + 1j * np.linspace(0.0, 40.0, 97)
        lx, factor = 0.7, np.cosh(np.linspace(0.0, 2.0, 97)) / s
        zk = (law.shapes[:, None] + specfun._LANCZOS_K)[:, None, :] + s[:, None]
        l, m = specfun._lngamma_parts(zk, False)
        prod = np.multiply.reduce(m, axis=0) * factor
        prod = prod / np.multiply.reduce(law.xis[:, None] + s, axis=0)
        expect = np.exp(s * (law.fused_scale - lx)
                        + np.add.reduce(l, axis=0, initial=law.log_norm + law.fused_norm)) * prod
        point = complex(-1.3, 7.0)
        expect_at = (point * law.log_scale + law.log_norm
                     + sum(specfun._lngamma_up(b + point) for b in law.shapes)
                     - sum(cmath.log(xi + point) for xi in law.xis))
        rows, calls = [], []
        inner_parts, inner_at = specfun._lngamma_parts, specfun._lngamma_up

        def parts(zk, reflect):
            rows.append(np.shape(zk)[0])
            return inner_parts(zk, reflect)

        def at(z):
            calls.append(z)
            return inner_at(z)

        monkeypatch.setattr(specfun, "_lngamma_parts", parts)
        monkeypatch.setattr(specfun, "_lngamma_up", at)
        got = law.fused(s, lx, factor, -1.3, -1.3, 0.0)
        got_at = law.log_probe(point)
        assert rows == [2] and len(calls) == 2 and law.shapes.size == 6
        assert got.tobytes() == expect.tobytes()
        assert abs(got_at - expect_at) <= 1e-14 * abs(expect_at)

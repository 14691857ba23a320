"""Product-channel statistics against quadrature, convolution and sampling
oracles.  Every [derived] expectation here is computed by an independent
numerical method in the test itself."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

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
    bessel_k,
)

WEAK = GammaGammaParams(10.02, 2.98)
STRONG = GammaGammaParams(4.942, 1.231)
PE_A = PointingErrorParams(6.7, 0.8)
PE_B = PointingErrorParams(5.1, 0.9)

MIXED_11 = CompositeProduct((WEAK,), (PE_A,))
MIXED_21 = CompositeProduct((WEAK, STRONG), (PE_A,))
MIXED_22 = CompositeProduct((WEAK, STRONG), (PE_A, PE_B))


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


class TestComposite:
    def test_tuples(self):
        assert MIXED_21.b_tuple == (4.942, 10.02, 1.231, 2.98, 6.7)
        assert MIXED_21.a_tuple == (1.0, 7.7)

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
        # the perturbation-path PDF has a flagged band deep in the upper
        # tail; normalization is checked over the bulk against the CDF (which
        # stays covered), plus the CDF limit itself
        ch = CompositeProduct((WEAK, WEAK))
        hi = 3.3  # ~97.5 percent of the mass, inside the clean zone
        val, _ = integrate.quad(lambda t: z_pdf(ch, t), 0.0, hi, limit=500)
        assert val == pytest.approx(z_cdf(ch, hi), abs=5e-7)
        assert z_cdf(ch, 300.0) >= 1.0 - 1e-6

    @pytest.mark.parametrize("ch", [MIXED_11, MIXED_21, MIXED_22,
                                    CompositeProduct((WEAK, WEAK))])
    def test_cdf_monotone_and_in_range(self, ch):
        grid = np.exp(np.linspace(math.log(1e-4), math.log(80.0), 400))
        vals = z_cdf(ch, grid)
        # slack covers the documented seam error of the tail handoff
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

    @pytest.mark.parametrize("ch", [MIXED_22, CompositeProduct((WEAK, WEAK))])
    def test_array_matches_scalar_bitwise(self, ch):
        grid = np.exp(np.linspace(math.log(1e-3), math.log(30.0), 23))
        cdf, pdf = z_cdf(ch, grid), z_pdf(ch, grid)
        for i, x in enumerate(grid):
            assert z_cdf(ch, float(x)) == cdf[i]
            assert z_pdf(ch, float(x)) == pdf[i]


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

    def test_degenerate_tuple_rejected(self):
        with pytest.raises(DegenerateParametersError):
            z_cdf_asymptotic(CompositeProduct((WEAK, WEAK)), 1e-3)

    @pytest.mark.parametrize("x,exact", [(0.05, 6.7e-15), (0.1, 1.0e-9), (0.2, 1.2e-5)])
    def test_out_of_double_range_refuses(self, x, exact):
        # the residue coefficients overflow and the prefactor underflows to
        # 0.0, so the sum came out as nan without a refusal
        ch = CompositeProduct((GammaGammaParams(60.1, 40.3), GammaGammaParams(61.7, 40.9),
                               GammaGammaParams(62.35, 41.45)))
        with pytest.raises(AccuracyError):
            z_cdf_asymptotic(ch, x)
        assert z_cdf(ch, x) == pytest.approx(exact, rel=0.05)

    def test_pointing_moment_overflow_refuses(self):
        # A_o^(-b_i) of a xi >= 64 factor overflows a double
        ch = CompositeProduct((GammaGammaParams(3.3, 1.7),), (PointingErrorParams(200.1, 1e-200),))
        with pytest.raises(AccuracyError):
            z_cdf_asymptotic(ch, 1e-3)


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

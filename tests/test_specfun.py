"""Special-function layer: reference values, identities, error behavior."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special as sp

from cascade_fading import specfun
from cascade_fading.distributions import CompositeProduct, GammaGammaParams, PointingErrorParams
from cascade_fading.specfun import (
    AccuracyError,
    DegenerateParametersError,
    DomainError,
    MeijerGSpec,
    SeriesOverflowError,
    UnsupportedSpecError,
    bessel_k,
    build_slater_expansion,
    erf_fn,
    gamma_fn,
    meijer_g,
    pfq,
)
from mpmath_oracles import mpmath_meijer_g

# High-precision reference values, frozen from a 200-digit offline
# computation (series summation / reflection identities).
GAMMA_10_02 = 379603.8737217455362393533
PFQ_2F3_FIXTURE = 1.06339908216451675914688945606  # 2F3((1.1,2.2);(3.3,4.4,5.5);2)
G20_02_FIXTURE = 90.61205182213214059266428  # G^{2,0}_{0,2}(0.5 | 10.02, 2.98)


class TestGamma:
    def test_one(self):
        assert gamma_fn(1.0) == 1.0

    def test_half_integer(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_reference_value(self):
        assert gamma_fn(10.02) == pytest.approx(GAMMA_10_02, rel=1e-12)

    def test_pole_rejected(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gamma_fn(x)

    def test_negative_non_integer(self):
        # reflection: Gamma(-0.5) = -2 sqrt(pi)
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match="must not be NaN"):
            gamma_fn(math.nan)


class TestErf:
    def test_zero(self):
        assert erf_fn(0.0) == 0.0

    def test_series_oracle(self):
        # erf(x) = 2/sqrt(pi) * sum (-1)^k x^(2k+1) / (k! (2k+1))
        for x in (0.3, 1.0, 2.2):
            acc, term_pow = 0.0, x
            for k in range(60):
                acc += (-1) ** k * term_pow / (math.factorial(k) * (2 * k + 1))
                term_pow *= x * x
            assert erf_fn(x) == pytest.approx(2.0 / math.sqrt(math.pi) * acc, abs=1e-14)

    @given(st.floats(min_value=1e-3, max_value=5.0))
    def test_odd_symmetry(self, x):
        assert erf_fn(-x) == -erf_fn(x)

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match="must not be NaN"):
            erf_fn(math.nan)


def _bessel_k_quadrature(nu, x):
    """Independent oracle: K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    val, err = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t) + math.log(math.cosh(min(nu * t, 700)))
                           if nu * t < 690 else -np.inf),
        0.0, 60.0, limit=400,
    )
    return val


class TestBesselK:
    def test_k0_at_2(self):
        # frozen from the integral representation (also agrees with quad below)
        assert bessel_k(0, 2.0) == pytest.approx(0.1138938727495334356527196, rel=1e-12)

    def test_quadrature_oracle(self):
        for nu, x in ((0.0, 2.0), (7.04, 3.5), (2.5, 0.4), (11.0, 30.0)):
            oracle, _ = integrate.quad(
                lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
                0.0, 40.0, limit=400,
            )
            assert bessel_k(nu, x) == pytest.approx(oracle, rel=1e-10)

    def test_order_symmetry_bitwise(self):
        for nu, x in ((3.3, 1.7), (0.5, 9.0), (12.25, 0.3)):
            assert bessel_k(nu, x) == bessel_k(-nu, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1.0, -3.0)

    @pytest.mark.parametrize("nu,x", [(1.0, math.nan), (math.nan, 1.0)])
    def test_nan_rejected(self, nu, x):
        with pytest.raises(DomainError, match="must not be NaN"):
            bessel_k(nu, x)

    def test_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            bessel_k(50.0, 1e-6)


class TestPfq:
    def test_exponential(self):
        val, ok = pfq([], [], 1.0)
        assert ok and val == pytest.approx(math.e, rel=1e-14)

    def test_parameter_cancellation(self):
        val, _ = pfq([2.5], [2.5], 0.7)
        assert val == pytest.approx(math.exp(0.7), rel=1e-13)

    def test_2f3_fixture(self):
        val, ok = pfq([1.1, 2.2], [3.3, 4.4, 5.5], 2.0)
        assert ok and val == pytest.approx(PFQ_2F3_FIXTURE, rel=1e-13)

    def test_rejects_p_gt_q(self):
        with pytest.raises(DomainError):
            pfq([1.0, 2.0], [3.0], 0.5)

    def test_rejects_nonpositive_integer_lower(self):
        with pytest.raises(DomainError):
            pfq([1.0], [-2.0], 0.5)

    @pytest.mark.parametrize("a,b,z", [
        ([1.0], [2.0], math.nan),
        ([1.0], [2.0], [0.5, math.nan]),
        ([math.nan], [2.0], 0.5),
        ([1.0], [math.nan], 0.5),
    ])
    def test_nan_rejected(self, a, b, z):
        with pytest.raises(DomainError, match="must not be NaN"):
            pfq(a, b, z)

    def test_vectorized_matches_scalar(self):
        zs = np.array([0.1, 1.0, 7.5])
        vec, _ = pfq([1.3], [2.2, 0.8], zs)
        for z, v in zip(zs, vec):
            assert pfq([1.3], [2.2, 0.8], float(z))[0] == v

    @given(st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_partial_sums_monotone_after_peak(self, z):
        # positive parameters, z > 0: once terms decrease they keep
        # decreasing, so partial sums increase monotonically to the limit
        a, b = [1.7], [2.9, 1.1]
        term, total, prev_terms = 1.0, 1.0, []
        for k in range(400):
            term *= (a[0] + k) * z / ((b[0] + k) * (b[1] + k) * (k + 1))
            total += term
            prev_terms.append(term)
        decreasing = [i for i in range(1, len(prev_terms))
                      if prev_terms[i] < prev_terms[i - 1]]
        k0 = decreasing[0]
        assert all(prev_terms[i] >= prev_terms[i + 1] for i in range(k0, 300))
        assert pfq(a, b, z)[0] == pytest.approx(total, rel=1e-9)

    def test_series_overflow_is_an_accuracy_error(self):
        # `except AccuracyError` catches every refusal of the package
        assert issubclass(SeriesOverflowError, AccuracyError)
        err = SeriesOverflowError("no convergence", terms=10_000, last_term=2.5)
        assert (str(err), err.terms, err.last_term) == ("no convergence", 10_000, 2.5)


class TestMeijerG:
    def test_exponential_special_case(self):
        spec = MeijerGSpec(1, 0, 0, 1, (), (0.0,))
        res = meijer_g(spec, 1.0)
        assert res.accuracy == "clean"
        assert res.value == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_bessel_identity(self):
        # G^{2,0}_{0,2}(x | -; a, b) = 2 x^((a+b)/2) K_{a-b}(2 sqrt x)
        spec = MeijerGSpec(2, 0, 0, 2, (), (10.02, 2.98))
        lhs = meijer_g(spec, 0.5).value
        rhs = 2.0 * 0.5 ** ((10.02 + 2.98) / 2) * bessel_k(10.02 - 2.98, 2 * math.sqrt(0.5))
        assert lhs == pytest.approx(rhs, rel=1e-11)
        assert lhs == pytest.approx(G20_02_FIXTURE, rel=1e-11)

    def test_single_gg_cdf_against_quadrature(self):
        # CDF-class instance at N=1 equals the integral of the density
        alpha, beta = 10.02, 2.98
        spec = MeijerGSpec(2, 1, 1, 3, (1.0,), (alpha, beta, 0.0))
        x = 1.0
        norm = math.gamma(alpha) * math.gamma(beta)
        val = meijer_g(spec, x * alpha * beta).value / norm

        def gg_density(t):
            s = 0.5 * (alpha + beta)
            return (2.0 / norm * (alpha * beta) ** s * t ** (s - 1)
                    * bessel_k(alpha - beta, 2 * math.sqrt(alpha * beta * t)))

        oracle, _ = integrate.quad(gg_density, 0.0, x, limit=200)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedSpecError):
            MeijerGSpec(1, 1, 2, 2, (0.5, 1.5), (0.3, 2.6))

    def test_domain(self):
        spec = MeijerGSpec(1, 0, 0, 1, (), (0.0,))
        with pytest.raises(DomainError):
            meijer_g(spec, -1.0)

    def test_perturbed_flag_for_coincident_parameters(self):
        spec = MeijerGSpec(2, 0, 0, 2, (), (2.98, 2.98))
        res = meijer_g(spec, 0.7)
        assert res.accuracy == "perturbed"
        # against the Bessel identity at the coincident point: K_0
        rhs = 2.0 * 0.7**2.98 * bessel_k(0.0, 2 * math.sqrt(0.7))
        assert res.value == pytest.approx(rhs, rel=1e-7)


class TestSlaterExpansion:
    def test_one_term_per_lower_parameter(self):
        spec = MeijerGSpec(2, 0, 0, 2, (), (0.3, 1.0))
        exp = build_slater_expansion(spec)
        assert sorted(t.exponent for t in exp.terms) == [0.3, 1.0]

    def test_integer_separated_pair_rejected(self):
        spec = MeijerGSpec(2, 0, 0, 2, (), (0.5, 1.5))
        with pytest.raises(DegenerateParametersError):
            build_slater_expansion(spec)

    def test_composite_cdf_term_count_and_finiteness(self):
        # N=1, L=1 CDF class: one residue term per b_1..b_m, m = 2N+L = 3.
        # (The trailing 0 parameter sits outside the residue set.)
        spec = MeijerGSpec(3, 1, 2, 4, (1.0, 7.7), (4.94, 1.23, 6.7, 0.0))
        exp = build_slater_expansion(spec)
        assert len(exp.terms) == 3
        assert all(math.isfinite(t.coefficient) for t in exp.terms)

    def test_expansion_matches_perturbed_path(self):
        # G rebuilt from its Slater terms, sum coeff x^b pFq(a'; b'; sign x),
        # against mpmath; meijer_g stays finite on the spec and on a
        # neighbour with an integer-separated pair, which it flags
        clean = MeijerGSpec(3, 1, 2, 4, (1.0, 7.7), (4.94, 1.23, 6.7, 0.0))
        exp = build_slater_expansion(clean)
        for x in (0.1, 1.0, 10.0):
            rebuilt = sum(t.coefficient * x**t.exponent
                          * pfq(t.a_params, t.b_params, exp.argument_sign * x)[0]
                          for t in exp.terms)
            assert rebuilt == pytest.approx(mpmath_meijer_g(clean, x), rel=1e-10)
            direct = meijer_g(clean, x)
            near = MeijerGSpec(3, 1, 2, 4, (1.0, 7.7), (4.94, 4.94 - 3.0, 6.7, 0.0))
            pert = meijer_g(near, x)
            assert pert.accuracy == "perturbed"
            assert math.isfinite(direct.value) and math.isfinite(pert.value)

    def test_slater_vs_fallback_on_log_grid(self):
        # meijer_g against the Bessel identity
        # G^{2,0}_{0,2}(x | a, b) = 2 x^((a+b)/2) K_(a-b)(2 sqrt x)
        spec = MeijerGSpec(2, 0, 0, 2, (), (5.2, 2.17))
        grid = np.exp(np.linspace(math.log(1e-4), math.log(50.0), 25))
        for x in grid:
            direct = meijer_g(spec, float(x))
            rhs = 2.0 * x ** ((5.2 + 2.17) / 2) * bessel_k(5.2 - 2.17, 2 * math.sqrt(x))
            assert direct.value == pytest.approx(rhs, rel=2e-7)


ORACLE_CASES = {
    "exp": (MeijerGSpec(1, 0, 0, 1, (), (0.0,)), (1.0,)),
    "bessel": (MeijerGSpec(2, 0, 0, 2, (), (10.02, 2.98)), (1e-12, 1e-6, 1e-4, 0.5, 50.0, 1e4)),
    "coincident": (MeijerGSpec(2, 0, 0, 2, (), (2.98, 2.98)), (1e-3, 0.7, 1.0)),
    "integer_gap": (MeijerGSpec(2, 0, 0, 2, (), (0.5, 1.5)), (1e-3, 0.7, 1.0)),
    # x = 1e-12 and 1e-6 put the saddle line next to the first pole, where
    # the sinh-mapped rule takes its widest steps
    "cdf2113": (MeijerGSpec(2, 1, 1, 3, (1.0,), (4.94, 1.23, 0.0)),
                (1e-12, 1e-6, 0.1, 1.0, 10.0)),
    "cdf2113_gap3": (MeijerGSpec(2, 1, 1, 3, (1.0,), (4.94, 1.94, 0.0)),
                     (1e-12, 1e-6, 0.1, 1.0, 10.0)),
    "cdf3124": (MeijerGSpec(3, 1, 2, 4, (1.0, 7.7), (4.94, 1.23, 6.7, 0.0)),
                (1e-12, 1e-6, 0.1, 1.0, 10.0)),
    "cdf3124_gap3": (MeijerGSpec(3, 1, 2, 4, (1.0, 7.7), (4.94, 1.94, 6.7, 0.0)),
                     (1e-12, 1e-6, 0.1, 1.0, 10.0)),
}


class TestMeijerGOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_mpmath(self, case):
        spec, xs = ORACLE_CASES[case]
        vec = meijer_g(spec, np.array(xs)).value
        for x, v in zip(xs, vec):
            assert v == pytest.approx(mpmath_meijer_g(spec, x), rel=1e-13), x
            assert meijer_g(spec, x).value == v

    @pytest.mark.parametrize("case", ["bessel", "cdf2113", "cdf3124"])
    def test_array_matches_scalar_bitwise(self, case):
        # a Python float, a numpy float and an int are one point each and
        # build no array; a 0-d array and a 1-element array go through the
        # array path: all give the same bits and the same error estimate,
        # and every scalar kind a float
        spec, _ = ORACLE_CASES[case]
        grid = np.exp(np.linspace(math.log(1e-6), math.log(1e3), 19))
        vec = meijer_g(spec, grid).value
        for x, v in zip(grid.tolist() + [2.0], vec.tolist() + [None]):
            one = meijer_g(spec, np.array([x]))
            assert v is None or repr(one.value[0].item()) == repr(v)
            kinds = [x, np.float64(x), np.array(x)] + ([int(x)] if x == int(x) else [])
            for arg in kinds:
                res = meijer_g(spec, arg)
                assert type(res.value) is float, arg
                assert repr(res.value) == repr(one.value[0].item()), arg
                assert repr(res.est_abs_err) == repr(one.est_abs_err), arg

    @pytest.mark.parametrize("spec,x,error,message", [
        (ORACLE_CASES["bessel"][0], math.nan, DomainError, "argument must not be NaN"),
        (ORACLE_CASES["bessel"][0], 0.0, DomainError, "argument must be positive"),
        (ORACLE_CASES["bessel"][0], -1.0, DomainError, "argument must be positive"),
        (ORACLE_CASES["bessel"][0], math.inf, DomainError, "meijer_g requires finite x"),
        (ORACLE_CASES["cdf2113"][0], 1e-260, AccuracyError,
         "Meijer G evaluation lost too much precision at x=1e-260 "
         "(value ~ 5.437192e-320, error estimate 0.0e+00)"),
    ])
    def test_scalar_kinds_refuse_alike(self, spec, x, error, message):
        kinds = [x, np.float64(x), np.array(x), np.array([x])]
        if math.isfinite(x) and x == int(x):
            kinds.append(int(x))
        for arg in kinds:
            with pytest.raises(error) as info:
                meijer_g(spec, arg)
            assert str(info.value) == message, arg

    def test_non_finite_argument_rejected(self):
        spec = MeijerGSpec(2, 0, 0, 2, (), (10.02, 2.98))
        for x in (math.nan, math.inf, -math.inf, [0.5, math.nan]):
            with pytest.raises(DomainError):
                meijer_g(spec, x)

    def test_no_separating_line_rejected(self):
        # the poles of Gamma(1 - a_1 - s) reach those of Gamma(b_1 + s):
        # the spec and its residue expansion exist, the line integral not
        spec = MeijerGSpec(1, 1, 1, 2, (3.0,), (0.5, 0.0))
        assert len(build_slater_expansion(spec).terms) == 1
        with pytest.raises(UnsupportedSpecError):
            meijer_g(spec, 1.0)

    def test_error_estimate_guard(self, monkeypatch):
        # the estimate at x = 1e4 is ~1e-5 of the value: inside the 3e-4
        # guard, refused under a tighter one
        spec = MeijerGSpec(2, 0, 0, 2, (), (10.02, 2.98))
        res = meijer_g(spec, 1e4)
        assert 0.0 < res.est_abs_err <= 3e-4 * res.value
        monkeypatch.setattr(specfun, "_GUARD_REL", 1e-7)
        with pytest.raises(AccuracyError):
            meijer_g(spec, 1e4)

    @pytest.mark.parametrize("spec,x", [
        # 1/Gamma(0.5 + s) vanishes at every half-integer of the strip, and
        # 1/Gamma(1 - s) at s = 1, 2, 3: the search meets poles of the real
        # slice's digamma and lnGamma
        (MeijerGSpec(2, 0, 1, 2, (0.5,), (50, 60)), 1.0),
        (MeijerGSpec(2, 1, 1, 3, (-3.0,), (4.94, 1.23, 0.0)), 1e4),
    ])
    def test_pole_on_the_search_refused_or_exact(self, spec, x):
        try:
            value = meijer_g(spec, x).value
        except AccuracyError:
            return
        assert value == pytest.approx(mpmath_meijer_g(spec, x), rel=1e-13)

    def test_underflowed_estimate_refused(self):
        # G is subnormal here and its error estimate underflows to 0, which
        # bounds nothing
        spec = MeijerGSpec(2, 1, 1, 3, (1.0,), (4.94, 1.23, 0.0))
        with pytest.raises(AccuracyError):
            meijer_g(spec, 1e-260)

    def test_overflow_refused(self):
        # G = x^-0.99 e^-x is about e^737 at x = 5e-324
        with pytest.raises(AccuracyError, match="overflows a double"):
            meijer_g(MeijerGSpec(1, 0, 0, 1, (), (-0.99,)), 5e-324)

    def test_no_saddle_refused(self):
        # 1/Gamma(0.1 + s) vanishes inside the strip, so the real integrand
        # has no minimum to place the line at
        spec = MeijerGSpec(2, 0, 1, 2, (0.1,), (5.0, 6.0))
        with pytest.raises(AccuracyError):
            meijer_g(spec, 1.0)

    def test_zero_on_the_strip_refused(self):
        # Gamma(1 + s)^2 Gamma(1 - s)^2 / (Gamma(0.9 + s) Gamma(0.9 - s)) is
        # even, so its line sits at c = 0 and its strip reaches 0.9 of the
        # way to the poles at -+1, where 1/Gamma(0.9 -+ s) vanishes
        kern = specfun._GammaKernel([(1.0, 1.0, 2), (1.0, -1.0, 2),
                                     (0.9, 1.0, -1), (0.9, -1.0, -1)])
        with pytest.raises(AccuracyError, match="vanishes on its strip"):
            specfun._mb_integral(kern, 0.0, -1.0, 1.0, 0.0, False)

    @pytest.mark.parametrize("a,b,x", [
        ((-66.1,), (4.4, 16.1), 1e-46),
        ((-5.6,), (1026.6, 7.0), 1e33),
    ])
    def test_rise_up_the_line_refused(self, a, b, x):
        # 1/Gamma(1 - b_2 - s) grows up the line faster than the numerators
        # fall at the probe's height, so no first chunk can be sized there
        with pytest.raises(AccuracyError, match="does not decay up the line"):
            meijer_g(MeijerGSpec(1, 1, 1, 2, a, b), x)

    def test_saddle_search_ends_at_its_iteration_cap(self, monkeypatch):
        # G^{1,0}_{0,1}(x | 0) = e^-x: from c = 1 Newton climbs towards the
        # saddle near c = x by factors, and at x = 1e280 runs out of steps;
        # the integrand's size at any c of the strip bounds the integral, so
        # the line there still proves e^-x zero
        calls = []
        slopes = specfun._GammaKernel.slopes
        monkeypatch.setattr(specfun._GammaKernel, "slopes",
                            lambda *args: calls.append(1) or slopes(*args))
        assert meijer_g(MeijerGSpec(1, 0, 0, 1, (), (0.0,)), 1e280).value == 0.0
        assert len(calls) == specfun._SADDLE_ITERS


class TestPsi:
    """The digamma and trigamma of the saddle search against mpmath."""

    def test_against_mpmath(self):
        # both signs of x, the reflection branch included; poles are kept
        # 1e-3 away, where the values reach 1e6
        xs = np.concatenate([np.linspace(-60.0, 200.0, 2601) + 0.0123,
                             -np.arange(60.0) - 1e-3, -np.arange(60.0) - 0.999,
                             np.geomspace(1e-8, 10.0, 200)])
        for x in xs.tolist():
            psi, psi1 = specfun._psi(x)
            want, want1 = float(mpmath.psi(0, x)), float(mpmath.psi(1, x))
            assert abs(psi - want) <= 1e-14 * max(abs(want), 1.0), x
            assert abs(psi1 - want1) <= 1e-14 * max(abs(want1), 1.0), x

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -60.0])
    def test_poles_raise(self, x):
        with pytest.raises(ZeroDivisionError):
            specfun._psi(x)


G, P = GammaGammaParams, PointingErrorParams
WEAK, STRONG = G(10.02, 2.98), G(4.942, 1.231)
# the channels whose upper tails test_distributions pins against mpmath
LAW_CASES = {
    "clean_pair": CompositeProduct((WEAK, STRONG)),
    "pointing_pair": CompositeProduct((WEAK, STRONG), (P(6.7, 0.8), P(5.1, 0.9))),
    "coincident_pair": CompositeProduct((WEAK, WEAK)),
    "weak3_pe2": CompositeProduct((WEAK,) * 3, (P(6.7, 0.8), P(1.5, 0.7))),
    "g60_40_cubed": CompositeProduct((G(60.0, 40.0),) * 3),
}


def _slice_case(case):
    """(kernel, lines (c, pole), ln x values): a meijer_g spec's Phi across
    its strip, or the Mellin law of a channel on the lines of F, Q and f."""
    if case in ORACLE_CASES:
        spec = ORACLE_CASES[case][0]
        lo = -min(spec.b[:spec.m])
        hi = 1.0 - spec.a[0] if spec.n else lo + 30.0
        lines = [(c, False) for c in np.linspace(lo, hi, 41)[1:-1]]
        return specfun._meijer_kernel(spec), lines, (-27.6, 0.0, 9.2)
    law = LAW_CASES[case]._law
    lines = [(c, True) for c in np.linspace(-law.b_min, 0.0, 31)[1:-1]]
    lines += [(c, True) for c in np.linspace(0.0, 10.0, 31)[1:]]
    lines += [(c, False) for c in np.linspace(-law.b_min, 10.0, 41)[1:]]
    return law, lines, (-27.6, law.mean_log, 4.6)


class TestMeijerGKernel:
    """The float real slices of the one gamma-product kernel behind every
    Mellin-Barnes integral, a Meijer G's Phi(s) as meijer_g builds it and
    the Mellin law E[Z^s] of a channel (whose PDF is a Meijer G), against
    the scipy expressions they replaced."""

    @pytest.mark.parametrize("case", [*ORACLE_CASES, *LAW_CASES])
    def test_real_slice_matches_scipy(self, case):
        kern, lines, lxs = _slice_case(case)
        base, sign, k = (np.array(v) for v in zip(*[(b, 1.0, k) for b, k in kern.plus],
                                                  *[(b, -1.0, k) for b, k in kern.minus]))
        xis = kern.xis
        if case in LAW_CASES:
            shapes = kern.shapes
            assert kern.log_norm == pytest.approx(
                np.log(xis).sum() - sp.gammaln(shapes).sum(), rel=1e-14, abs=1e-14)
            assert kern.mean_log == pytest.approx(
                kern.log_scale + sp.digamma(shapes).sum() - (1.0 / xis).sum(),
                rel=1e-14, abs=1e-14)
        for c, pole in lines:
            c = float(c)
            args = base + sign * c
            terms = k * sp.gammaln(args)
            for lx in lxs:
                size = (c * (kern.log_scale - lx) + kern.log_norm + terms.sum()
                        - np.log(xis + c).sum() - (math.log(abs(c)) if pole else 0.0))
                g = (kern.log_scale - lx + (k * sign * sp.digamma(args)).sum()
                     - (1.0 / (xis + c)).sum() - (1.0 / c if pole else 0.0))
                g2 = ((k * sp.zeta(2.0, args)).sum() + ((xis + c) ** -2.0).sum()
                      + (1.0 / (c * c) if pole else 0.0))
                got = kern.log_size(c, lx, pole), *kern.slopes(c, lx, pole)
                scale = np.abs(terms).sum() + abs(c * lx) + 1.0
                assert abs(got[0] - size) <= 1e-13 * scale, (c, lx, pole)
                if case in LAW_CASES:
                    assert got[1] == pytest.approx(g, rel=1e-13, abs=1e-13 * (abs(lx) + 1.0)), (c, lx, pole)
                    assert got[2] == pytest.approx(g2, rel=1e-13), (c, lx, pole)
                else:  # 1e-13 of the summed magnitudes of the rows
                    assert abs(got[1] - g) <= 1e-13 * (
                        np.abs(k * sp.digamma(args)).sum() + abs(lx) + 1.0), (c, lx)
                    assert abs(got[2] - g2) <= 1e-13 * (
                        np.abs(k * sp.zeta(2.0, args)).sum() + 1.0), (c, lx)


def _mod_2pi_i(d):
    """d with its imaginary part reduced to [-pi, pi]."""
    return complex(d.real, math.remainder(d.imag, 2.0 * math.pi))


def _log_kernel_mp(kern, v):
    """(log K(v) with mpmath.loggamma for every row, the summed magnitudes
    of its lnGamma terms)."""
    lg = [k * complex(mpmath.loggamma(b + v)) for b, k in kern.plus]
    lg += [k * complex(mpmath.loggamma(b - v)) for b, k in kern.minus]
    return (v * kern.log_scale + kern.log_norm + sum(lg)
            - sum(cmath.log(xi + v) for xi in kern.pointing), sum(map(abs, lg)))


class TestLogGamma:
    """The Lanczos lnGamma behind every Mellin-Barnes integral, in its
    fused form on arrays (`_lngamma_parts`, exact modulo 2 pi i, unshifted
    down to Re z = 0), against mpmath.loggamma within 1e-14 max(1,
    |lnGamma|)."""

    @staticmethod
    def _check(zs):
        z = np.array(zs, dtype=complex)
        l, m = specfun._lngamma_parts(z[:, None] + specfun._LANCZOS_K, True)
        fused = l + np.log(m) - (z + 6.5) + specfun._HALF_LOG_2PI
        for v, f in zip(zs, fused.tolist()):
            ref = complex(mpmath.loggamma(v))
            assert abs(_mod_2pi_i(f - ref)) <= 1e-14 * max(1.0, abs(ref)), v

    def test_right_half_plane(self):
        ims = [0.0, *np.geomspace(1e-3, 3000.0, 22)]
        self._check([complex(x, sign * y) for x in np.geomspace(1e-3, 200.0, 24)
                     for y in ims for sign in (1.0, -1.0)])

    def test_reflection(self):
        # Re z in [-60, 1/2), at least 1e-3 off the poles, and on the sides
        # of the poles themselves
        xs = [*np.arange(-60.0, 0.5, 0.437), *(n + d for n in (-59.0, -7.0, -1.0, 0.0)
                                               for d in (-1e-3, 1e-3))]
        xs = [x for x in xs if x < 0.5 and abs(x - round(x)) >= 1e-3 - 1e-15]
        ims = np.geomspace(1e-3, 3000.0, 12)
        self._check([complex(x, sign * y) for x in xs for y in ims for sign in (1.0, -1.0)])

    def test_next_to_the_negative_axis(self):
        # -0.55 - 1e-300j was off by 2 pi i in an earlier kernel
        self._check([complex(x, y) for x in (-0.55, -3.3, -7.7, -59.45)
                     for y in (1e-300, -1e-300, 1e-12, -1e-12)])

    @pytest.mark.parametrize("case", [*ORACLE_CASES, *LAW_CASES])
    def test_fused_form_sums_the_principal_one(self, case):
        # on the lines of every kernel, and for the Mellin laws on a circle
        # around their first pole, where lnGamma reflects: the log of fused,
        # each point shifted by the real part of its own, is log K - s ln x
        # + ln factor modulo 2 pi i, with mpmath's lnGamma
        kern, lines, lxs = _slice_case(case)
        t = np.linspace(0.0, 40.0, 41)
        paths = [(c + 1j * t, c, c) for c, _ in lines[::4]]
        if case in LAW_CASES:
            mid = -kern.b_min - 1.0
            paths.append((mid + 0.7 * np.exp(0.1j * np.arange(63)), mid - 0.7, mid + 0.7))
        for s, lo, hi in paths:
            factor = np.cosh(0.05 * np.arange(s.size)) / s
            refs = [_log_kernel_mp(kern, v) for v in s.tolist()]
            for lx in lxs:
                for v, f, (ref, mag) in zip(s.tolist(), factor.tolist(), refs):
                    want = ref - v * lx + cmath.log(f)
                    got = kern.fused(np.array([v]), lx, np.array([f]), lo, hi, want.real)
                    g = cmath.log(got.item()) + want.real
                    scale = 1.0 + abs(v * lx) + mag
                    assert abs(_mod_2pi_i(g - want)) <= 1e-14 * scale, (case, v, lx)


# the lowest height of the strip's top corners over tools/fingerprint.py
# (six strong links) and over the shipped recipes (fig8_n3's flattened
# branch law)
PROBE_HEIGHTS = (2.14, 4.85)


class TestProbeLogGamma:
    """The lnGamma of the line's probe (`_lngamma_up`, Stirling's series
    with shift and reflection) on the upper half-plane: within 5e-8 + 1e-15
    |lnGamma| of mpmath.loggamma, used by conjugation for the minus rows of
    `log_probe`, and continuous along the horizontal segment across the
    strip that the probe reads its rates off."""

    BOUND = 5e-8

    def test_against_mpmath(self):
        # Re z in [-60, 200], on the poles' abscissae and between them; Im z
        # from 1e-3 through the lowest probe heights to 3000
        xs = [*np.linspace(-60.0, 200.0, 131), *np.arange(-59.5, 200.0, 3.7)]
        ims = sorted({1e-3, 0.1, 1.0, *PROBE_HEIGHTS, *np.geomspace(3.0, 3000.0, 12)})
        for x in xs:
            for y in ims:
                z = complex(x, y)
                ref = complex(mpmath.loggamma(z))
                assert abs(specfun._lngamma_up(z) - ref) <= self.BOUND + 1e-15 * abs(ref), z

    @pytest.mark.parametrize("case", [*ORACLE_CASES, *LAW_CASES])
    def test_log_probe_conjugates_minus_rows(self, case):
        # every row, a minus row by the conjugate of lnGamma(b - conj s),
        # against the principal lnGamma of mpmath at the strip's top corners
        kern, lines, _ = _slice_case(case)
        rows = sum(abs(k) for _, k in kern.plus) + sum(abs(k) for _, k in kern.minus)
        for c, _ in lines[::4]:
            for top in (*PROBE_HEIGHTS, 12.0, 40.0):
                for s in (complex(c - 0.3, top), complex(c + 0.3, top)):
                    ref, mag = _log_kernel_mp(kern, s)
                    got = kern.log_probe(s)
                    assert abs(got - ref) <= rows * self.BOUND + 1e-15 * (mag + 1.0), (case, s)

    @pytest.mark.parametrize("top", [0.5, *PROBE_HEIGHTS, 40.0])
    def test_continuous_along_horizontal_segments(self, top):
        # across Re z = -6.3 .. 6.3 the form switches from the reflection to
        # the shifted series and to the plain one; the probe reads the fall
        # up a line from a difference of imaginary parts across the strip
        xs = np.linspace(-6.3, 6.3, 2521)
        im = [specfun._lngamma_up(complex(x, top)).imag for x in xs]
        assert np.max(np.abs(np.diff(im))) <= 0.05
        left, right = (specfun._lngamma_up(complex(x, top)) for x in (-1e-12, 1e-12))
        assert abs(right - left) <= 2.0 * self.BOUND
        # and the kernel of a Meijer G with minus rows, across its strip
        kern = specfun._meijer_kernel(ORACLE_CASES["cdf3124"][0])
        im = [kern.log_probe(complex(x, top)).imag for x in np.linspace(-1.2, 0.0, 601)]
        assert np.max(np.abs(np.diff(im))) <= 0.05

"""Outage probability formulas and their structural properties."""

import math

import numpy as np
import pytest

from cascade_fading.channels import ThzAtmosphere, ThzLinkBudget, thz_gain
from cascade_fading.distributions import (
    CompositeProduct,
    GammaGammaParams,
    PointingErrorParams,
    z_cdf,
)
from cascade_fading.performance import (
    diversity_order,
    gamma_s,
    op_fso_cascade,
    op_fso_cascade_asymptotic,
    op_fso_parallel_bound,
    op_thz,
)
from cascade_fading.specfun import AccuracyError, DomainError

WEAK = GammaGammaParams(10.02, 2.98)
STRONG = GammaGammaParams(4.942, 1.231)
WW = CompositeProduct((WEAK, WEAK))
WS = CompositeProduct((WEAK, STRONG))


def db(v):
    return 10.0 ** (v / 10.0)


class TestCascadeOutage:
    def test_limits(self):
        # slope is min(B)/2: the weak pair decays at 1.49 per decade
        assert op_fso_cascade(WW, db(120)).probability < 1e-13
        assert op_fso_cascade(WS, db(-60)).probability > 1 - 1e-9

    def test_equals_cdf_at_threshold_root(self):
        r = db(27.0)
        assert op_fso_cascade(WS, r).probability == pytest.approx(
            z_cdf(WS, math.sqrt(1.0 / r)), rel=1e-12)

    def test_weak_pair_drop_over_a_decade(self):
        # an order-of-magnitude SNR increase buys roughly 10x outage
        p25 = op_fso_cascade(WW, db(25)).probability
        p35 = op_fso_cascade(WW, db(35)).probability
        assert 8.0 < p25 / p35 < 16.0

    def test_mixed_is_worse_than_weak_by_an_order(self):
        p_ww = op_fso_cascade(WW, db(35)).probability
        p_ws = op_fso_cascade(WS, db(35)).probability
        assert p_ws > 10.0 * p_ww

    def test_monotone_in_snr(self):
        for ch in (WW, WS):
            probs = [op_fso_cascade(ch, db(v)).probability
                     for v in np.linspace(5, 55, 11)]
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_link_swap_symmetry(self):
        a = CompositeProduct((WEAK, STRONG), (PointingErrorParams(6.7, 0.8),
                                              PointingErrorParams(5.1, 0.9)))
        b = CompositeProduct((STRONG, WEAK), (PointingErrorParams(5.1, 0.9),
                                              PointingErrorParams(6.7, 0.8)))
        for v in (15.0, 30.0, 45.0):
            assert op_fso_cascade(a, db(v)).probability == \
                op_fso_cascade(b, db(v)).probability

    def test_flags(self):
        assert op_fso_cascade(WW, db(30)).accuracy_flag == "perturbed"
        assert op_fso_cascade(WS, db(30)).accuracy_flag == "clean"
        assert op_fso_cascade(WS, db(30)).method == "exact"

    def test_domain(self):
        with pytest.raises(DomainError):
            op_fso_cascade(WS, 0.0)


class TestAsymptote:
    def test_converges_to_exact(self):
        r = db(60)
        exact = op_fso_cascade(WS, r).probability
        asym = op_fso_cascade_asymptotic(WS, r).probability
        assert asym == pytest.approx(exact, rel=0.05)
        assert op_fso_cascade_asymptotic(WS, r).method == "asymptotic"

    def test_flag_follows_channel(self):
        # coincident parameters now get a value, flagged like op_fso_cascade
        assert op_fso_cascade_asymptotic(WW, db(80)).accuracy_flag == "perturbed"
        assert op_fso_cascade_asymptotic(WS, db(80)).accuracy_flag == "clean"

    def test_slope_equals_min_exponent(self):
        lo, hi = db(70), db(80)
        p_lo = op_fso_cascade_asymptotic(WS, lo).probability
        p_hi = op_fso_cascade_asymptotic(WS, hi).probability
        slope = (math.log10(p_hi) - math.log10(p_lo))
        assert slope == pytest.approx(-min(WS.b_tuple) / 2.0, rel=1e-3)

    def test_out_of_double_range_refuses(self):
        # three links with shapes ~60 and ~40: at x = 0.1 the residues past
        # the strip are as large as those in it
        ch = CompositeProduct((GammaGammaParams(60.1, 40.3), GammaGammaParams(61.7, 40.9),
                               GammaGammaParams(62.35, 41.45)))
        with pytest.raises(AccuracyError):
            op_fso_cascade_asymptotic(ch, 1.0 / 0.1**2)


class TestDiversityOrder:
    def test_weak_pair(self):
        assert diversity_order(WW) == pytest.approx(1.49)

    def test_misaligned_link_dominates(self):
        ch = CompositeProduct((WEAK, WEAK), (PointingErrorParams(1.2, 0.8),))
        assert diversity_order(ch) == pytest.approx(0.6)

    def test_strong(self):
        assert diversity_order(CompositeProduct((STRONG,))) == pytest.approx(0.6155)


class TestParallelBound:
    BRANCH = CompositeProduct((WEAK, WEAK),
                              (PointingErrorParams(130.797, 0.390006),) * 2)

    def test_single_branch_equals_cascade(self):
        r = db(28)
        bound = op_fso_parallel_bound(self.BRANCH, 1, r)
        exact = op_fso_cascade(self.BRANCH, r)
        assert bound.probability == pytest.approx(exact.probability, rel=1e-12)
        assert bound.method == "upper_bound"

    def test_monotone_in_snr(self):
        # the flattened bound is supported from moderate SNR up (coincident
        # parameter multiples lose the deep upper tail, see README)
        probs = [op_fso_parallel_bound(self.BRANCH, 2, db(v)).probability
                 for v in np.linspace(25.5, 45, 8)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            op_fso_parallel_bound(self.BRANCH, 0, db(30))

    @pytest.mark.parametrize("branches", [2.5, math.nan, "2"])
    def test_branch_count_must_be_an_integer(self, branches):
        with pytest.raises(DomainError):
            op_fso_parallel_bound(self.BRANCH, branches, db(30))
        with pytest.raises(DomainError):
            self.BRANCH.replicated(branches)

    def test_numpy_branch_count(self):
        assert op_fso_parallel_bound(self.BRANCH, np.int64(2), db(30)) == \
            op_fso_parallel_bound(self.BRANCH, 2, db(30))
        assert self.BRANCH.replicated(np.int64(2)) is self.BRANCH.replicated(2)


class TestThzOutage:
    CH = CompositeProduct((GammaGammaParams(7.465009, 5.943215),
                           GammaGammaParams(4.155350, 2.195809)))

    def test_ideal_front_end_matches_cascade_form(self):
        r = db(25)
        thz = op_thz(self.CH, r, 1.0, 0.0, 0.0)
        fso = op_fso_cascade(self.CH, r)
        assert thz.probability == fso.probability

    def test_hard_ceiling_is_exactly_one(self):
        for gamma_th in (1.0 / 0.32 * 1.0001, 10.0, 1e4):
            res = op_thz(self.CH, db(25), gamma_th, 0.4, 0.4)
            assert res.probability == 1.0
            assert res.method == "hard_ceiling"
        # boundary case included: gamma_th (kt^2+kr^2) == 1
        res = op_thz(self.CH, db(25), 1.0 / 0.32, 0.4, 0.4)
        assert res.probability == 1.0

    def test_evm_swap_symmetry_bitwise(self):
        for a, b in ((0.1, 0.4), (0.05, 0.3)):
            p1 = op_thz(self.CH, db(22), 2.0, a, b).probability
            p2 = op_thz(self.CH, db(22), 2.0, b, a).probability
            assert p1 == p2

    def test_distortion_raises_outage(self):
        clean = op_thz(self.CH, db(25), 2.0, 0.0, 0.0).probability
        dirty = op_thz(self.CH, db(25), 2.0, 0.3, 0.3).probability
        assert dirty > clean

    def test_distance_swap_symmetry(self):
        ch_ab = CompositeProduct((GammaGammaParams(7.465, 5.943),
                                  GammaGammaParams(4.155, 2.196)))
        ch_ba = CompositeProduct((GammaGammaParams(4.155, 2.196),
                                  GammaGammaParams(7.465, 5.943)))
        assert op_thz(ch_ab, db(25), 1.0).probability == \
            op_thz(ch_ba, db(25), 1.0).probability


class TestGammaS:
    def test_unit_gains(self):
        atm = ThzAtmosphere(humidity=0.0)
        budget = ThzLinkBudget(300e9, (100.0,), (0.0,))
        g = thz_gain(budget, 1, atm)
        assert gamma_s(budget, 2.0, 1e-10, atm) == pytest.approx(2.0 * g / 1e-10)

    def test_extra_hop_multiplies(self):
        atm = ThzAtmosphere()
        b2 = ThzLinkBudget(300e9, (100.0, 150.0), (0.0, 0.0),
                           ris_reflection=(1.0,))
        b3 = ThzLinkBudget(300e9, (100.0, 150.0, 80.0), (0.0, 0.0, 0.0),
                           ris_reflection=(1.0, 1.0))
        ratio = gamma_s(b3, 1.0, 1e-9, atm) / gamma_s(b2, 1.0, 1e-9, atm)
        # the added middle hop changes which hops carry antenna gains, so
        # compare against the directly recomputed product
        g3 = math.prod(thz_gain(b3, i, atm) for i in (1, 2, 3))
        g2 = math.prod(thz_gain(b2, i, atm) for i in (1, 2))
        assert ratio == pytest.approx(g3 / g2, rel=1e-12)

    @pytest.mark.parametrize("distances,reflections", [
        ((100.0, 150.0), (0.5,)), ((100.0, 150.0, 80.0), (0.9, 0.8))])
    def test_every_surface_reflects(self, distances, reflections):
        # the path gain takes each surface's reflection once
        atm = ThzAtmosphere()
        zeros = (0.0,) * len(distances)
        lossy = ThzLinkBudget(300e9, distances, zeros, 1e5, 4e5, reflections)
        lossless = ThzLinkBudget(300e9, distances, zeros, 1e5, 4e5,
                                 (1.0,) * len(reflections))
        ratio = gamma_s(lossy, 1.0, 1e-9, atm) / gamma_s(lossless, 1.0, 1e-9, atm)
        assert ratio == pytest.approx(math.prod(reflections), rel=1e-14)

    def test_thermal_noise_fixture(self):
        # 50 GHz bandwidth at 296 K with a 9 dB lumped receiver figure
        from scipy.constants import k as k_b
        noise = k_b * 296.0 * 50e9 * 10 ** 0.9
        assert noise == pytest.approx(1.6231e-9, rel=1e-3)

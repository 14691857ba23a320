"""Scenario physics: scintillation parameters, gains, molecular absorption."""

import math

import numpy as np
import pytest

from cascade_fading.channels import (
    SPEED_OF_LIGHT,
    FsoAtmosphere,
    FsoLinkGeometry,
    ThzAtmosphere,
    ThzLinkBudget,
    TURBULENCE_PRESETS,
    fso_gain,
    fso_gg_params,
    hill_cn2,
    misalignment_params,
    molecular_absorption,
    rytov_variance,
    thz_gain,
    thz_gg_params,
)
from cascade_fading.specfun import DomainError


class TestRytov:
    def test_distance_power_law(self):
        s1 = rytov_variance(2.3e-9, 1e-3, 100.0)
        s2 = rytov_variance(2.3e-9, 1e-3, 200.0)
        assert s2 / s1 == pytest.approx(2.0 ** (11.0 / 6.0), rel=1e-12)

    def test_no_turbulence(self):
        assert rytov_variance(0.0, 1e-3, 500.0) == 0.0

    def test_300ghz_100m_fixture(self):
        lam = SPEED_OF_LIGHT / 300e9
        s2 = rytov_variance(2.3e-9, lam, 100.0)
        # direct formula evaluation, frozen: weak-turbulence regime (< 1)
        assert s2 == pytest.approx(0.3546991, rel=1e-6)
        assert math.sqrt(s2) < 1.0
        # 200 m lands in the moderate band 1 < sigma_R < 2
        assert 1.0 < math.sqrt(rytov_variance(2.3e-9, lam, 200.0)) < 2.0

    # the product overflows to inf; the power raises OverflowError
    @pytest.mark.parametrize("args", [(1e305, 1e-3, 100.0), (1.0, 1e-300, 100.0)])
    def test_overflow_refused(self, args):
        with pytest.raises(DomainError, match="Rytov variance overflows"):
            rytov_variance(*args)


class TestGgParams:
    def test_vanishing_turbulence_limit(self):
        p = fso_gg_params(1e-6)
        assert p.alpha > 1e5 and p.beta > 1e5

    def test_alpha_exceeds_beta(self):
        for s2 in np.geomspace(1e-3, 10.0, 25):
            p = fso_gg_params(float(s2))
            assert p.alpha > p.beta > 0

    def test_weak_preset_alpha_reproducible_by_root_solve(self):
        # the sigma_R^2 solving alpha(s) = 10.02 exists and is unique in the
        # pre-saturation range; the printed beta formula does not pass
        # through 2.98 at that point, so presets are stored directly
        from scipy.optimize import brentq
        target = TURBULENCE_PRESETS["weak"].alpha
        s2 = brentq(lambda s: fso_gg_params(s).alpha - target, 1e-3, 0.9)
        assert fso_gg_params(s2).alpha == pytest.approx(target, rel=1e-10)
        assert fso_gg_params(s2).beta > 3.0  # formulas do not reproduce 2.98

    def test_presets(self):
        assert TURBULENCE_PRESETS["weak"].alpha == 10.02
        assert TURBULENCE_PRESETS["weak"].beta == 2.98
        assert TURBULENCE_PRESETS["moderate"].alpha == 2.53
        assert TURBULENCE_PRESETS["strong"].beta == 1.231

    def test_thz_plane_wave_limit_alpha(self):
        # D -> 0 recovers the plane-wave alpha exactly; the THz beta keeps a
        # different saturation exponent than the printed FSO beta
        s2 = 0.7
        thz = thz_gg_params(s2, 0.0, 1e-3, 100.0)
        fso = fso_gg_params(s2)
        assert thz.alpha == pytest.approx(fso.alpha, rel=1e-12)

    def test_thz_aperture_averaging_weakens_fluctuations(self):
        lam = SPEED_OF_LIGHT / 300e9
        s2 = rytov_variance(2.3e-9, lam, 100.0)
        small = thz_gg_params(s2, 0.0, lam, 100.0)
        big = thz_gg_params(s2, 0.3, lam, 100.0)
        assert big.alpha > small.alpha

    def test_thz_fig9_frozen_fixture(self):
        lam = SPEED_OF_LIGHT / 300e9
        p = thz_gg_params(rytov_variance(2.3e-9, lam, 100.0), 0.0, lam, 100.0)
        assert p.alpha == pytest.approx(7.465009, rel=1e-5)
        assert p.beta == pytest.approx(5.943215, rel=1e-5)

    def test_thz_alpha_exceeds_beta_on_grid(self):
        lam = 1e-3
        for s2 in np.geomspace(1e-3, 10.0, 20):
            p = thz_gg_params(float(s2), 0.05, lam, 150.0)
            assert p.alpha > p.beta > 0

    # where the fits leave the double range they refuse; they keep their
    # 1/(exp(x) - 1) form, in which exp(x) - 1 is 0.0 for x below ~1.1e-16
    @pytest.mark.parametrize("sigma_r2", [1e-300, 1e300])
    def test_fso_double_range(self, sigma_r2):
        with pytest.raises(DomainError, match="double range"):
            fso_gg_params(sigma_r2)

    @pytest.mark.parametrize("args", [(1e-300, 0.0, 1e-3, 100.0),
                                      (1e300, 0.0, 1e-3, 100.0),
                                      (0.35, 1e300, 1e-3, 100.0)])
    def test_thz_double_range(self, args):
        with pytest.raises(DomainError, match="double range"):
            thz_gg_params(*args)


class TestMisalignment:
    def test_derived_quantities(self):
        geom = FsoLinkGeometry(1000.0, 0.05, 0.1, 0.005)
        ups = geom.upsilon
        assert ups == pytest.approx(math.sqrt(math.pi) * 0.05 / (math.sqrt(2.0) * 0.1))
        pe = geom.pointing_params()
        assert pe.a_o == pytest.approx(math.erf(ups) ** 2, rel=1e-12)
        w_eq2 = 0.1**2 * math.sqrt(math.pi) * math.erf(ups) / (2 * ups * math.exp(-ups**2))
        assert pe.xi == pytest.approx(w_eq2 / (4 * 0.005**2), rel=1e-12)

    def test_a_o_strictly_inside_unit_interval(self):
        for b_over_w in (0.2, 0.5, 1.0, 2.0, 4.0):
            pe = misalignment_params(0.05 * b_over_w, 0.05, 0.01)
            assert 0.0 < pe.a_o < 1.0
            assert pe.xi > 0

    def test_xi_grows_without_jitter(self):
        xi1 = misalignment_params(0.05, 0.1, 1e-2).xi
        xi2 = misalignment_params(0.05, 0.1, 1e-5).xi
        assert xi2 > xi1 * 1e5

    def test_domain(self):
        with pytest.raises(DomainError):
            misalignment_params(0.0, 0.1, 0.01)

    @pytest.mark.parametrize("args", [
        (1e300, 0.1, 0.01), (0.05, 1e-300, 0.01), (0.05, 1e300, 0.01),
        (0.05, 0.1, 1e-300), (0.05, 0.1, 1e300),
        # jitter^2 is subnormal, so xi is inf, which PointingErrorParams refuses
        (0.05, 0.1, 1e-160)])
    def test_double_range_refused(self, args):
        with pytest.raises(DomainError):
            misalignment_params(*args)


class TestFsoGain:
    def test_lossless(self):
        atm = FsoAtmosphere(cn2=1e-14, wavelength=1.55e-6, alpha_weather_db_km=0.0, rho=1.0)
        assert fso_gain(500.0, 500.0, atm) == 1.0

    def test_reflection_efficiency_only(self):
        atm = FsoAtmosphere(cn2=1e-14, wavelength=1.55e-6, rho=0.7)
        assert fso_gain(0.0, 0.0, atm) == pytest.approx(0.7)

    def test_weather_attenuation(self):
        atm = FsoAtmosphere(cn2=1e-14, wavelength=1.55e-6,
                            alpha_weather_db_km=0.43, rho=1.0)
        assert fso_gain(1000.0, 1000.0, atm) == pytest.approx(10 ** (-0.086), rel=1e-12)


class TestMolecularAbsorption:
    def test_anchor_value_at_300ghz(self):
        atm = ThzAtmosphere(temperature=296.0, pressure=101325.0, humidity=50.0)
        kappa = molecular_absorption(300e9, atm)
        assert kappa == pytest.approx(5.8268e-4, rel=5e-3)

    def test_absorption_walls(self):
        atm = ThzAtmosphere()
        fs = np.linspace(100e9, 500e9, 8001)
        ks = np.array([molecular_absorption(float(f), atm) for f in fs])
        peaks = fs[1:-1][(ks[1:-1] > ks[:-2]) & (ks[1:-1] > ks[2:])]
        assert any(abs(p - 325e9) < 5e9 for p in peaks)
        assert any(abs(p - 380e9) < 5e9 for p in peaks)

    def test_dry_air_kills_resonances(self):
        dry = ThzAtmosphere(humidity=0.0)
        wet = ThzAtmosphere(humidity=50.0)
        f = 325e9
        assert molecular_absorption(f, dry) < molecular_absorption(f, wet) / 5

    def test_nonnegative_and_continuous(self):
        atm = ThzAtmosphere()
        coarse = np.linspace(100e9, 500e9, 2001)
        fine = np.linspace(100e9, 500e9, 4001)
        kc = np.array([molecular_absorption(float(f), atm) for f in coarse])
        kf = np.array([molecular_absorption(float(f), atm) for f in fine])
        assert np.all(kc >= 0.0)
        # continuity: the largest increment halves with the grid step
        assert np.max(np.abs(np.diff(kf))) < 0.6 * np.max(np.abs(np.diff(kc)))

    def test_validity_warning(self):
        atm = ThzAtmosphere()
        with pytest.warns(RuntimeWarning):
            molecular_absorption(50e9, atm)

    @pytest.mark.parametrize("frequency", [0.0, -1.0, math.nan, math.inf, 1e300])
    def test_domain(self, frequency):
        with pytest.raises(DomainError):
            molecular_absorption(frequency, ThzAtmosphere())

    # 32.18 K is the pole of the saturation pressure, below which its
    # exponent overflows; at 1e-300 Pa the water-vapor fraction overflows
    @pytest.mark.parametrize("atm", [dict(temperature=32.18), dict(temperature=32.0),
                                     dict(pressure=1e-300)], ids=str)
    def test_atmosphere_outside_double_range(self, atm):
        with pytest.raises(DomainError, match="double range"):
            molecular_absorption(300e9, ThzAtmosphere(**atm))


class TestThzGain:
    def _budget(self, **kw):
        args = dict(frequency=300e9, distances=(100.0, 100.0),
                    aperture_radii=(0.0, 0.0), gain_tx=1.0, gain_rx=1.0,
                    ris_reflection=(1.0,))
        args.update(kw)
        return ThzLinkBudget(**args)

    def test_pure_spreading(self):
        atm = ThzAtmosphere(humidity=0.0)
        budget = self._budget()
        g = thz_gain(budget, 1, atm)
        spreading = SPEED_OF_LIGHT / (4 * math.pi * 300e9 * 100.0)
        kappa = molecular_absorption(300e9, atm)
        assert g == pytest.approx(spreading * math.exp(-0.5 * kappa * 100.0), rel=1e-12)

    def test_inverse_distance(self):
        atm = ThzAtmosphere(humidity=0.0)
        b1 = self._budget(distances=(100.0, 100.0))
        b2 = self._budget(distances=(200.0, 100.0))
        kappa = molecular_absorption(300e9, atm)
        ratio = thz_gain(b1, 1, atm) / thz_gain(b2, 1, atm)
        assert ratio == pytest.approx(2.0 * math.exp(0.5 * kappa * 100.0), rel=1e-12)

    def test_antenna_split(self):
        atm = ThzAtmosphere()
        budget = self._budget(gain_tx=1e5, gain_rx=4e5,
                              distances=(100.0, 50.0, 100.0),
                              aperture_radii=(0.0,) * 3,
                              ris_reflection=(0.9, 0.8))
        g1 = thz_gain(budget, 1, atm)
        g2 = thz_gain(budget, 2, atm)
        g3 = thz_gain(budget, 3, atm)
        assert g1 / thz_gain(self._budget(distances=(100.0, 50.0, 100.0),
                                          aperture_radii=(0.0,) * 3,
                                          ris_reflection=(1.0, 1.0)), 1, atm) \
            == pytest.approx(math.sqrt(1e5))
        # hop k > 1 carries the reflection of the surface it leaves, and the
        # last hop also the receive gain
        assert g2 == pytest.approx(
            SPEED_OF_LIGHT / (4 * math.pi * 300e9 * 50.0) * 0.9
            * math.exp(-0.5 * molecular_absorption(300e9, atm) * 50.0), rel=1e-12)
        assert g3 == pytest.approx(
            SPEED_OF_LIGHT / (4 * math.pi * 300e9 * 100.0) * 0.8 * math.sqrt(4e5)
            * math.exp(-0.5 * molecular_absorption(300e9, atm) * 100.0), rel=1e-12)

    def test_one_hop_carries_both_antenna_gains(self):
        atm = ThzAtmosphere()
        budget = self._budget(gain_tx=1e5, gain_rx=4e5, distances=(100.0,),
                              aperture_radii=(0.0,), ris_reflection=())
        assert thz_gain(budget, 1, atm) == pytest.approx(
            SPEED_OF_LIGHT / (4 * math.pi * 300e9 * 100.0) * math.sqrt(1e5 * 4e5)
            * math.exp(-0.5 * molecular_absorption(300e9, atm) * 100.0), rel=1e-15)

    @pytest.mark.parametrize("distances,reflections", [
        ((100.0,), (0.5,)),  # one hop has no surface
        ((), ()),  # no hop
        ((100.0, 100.0), ()),
        ((100.0, 100.0, 100.0), (0.9,)),
    ])
    def test_one_reflection_per_surface(self, distances, reflections):
        with pytest.raises(DomainError):
            self._budget(distances=distances, aperture_radii=(0.0,) * len(distances),
                         ris_reflection=reflections)

    def test_hop_index_validated(self):
        with pytest.raises(DomainError):
            thz_gain(self._budget(), 3, ThzAtmosphere())


class TestHillCn2:
    def test_zero_structure_factor(self):
        atm = ThzAtmosphere(c_t=0.0, a_t=1.0, a_q=1.0, cn2_override=None)
        assert hill_cn2(atm) == 0.0

    def test_single_term_reduction(self):
        atm = ThzAtmosphere(temperature=296.0, c_t=2.0, a_t=3.0, a_q=0.0,
                            cn2_override=None)
        assert hill_cn2(atm) == pytest.approx(4.0 * 9.0 / 296.0, rel=1e-12)

    def test_sign_choice(self):
        plus = ThzAtmosphere(c_t=1.0, a_t=1.0, a_q=0.01, cn2_override=None,
                             hill_sign=1.0)
        minus = ThzAtmosphere(c_t=1.0, a_t=1.0, a_q=0.01, cn2_override=None,
                              hill_sign=-1.0)
        assert hill_cn2(plus) > hill_cn2(minus)

    def test_override_short_circuits(self):
        atm = ThzAtmosphere(cn2_override=2.3e-9)
        assert atm.cn2() == 2.3e-9

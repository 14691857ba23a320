"""Scenario physics: turbulence strength, misalignment geometry, link budgets.

FSO scintillation parameters follow the plane-wave Rytov-variance fits of
Andrews & Phillips; the sub-THz variants add the aperture-averaging terms in
D = sqrt(pi b^2 / (2 lambda d)).  Misalignment parameters (A_o, xi) come from
the circular-aperture Gaussian-beam model (Farid & Hranilovic style erf
geometry).  THz molecular absorption uses the simplified 100-450 GHz
water-vapor model of Kokkoniemi et al. with two resonance lines at 10.835
and 12.664 1/cm plus a cubic continuum polynomial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .distributions import GammaGammaParams, PointingErrorParams
from .specfun import DomainError

__all__ = [
    "SPEED_OF_LIGHT",
    "FsoLinkGeometry",
    "FsoAtmosphere",
    "ThzAtmosphere",
    "ThzLinkBudget",
    "TURBULENCE_PRESETS",
    "rytov_variance",
    "fso_gg_params",
    "thz_gg_params",
    "fso_gain",
    "molecular_absorption",
    "thz_gain",
    "hill_cn2",
    "misalignment_params",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Named (alpha, beta) pairs for weak / moderate / strong scintillation,
# standard values quoted throughout the FSO literature (Omega = 1).
TURBULENCE_PRESETS = {
    "weak": GammaGammaParams(10.02, 2.98, 1.0),
    "moderate": GammaGammaParams(2.53, 3.02, 1.0),
    "strong": GammaGammaParams(4.942, 1.231, 1.0),
}


def rytov_variance(cn2, wavelength, distance):
    """Plane-wave Rytov variance 1.23 Cn^2 (2 pi / lambda)^(7/6) d^(11/6)."""
    if cn2 < 0 or wavelength <= 0 or distance < 0:
        raise DomainError("rytov_variance needs cn2 >= 0, wavelength > 0, d >= 0")
    return 1.23 * cn2 * (2.0 * math.pi / wavelength) ** (7.0 / 6.0) * distance ** (11.0 / 6.0)


def fso_gg_params(sigma_r2):
    """Gamma-Gamma shaping parameters from the Rytov variance (FSO form).

    Both exponents use the (1 + c sigma^(12/5))^(7/6) saturation law; the
    mean is normalized to 1.
    """
    if sigma_r2 <= 0:
        raise DomainError("sigma_r2 must be positive")
    s65 = sigma_r2 ** (6.0 / 5.0)
    alpha = 1.0 / (math.exp(0.49 * sigma_r2 / (1.0 + 1.11 * s65) ** (7.0 / 6.0)) - 1.0)
    beta = 1.0 / (math.exp(0.51 * sigma_r2 / (1.0 + 0.69 * s65) ** (7.0 / 6.0)) - 1.0)
    return GammaGammaParams(alpha, beta, 1.0)


def thz_gg_params(sigma_r2, aperture_radius, wavelength, distance):
    """Gamma-Gamma shaping parameters for a THz hop with aperture averaging.

    D^2 = pi b^2 / (2 lambda d) enters the saturation denominators; D -> 0
    recovers the plane-wave scintillation fit.
    """
    if sigma_r2 <= 0:
        raise DomainError("sigma_r2 must be positive")
    if aperture_radius < 0 or wavelength <= 0 or distance <= 0:
        raise DomainError("need aperture >= 0, wavelength > 0, distance > 0")
    d2 = math.pi * aperture_radius**2 / (2.0 * wavelength * distance)
    s65 = sigma_r2 ** (6.0 / 5.0)
    alpha = 1.0 / (
        math.exp(0.49 * sigma_r2 / (1.0 + 0.65 * d2 + 1.11 * s65) ** (7.0 / 6.0)) - 1.0
    )
    beta = 1.0 / (
        math.exp(
            0.51 * sigma_r2 * (1.0 + 0.69 * s65) ** (-5.0 / 6.0)
            / (1.0 + 0.9 * d2 + 0.62 * d2 * s65)
        )
        - 1.0
    )
    return GammaGammaParams(alpha, beta, 1.0)


def misalignment_params(aperture_radius, beam_waist, jitter_std):
    """Pointing-error parameters from circular-aperture beam geometry.

    upsilon = sqrt(pi) b / (sqrt(2) w_d), A_o = erf(upsilon)^2, and the
    equivalent beam radius w_eq^2 = w_d^2 sqrt(pi) erf(u) / (2 u exp(-u^2))
    gives xi = w_eq^2 / (4 sigma_s^2).
    """
    if aperture_radius <= 0 or beam_waist <= 0 or jitter_std <= 0:
        raise DomainError("aperture, beam waist and jitter must all be positive")
    ups = math.sqrt(math.pi) * aperture_radius / (math.sqrt(2.0) * beam_waist)
    a_o = math.erf(ups) ** 2
    w_eq2 = beam_waist**2 * math.sqrt(math.pi) * math.erf(ups) / (
        2.0 * ups * math.exp(-(ups**2))
    )
    xi = w_eq2 / (4.0 * jitter_std**2)
    return PointingErrorParams(xi, a_o)


@dataclass(frozen=True)
class FsoLinkGeometry:
    """One hop of an FSO cascade: distance plus receive-plane beam geometry.

    Lengths in meters.  `has_misalignment` marks whether the hop contributes
    a pointing-error factor on top of its turbulence factor.
    """

    distance: float
    aperture_radius: float
    beam_waist: float
    jitter_std: float
    has_misalignment: bool = True

    def __post_init__(self):
        if self.distance <= 0:
            raise DomainError("distance must be positive")

    @property
    def upsilon(self):
        return math.sqrt(math.pi) * self.aperture_radius / (
            math.sqrt(2.0) * self.beam_waist
        )

    def pointing_params(self):
        return misalignment_params(
            self.aperture_radius, self.beam_waist, self.jitter_std
        )


@dataclass(frozen=True)
class FsoAtmosphere:
    """Propagation medium of an FSO cascade.

    alpha_weather_db_km is the weather attenuation in dB/km; rho the RIS
    reflection efficiency (typically 0.7..1).
    """

    cn2: float
    wavelength: float
    alpha_weather_db_km: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if self.cn2 <= 0 or self.wavelength <= 0:
            raise DomainError("cn2 and wavelength must be positive")
        if not 0.0 < self.rho <= 1.0:
            raise DomainError("rho must lie in (0, 1]")


def fso_gain(distance_prev, distance, atmosphere: FsoAtmosphere):
    """Deterministic hop gain rho * 10^(-alpha (d_prev + d) / 10).

    Distances in meters, the attenuation coefficient in dB/km.
    """
    if distance_prev < 0 or distance < 0:
        raise DomainError("distances must be non-negative")
    loss_db = atmosphere.alpha_weather_db_km * (distance_prev + distance) / 1000.0
    return atmosphere.rho * 10.0 ** (-loss_db / 10.0)


@dataclass(frozen=True)
class ThzAtmosphere:
    """Atmospheric state for the THz scenario.

    temperature in K, pressure in Pa, humidity in percent.  The structure
    constant Cn^2 either follows the Hill-style formula from (c_t, a_t, a_q)
    or, when `cn2_override` is set, that measured value is used directly.
    """

    temperature: float = 296.0
    pressure: float = 101325.0
    humidity: float = 50.0
    c_t: float = 0.0
    a_t: float = 0.0
    a_q: float = 0.0
    cn2_override: float | None = 2.3e-9
    hill_sign: float = 1.0

    def __post_init__(self):
        if self.temperature <= 0 or self.pressure <= 0:
            raise DomainError("temperature and pressure must be positive")
        if not 0.0 <= self.humidity <= 100.0:
            raise DomainError("humidity is a percentage in [0, 100]")
        if self.hill_sign not in (1.0, -1.0):
            raise DomainError("hill_sign is +1 or -1")

    def cn2(self):
        if self.cn2_override is not None:
            return self.cn2_override
        return hill_cn2(self)


def hill_cn2(atm: ThzAtmosphere):
    """Structure constant (C_T^2 / T)(A_T^2 + 1e4 A_Q^2 +- 200 A_T A_Q)."""
    return (
        atm.c_t**2
        / atm.temperature
        * (atm.a_t**2 + 1e4 * atm.a_q**2 + atm.hill_sign * 200.0 * atm.a_t * atm.a_q)
    )


def _saturated_water_vapor_pressure_hpa(temperature, pressure_pa):
    """Buck-type saturation pressure in hPa (enhancement factor included)."""
    p_hpa = pressure_pa / 100.0
    return (
        6.1121
        * (1.0007 + 3.46e-6 * p_hpa)
        * math.exp(17.502 * (temperature - 273.15) / (temperature - 32.18))
    )


def molecular_absorption(frequency, atm: ThzAtmosphere):
    """Molecular absorption coefficient kappa(f) in 1/m.

    Two water-vapor resonances (centered at 10.835 and 12.664 1/cm, i.e.
    near 325 and 380 GHz) plus a cubic continuum in f.  The continuum
    coefficients carry their SI powers (1/Hz^k); the printed short forms
    seen in the literature are the mantissas of these.  Negative excursions
    of the polynomial fit below ~120 GHz are clamped to zero.  Outside the
    100-500 GHz validity band a warning is emitted; above ~5.6e102 Hz, where
    the cubic overflows, DomainError is raised.
    """
    if not 0 < frequency < math.inf:
        raise DomainError(f"frequency must be positive and finite, got {frequency!r}")
    p_w = _saturated_water_vapor_pressure_hpa(atm.temperature, atm.pressure)
    mu_w = (atm.humidity / 100.0) * (p_w * 100.0) / atm.pressure
    g_a = 0.2205 * mu_w * (0.1303 * mu_w + 0.0294)
    g_b = (0.4093 * mu_w + 0.0925) ** 2
    g_c = 2.014 * mu_w * (0.1702 * mu_w + 0.0303)
    g_d = (0.537 * mu_w + 0.0956) ** 2
    wavenumber = frequency / (100.0 * SPEED_OF_LIGHT)  # 1/cm
    try:
        g1 = g_a / (g_b + (wavenumber - 10.835) ** 2)
        g2 = g_c / (g_d + (wavenumber - 12.664) ** 2)
        poly = (
            5.54e-37 * frequency**3
            - 3.94e-25 * frequency**2
            + 9.06e-14 * frequency
            - 6.36e-3
        )
    except OverflowError:  # float ** raises where the power would be inf
        raise DomainError(f"kappa(f) overflows at f = {frequency!r} Hz") from None
    if not 100e9 <= frequency <= 500e9:
        warnings.warn(
            f"kappa(f) evaluated outside its 100-500 GHz validity band "
            f"(f = {frequency / 1e9:.1f} GHz)",
            RuntimeWarning,
            stacklevel=2,
        )
    return max(poly + g1 + g2, 0.0)


@dataclass(frozen=True)
class ThzLinkBudget:
    """Deterministic gains of an N-hop RIS-assisted THz link.

    Amplitude path gains follow the Friis split c/(4 pi f d_i) with sqrt(G_s)
    on the first hop, the RIS reflection coefficients in between, sqrt(G_d)
    on the last, each damped by the molecular absorption exp(-kappa d / 2).
    """

    frequency: float
    distances: tuple
    aperture_radii: tuple
    gain_tx: float = 1.0
    gain_rx: float = 1.0
    ris_reflection: tuple = ()
    kappa_t: float = 0.0
    kappa_r: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "distances", tuple(float(d) for d in self.distances))
        object.__setattr__(
            self, "aperture_radii", tuple(float(b) for b in self.aperture_radii)
        )
        object.__setattr__(
            self, "ris_reflection", tuple(float(r) for r in self.ris_reflection)
        )
        if self.frequency <= 0:
            raise DomainError("frequency must be positive")
        if len(self.aperture_radii) != len(self.distances):
            raise DomainError("one aperture radius per hop is required")
        n = len(self.distances)
        if n >= 2 and len(self.ris_reflection) != n - 1:
            raise DomainError("need one RIS reflection coefficient per surface")
        if self.gain_tx <= 0 or self.gain_rx <= 0:
            raise DomainError("antenna gains must be positive")
        if any(not 0.0 < r <= 1.0 for r in self.ris_reflection):
            raise DomainError("RIS reflection coefficients lie in (0, 1]")
        if self.kappa_t < 0 or self.kappa_r < 0:
            raise DomainError("error vector magnitudes are non-negative")

    @property
    def n_hops(self):
        return len(self.distances)

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.frequency


def thz_gain(budget: ThzLinkBudget, hop, atm: ThzAtmosphere):
    """Deterministic amplitude gain g_i of hop `hop` (1-indexed)."""
    n = budget.n_hops
    if not 1 <= hop <= n:
        raise DomainError(f"hop index {hop} outside 1..{n}")
    d = budget.distances[hop - 1]
    spreading = SPEED_OF_LIGHT / (4.0 * math.pi * budget.frequency * d)
    if n == 1:
        ant = math.sqrt(budget.gain_tx * budget.gain_rx)
    elif hop == 1:
        ant = math.sqrt(budget.gain_tx)
    elif hop == n:
        ant = math.sqrt(budget.gain_rx)
    else:
        ant = budget.ris_reflection[hop - 2]
    kappa = molecular_absorption(budget.frequency, atm)
    return spreading * ant * math.exp(-0.5 * kappa * d)

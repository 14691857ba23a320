"""Outage probability and diversity order of the three RIS scenarios.

All SNR-like quantities are linear; dB conversion lives at the CLI boundary.
The cascaded FSO outage is the composite CDF at sqrt(threshold / SNR); the
parallel multi-aperture system is upper-bounded through the arithmetic-
geometric mean inequality (Karagiannidis-style bound); the THz outage adds
the hardware-distortion ceiling 1/(kappa_t^2 + kappa_r^2) on the admissible
SDNR threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import CompositeProduct, check_count, z_cdf, z_cdf_asymptotic
from .channels import ThzAtmosphere, ThzLinkBudget, thz_gain
from .specfun import DomainError

__all__ = [
    "OutageResult",
    "op_fso_cascade",
    "op_fso_cascade_asymptotic",
    "diversity_order",
    "op_fso_parallel_bound",
    "op_thz",
    "gamma_s",
]


@dataclass(frozen=True)
class OutageResult:
    """An outage probability plus how it was obtained.

    method is one of exact | asymptotic | upper_bound | hard_ceiling;
    accuracy_flag is clean, or perturbed when the exponent tuple has an
    integer-separated pair (coincident parameters), where the residue form
    of the closed form degenerates; the probability is evaluated the same
    way in both cases.
    """

    probability: float
    method: str
    accuracy_flag: str = "clean"

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise DomainError(f"probability {self.probability} outside [0, 1]")


def _flag(ch: CompositeProduct):
    return "perturbed" if ch.is_degenerate else "clean"


def op_fso_cascade(ch: CompositeProduct, snr_ratio):
    """Exact outage of the cascaded FSO system at rho_s/rho_th = snr_ratio."""
    if snr_ratio <= 0:
        raise DomainError("snr_ratio must be positive")
    return OutageResult(z_cdf(ch, math.sqrt(1.0 / snr_ratio)), "exact", _flag(ch))


def op_fso_cascade_asymptotic(ch: CompositeProduct, snr_ratio):
    """High-SNR power-law approximation of the cascaded FSO outage."""
    if snr_ratio <= 0:
        raise DomainError("snr_ratio must be positive")
    return OutageResult(z_cdf_asymptotic(ch, math.sqrt(1.0 / snr_ratio)), "asymptotic",
                        _flag(ch))


def diversity_order(ch: CompositeProduct):
    """Asymptotic negative log-log slope of the outage: min of the exponent
    tuple divided by two (identical rule for the FSO and THz cascades)."""
    return min(ch.b_tuple) / 2.0


def op_fso_parallel_bound(branch: CompositeProduct, n_branches: int, snr_ratio):
    """Upper bound on the parallel multi-aperture FSO outage.

    All branches share the law of `branch`; the transmit power is split
    evenly over the `n_branches` apertures.  The arithmetic mean of the
    branch coefficients dominates their geometric mean, so the outage is at
    most the CDF of the flattened product at the n-th power of the
    per-branch threshold sqrt(rho_th / (N rho_s)).
    """
    n_branches = check_count(n_branches, "the number of branches")
    if snr_ratio <= 0:
        raise DomainError("snr_ratio must be positive")
    flat = branch.replicated(n_branches)
    t = math.sqrt(1.0 / (n_branches * snr_ratio))
    return OutageResult(z_cdf(flat, t**n_branches), "upper_bound", _flag(flat))


def op_thz(ch: CompositeProduct, gamma_ratio, gamma_th, kappa_t=0.0, kappa_r=0.0):
    """Outage of the RIS-assisted THz link with transceiver distortion.

    gamma_ratio is gamma_s/gamma_th (linear), gamma_th the SDNR threshold.
    Whenever gamma_th (kappa_t^2 + kappa_r^2) >= 1 the distortion floor makes
    outage certain and exactly 1 is returned.
    """
    if gamma_ratio <= 0 or gamma_th <= 0:
        raise DomainError("gamma_ratio and gamma_th must be positive")
    if kappa_t < 0 or kappa_r < 0:
        raise DomainError("error vector magnitudes are non-negative")
    k2 = kappa_t * kappa_t + kappa_r * kappa_r
    if k2 > 0.0 and gamma_th * k2 >= 1.0:
        return OutageResult(1.0, "hard_ceiling", "clean")
    x = math.sqrt(1.0 / (gamma_ratio * (1.0 - gamma_th * k2)))
    return OutageResult(z_cdf(ch, x), "exact", _flag(ch))


def gamma_s(budget: ThzLinkBudget, power_tx, noise, atm: ThzAtmosphere | None = None):
    """Transmit SNR scaled by the deterministic path gain product.

    P_s * prod_i g_i / N_o with g_i the per-hop amplitude gains of the
    budget (Friis spreading, antenna/RIS factors, molecular absorption).
    """
    if power_tx <= 0 or noise <= 0:
        raise DomainError("power and noise must be positive")
    atm = atm if atm is not None else ThzAtmosphere()
    g = 1.0
    for i in range(1, budget.n_hops + 1):
        g *= thz_gain(budget, i, atm)
    return power_tx * g / noise

"""Operating points of a sweep, computed from the parsed config alone.

For every sweep value this rebuilds the channel law and the point at which
the outage operator evaluates the CDF, using only the package's public
config dataclasses and `channels` / `performance` physics.  It deliberately
does not call `cli`'s own sweep helpers, so a mistake there shows up as a
mismatch against the oracle instead of being reproduced by it.
"""

from __future__ import annotations

import math
from dataclasses import replace

from scipy.constants import k as BOLTZMANN

from cascade_fading.channels import (
    SPEED_OF_LIGHT,
    ThzAtmosphere,
    ThzLinkBudget,
    fso_gg_params,
    misalignment_params,
    rytov_variance,
    thz_gg_params,
)
from cascade_fading.performance import gamma_s

from oracle import Law


def with_sweep_value(cfg, value):
    """The config with its sweep variable set to `value`."""
    var = cfg.sweep.variable
    trx_fields = ("snr_db", "gamma_th_db", "kappa_t", "kappa_r")
    if var in trx_fields:
        key = "snr_ratio_db" if var == "snr_db" else var
        return replace(cfg, transceiver=replace(cfg.transceiver, **{key: value}))
    if var == "frequency":
        return replace(cfg, atmosphere=replace(cfg.atmosphere, frequency=value))
    if var == "jitter":
        links = tuple(replace(l, jitter=value) if l.misaligned else l for l in cfg.links)
        return replace(cfg, links=links)
    stem, _, idx = var.rpartition("_")
    links = list(cfg.links)
    links[int(idx) - 1] = replace(links[int(idx) - 1], **{stem: value})
    return replace(cfg, links=tuple(links))


def channel_law(cfg):
    """Oracle law of the configured links (one branch for fso_parallel)."""
    gg, pe = [], []
    atm = cfg.atmosphere
    for link in cfg.links:
        if link.alpha is not None:
            gg.append((link.alpha, link.beta, link.omega))
        elif cfg.scenario == "thz_cascade":
            lam = SPEED_OF_LIGHT / atm.frequency
            p = thz_gg_params(rytov_variance(atm.cn2, lam, link.distance),
                              link.aperture or 0.0, lam, link.distance)
            gg.append((p.alpha, p.beta, p.omega))
        else:
            p = fso_gg_params(rytov_variance(atm.cn2, atm.wavelength, link.distance))
            gg.append((p.alpha, p.beta, p.omega))
        if link.misaligned:
            if link.xi is not None:
                pe.append((link.xi, link.a_o))
            else:
                p = misalignment_params(link.aperture, link.beam_waist, link.jitter)
                pe.append((p.xi, p.a_o))
    return gg, pe


def snr_ratio(cfg):
    """Linear SNR margin: configured directly or from the THz link budget."""
    trx = cfg.transceiver
    if trx.snr_ratio_db is not None:
        return 10.0 ** (trx.snr_ratio_db / 10.0)
    atm = cfg.atmosphere
    thz_atm = ThzAtmosphere(temperature=atm.temperature, pressure=atm.pressure,
                            humidity=atm.humidity, cn2_override=atm.cn2)
    budget = ThzLinkBudget(
        frequency=atm.frequency,
        distances=tuple(l.distance for l in cfg.links),
        aperture_radii=tuple(l.aperture or 0.0 for l in cfg.links),
        gain_tx=10.0 ** (trx.gain_tx_dbi / 10.0),
        gain_rx=10.0 ** (trx.gain_rx_dbi / 10.0),
        ris_reflection=(trx.ris_reflection,) * max(len(cfg.links) - 1, 0),
        kappa_t=trx.kappa_t,
        kappa_r=trx.kappa_r,
    )
    noise = BOLTZMANN * thz_atm.temperature * trx.bandwidth * 10.0 ** (trx.noise_figure_db / 10.0)
    return gamma_s(budget, 10.0 ** (trx.power_dbw / 10.0), noise, thz_atm) / (
        10.0 ** (trx.gamma_th_db / 10.0))


def operating_point(cfg):
    """(law, x) with outage = F(x), or (None, None) on the hardware ceiling.

    For fso_parallel the law is the branch law flattened over the branches
    and x the n-th power of the per-branch threshold (the AGM bound).
    """
    gg, pe = channel_law(cfg)
    ratio = snr_ratio(cfg)
    trx = cfg.transceiver
    if cfg.scenario == "fso_cascade":
        return Law(gg, pe), math.sqrt(1.0 / ratio)
    if cfg.scenario == "fso_parallel":
        n = trx.branches
        return Law(gg * n, pe * n), math.sqrt(1.0 / (n * ratio)) ** n
    g_th = 10.0 ** (trx.gamma_th_db / 10.0)
    k2 = trx.kappa_t**2 + trx.kappa_r**2
    if k2 > 0.0 and g_th * k2 >= 1.0:
        return None, None
    return Law(gg, pe), math.sqrt(1.0 / (ratio * (1.0 - g_th * k2)))


def sweep_points(cfg):
    """[(sweep_value, law, x)] over the config's grid."""
    return [(v,) + operating_point(with_sweep_value(cfg, v)) for v in cfg.sweep.grid()]

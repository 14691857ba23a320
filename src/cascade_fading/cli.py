"""Command-line front end: scenario configs, sweeps, CSV output.

Configs are INI files (one [config] block, one [sweep], one [transceiver],
optional [atmosphere], numbered [link.k] blocks).  Fields suffixed `_db`
are decibel-valued and converted to linear scale at parse time; everything
else is SI.  Each link takes either direct distribution parameters
(alpha/beta, optionally xi/a_o) or physical geometry (distance, aperture,
beam_waist, jitter) resolved through the channels module.

    cascade-fading run <config> [--mode analytic|mc|both] [--seed K]
                       [--samples N] [--out FILE]
    cascade-fading eval <config> --quantity pdf|cdf|kappa|diversity [--at X]

Exit codes: 0 success, 2 invalid config (a sweep point outside the
physical domain included), 3 numeric accuracy failure.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import os
import sys
from dataclasses import dataclass, replace

from scipy.constants import k as BOLTZMANN

from .channels import (
    FsoAtmosphere,
    ThzAtmosphere,
    ThzLinkBudget,
    TURBULENCE_PRESETS,
    misalignment_params,
    molecular_absorption,
    rytov_variance,
    fso_gg_params,
    thz_gg_params,
)
from .distributions import (
    CompositeProduct,
    GammaGammaParams,
    PointingErrorParams,
    z_cdf,
    z_pdf,
)
from .performance import (
    diversity_order,
    gamma_s,
    op_fso_cascade,
    op_fso_parallel_bound,
    op_thz,
)
from .mc import check_samples, check_seed, mc_cdf, mc_op_parallel, mc_op_thz
from .specfun import AccuracyError, DomainError

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "LinkConfig",
    "SweepConfig",
    "TransceiverConfig",
    "AtmosphereConfig",
    "parse_config",
    "parse_config_text",
    "write_config",
    "generate_recipes",
    "run",
    "evaluate",
    "main",
]

CONFIG_VERSION = 1
SCENARIOS = ("fso_cascade", "fso_parallel", "thz_cascade")
CSV_HEADER = "sweep_value,op_analytic,op_mc,mc_stderr,method,accuracy_flag"


class ConfigError(ValueError):
    """Invalid scenario configuration, with section/field context."""

    def __init__(self, section, key, message):
        super().__init__(f"[{section}] {key}: {message}")
        self.section = section
        self.key = key


@dataclass(frozen=True)
class LinkConfig:
    alpha: float | None = None
    beta: float | None = None
    omega: float = 1.0
    xi: float | None = None
    a_o: float | None = None
    distance: float | None = None
    aperture: float | None = None
    beam_waist: float | None = None
    jitter: float | None = None
    misaligned: bool = False


@dataclass(frozen=True)
class SweepConfig:
    variable: str
    start: float
    stop: float
    points: int
    scale: str  # linear | log | db

    def grid(self):
        if self.points == 1:
            return [self.start]
        if self.scale == "log":
            lo, hi = math.log(self.start), math.log(self.stop)
            return [math.exp(lo + (hi - lo) * i / (self.points - 1)) for i in range(self.points)]
        return [
            self.start + (self.stop - self.start) * i / (self.points - 1)
            for i in range(self.points)
        ]


@dataclass(frozen=True)
class TransceiverConfig:
    snr_ratio_db: float | None = None
    gamma_th_db: float = 0.0
    kappa_t: float = 0.0
    kappa_r: float = 0.0
    branches: int = 1
    power_dbw: float | None = None
    bandwidth: float | None = None
    noise_figure_db: float = 0.0
    gain_tx_dbi: float = 0.0
    gain_rx_dbi: float = 0.0
    ris_reflection: float = 1.0


@dataclass(frozen=True)
class AtmosphereConfig:
    cn2: float | None = None
    wavelength: float | None = None
    alpha_weather_db_km: float = 0.0
    rho: float = 1.0
    temperature: float = 296.0
    pressure: float = 101325.0
    humidity: float = 50.0
    frequency: float | None = None

    def __post_init__(self):
        # Parsed for the config grammar, but no scenario's SNR uses them: the
        # FSO SNR is snr_ratio_db as given.  A non-default value would be
        # silently ignored, so it is refused.
        for key, default in (("alpha_weather_db_km", 0.0), ("rho", 1.0)):
            if getattr(self, key) != default:
                raise ConfigError("atmosphere", key,
                                  f"the FSO SNR does not use it; leave it at {default:g}")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    links: tuple
    atmosphere: AtmosphereConfig
    transceiver: TransceiverConfig
    sweep: SweepConfig


_LINK_FLOAT_KEYS = (
    "alpha", "beta", "omega", "xi", "a_o",
    "distance", "aperture", "beam_waist", "jitter",
)
_TRX_KEYS = {
    "snr_ratio_db": float, "gamma_th_db": float, "kappa_t": float,
    "kappa_r": float, "branches": int, "power_dbw": float,
    "bandwidth": float, "noise_figure_db": float, "gain_tx_dbi": float,
    "gain_rx_dbi": float, "ris_reflection": float,
}
_ATM_KEYS = {
    "cn2": float, "wavelength": float, "alpha_weather_db_km": float,
    "rho": float, "temperature": float, "pressure": float,
    "humidity": float, "frequency": float,
}


def _get_typed(parser, section, key, kind, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(section, key, "required field is missing")
        return default
    raw = parser.get(section, key)
    try:
        if kind is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return kind(raw)
    except ValueError:
        raise ConfigError(section, key, f"cannot parse {raw!r} as {kind.__name__}")


def parse_config_text(text, source="<string>"):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError("-", "-", f"syntax error: {exc}")
    if not parser.has_section("config"):
        raise ConfigError("config", "-", "missing [config] section")
    version = _get_typed(parser, "config", "config_version", int, required=True)
    if version != CONFIG_VERSION:
        raise ConfigError("config", "config_version",
                          f"unsupported version {version} (expected {CONFIG_VERSION})")
    scenario = _get_typed(parser, "config", "scenario", str, required=True)
    if scenario not in SCENARIOS:
        raise ConfigError("config", "scenario",
                          f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")

    links = []
    i = 1
    while parser.has_section(f"link.{i}"):
        sec = f"link.{i}"
        kwargs = {}
        for key in _LINK_FLOAT_KEYS:
            val = _get_typed(parser, sec, key, float)
            if val is not None:
                kwargs[key] = val
        kwargs["misaligned"] = _get_typed(parser, sec, "misaligned", bool, default=False)
        preset = _get_typed(parser, sec, "turbulence", str)
        if preset is not None:
            if preset not in TURBULENCE_PRESETS:
                raise ConfigError(sec, "turbulence",
                                  f"unknown preset {preset!r}")
            gg = TURBULENCE_PRESETS[preset]
            kwargs["alpha"], kwargs["beta"] = gg.alpha, gg.beta
        links.append(LinkConfig(**kwargs))
        i += 1
    if not links:
        raise ConfigError("link.1", "-", "at least one [link.k] section is required")

    trx_kwargs = {}
    if parser.has_section("transceiver"):
        for key, kind in _TRX_KEYS.items():
            val = _get_typed(parser, "transceiver", key, kind)
            if val is not None:
                trx_kwargs[key] = val
    atm_kwargs = {}
    if parser.has_section("atmosphere"):
        for key, kind in _ATM_KEYS.items():
            val = _get_typed(parser, "atmosphere", key, kind)
            if val is not None:
                atm_kwargs[key] = val

    if not parser.has_section("sweep"):
        raise ConfigError("sweep", "-", "missing [sweep] section")
    sweep = SweepConfig(
        variable=_get_typed(parser, "sweep", "variable", str, required=True),
        start=_get_typed(parser, "sweep", "start", float, required=True),
        stop=_get_typed(parser, "sweep", "stop", float, required=True),
        points=_get_typed(parser, "sweep", "points", int, required=True),
        scale=_get_typed(parser, "sweep", "scale", str, default="linear"),
    )
    if sweep.scale not in ("linear", "log", "db"):
        raise ConfigError("sweep", "scale", f"unknown scale {sweep.scale!r}")
    if sweep.points < 1:
        raise ConfigError("sweep", "points", "need at least one point")
    if sweep.points > 1 and not sweep.stop > sweep.start:
        raise ConfigError("sweep", "stop", "grid must be strictly increasing")

    cfg = ScenarioConfig(
        scenario=scenario,
        links=tuple(links),
        atmosphere=AtmosphereConfig(**atm_kwargs),
        transceiver=TransceiverConfig(**trx_kwargs),
        sweep=sweep,
    )
    _validate_sweep_variable(cfg)
    return cfg


def parse_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("-", "-", f"cannot read {path}: {exc}")
    return parse_config_text(text, source=str(path))


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_config(cfg: ScenarioConfig):
    """Serialize a ScenarioConfig to INI text (round-trips via parse)."""
    out = io.StringIO()
    out.write("[config]\n")
    out.write(f"config_version = {CONFIG_VERSION}\n")
    out.write(f"scenario = {cfg.scenario}\n\n")
    out.write("[sweep]\n")
    for key in ("variable", "start", "stop", "points", "scale"):
        out.write(f"{key} = {_fmt(getattr(cfg.sweep, key))}\n")
    out.write("\n[transceiver]\n")
    defaults = TransceiverConfig()
    for key in _TRX_KEYS:
        val = getattr(cfg.transceiver, key)
        if val is not None and val != getattr(defaults, key):
            out.write(f"{key} = {_fmt(val)}\n")
    out.write("\n[atmosphere]\n")
    atm_defaults = AtmosphereConfig()
    for key in _ATM_KEYS:
        val = getattr(cfg.atmosphere, key)
        if val is not None and val != getattr(atm_defaults, key):
            out.write(f"{key} = {_fmt(val)}\n")
    for i, link in enumerate(cfg.links, start=1):
        out.write(f"\n[link.{i}]\n")
        for key in _LINK_FLOAT_KEYS:
            val = getattr(link, key)
            if val is not None and not (key == "omega" and val == 1.0):
                out.write(f"{key} = {_fmt(val)}\n")
        if link.misaligned:
            out.write("misaligned = true\n")
    return out.getvalue()


def _validate_sweep_variable(cfg: ScenarioConfig):
    var = cfg.sweep.variable
    simple = {"snr_db", "gamma_th_db", "kappa_t", "kappa_r", "frequency", "jitter"}
    if var in simple:
        return
    for stem in ("jitter", "distance"):
        if var.startswith(stem + "_"):
            try:
                idx = int(var[len(stem) + 1:])
            except ValueError:
                raise ConfigError("sweep", "variable", f"malformed index in {var!r}")
            if not 1 <= idx <= len(cfg.links):
                raise ConfigError("sweep", "variable",
                                  f"{var!r} exceeds the {len(cfg.links)} configured links")
            return
    raise ConfigError("sweep", "variable", f"unknown sweep variable {var!r}")


def _apply_sweep(cfg: ScenarioConfig, value):
    var = cfg.sweep.variable
    if var == "snr_db":
        return replace(cfg, transceiver=replace(cfg.transceiver, snr_ratio_db=value))
    if var == "gamma_th_db":
        return replace(cfg, transceiver=replace(cfg.transceiver, gamma_th_db=value))
    if var == "kappa_t":
        return replace(cfg, transceiver=replace(cfg.transceiver, kappa_t=value))
    if var == "kappa_r":
        return replace(cfg, transceiver=replace(cfg.transceiver, kappa_r=value))
    if var == "frequency":
        return replace(cfg, atmosphere=replace(cfg.atmosphere, frequency=value))
    if var == "jitter":
        links = tuple(
            replace(l, jitter=value) if l.misaligned else l for l in cfg.links
        )
        return replace(cfg, links=links)
    stem, _, idx = var.rpartition("_")
    i = int(idx) - 1
    links = list(cfg.links)
    links[i] = replace(links[i], **{stem: value})
    return replace(cfg, links=tuple(links))


def _pointing(link: LinkConfig, section):
    if link.xi is not None or link.a_o is not None:
        if link.xi is None or link.a_o is None:
            raise ConfigError(section, "xi/a_o", "both xi and a_o are required")
        return PointingErrorParams(link.xi, link.a_o)
    for key in ("aperture", "beam_waist", "jitter"):
        if getattr(link, key) is None:
            raise ConfigError(section, key,
                              "misaligned links need xi/a_o or full geometry")
    return misalignment_params(link.aperture, link.beam_waist, link.jitter)


def build_product(cfg: ScenarioConfig) -> CompositeProduct:
    """Composite product of the configured links (the branch law for the
    parallel scenario)."""
    gg, pe = [], []
    thz = cfg.scenario == "thz_cascade"
    for i, link in enumerate(cfg.links, start=1):
        sec = f"link.{i}"
        if link.alpha is not None and link.beta is not None:
            gg.append(GammaGammaParams(link.alpha, link.beta, link.omega))
        elif link.distance is not None:
            if thz:
                if cfg.atmosphere.frequency is None:
                    raise ConfigError("atmosphere", "frequency",
                                      "THz links need a carrier frequency")
                lam = 299792458.0 / cfg.atmosphere.frequency
                cn2 = cfg.atmosphere.cn2
                if cn2 is None:
                    raise ConfigError("atmosphere", "cn2", "required for THz links")
                s2 = rytov_variance(cn2, lam, link.distance)
                gg.append(thz_gg_params(s2, link.aperture or 0.0, lam, link.distance))
            else:
                if cfg.atmosphere.cn2 is None or cfg.atmosphere.wavelength is None:
                    raise ConfigError("atmosphere", "cn2/wavelength",
                                      "required for geometry-entry FSO links")
                s2 = rytov_variance(cfg.atmosphere.cn2, cfg.atmosphere.wavelength,
                                    link.distance)
                gg.append(fso_gg_params(s2))
        else:
            raise ConfigError(sec, "alpha/beta",
                              "give alpha+beta (or a preset) or a distance")
        if link.misaligned:
            pe.append(_pointing(link, sec))
    return CompositeProduct(tuple(gg), tuple(pe))


def _db_to_linear(value_db, field):
    """10^(value_db / 10), or DomainError naming `field` when that is not a
    positive finite double."""
    try:
        linear = 10.0 ** (value_db / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise DomainError(f"{field} = {value_db:g} dB has no positive finite linear value")
    return linear


def _gamma_ratio(cfg: ScenarioConfig):
    trx = cfg.transceiver
    if trx.snr_ratio_db is not None:
        return _db_to_linear(trx.snr_ratio_db, "snr_ratio_db")
    if trx.power_dbw is None or trx.bandwidth is None:
        raise ConfigError("transceiver", "snr_ratio_db",
                          "give snr_ratio_db or a power/bandwidth budget")
    if cfg.scenario != "thz_cascade":
        raise ConfigError("transceiver", "power_dbw",
                          "budget-derived SNR is only wired for thz_cascade")
    atm = _thz_atmosphere(cfg)
    budget = ThzLinkBudget(
        frequency=cfg.atmosphere.frequency,
        distances=tuple(l.distance for l in cfg.links),
        aperture_radii=tuple(l.aperture or 0.0 for l in cfg.links),
        gain_tx=_db_to_linear(trx.gain_tx_dbi, "gain_tx_dbi"),
        gain_rx=_db_to_linear(trx.gain_rx_dbi, "gain_rx_dbi"),
        ris_reflection=(trx.ris_reflection,) * max(len(cfg.links) - 1, 0),
        kappa_t=trx.kappa_t,
        kappa_r=trx.kappa_r,
    )
    power = _db_to_linear(trx.power_dbw, "power_dbw")
    noise = (BOLTZMANN * atm.temperature * trx.bandwidth
             * _db_to_linear(trx.noise_figure_db, "noise_figure_db"))
    g_th = _db_to_linear(trx.gamma_th_db, "gamma_th_db")
    return gamma_s(budget, power, noise, atm) / g_th


def _thz_atmosphere(cfg: ScenarioConfig):
    a = cfg.atmosphere
    return ThzAtmosphere(
        temperature=a.temperature,
        pressure=a.pressure,
        humidity=a.humidity,
        cn2_override=a.cn2,
    )


def _mc_cascade(ch, ratio, n, seed):
    return mc_cdf(ch, [math.sqrt(1.0 / r) for r in ratio], n, seed)


def _operators(scenario):
    """The analytic outage operator of a scenario and its Monte Carlo
    counterpart.  Both take a point's law arguments followed by its
    threshold arguments; the Monte Carlo one takes each threshold argument
    as a sequence over a group of points that share the law.  The names are
    looked up per call, not bound at import, so that wrappers installed on
    this module's names (tracing, test doubles) apply."""
    if scenario == "fso_cascade":
        return op_fso_cascade, _mc_cascade
    if scenario == "fso_parallel":
        return op_fso_parallel_bound, mc_op_parallel
    return op_thz, mc_op_thz


def _resolve_point(cfg: ScenarioConfig):
    """(law, thresholds) of one sweep point: the arguments its outage
    operators take before and after the per-point threshold.  Points with
    equal laws share their Monte Carlo draws."""
    ch = build_product(cfg)
    ratio = _gamma_ratio(cfg)
    trx = cfg.transceiver
    if cfg.scenario == "fso_cascade":
        return (ch,), (ratio,)
    if cfg.scenario == "fso_parallel":
        return (ch, trx.branches), (ratio,)
    g_th = _db_to_linear(trx.gamma_th_db, "gamma_th_db")
    return (ch,), (ratio, g_th, trx.kappa_t, trx.kappa_r)


def _csv_cell(v):
    if v == "":
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def run(cfg: ScenarioConfig, mode="analytic", seed=1, samples=10**6, out=None):
    """Run the configured sweep; returns (csv_text, flagged_points).

    Points whose evaluation refuses are flagged; a point outside the domain
    of the channel physics raises ConfigError naming its sweep value.  In
    Monte Carlo mode the points that share a channel law are tallied on one
    set of draws; each point's estimate equals that of a call for the point
    alone with the same seed.  A seed or sample count that Monte Carlo
    cannot use raises ConfigError naming its flag before any point runs.
    """
    if mode in ("mc", "both"):
        for flag, check, value in (("--seed", check_seed, seed),
                                   ("--samples", check_samples, samples)):
            try:
                check(value)
            except DomainError as exc:
                raise ConfigError("-", flag, str(exc)) from None
    grid = cfg.sweep.grid()

    def domain_error(value, exc):
        return ConfigError("sweep", cfg.sweep.variable, f"sweep_value={value:g}: {exc}")

    points = []
    for value in grid:
        try:
            points.append(_resolve_point(_apply_sweep(cfg, value)))
        except DomainError as exc:
            raise domain_error(value, exc) from exc

    analytic_op, mc_op = _operators(cfg.scenario)
    rows = [{"op_analytic": "", "op_mc": "", "mc_stderr": "",
             "method": "", "accuracy_flag": ""} for _ in grid]
    flagged = []
    if mode in ("analytic", "both"):
        for value, (law, thresholds), row in zip(grid, points, rows):
            try:
                res = analytic_op(*law, *thresholds)
            except AccuracyError as exc:
                row["accuracy_flag"] = "failed"
                flagged.append((value, str(exc)))
                continue
            except DomainError as exc:
                raise domain_error(value, exc) from exc
            row.update(op_analytic=res.probability, method=res.method,
                       accuracy_flag=res.accuracy_flag)
    if mode in ("mc", "both"):
        groups = {}
        for i, (law, _) in enumerate(points):
            if rows[i]["accuracy_flag"] != "failed":
                groups.setdefault(law, []).append(i)
        for law, members in groups.items():
            columns = zip(*(points[i][1] for i in members))
            try:
                estimates = mc_op(*law, *columns, samples, seed)
            except DomainError as exc:
                raise domain_error(grid[members[0]], exc) from exc
            for i, est in zip(members, estimates):
                rows[i].update(op_mc=est.value, mc_stderr=est.std_error)

    lines = [CSV_HEADER]
    for value, row in zip(grid, rows):
        lines.append(",".join([
            _csv_cell(float(value)),
            _csv_cell(row["op_analytic"]),
            _csv_cell(row["op_mc"]),
            _csv_cell(row["mc_stderr"]),
            row["method"],
            row["accuracy_flag"],
        ]))
    text = "\n".join(lines) + "\n"
    if out is not None:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    return text, flagged


def evaluate(cfg: ScenarioConfig, quantity, at=None):
    """Single-value spot check: pdf | cdf | kappa | diversity."""
    if quantity == "diversity":
        return diversity_order(build_product(cfg)), "clean"
    if at is None:
        raise ConfigError("-", "--at", f"quantity {quantity!r} needs --at")
    if quantity == "kappa":
        atm, flag = _thz_atmosphere(cfg), "clean"
    elif quantity in ("cdf", "pdf"):
        ch = build_product(cfg)
        flag = "perturbed" if ch.is_degenerate else "clean"
    else:
        raise ConfigError("-", "--quantity", f"unknown quantity {quantity!r}")
    try:
        if quantity == "kappa":
            value = molecular_absorption(at, atm)
        elif quantity == "cdf":
            value = 0.0 if at <= 0 else z_cdf(ch, at)
        else:
            value = z_pdf(ch, at)
    except DomainError as exc:
        raise ConfigError("-", "--at", str(exc)) from exc
    return value, flag


# ----------------------------------------------------------------------
# Shipped figure recipes

def _direct_link(preset, **kw):
    gg = TURBULENCE_PRESETS[preset]
    return LinkConfig(alpha=gg.alpha, beta=gg.beta, **kw)


def _fig_recipes():
    weak = TURBULENCE_PRESETS["weak"]
    snr = SweepConfig("snr_db", 10.0, 40.0, 13, "db")
    pe_geom = dict(aperture=0.05, beam_waist=0.1, jitter=0.005, misaligned=True)
    thz_pe = dict(aperture=0.025, beam_waist=0.0125, misaligned=True)
    recipes = {}

    for name, pa, pb in (("fig3_weak_weak", "weak", "weak"),
                         ("fig3_weak_strong", "weak", "strong"),
                         ("fig3_moderate_moderate", "moderate", "moderate"),
                         ("fig3_strong_strong", "strong", "strong")):
        recipes[name] = ScenarioConfig(
            "fso_cascade", (_direct_link(pa), _direct_link(pb)),
            AtmosphereConfig(), TransceiverConfig(snr_ratio_db=35.0),
            SweepConfig("snr_db", 20.0, 40.0, 11, "db"))
    for n in (2, 3):
        for preset in ("weak", "strong"):
            recipes[f"fig4_{preset}_n{n}"] = ScenarioConfig(
                "fso_cascade", tuple(_direct_link(preset) for _ in range(n)),
                AtmosphereConfig(), TransceiverConfig(snr_ratio_db=40.0), snr)
    recipes["fig5"] = ScenarioConfig(
        "fso_cascade",
        (LinkConfig(alpha=weak.alpha, beta=weak.beta, **pe_geom),
         LinkConfig(alpha=weak.alpha, beta=weak.beta, **pe_geom)),
        AtmosphereConfig(), TransceiverConfig(snr_ratio_db=40.0),
        SweepConfig("jitter_1", 0.005, 0.03, 11, "linear"))
    for (n, l) in ((2, 1), (3, 2)):
        links = tuple(
            LinkConfig(alpha=weak.alpha, beta=weak.beta,
                       **(pe_geom if i < l else {}))
            for i in range(n)
        )
        recipes[f"fig6_n{n}_l{l}"] = ScenarioConfig(
            "fso_cascade", links, AtmosphereConfig(),
            TransceiverConfig(snr_ratio_db=35.0),
            SweepConfig("snr_db", 20.0, 35.0, 7, "db"))
    for preset in ("weak", "strong"):
        recipes[f"fig7_{preset}"] = ScenarioConfig(
            "fso_parallel",
            (_direct_link(preset, **pe_geom), _direct_link(preset, **pe_geom)),
            AtmosphereConfig(), TransceiverConfig(snr_ratio_db=30.0, branches=2),
            SweepConfig("snr_db", 26.0, 40.0, 8, "db"))
    for n, lo, hi in ((1, 10.0, 40.0), (2, 26.0, 40.0), (3, 36.0, 44.0)):
        recipes[f"fig8_n{n}"] = ScenarioConfig(
            "fso_parallel",
            (_direct_link("weak", **pe_geom), _direct_link("weak", **pe_geom)),
            AtmosphereConfig(), TransceiverConfig(snr_ratio_db=30.0, branches=n),
            SweepConfig("snr_db", lo, hi, 7, "db"))
    recipes["fig9"] = ScenarioConfig(
        "thz_cascade",
        (LinkConfig(distance=100.0, aperture=0.0),
         LinkConfig(distance=200.0, aperture=0.0)),
        AtmosphereConfig(cn2=2.3e-9, frequency=300e9),
        TransceiverConfig(snr_ratio_db=25.0),
        SweepConfig("distance_2", 100.0, 200.0, 11, "linear"))
    recipes["fig10_n3"] = ScenarioConfig(
        "thz_cascade",
        tuple(LinkConfig(distance=100.0, jitter=0.01, **thz_pe) for _ in range(3)),
        AtmosphereConfig(cn2=2.3e-9, frequency=300e9),
        TransceiverConfig(snr_ratio_db=30.0),
        SweepConfig("jitter", 0.001, 0.1, 9, "log"))
    recipes["fig11"] = ScenarioConfig(
        "thz_cascade",
        (LinkConfig(distance=100.0, aperture=0.0),
         LinkConfig(distance=100.0, aperture=0.0)),
        AtmosphereConfig(cn2=2.3e-9, frequency=300e9),
        TransceiverConfig(power_dbw=0.0, bandwidth=50e9, noise_figure_db=9.0,
                          gain_tx_dbi=50.0, gain_rx_dbi=50.0, gamma_th_db=4.77),
        SweepConfig("frequency", 180e9, 500e9, 65, "linear"))
    recipes["fig12"] = ScenarioConfig(
        "thz_cascade",
        tuple(LinkConfig(distance=100.0, jitter=0.001, **thz_pe) for _ in range(2)),
        AtmosphereConfig(cn2=2.3e-9, frequency=300e9),
        TransceiverConfig(snr_ratio_db=25.0, kappa_r=0.2),
        SweepConfig("kappa_t", 0.0, 0.5, 11, "linear"))
    for name, kt, kr, gth in (("fig13_ideal", 0.0, 0.0, 0.0),
                              ("fig13_worst", 0.4, 0.4, 0.0),
                              ("fig13_ceiling", 0.4, 0.4, 10.0)):
        recipes[name] = ScenarioConfig(
            "thz_cascade",
            tuple(LinkConfig(distance=100.0, jitter=0.001, **thz_pe)
                  for _ in range(2)),
            AtmosphereConfig(cn2=2.3e-9, frequency=300e9),
            TransceiverConfig(snr_ratio_db=20.0, kappa_t=kt, kappa_r=kr,
                              gamma_th_db=gth),
            SweepConfig("snr_db", 0.0, 40.0, 9, "db"))
    return recipes


def generate_recipes(directory):
    """Write every shipped figure recipe as a .cfg file under `directory`."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, cfg in sorted(_fig_recipes().items()):
        path = os.path.join(directory, f"{name}.cfg")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(write_config(cfg))
        paths.append(path)
    return paths


def recipe_path(name):
    """Path of a shipped figure recipe by name (e.g. 'fig9')."""
    return os.path.join(os.path.dirname(__file__), "recipes", f"{name}.cfg")


# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cascade-fading",
        description="Outage analysis of cascaded turbulence/misalignment channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a sweep and emit CSV")
    p_run.add_argument("config")
    p_run.add_argument("--mode", choices=("analytic", "mc", "both"),
                       default="analytic")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--samples", type=int, default=10**6)
    p_run.add_argument("--out", default=None)
    p_eval = sub.add_parser("eval", help="print one quantity")
    p_eval.add_argument("config")
    p_eval.add_argument("--quantity", required=True,
                        choices=("pdf", "cdf", "kappa", "diversity"))
    p_eval.add_argument("--at", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            text, flagged = run(cfg, mode=args.mode, seed=args.seed,
                                samples=args.samples, out=args.out)
            if args.out is None:
                sys.stdout.write(text)
            if flagged:
                for value, msg in flagged:
                    print(f"accuracy failure at sweep_value={value:g}: {msg}",
                          file=sys.stderr)
                return 3
            return 0
        value, flag = evaluate(cfg, args.quantity, args.at)
        print(f"{value:.12g} {flag}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: scenario configs, sweeps, CSV output.

Configs are INI files (one [config] block, one [sweep], optional
[transceiver] and [atmosphere], numbered [link.k] blocks); the config
dataclasses below state each section's keys and their types.  Fields
suffixed `_db` are decibel-valued and converted to linear scale at parse
time; everything else is SI.  Each link takes either direct distribution
parameters (alpha/beta, optionally xi/a_o) or physical geometry (distance,
aperture, beam_waist, jitter) resolved through the channels module.

    cascade-fading run <config> [--mode analytic|mc|both] [--seed K]
                       [--samples N] [--out FILE]
    cascade-fading eval <config> --quantity pdf|cdf|kappa|diversity [--at X]

Exit codes: 0 success, 2 invalid config (a sweep point outside the
physical domain included), 3 numeric accuracy failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace

BOLTZMANN = 1.380649e-23  # J/K, exact in the SI since 2019

from .channels import (
    SPEED_OF_LIGHT,
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
    scale: str = "linear"  # linear | log | db

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
    temperature: float = 296.0
    pressure: float = 101325.0
    humidity: float = 50.0
    frequency: float | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    links: tuple
    atmosphere: AtmosphereConfig
    transceiver: TransceiverConfig
    sweep: SweepConfig


@dataclass(frozen=True)
class _Header:
    """The [config] section."""
    config_version: int
    scenario: str


# the kind of a config field, by its annotation (a string, as annotations are
# postponed in this module)
_KINDS = {"float": float, "float | None": float, "int": int, "bool": bool, "str": str}


def _fields(parser, section, cls):
    """The fields of `section` parsed by the kinds of the dataclass `cls`'s
    fields; a field without a default is required.  An accepted field must
    affect the result, so a key that `cls` does not define (a misspelling)
    is an error, not ignored, and so is a bool that is not one of
    configparser's spellings."""
    schema = cls.__dataclass_fields__
    if not parser.has_section(section):
        if any(f.default is MISSING for f in schema.values()):
            raise ConfigError(section, "-", f"missing [{section}] section")
        return {}
    out = {}
    for key in parser.options(section):
        if key not in schema:
            raise ConfigError(section, key, "unknown field")
        kind = _KINDS[schema[key].type]
        try:  # a stray % is an interpolation error
            raw = parser.get(section, key)
            out[key] = parser.BOOLEAN_STATES[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError, configparser.Error):
            raw = parser.get(section, key, raw=True)
            raise ConfigError(section, key, f"cannot parse {raw!r} as {kind.__name__}")
    for key, f in schema.items():
        if f.default is MISSING and key not in out:
            raise ConfigError(section, key, "required field is missing")
    return out


def parse_config_text(text, source="<string>"):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError("-", "-", f"syntax error: {exc}")
    if parser.defaults():  # its keys would be read as every section's own
        raise ConfigError(parser.default_section, "-", "unknown section")
    head = _Header(**_fields(parser, "config", _Header))
    if head.config_version != CONFIG_VERSION:
        raise ConfigError("config", "config_version",
                          f"unsupported version {head.config_version} (expected {CONFIG_VERSION})")
    if head.scenario not in SCENARIOS:
        raise ConfigError("config", "scenario",
                          f"unknown scenario {head.scenario!r}, expected one of {SCENARIOS}")

    links = []
    i = 1
    while parser.has_section(f"link.{i}"):
        sec = f"link.{i}"
        preset = parser.get(sec, "turbulence", raw=True, fallback=None)
        parser.remove_option(sec, "turbulence")  # the one link key that is not a field
        kwargs = _fields(parser, sec, LinkConfig)
        if preset is not None:
            if preset not in TURBULENCE_PRESETS:
                raise ConfigError(sec, "turbulence",
                                  f"unknown preset {preset!r}")
            if "alpha" in kwargs or "beta" in kwargs:
                raise ConfigError(sec, "turbulence",
                                  "a preset sets alpha/beta; give one or the other")
            gg = TURBULENCE_PRESETS[preset]
            kwargs["alpha"], kwargs["beta"] = gg.alpha, gg.beta
        if ("alpha" in kwargs) != ("beta" in kwargs):  # one alone would go unread
            raise ConfigError(sec, "alpha/beta", "give both alpha and beta, or neither")
        links.append(LinkConfig(**kwargs))
        i += 1
    if not links:
        raise ConfigError("link.1", "-", "at least one [link.k] section is required")
    read = {"config", "sweep", "transceiver", "atmosphere", *(f"link.{k}" for k in range(1, i))}
    for sec in parser.sections():
        if sec not in read:
            raise ConfigError(sec, "-", "unknown section")

    sweep = SweepConfig(**_fields(parser, "sweep", SweepConfig))
    if sweep.scale not in ("linear", "log", "db"):
        raise ConfigError("sweep", "scale", f"unknown scale {sweep.scale!r}")
    if sweep.points < 1:
        raise ConfigError("sweep", "points", "need at least one point")
    if sweep.points > 1 and not sweep.stop > sweep.start:
        raise ConfigError("sweep", "stop", "grid must be strictly increasing")
    if sweep.scale == "log" and not sweep.start > 0.0:
        raise ConfigError("sweep", "start", "a log sweep needs start > 0")

    cfg = ScenarioConfig(
        scenario=head.scenario,
        links=tuple(links),
        atmosphere=AtmosphereConfig(**_fields(parser, "atmosphere", AtmosphereConfig)),
        transceiver=TransceiverConfig(**_fields(parser, "transceiver", TransceiverConfig)),
        sweep=sweep,
    )
    _sweep_target(cfg)
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
    """Serialize a ScenarioConfig to INI text (round-trips via parse).

    [config] and [sweep] are written in full, every other section only
    with the fields that differ from their defaults."""
    sections = [("config", _Header(CONFIG_VERSION, cfg.scenario)), ("sweep", cfg.sweep),
                ("transceiver", cfg.transceiver), ("atmosphere", cfg.atmosphere),
                *((f"link.{i}", link) for i, link in enumerate(cfg.links, start=1))]
    return "\n".join(
        f"[{name}]\n" + "".join(
            f"{f.name} = {_fmt(getattr(part, f.name))}\n" for f in fields(part)
            if part is cfg.sweep or getattr(part, f.name) != f.default)
        for name, part in sections)


# sweep variable -> (section of the config, field) that it sets
_SWEEP_FIELDS = {
    "snr_db": ("transceiver", "snr_ratio_db"),
    "gamma_th_db": ("transceiver", "gamma_th_db"),
    "kappa_t": ("transceiver", "kappa_t"),
    "kappa_r": ("transceiver", "kappa_r"),
    "frequency": ("atmosphere", "frequency"),
}


def _sweep_target(cfg: ScenarioConfig):
    """What the sweep variable sets: (section, field) from `_SWEEP_FIELDS`,
    or (link indices, field) for `jitter` (every link misaligned by
    geometry), `jitter_k` and `distance_k` (link k).  A variable that names
    nothing, or a field that this config's outage does not read (a sweep
    whose every point would be the same), raises ConfigError.

    Only thz_cascade reads kappa_t, kappa_r, gamma_th_db and the frequency,
    which it reads on links given by their geometry and for an SNR from the
    link budget.  A link's jitter is read where it is misaligned by geometry
    (no xi/a_o), and its distance where it has no alpha/beta or the budget
    reads it."""
    var = cfg.sweep.variable
    thz = cfg.scenario == "thz_cascade"
    budget = thz and cfg.transceiver.snr_ratio_db is None
    geometry = [l.alpha is None for l in cfg.links]
    jittered = [l.misaligned and l.xi is None and l.a_o is None for l in cfg.links]
    if var in _SWEEP_FIELDS:
        target = _SWEEP_FIELDS[var]
        read = var == "snr_db" or (thz and (var != "frequency" or budget or any(geometry)))
    elif var == "jitter":
        target = tuple(i for i, j in enumerate(jittered) if j), "jitter"
        read = bool(target[0])
    else:
        stem, sep, idx = var.partition("_")
        if stem not in ("jitter", "distance") or not sep:
            raise ConfigError("sweep", "variable", f"unknown sweep variable {var!r}")
        try:
            k = int(idx)
        except ValueError:
            raise ConfigError("sweep", "variable", f"malformed index in {var!r}") from None
        if not 1 <= k <= len(cfg.links):
            raise ConfigError("sweep", "variable",
                              f"{var!r} exceeds the {len(cfg.links)} configured links")
        target = (k - 1,), stem
        read = jittered[k - 1] if stem == "jitter" else geometry[k - 1] or budget
    if not read:
        raise ConfigError("sweep", "variable",
                          f"this {cfg.scenario} config does not read {var!r}, "
                          "so every point would be the same")
    return target


def _apply_sweep(cfg: ScenarioConfig, value):
    where, key = _sweep_target(cfg)
    if isinstance(where, str):
        return replace(cfg, **{where: replace(getattr(cfg, where), **{key: value})})
    return replace(cfg, links=tuple(replace(l, **{key: value}) if i in where else l
                                    for i, l in enumerate(cfg.links)))


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
                lam = SPEED_OF_LIGHT / cfg.atmosphere.frequency
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
    of the channel physics raises ConfigError naming its sweep value.  The
    points that share a channel law share one channel object, so its Mellin
    transform is built once per sweep.  In Monte Carlo mode they are tallied
    on one set of draws; each point's estimate equals that of a call for the
    point alone with the same seed.  A seed or sample count that Monte Carlo
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

    points, laws = [], {}
    for value in grid:
        try:
            law, thresholds = _resolve_point(_apply_sweep(cfg, value))
        except DomainError as exc:
            raise domain_error(value, exc) from exc
        points.append((laws.setdefault(law, law), thresholds))

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
# Shipped figure recipes: the .cfg files here are their only definition

_RECIPES = os.path.join(os.path.dirname(__file__), "recipes")


def generate_recipes(directory):
    """Write every shipped figure recipe, in write_config's canonical form,
    as a .cfg file under `directory`; returns the paths in name order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in sorted(n for n in os.listdir(_RECIPES) if n.endswith(".cfg")):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(write_config(parse_config(os.path.join(_RECIPES, name))))
        paths.append(path)
    return paths


def recipe_path(name):
    """Path of a shipped figure recipe by name (e.g. 'fig9')."""
    return os.path.join(_RECIPES, f"{name}.cfg")


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

"""Config grammar, CSV contract, exit codes, shipped recipes."""

import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from cascade_fading import cli, distributions, mc, performance
from cascade_fading.cli import (
    CSV_HEADER,
    AtmosphereConfig,
    ConfigError,
    LinkConfig,
    ScenarioConfig,
    SweepConfig,
    TransceiverConfig,
    build_product,
    evaluate,
    generate_recipes,
    main,
    parse_config,
    parse_config_text,
    recipe_path,
    run,
    write_config,
)
from cascade_fading.mc import mc_cdf, mc_op_parallel, mc_op_thz
from cascade_fading.specfun import AccuracyError

# the names of the shipped recipes, which are defined by their .cfg files alone
RECIPES = sorted(f[:-4] for f in os.listdir(os.path.dirname(recipe_path("fig9"))))

MINIMAL = """
[config]
config_version = 1
scenario = fso_cascade

[sweep]
variable = snr_db
start = 20
stop = 40
points = 5
scale = db

[transceiver]
snr_ratio_db = 35

[link.1]
turbulence = weak

[link.2]
alpha = 4.942
beta = 1.231
"""

# a thz_cascade config that reads every sweep variable but snr_db: link 1
# given by its geometry and misaligned by it, link 2 by alpha/beta, the SNR
# from the link budget (which reads every link's distance; a swept SNR would
# stand in for it)
THZ_GEOMETRY = """
[config]
config_version = 1
scenario = thz_cascade

[sweep]
variable = frequency
start = 1
stop = 10
points = 2

[transceiver]
power_dbw = 0.0
bandwidth = 5e10

[atmosphere]
cn2 = 1e-14
frequency = 3e11

[link.1]
distance = 100.0
aperture = 0.05
beam_waist = 0.1
jitter = 0.01
misaligned = true

[link.2]
alpha = 4.942
beta = 1.231
distance = 50.0
"""


def _per_point_csv(cfg, mode, seed, samples):
    """The CSV of an snr_db sweep over a fixed channel, built from one
    outage operator call per point."""
    ch = build_product(cfg)
    trx = cfg.transceiver
    g_th = 10.0 ** (trx.gamma_th_db / 10.0)
    lines = [CSV_HEADER]
    for v in cfg.sweep.grid():
        r = 10.0 ** (v / 10.0)
        if cfg.scenario == "fso_cascade":
            res = performance.op_fso_cascade(ch, r)
            est = mc_cdf(ch, math.sqrt(1.0 / r), samples, seed)
        elif cfg.scenario == "fso_parallel":
            res = performance.op_fso_parallel_bound(ch, trx.branches, r)
            est = mc_op_parallel(ch, trx.branches, r, samples, seed)
        else:
            res = performance.op_thz(ch, r, g_th, trx.kappa_t, trx.kappa_r)
            est = mc_op_thz(ch, r, g_th, trx.kappa_t, trx.kappa_r, samples, seed)
        cells = [v, "", est.value, est.std_error, "", ""]
        if mode == "both":
            cells[1], cells[4], cells[5] = res.probability, res.method, res.accuracy_flag
        lines.append(",".join(format(c, ".12g") if isinstance(c, float) else c
                              for c in cells))
    return "\n".join(lines) + "\n"


def _count_draws(monkeypatch):
    calls = []
    draw = mc.sample_z

    def sample_z(ch, rng, count):
        calls.append(count)
        return draw(ch, rng, count)

    monkeypatch.setattr(mc, "sample_z", sample_z)
    return calls


def _low_snr_fig7_weak():
    cfg = parse_config(recipe_path("fig7_weak"))
    return replace(cfg, sweep=replace(cfg.sweep, start=10.0, stop=12.0, points=2))


def _refusing_at_first_point(monkeypatch):
    """The 10-12 dB fig7_weak sweep, with the CDF made to refuse at 10 dB.

    The shipped channels do not refuse, so the refusal is injected at the
    evaluator boundary the outage operators call.
    """
    exact = performance.z_cdf

    def z_cdf(ch, x):
        if x > 0.04:  # the 10 dB threshold (1/20) but not the 12 dB one
            raise AccuracyError("forced refusal")
        return exact(ch, x)

    monkeypatch.setattr(performance, "z_cdf", z_cdf)
    return _low_snr_fig7_weak()


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.scenario == "fso_cascade"
        assert cfg.links[0].alpha == 10.02
        assert cfg.links[1].beta == 1.231
        assert cfg.sweep.grid() == [20.0, 25.0, 30.0, 35.0, 40.0]

    def test_round_trip_identity(self):
        cfg = parse_config_text(MINIMAL)
        assert parse_config_text(write_config(cfg)) == cfg

    def test_all_recipes_round_trip(self):
        for name in RECIPES:
            cfg = parse_config(recipe_path(name))
            again = parse_config_text(write_config(cfg), source=name)
            assert again == cfg, name

    def test_shipped_recipe_files_match_generator(self, tmp_path):
        # each shipped file is in write_config's canonical form
        paths = generate_recipes(tmp_path)
        assert paths == [str(tmp_path / f"{name}.cfg") for name in RECIPES]
        for name in RECIPES:
            with open(recipe_path(name)) as fh:
                shipped = fh.read()
            with open(tmp_path / f"{name}.cfg") as fh:
                regenerated = fh.read()
            assert shipped == regenerated, name

    @pytest.mark.parametrize("mutation,field", [
        ("scenario = fso_cascade", "scenario = warp_drive"),
        ("variable = snr_db", "variable = nonsense"),
        ("points = 5", "points = 0"),
        ("stop = 40", "stop = 10"),
        ("config_version = 1", "config_version = 99"),
        ("alpha = 4.942", "alpha = not_a_number"),
        ("alpha = 4.942", "alpha = 4.942%"),  # configparser's interpolation syntax
        ("turbulence = weak", "turbulence = weak%"),
        # a log grid from a non-positive start has no points
        ("20\nstop = 40\npoints = 5\nscale = db", "0.0\nstop = 40\npoints = 5\nscale = log"),
        ("20\nstop = 40\npoints = 5\nscale = db", "-5.0\nstop = 40\npoints = 5\nscale = log"),
    ])
    def test_invalid_configs_rejected(self, mutation, field):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL.replace(mutation, field))

    def test_missing_sections_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[config]\nconfig_version = 1\nscenario = fso_cascade\n")

    # each part of a config by the dataclass that states its grammar
    PARTS = {SweepConfig: "sweep", TransceiverConfig: "transceiver",
             AtmosphereConfig: "atmosphere", LinkConfig: "links"}

    # a config that reads the field, where THZ_GEOMETRY does not
    READERS = {
        "snr_ratio_db": MINIMAL,
        "branches": MINIMAL.replace("fso_cascade", "fso_parallel"),
        "wavelength": MINIMAL.replace("alpha = 4.942\nbeta = 1.231", "distance = 1e3"),
        "ris_reflection": THZ_GEOMETRY + "\n[link.3]\nturbulence = weak\n",
        **dict.fromkeys(("xi", "a_o"), THZ_GEOMETRY.replace(
            "beta = 1.231", "beta = 1.231\nmisaligned = true\nxi = 6.7\na_o = 0.8")),
        **dict.fromkeys(("aperture", "beam_waist", "jitter"), THZ_GEOMETRY.replace(
            "beta = 1.231", "beta = 1.231\nmisaligned = true\naperture = 0.05\n"
            "beam_waist = 0.1\njitter = 0.01")),
    }

    @pytest.mark.parametrize("cls,key", [(cls, f.name) for cls in PARTS
                                         for f in fields(cls)])
    def test_every_field_round_trips(self, cls, key):
        # a field that the writer drops comes back as its default; on a
        # config that reads the field (and every sweep variable but snr_db,
        # so that kappa_t is one)
        cfg = parse_config_text(self.READERS.get(key, THZ_GEOMETRY))
        part = cfg.links[1] if cls is LinkConfig else getattr(cfg, self.PARTS[cls])
        old = getattr(part, key)
        if isinstance(old, str):
            new = {"variable": "kappa_t", "scale": "log"}[key]
        elif isinstance(old, bool):
            new = not old
        else:
            new = 0.375 if old is None else old + 2
        part = replace(part, **{key: new})
        cfg = (replace(cfg, links=(cfg.links[0], part)) if cls is LinkConfig
               else replace(cfg, **{self.PARTS[cls]: part}))
        assert getattr(part, key) != getattr(cls, key, None)
        assert parse_config_text(write_config(cfg)) == cfg

    def test_sweep_scale_defaults_to_linear(self):
        cfg = parse_config_text(MINIMAL.replace("scale = db\n", ""))
        assert cfg.sweep.scale == "linear"

    @pytest.mark.parametrize("value", ["1", "yes", "True", "ON"])
    def test_bool_spellings(self, value):
        text = MINIMAL.replace("beta = 1.231", f"beta = 1.231\nmisaligned = {value}\n"
                               "aperture = 0.05\nbeam_waist = 0.1\njitter = 0.01")
        assert build_product(parse_config_text(text)).l == 1
        # a link that is not misaligned reads no geometry of its beam
        off = parse_config_text(MINIMAL.replace("beta = 1.231", "beta = 1.231\nmisaligned = off"))
        assert build_product(off).l == 0

    @pytest.mark.parametrize("value", ["treu", "y", "2", "enabled"])
    def test_bool_typo_exits_2(self, value, tmp_path, capsys):
        # a typo used to read as false and drop the link's pointing error
        path = tmp_path / "typo.cfg"
        path.write_text(MINIMAL.replace("beta = 1.231", f"beta = 1.231\nmisaligned = {value}"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[link.2] misaligned: cannot parse" in err

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_preset_with_shape_rejected(self, key):
        # the preset used to override the explicit shape silently
        with pytest.raises(ConfigError) as info:
            parse_config_text(MINIMAL.replace("turbulence = weak",
                                              f"turbulence = weak\n{key} = 3.0"))
        assert (info.value.section, info.value.key) == ("link.1", "turbulence")

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_one_shape_alone_rejected(self, key):
        # the link used to stay a geometry link, with the shape unread
        with pytest.raises(ConfigError) as info:
            parse_config_text(MINIMAL.replace("alpha = 4.942\nbeta = 1.231", f"{key} = 2.0\ndistance = 1e3"))
        assert (info.value.section, info.value.key) == ("link.2", "alpha/beta")

    SWEEP_SETS = {
        "snr_db": {("transceiver", "snr_ratio_db")},
        "gamma_th_db": {("transceiver", "gamma_th_db")},
        "kappa_t": {("transceiver", "kappa_t")},
        "kappa_r": {("transceiver", "kappa_r")},
        "frequency": {("atmosphere", "frequency")},
        "jitter": {("link.1", "jitter")},  # the links misaligned by geometry
        "jitter_1": {("link.1", "jitter")},
        "distance_2": {("link.2", "distance")},
    }

    @pytest.mark.parametrize("var", [*SWEEP_SETS, "jitter_x", "jitter_", "jitter_0",
                                     "jitter_3", "distance_3", "beam_waist"])
    def test_sweep_variable(self, var, tmp_path, capsys):
        if var not in self.SWEEP_SETS:  # two links, and no such field
            path = tmp_path / "sweep.cfg"
            path.write_text(MINIMAL.replace("variable = snr_db", f"variable = {var}").replace(
                "turbulence = weak",
                "turbulence = weak\nmisaligned = true\nxi = 6.7\na_o = 0.8"))
            assert main(["run", str(path)]) == 2
            assert "[sweep] variable:" in capsys.readouterr().err
            return

        def flat(cfg):
            parts = [("transceiver", cfg.transceiver), ("atmosphere", cfg.atmosphere),
                     *((f"link.{i}", l) for i, l in enumerate(cfg.links, start=1))]
            return {(name, f.name): getattr(part, f.name)
                    for name, part in parts for f in fields(part)}

        text = THZ_GEOMETRY.replace("variable = frequency", f"variable = {var}")
        if var == "snr_db":  # the swept SNR stands in for the budget and its distances
            text = text.replace("power_dbw = 0.0\nbandwidth = 5e10\n", "").replace(
                "distance = 50.0\n", "")
        cfg = parse_config_text(text)
        before, after = flat(cfg), flat(cli._apply_sweep(cfg, 0.0123))
        assert {k for k in before if before[k] != after[k]} == self.SWEEP_SETS[var]
        assert all(after[k] == 0.0123 for k in self.SWEEP_SETS[var])

    @pytest.mark.parametrize("var", ["jitter_1", "jitter", "distance_2", "frequency",
                                     "kappa_t", "gamma_th_db"])
    def test_unread_sweep_variable_exits_2(self, var, tmp_path, capsys):
        # on two alpha/beta links, neither misaligned, in fso_cascade, each
        # of these used to run and print the same outage at every point
        path = tmp_path / "sweep.cfg"
        path.write_text(MINIMAL.replace("variable = snr_db", f"variable = {var}"))
        assert main(["run", str(path)]) == 2
        assert "[sweep] variable:" in capsys.readouterr().err

    def test_misaligned_by_xi_reads_no_jitter(self):
        # xi/a_o stand in for the geometry, so a link's jitter is read only
        # where the link is misaligned by geometry
        text = THZ_GEOMETRY.replace("variable = frequency", "variable = jitter").replace(
            "beta = 1.231", "beta = 1.231\nmisaligned = true\nxi = 6.7\na_o = 0.8")
        assert cli._sweep_target(parse_config_text(text)) == ((0,), "jitter")
        with pytest.raises(ConfigError) as info:
            parse_config_text(text.replace("variable = jitter", "variable = jitter_2"))
        assert (info.value.section, info.value.key) == ("sweep", "variable")

    @pytest.mark.parametrize("start", ["0.0", "-5.0"])
    def test_log_sweep_from_non_positive_start_exits_2(self, start, tmp_path, capsys):
        # SweepConfig.grid raised a math domain error, with exit 1
        path = tmp_path / "log.cfg"
        path.write_text(MINIMAL.replace("start = 20", f"start = {start}")
                        .replace("scale = db", "scale = log"))
        assert main(["run", str(path)]) == 2
        assert "[sweep] start:" in capsys.readouterr().err

    def test_geometry_entry(self):
        text = MINIMAL.replace(
            "[link.2]\nalpha = 4.942\nbeta = 1.231",
            "[link.2]\nturbulence = weak\naperture = 0.05\nbeam_waist = 0.1\n"
            "jitter = 0.01\nmisaligned = true",
        )
        ch = build_product(parse_config_text(text))
        assert ch.l == 1 and ch.n == 2
        assert ch.pe_links[0].a_o == pytest.approx(math.erf(
            math.sqrt(math.pi) * 0.05 / (math.sqrt(2) * 0.1)) ** 2)


def _edited(value):
    """A value of a config field other than `value` and the field's default:
    a flipped bool, the next int, half a nonzero float, and 0.5 or 0.375 in
    place of 0.0 or None."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 0.375
    return value * 0.5 if value else 0.5


def _swept(cfg):
    """The (section, field) pairs that the sweep of a shipped recipe sets."""
    var = cfg.sweep.variable
    if var == "jitter":
        return {(f"link.{i}", "jitter") for i, l in enumerate(cfg.links, start=1)
                if l.misaligned}
    stem, _, k = var.partition("_")
    if stem in ("jitter", "distance"):
        return {(f"link.{k}", stem)}
    return {{"snr_db": ("transceiver", "snr_ratio_db"),
             "frequency": ("atmosphere", "frequency")}.get(var, ("transceiver", var))}


class TestReadFields:
    """An accepted field affects the result: a field that the run would not
    read exits 2 where it differs from its default."""

    def test_every_recipe_edit_changes_the_csv_or_exits_2(self):
        # each field of each [transceiver], [atmosphere] and [link.k] of the
        # shipped recipes, edited alone on a 2-point grid; the swept field,
        # which each point overrides, and fig13_ceiling, every point of which
        # is the hard ceiling, are exempt
        edits, unchanged = 0, []
        for name in RECIPES:
            if name == "fig13_ceiling":
                continue
            cfg = parse_config(recipe_path(name))
            cfg = replace(cfg, sweep=replace(cfg.sweep, points=2))
            csv = run(cfg)[0]
            parts = [("transceiver", cfg.transceiver), ("atmosphere", cfg.atmosphere),
                     *((f"link.{i}", l) for i, l in enumerate(cfg.links, start=1))]
            for section, part in parts:
                for f in fields(part):
                    if (section, f.name) in _swept(cfg):
                        continue
                    part_ = replace(part, **{f.name: _edited(getattr(part, f.name))})
                    if section.startswith("link."):
                        k = int(section[5:]) - 1
                        edit = replace(cfg, links=cfg.links[:k] + (part_,) + cfg.links[k + 1:])
                    else:
                        edit = replace(cfg, **{section: part_})
                    edits += 1
                    try:
                        if run(parse_config_text(write_config(edit)))[0] == csv:
                            unchanged.append((name, section, f.name))
                    except ConfigError:  # exit 2
                        pass
        assert edits == 830
        assert unchanged == []

    THZ_ONE_LINK = THZ_GEOMETRY.split("[link.2]")[0]

    @pytest.mark.parametrize("text,section,key", [
        # a link budget in an FSO config, whose SNR is snr_ratio_db as given
        (MINIMAL.replace("snr_ratio_db = 35", "snr_ratio_db = 35\npower_dbw = 0.0"),
         "transceiver", "power_dbw"),
        (MINIMAL.replace("snr_ratio_db = 35", "snr_ratio_db = 35\nbranches = 2"),
         "transceiver", "branches"),
        (MINIMAL.replace("snr_ratio_db = 35", "snr_ratio_db = 35\nkappa_t = 0.1"),
         "transceiver", "kappa_t"),
        # omega scales a link given by alpha/beta only
        (MINIMAL.replace("alpha = 4.942\nbeta = 1.231", "distance = 1e3\nomega = 2.0"),
         "link.2", "omega"),
        # a link that is not misaligned reads no pointing error
        (MINIMAL.replace("beta = 1.231", "beta = 1.231\nxi = 6.7\na_o = 0.8"),
         "link.2", "xi/a_o"),
        (MINIMAL.replace("beta = 1.231", "beta = 1.231\njitter = 0.01"), "link.2", "jitter"),
        # a one-link budget has no surface to reflect from
        (THZ_ONE_LINK.replace("bandwidth = 5e10", "bandwidth = 5e10\nris_reflection = 0.5"),
         "transceiver", "ris_reflection"),
        # a given SNR stands in for the whole link budget
        (THZ_GEOMETRY.replace("bandwidth = 5e10", "bandwidth = 5e10\nsnr_ratio_db = 20"),
         "transceiver", "power_dbw"),
    ], ids=["fso_budget", "fso_branches", "fso_kappa_t", "geometry_omega", "unaligned_xi",
            "unaligned_jitter", "one_link_ris", "snr_and_budget"])
    def test_unread_field_exits_2(self, text, section, key, tmp_path, capsys):
        path = tmp_path / "unread.cfg"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert f"[{section}] {key}: this " in capsys.readouterr().err

    def test_threshold_without_distortion_exits_2(self):
        # without kappa_t/kappa_r, gamma_th_db cancels out of the THz outage
        cfg = parse_config(recipe_path("fig13_ideal"))
        edit = replace(cfg, transceiver=replace(cfg.transceiver, gamma_th_db=3.0))
        with pytest.raises(ConfigError) as info:
            parse_config_text(write_config(edit))
        assert (info.value.section, info.value.key) == ("transceiver", "gamma_th_db")
        worst = parse_config(recipe_path("fig13_worst"))
        parse_config_text(write_config(replace(
            worst, transceiver=replace(worst.transceiver, gamma_th_db=3.0))))

    def test_budget_without_a_distance_exits_2(self, tmp_path, capsys):
        # the budget's path loss reads every link's distance; a missing one
        # raised a TypeError
        path = tmp_path / "no_distance.cfg"
        path.write_text(THZ_GEOMETRY.replace("variable = frequency", "variable = kappa_t")
                        .replace("distance = 50.0\n", ""))
        assert main(["run", str(path)]) == 2
        assert "[link.2] distance:" in capsys.readouterr().err


def _with_field(cfg, section, name, value):
    """cfg with field `name` of its part `section` set to `value`."""
    part = replace(dict(cli._parts(cfg))[section], **{name: value})
    if section.startswith("link."):
        k = int(section[5:]) - 1
        return replace(cfg, links=cfg.links[:k] + (part,) + cfg.links[k + 1:])
    return replace(cfg, **{section: part})


class TestDoubleRange:
    """A physics input beyond its formula's double range exits 2 naming the
    sweep value; no input ends in a traceback."""

    def test_every_recipe_field_at_the_ends_of_the_double_range(self, tmp_path, capsys):
        # each float field written in a shipped recipe, set alone to 1e-300
        # and to 1e300 on a 2-point grid; 160 of these ended in a bare
        # ZeroDivisionError or OverflowError from the channel physics
        path, edits, codes = tmp_path / "edit.cfg", 0, set()
        for name in RECIPES:
            cfg = parse_config(recipe_path(name))
            cfg = replace(cfg, sweep=replace(cfg.sweep, points=2))
            for section, part in cli._parts(cfg):
                for f in fields(part):
                    value = getattr(part, f.name)
                    if not isinstance(value, float) or value == f.default:
                        continue
                    for extreme in (1e-300, 1e300):
                        path.write_text(write_config(_with_field(cfg, section, f.name, extreme)))
                        codes.add(main(["run", str(path)]))
                        edits += 1
        capsys.readouterr()
        assert edits == 430
        assert codes <= {0, 2, 3}

    @pytest.mark.parametrize("key,value", [("temperature", 32.18), ("temperature", 32.0),
                                           ("pressure", 1e-300)])
    def test_atmosphere_outside_the_absorption_formula(self, key, value, tmp_path, capsys):
        # 32.18 K is the pole of the saturation pressure, below which its
        # exponent overflows; at 1e-300 Pa the water-vapor fraction overflows
        cfg = parse_config(recipe_path("fig11"))
        path = tmp_path / "atm.cfg"
        path.write_text(write_config(replace(
            _with_field(cfg, "atmosphere", key, value), sweep=replace(cfg.sweep, points=2))))
        assert main(["run", str(path)]) == 2
        assert "[sweep] frequency: sweep_value=1.8e+11: kappa(f) leaves the double range" \
            in capsys.readouterr().err
        assert main(["eval", str(path), "--quantity", "kappa", "--at", "3e11"]) == 2

    def test_gamma_gamma_scale_beyond_the_double_range_exits_2(self, tmp_path, capsys):
        # alpha beta overflows, so the scale Omega / (alpha beta) is 0: this
        # ended run in a bare math domain error
        cfg = parse_config(recipe_path("fig3_weak_weak"))
        cfg = _with_field(_with_field(cfg, "link.1", "alpha", 1e300), "link.1", "beta", 1e300)
        path = tmp_path / "gg.cfg"
        path.write_text(write_config(cfg))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[sweep] snr_db: sweep_value=20: Gamma-Gamma law leaves the double range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("beta,code", [(1e8, 0), (1e10, 0), (1e11, 3), (1e16, 3),
                                           (1e20, 3), (1e300, 3)])
    def test_huge_shape_refused_at_every_point(self, beta, code, tmp_path, capsys):
        # from beta = 1e11 the log integrand keeps no digits; at 1e16 run
        # printed outage 1 at 10 dB and 2.8e-9 at 12.5 dB, and exited 0
        path = tmp_path / "beta.cfg"
        path.write_text(write_config(_with_field(
            parse_config(recipe_path("fig4_strong_n3")), "link.1", "beta", beta)))
        assert main(["run", str(path)]) == code
        out, err = capsys.readouterr()
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 13
        if code:
            assert err.count("keeps no digits") == 13
            assert all(row[1] == "" and row[-1] == "failed" for row in rows)
        else:
            ops = [float(row[1]) for row in rows]
            assert all(a > b for a, b in zip(ops, ops[1:])) and 0.03 < ops[-1] < ops[0] < 0.5

    def test_vanishing_turbulence_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cn2.cfg"
        path.write_text(write_config(_with_field(
            parse_config(recipe_path("fig9")), "atmosphere", "cn2", 1e-300)))
        assert main(["run", str(path)]) == 2
        assert "[sweep] distance_2: sweep_value=100: Gamma-Gamma law leaves " \
            "the double range" in capsys.readouterr().err
        # eval builds the channel outside a sweep; it raised the DomainError
        for quantity in ("cdf", "pdf", "diversity"):
            assert main(["eval", str(path), "--quantity", quantity, "--at", "0.5"]) == 2
            assert "[-] config: Gamma-Gamma law leaves" in capsys.readouterr().err


class TestRun:
    def test_csv_schema_and_monotonicity(self):
        cfg = parse_config(recipe_path("fig3_weak_weak"))
        text, flagged = run(cfg, mode="analytic")
        assert not flagged
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + cfg.sweep.points
        ops = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(ops, ops[1:]))
        assert "," in text and ";" not in text.split("\n")[1]

    def test_lf_line_endings_on_disk(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        out = tmp_path / "sweep.csv"
        run(cfg, mode="analytic", out=str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("ascii")

    def test_mc_columns(self):
        cfg = parse_config_text(MINIMAL.replace("points = 5", "points = 2"))
        text, _ = run(cfg, mode="both", seed=3, samples=20000)
        row = text.strip().split("\n")[1].split(",")
        ana, mc, stderr = float(row[1]), float(row[2]), float(row[3])
        assert abs(ana - mc) < 5 * max(stderr, 1e-6)

    def test_thread_cap_reproducible(self, monkeypatch):
        # three Monte Carlo chunks, drawn on one thread or on three
        cfg = parse_config_text(MINIMAL)
        csvs = []
        for cpus in (1, 4):
            monkeypatch.setattr(mc, "_usable_cpus", lambda cpus=cpus: cpus)
            csvs.append((run(cfg, mode="analytic")[0],
                         run(cfg, mode="mc", samples=2 * mc._CHUNK + 7)[0]))
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("mode", ["mc", "both"])
    @pytest.mark.parametrize("name", ["fig4_weak_n3", "fig7_weak", "fig13_worst"])
    def test_shared_channel_drawn_once(self, name, mode, monkeypatch):
        # every point of these sweeps has the same channel: one set of
        # draws serves them all, and each point's tally is the one a call
        # for that point alone gives
        cfg = parse_config(recipe_path(name))
        expected = _per_point_csv(cfg, mode, 5, 20000)
        calls = _count_draws(monkeypatch)
        text, flagged = run(cfg, mode=mode, seed=5, samples=20000)
        assert not flagged
        assert text == expected
        assert calls == [20000] * cfg.transceiver.branches

    @pytest.mark.parametrize("name", ["fig3_weak_strong", "fig4_weak_n3", "fig13_worst",
                                      "fig7_weak", "fig8_n2"])
    def test_shared_channel_law_built_once(self, name, monkeypatch):
        # the points share one channel object, so its Mellin transform is
        # built once per sweep (for fso_parallel, that of the branch's
        # flattened product); each value is that of a fresh channel
        cfg = parse_config(recipe_path(name))
        analytic_op, _ = cli._operators(cfg.scenario)
        expected = []
        for v in cfg.sweep.grid():
            law, thresholds = cli._resolve_point(cli._apply_sweep(cfg, v))
            expected.append(format(analytic_op(*law, *thresholds).probability, ".12g"))
        builds = []
        inner = distributions._MellinLaw.__init__

        def init(law, ch):
            builds.append(ch)
            inner(law, ch)

        monkeypatch.setattr(distributions._MellinLaw, "__init__", init)
        text, flagged = run(cfg)
        assert not flagged
        assert [r.split(",")[1] for r in text.strip().split("\n")[1:]] == expected
        assert len(builds) == 1

    @pytest.mark.parametrize("name", ["fig3_weak_weak", "fig7_weak", "fig13_worst"])
    def test_degeneracy_scanned_once_per_channel(self, name, monkeypatch):
        # every point's accuracy flag asks the channel whether its exponent
        # tuple has an integer-separated pair; the channel scans once
        scans = []
        inner = distributions._degenerate_pairs

        def pairs(values):
            scans.append(values)
            return inner(values)

        monkeypatch.setattr(distributions, "_degenerate_pairs", pairs)
        text, flagged = run(parse_config(recipe_path(name)))
        assert not flagged
        assert len(scans) == 1
        assert {r.split(",")[5] for r in text.strip().split("\n")[1:]} == {
            "perturbed" if inner(scans[0]) else "clean"}

    def test_changing_channel_tallied_per_point(self, monkeypatch):
        cfg = parse_config(recipe_path("fig5"))
        r = 10.0 ** (cfg.transceiver.snr_ratio_db / 10.0)
        expected = []
        for v in cfg.sweep.grid():
            links = (replace(cfg.links[0], jitter=v),) + cfg.links[1:]
            ch = build_product(replace(cfg, links=links))
            est = mc_cdf(ch, math.sqrt(1.0 / r), 20000, 7)
            expected.append((format(est.value, ".12g"), format(est.std_error, ".12g")))
        calls = _count_draws(monkeypatch)
        text, _ = run(cfg, mode="mc", seed=7, samples=20000)
        rows = [tuple(r.split(",")[2:4]) for r in text.strip().split("\n")[1:]]
        assert rows == expected
        assert len(calls) == cfg.sweep.points

    def test_accuracy_failure_flagged(self, monkeypatch):
        cfg = _refusing_at_first_point(monkeypatch)
        text, flagged = run(cfg, mode="analytic")
        assert [value for value, _ in flagged] == [10.0]
        rows = [r.split(",") for r in text.strip().split("\n")[1:]]
        assert rows[0][5] == "failed" and rows[0][1] == ""
        assert float(rows[1][1]) == pytest.approx(0.810245505636, abs=1e-9)

    def test_low_snr_parallel_bound(self):
        # 10-12 dB lies below the grid of fig7_weak; the AGM bound there must
        # still dominate the simulated outage of the parallel system
        cfg = _low_snr_fig7_weak()
        text, flagged = run(cfg, mode="analytic")
        assert not flagged
        rows = [r.split(",") for r in text.strip().split("\n")[1:]]
        branch = build_product(cfg)
        for row, expect, seed in zip(rows, (0.891093, 0.810246), (10, 12)):
            bound = float(row[1])
            assert bound == pytest.approx(expect, abs=1e-6)
            sim = mc_op_parallel(branch, 2, 10.0 ** (float(row[0]) / 10.0),
                                 10**5, seed)
            assert bound > sim.value + 5 * sim.std_error


RECIPE_CSVS = os.path.join(os.path.dirname(__file__), "data", "recipes")


class TestRecipeCsvs:
    """Every shipped recipe's CSV, analytic and `--mode both --samples 20000
    --seed 1`, byte for byte against the copies in tests/data/recipes: a
    change that moves any printed digit of any recipe fails here."""

    @pytest.mark.parametrize("mode", ["analytic", "both"])
    def test_byte_identical(self, mode):
        names = sorted(f[:-4] for f in os.listdir(os.path.dirname(recipe_path("fig9"))))
        assert len(names) == 23
        for name in names:
            with open(os.path.join(RECIPE_CSVS, mode, f"{name}.csv"), "rb") as fh:
                expected = fh.read()
            text, flagged = run(parse_config(recipe_path(name)), mode=mode, seed=1,
                                samples=20000)
            assert not flagged, name
            assert text.encode("ascii") == expected, name


class TestEval:
    def test_diversity(self):
        cfg = parse_config(recipe_path("fig3_weak_weak"))
        value, flag = evaluate(cfg, "diversity")
        assert value == pytest.approx(1.49)

    def test_kappa(self):
        cfg = parse_config(recipe_path("fig9"))
        value, _ = evaluate(cfg, "kappa", at=300e9)
        assert value == pytest.approx(5.8268e-4, rel=5e-3)

    def test_cdf_at_zero(self):
        cfg = parse_config(recipe_path("fig3_weak_weak"))
        value, _ = evaluate(cfg, "cdf", at=0.0)
        assert value == 0.0

    def test_pdf_positive(self):
        cfg = parse_config(recipe_path("fig3_weak_weak"))
        value, _ = evaluate(cfg, "pdf", at=0.5)
        assert value > 0

    @pytest.mark.parametrize("quantity,at,key", [
        ("cdf", None, "--at"), ("pdf", None, "--at"), ("kappa", None, "--at"),
        ("entropy", 0.5, "--quantity"),
    ])
    def test_unusable_request_is_a_config_error(self, quantity, at, key):
        # main's argparse never passes these, but evaluate is public
        cfg = parse_config(recipe_path("fig3_weak_weak"))
        with pytest.raises(ConfigError) as info:
            evaluate(cfg, quantity, at)
        assert f"[-] {key}" in str(info.value)


class TestColdImport:
    def test_monte_carlo_run_loads_no_thread_pool_or_logging(self):
        # concurrent.futures, with the logging it loads, costs a few ms after
        # numpy: neither the import nor an analytic or Monte Carlo run loads it
        code = """
import sys
import cascade_fading.cli as cli

assert "concurrent.futures" not in sys.modules
text, flagged = cli.run(cli.parse_config(cli.recipe_path("fig3_weak_weak")), mode="analytic")
assert text.count("\\n") > 2 and not flagged
assert "concurrent.futures" not in sys.modules
cli.run(cli.parse_config(cli.recipe_path("fig13_worst")), mode="mc", samples=20000)
assert "concurrent.futures" not in sys.modules and "logging" not in sys.modules
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_leaves_heavy_scipy_modules_unloaded(self):
        # the recipe path runs on numpy alone: no scipy module loads on
        # import or through analytic and Monte Carlo runs.  scipy.special
        # loads on the first call that needs K_nu, Gamma or xlogy, and
        # scipy.interpolate (with optimize, linalg, sparse, spatial) on the
        # first ks_statistic call; scipy.constants never
        code = """
import sys
import numpy as np
import cascade_fading.cli as cli

def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

assert not scipy_modules(), scipy_modules()
for name, mode in (("fig3_weak_weak", "analytic"), ("fig7_weak", "analytic"),
                   ("fig13_worst", "mc")):
    text, flagged = cli.run(cli.parse_config(cli.recipe_path(name)), mode=mode,
                            samples=20000)
    assert text.count("\\n") > 2 and not flagged, (name, flagged)
assert not scipy_modules(), scipy_modules()
from cascade_fading import specfun
from cascade_fading.distributions import GammaGammaParams, PointingErrorParams, gg_pdf, z2_pdf
assert 0.0 < gg_pdf(GammaGammaParams(10.02, 2.98), 0.5) < 10.0
assert "scipy.special" in sys.modules
assert abs(specfun.bessel_k(0.5, 1.0) / (np.sqrt(np.pi / 2.0) * np.exp(-1.0)) - 1.0) < 1e-14
assert z2_pdf((PointingErrorParams(6.7, 0.8), PointingErrorParams(6.7, 0.9)), 0.5) > 0.0
expansion = specfun.build_slater_expansion(specfun.MeijerGSpec(2, 0, 0, 2, (), (10.02, 2.98)))
assert len(expansion.terms) == 2 and all(np.isfinite(t.coefficient) for t in expansion.terms)
assert "scipy.constants" not in sys.modules, "scipy.constants"
assert "scipy.interpolate" not in sys.modules, "scipy.interpolate"
from cascade_fading import CompositeProduct, ks_statistic, sample_z
ch = CompositeProduct((GammaGammaParams(10.02, 2.98),))
d = ks_statistic(ch, sample_z(ch, np.random.default_rng(3), 2000), grid_points=256)
assert 0.0 < d < 0.05, d
assert "scipy.interpolate" in sys.modules
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_boltzmann_literal_is_codata_exact(self):
        from scipy.constants import k

        from cascade_fading.cli import BOLTZMANN

        assert BOLTZMANN == k


class TestMainExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["run", recipe_path("fig3_weak_weak"), "--out", str(out)])
        assert code == 0 and out.exists()

    def test_eval_ok(self, capsys):
        code = main(["eval", recipe_path("fig3_weak_weak"),
                     "--quantity", "diversity"])
        assert code == 0
        assert "1.49" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace("scenario = fso_cascade",
                                       "scenario = nonsense"))
        assert main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == 2

    def test_accuracy_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "low.cfg"
        path.write_text(write_config(_refusing_at_first_point(monkeypatch)))
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 3
        assert "accuracy failure at sweep_value=10" in capsys.readouterr().err

    def test_eval_beyond_the_largest_double_exits_3(self, tmp_path, capsys):
        # the density of (0.01, 3.0)·(4.942, 1.231) at 5e-324 is about e^731
        path = tmp_path / "tiny_shape.cfg"
        path.write_text(MINIMAL.replace("turbulence = weak", "alpha = 0.01\nbeta = 3.0"))
        assert main(["eval", str(path), "--quantity", "pdf", "--at", "5e-324"]) == 3
        assert "accuracy failure: Mellin-Barnes integral overflows" in capsys.readouterr().err

    def test_db_overflow_at_sweep_point_exits_2(self, tmp_path, capsys):
        # 10^(3204/10) overflows a double; 3204 dB is the first such point
        cfg = parse_config(recipe_path("fig3_weak_weak"))
        path = tmp_path / "huge_snr.cfg"
        path.write_text(write_config(replace(cfg, sweep=replace(cfg.sweep, stop=4000.0))))
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "sweep_value=3204" in err and "snr_ratio_db" in err

    # a misspelt field would otherwise run with its default; rho and
    # alpha_weather_db_km are FSO weather fields that no scenario's SNR reads
    @pytest.mark.parametrize("section,key", [
        ("config", "senario"), ("sweep", "point"), ("transceiver", "kappa_tt"),
        ("atmosphere", "cn_2"), ("atmosphere", "rho"), ("atmosphere", "alpha_weather_db_km"),
        ("link.1", "misalinged"), ("link.2", "omgea")])
    def test_unknown_field_exits_2(self, section, key, tmp_path, capsys):
        text = f"{MINIMAL}\n[atmosphere]\n"
        path = tmp_path / "typo.cfg"
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
        assert main(["run", str(path)]) == 2
        assert f"[{section}] {key}: unknown field" in capsys.readouterr().err
        parse_config_text(text)

    # [link.4] is not read: the links stop at the first missing index, and
    # the keys of [DEFAULT] would otherwise reach every section
    @pytest.mark.parametrize("section", ["link.4", "transciever", "DEFAULT"])
    def test_unknown_section_exits_2(self, section, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text(f"{MINIMAL}\n[{section}]\nalpha = 1\n")
        assert main(["run", str(path)]) == 2
        assert f"[{section}] -: unknown section" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["mc", "both"])
    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"), ("--seed", str(1 << 128)), ("--samples", "0")])
    def test_unusable_mc_flag_exits_2(self, flag, value, mode, tmp_path, capsys):
        # the flag is named, not the first sweep point, and no point runs
        out = tmp_path / "o.csv"
        assert main(["run", recipe_path("fig4_weak_n3"), "--mode", mode,
                     flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{flag}:" in err and "sweep_value" not in err
        assert not out.exists()

    @pytest.mark.parametrize("recipe,quantity,at", [
        ("fig3_weak_weak", "pdf", "-1"), ("fig3_weak_weak", "pdf", "nan"),
        ("fig3_weak_weak", "cdf", "nan"), ("fig9", "kappa", "-1"),
        ("fig9", "kappa", "nan"), ("fig9", "kappa", "inf"),
        ("fig9", "kappa", "1e300")])
    def test_eval_outside_domain_exits_2(self, recipe, quantity, at, capsys):
        assert main(["eval", recipe_path(recipe), "--quantity", quantity,
                     "--at", at]) == 2
        assert "config error: [-] --at:" in capsys.readouterr().err

    def test_domain_error_at_sweep_point_exits_2(self, tmp_path, capsys):
        cfg = parse_config(recipe_path("fig5"))
        path = tmp_path / "zero_jitter.cfg"
        path.write_text(write_config(
            replace(cfg, sweep=replace(cfg.sweep, start=0.0))))
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "sweep_value=0" in err


class TestScenarioCoverage:
    def test_fig9_thz_pipeline(self):
        cfg = parse_config(recipe_path("fig9"))
        text, flagged = run(cfg, mode="analytic")
        assert not flagged
        rows = text.strip().split("\n")[1:]
        ops = [float(r.split(",")[1]) for r in rows]
        assert all(b >= a for a, b in zip(ops, ops[1:]))  # worse with distance

    def test_fig13_ceiling_recipe(self):
        cfg = parse_config(recipe_path("fig13_ceiling"))
        text, _ = run(cfg, mode="analytic")
        rows = text.strip().split("\n")[1:]
        assert all(r.split(",")[1] == "1" and r.split(",")[4] == "hard_ceiling"
                   for r in rows)

    def test_fig11_budget_route(self):
        cfg = parse_config(recipe_path("fig11"))
        from dataclasses import replace
        small = replace(cfg, sweep=replace(cfg.sweep, points=17))
        text, flagged = run(small, mode="analytic")
        assert not flagged
        rows = [r.split(",") for r in text.strip().split("\n")[1:]]
        by_f = {float(r[0]): float(r[1]) for r in rows}
        # inside the 325 GHz absorption wall the outage is (much) worse than
        # in the first transmission window
        assert by_f[300e9] < by_f[320e9]

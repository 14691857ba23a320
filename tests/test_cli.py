"""Config grammar, CSV contract, exit codes, shipped recipes."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from cascade_fading import mc, performance
from cascade_fading.cli import (
    CSV_HEADER,
    ConfigError,
    ScenarioConfig,
    _fig_recipes,
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
    cfg = _fig_recipes()["fig7_weak"]
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
        for name, cfg in _fig_recipes().items():
            again = parse_config_text(write_config(cfg), source=name)
            assert again == cfg, name

    def test_shipped_recipe_files_match_generator(self, tmp_path):
        generate_recipes(tmp_path)
        for name in _fig_recipes():
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
    ])
    def test_invalid_configs_rejected(self, mutation, field):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL.replace(mutation, field))

    def test_missing_sections_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[config]\nconfig_version = 1\nscenario = fso_cascade\n")

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

    def test_thread_cap_reproducible(self):
        cfg = parse_config_text(MINIMAL)
        serial, _ = run(cfg, mode="analytic")
        serial_mc, _ = run(cfg, mode="mc", samples=20000)
        os.environ["CASCADE_FADING_THREADS"] = "4"
        try:
            parallel, _ = run(cfg, mode="analytic")
            parallel_mc, _ = run(cfg, mode="mc", samples=20000)
        finally:
            del os.environ["CASCADE_FADING_THREADS"]
        assert serial == parallel
        assert serial_mc == parallel_mc

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

    def test_changing_channel_tallied_per_point(self, monkeypatch):
        cfg = _fig_recipes()["fig5"]
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

    def test_db_overflow_at_sweep_point_exits_2(self, tmp_path, capsys):
        # 10^(3204/10) overflows a double; 3204 dB is the first such point
        cfg = parse_config(recipe_path("fig3_weak_weak"))
        path = tmp_path / "huge_snr.cfg"
        path.write_text(write_config(replace(cfg, sweep=replace(cfg.sweep, stop=4000.0))))
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "sweep_value=3204" in err and "snr_ratio_db" in err

    @pytest.mark.parametrize("key,used,default", [
        ("rho", 0.7, 1.0), ("alpha_weather_db_km", 0.43, 0.0)])
    def test_unused_atmosphere_field_exits_2(self, key, used, default, tmp_path, capsys):
        path = tmp_path / "weather.cfg"
        path.write_text(f"{MINIMAL}\n[atmosphere]\n{key} = {used}\n")
        assert main(["run", str(path)]) == 2
        assert f"[atmosphere] {key}" in capsys.readouterr().err
        parse_config_text(f"{MINIMAL}\n[atmosphere]\n{key} = {default}\n")

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
        ("fig9", "kappa", "nan"), ("fig9", "kappa", "inf")])
    def test_eval_outside_domain_exits_2(self, recipe, quantity, at, capsys):
        assert main(["eval", recipe_path(recipe), "--quantity", quantity,
                     "--at", at]) == 2
        assert "config error: [-] --at:" in capsys.readouterr().err

    def test_domain_error_at_sweep_point_exits_2(self, tmp_path, capsys):
        cfg = _fig_recipes()["fig5"]
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

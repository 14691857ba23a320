"""Benchmark of cascade-fading: outage sweeps, scalar evaluations and Monte
Carlo, with every returned probability checked against an independent
Mellin-Barnes oracle (benchmarks/oracle.py).

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--report FILE]

Run from the repository root; the package is imported from ./src.

Workloads (one process does the work, one computation at a time; BLAS
pools pinned to one thread, CASCADE_FADING_THREADS unset):

  sweeps_shared_channel  the 18 shipped recipes whose sweep variable leaves
                         the channel law fixed, each through `cli.run` in
                         analytic mode from cold caches (one forked child
                         per recipe), on a 3-point sub-grid of each.
  sweeps_fresh_channel   fig5, fig9, fig10_n3 and fig11 the same way, on
                         sub-grids: the channel changes at every point.
  pointwise_scalar       closed-loop scalar z_cdf / z_pdf calls by one
                         caller on three warm channels, at fixed x in a
                         seeded order.
  mc_sweeps              fig4_weak_n3, fig7_weak, fig13_worst in MC mode at
                         10^6 samples, MC seed derived from the seed.

A run repeats its fixed pass of work until `--seconds` is spent, and runs at
least two passes: the passes must agree bit for bit (determinism check).
Each unit of work (a recipe, or one scalar call) is timed in every pass, in
reference seconds (benchmarks/meter.py: wall time corrected for the host's
drifting speed), and its median time over the passes counts.
With `--trace 1` a run makes exactly one untraced and one traced pass; the
traced pass wraps the package's layer boundaries (benchmarks/layers.py) and
the shared-channel pass then also runs the first point of fig8_n3.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  An
operation fails when it raises (an AccuracyError refusal or anything else)
or returns a value outside the README's tolerance of the oracle.
`correct` is false when the determinism check fails or an oracle
reference could not be trusted.
"""

from __future__ import annotations

import os

# Pin thread pools before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CASCADE_FADING_THREADS", None)

import argparse
import hashlib
import json
import math
import multiprocessing
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from layers import Tracer, layer_metrics, merge, scale
from meter import Meter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SHARED = (
    "fig3_weak_weak", "fig3_weak_strong", "fig3_moderate_moderate",
    "fig3_strong_strong", "fig4_weak_n2", "fig4_strong_n2", "fig4_weak_n3",
    "fig4_strong_n3", "fig6_n2_l1", "fig6_n3_l2", "fig7_weak", "fig7_strong",
    "fig8_n1", "fig8_n2", "fig12", "fig13_ideal", "fig13_worst",
    "fig13_ceiling",
)
FRESH = ("fig5", "fig9", "fig10_n3", "fig11")
MC_RECIPES = ("fig4_weak_n3", "fig7_weak", "fig13_worst")
# Points kept per recipe: a uniform sub-grid from the first grid point
# (see `shape`), so every sweep still spans its range and fig6_n3_l2 keeps
# its 20 dB point.  The full shipped grids take ~20 s (shared) and ~28 s
# (fresh) per pass on a 2-core Xeon; a run needs two passes or more, and a
# recipe's median over three passes or more is what keeps the fresh
# workload's figures steady (its four recipes are its only latency classes).
POINTS = dict({name: 3 for name in SHARED}, fig5=4, fig9=4, fig10_n3=3, fig11=5)
MC_POINTS = 4  # per MC recipe, at ~0.2-0.45 s a point
# fig8_n3 costs ~15 s per point on a 2-core Xeon (46 656-node pointing
# mixture): only the traced pass runs it, with this many leading points.
TRACE_ONLY_PREFIX = {"fig8_n3": 1}
MC_SAMPLES = 10**6
MC_SIGMAS = 5.0

# pointwise_scalar: per channel, x at fixed quantiles of the channel's law,
# log-evenly over the outage region F in [1e-8, 1e-1] and over the upper
# tail 1 - F in [1e-3, 3e-2], where the README's seam tolerance applies to
# coincident pairs (see `scalar_pool`)
POOL_BULK = 16
POOL_TAIL = 16
POOL_SEAM = 8
TAIL_CDF = (1e-8, 1e-1)
SEAM_COMPLEMENT = (1e-3, 3e-2)

SETUP_REPEATS = 5
PROBE_EVERY = 0.2  # seconds between speed probes in the scalar loop
RUN_DEADLINE = 150.0  # seconds; children still running then are killed

WORKLOADS = ("sweeps_shared_channel", "sweeps_fresh_channel",
             "pointwise_scalar", "mc_sweeps")

E2E_UNITS = {
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "ops_ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# inputs

def shape(cfg, points=None, prefix=None):
    """Config on a uniform sub-grid of at most `points` points (or on the
    first `prefix` points), starting at the first grid point."""
    from dataclasses import replace

    grid = cfg.sweep.grid()
    n = len(grid)
    if prefix is not None:
        keep = list(range(min(prefix, n)))
    elif points is not None and points < n:
        step = max(1, (n - 1) // max(points - 1, 1))
        keep = list(range(0, n, step))[:points]
    else:
        return cfg
    if len(keep) == 1:
        sweep = replace(cfg.sweep, start=grid[0], stop=grid[0], points=1)
    else:
        sweep = replace(cfg.sweep, stop=grid[keep[-1]], points=len(keep))
    return replace(cfg, sweep=sweep)


def recipe_plan(workload, seed):
    """[(name, points, prefix)] in the seeded order of the workload."""
    if workload == "mc_sweeps":
        plan = [(n, MC_POINTS, None) for n in MC_RECIPES]
    else:
        names = SHARED if workload == "sweeps_shared_channel" else FRESH
        plan = [(n, POINTS[n], None) for n in names]
    random.Random(seed).shuffle(plan)
    return plan


def trace_only_plan(workload):
    if workload != "sweeps_shared_channel":
        return []
    return [(n, None, k) for n, k in TRACE_ONLY_PREFIX.items()]


def mc_seed(seed):
    return random.Random(f"mc-{seed}").randrange(1, 2**31)


def scalar_channels():
    """The three pointwise channels as (label, gg, pe) tuples."""
    weak = (10.02, 2.98, 1.0)
    strong = (4.942, 1.231, 1.0)
    return (
        ("clean_pair", (weak, strong), ()),
        ("pointing_pair", (weak, strong), ((6.7, 0.8), (5.1, 0.9))),
        ("coincident_pair", (weak, weak), ()),
    )


# ----------------------------------------------------------------------
# child processes

def _child_main(conn, target, args):
    try:
        result = target(*args)
    except Exception as exc:  # report, never hang the parent
        result = {"error": f"{type(exc).__name__}: {exc}"}
    conn.send(result)
    conn.close()


def in_child(target, args, timeout):
    """Run target(*args) in a forked child; returns its dict result.

    The parent has imported the package but evaluated nothing through it,
    so every child starts with cold caches.  The parent is single-threaded
    (thread pools pinned above), which keeps fork safe.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(send, target, args))
    proc.start()
    send.close()
    try:
        if recv.poll(max(timeout, 0.0)):
            result = recv.recv()
        else:
            result = {"error": "timed out", "timed_out": True}
    except EOFError:
        result = {"error": f"child exited with code {proc.exitcode}"}
    finally:
        recv.close()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    return result


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sweep_child(name, points, prefix, mode, seed, traced):
    tracer = Tracer.install() if traced else None
    from cascade_fading import cli

    error = None
    text = ""
    flagged = []
    cfg = shape(cli.parse_config(cli.recipe_path(name)), points, prefix)
    t1 = time.perf_counter()
    try:
        text, flagged = cli.run(cfg, mode=mode, seed=seed, samples=MC_SAMPLES)
    except Exception as exc:  # any escape from cli.run fails the recipe
        error = f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter()
    return {
        "csv": text,
        "flagged": [(float(v), str(m)) for v, m in flagged],
        "error": error,
        "span": (t1, t2),
        "rss_mb": _max_rss_mb(),
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def _scalar_child(pool, warm, seconds, trace_mode):
    """Closed loop over the pool, one pass at a time, one caller.

    Returns per-pass latencies (reference seconds) and values and, in
    trace_mode, the trace snapshot of the second pass, which is traced.
    The speed probes run between calls, at most every PROBE_EVERY seconds.
    """
    from cascade_fading import CompositeProduct, GammaGammaParams, PointingErrorParams, z_cdf, z_pdf

    chans = {}
    for label, gg, pe in scalar_channels():
        chans[label] = CompositeProduct(
            tuple(GammaGammaParams(*g) for g in gg),
            tuple(PointingErrorParams(*p) for p in pe))
    # warm every channel (the cold first call belongs to set-up)
    for label, ch in chans.items():
        for fn in (z_cdf, z_pdf):
            try:
                fn(ch, warm[label])
            except Exception:
                pass
    passes = []
    tracer = None
    meter = Meter()
    clock = time.perf_counter
    start = clock()
    while True:
        if trace_mode and len(passes) == 1:
            tracer = Tracer.install()
            import cascade_fading as pkg

            z_cdf, z_pdf = pkg.distributions.z_cdf, pkg.distributions.z_pdf
        fns = {"cdf": z_cdf, "pdf": z_pdf}
        spans, vals = [], []
        meter.sample()
        for label, kind, x in pool:
            fn, ch = fns[kind], chans[label]
            t0 = clock()
            try:
                v = fn(ch, x)
            except Exception as exc:
                v = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            spans.append((t0, t1))
            vals.append(v if isinstance(v, str) else float(v))
            if t1 - meter.times[-1] > PROBE_EVERY:
                meter.sample()
        meter.sample()
        passes.append({"spans": spans, "vals": vals})
        elapsed = clock() - start
        if trace_mode:
            if len(passes) == 2:
                break
        elif len(passes) >= 2 and elapsed + elapsed / len(passes) > seconds:
            break
    snap = None
    if tracer is not None:
        snap = tracer.snapshot()
        spans = passes[1]["spans"]
        scale(snap, meter.factor(spans[0][0], spans[-1][1]))
    for p in passes:
        p["lat"] = [meter.seconds(t0, t1) for t0, t1 in p.pop("spans")]
    return {"passes": passes, "rss_mb": _max_rss_mb(), "trace": snap}


# ----------------------------------------------------------------------
# setup probes (fresh interpreters: import, config parse, cold calls)

_SETUP_SWEEP = """
import time
t0 = time.perf_counter()
import json, sys
from cascade_fading import cli
for name in json.loads(sys.argv[1]):
    cli.parse_config(cli.recipe_path(name))
print(t0, time.perf_counter())
"""

_SETUP_SCALAR = """
import time
t0 = time.perf_counter()
import json, sys
from cascade_fading import CompositeProduct, GammaGammaParams, PointingErrorParams, z_cdf, z_pdf
for gg, pe, x in json.loads(sys.argv[1]):
    ch = CompositeProduct(tuple(GammaGammaParams(*g) for g in gg),
                          tuple(PointingErrorParams(*p) for p in pe))
    for fn in (z_cdf, z_pdf):
        try:
            fn(ch, x)
        except Exception:
            pass
print(t0, time.perf_counter())
"""


def measure_setup(workload, plan, warm, repeats):
    """Set-up reference seconds of `repeats` fresh interpreters: importing
    the package and parsing the workload's configs, plus the cold first
    calls on each channel for pointwise_scalar."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if workload == "pointwise_scalar":
        spec = [[gg, pe, warm[label]] for label, gg, pe in scalar_channels()]
        argv = [sys.executable, "-c", _SETUP_SCALAR, json.dumps(spec)]
    else:
        argv = [sys.executable, "-c", _SETUP_SWEEP, json.dumps([n for n, _, _ in plan])]
    meter = Meter()
    spans = []
    for _ in range(repeats):
        meter.sample()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        spans.append(tuple(float(t) for t in proc.stdout.split()[-2:]))
    meter.sample()
    return [meter.seconds(t0, t1) for t0, t1 in spans]


# ----------------------------------------------------------------------
# oracle references (outside every timed region)

def sweep_references(plan):
    """{name: {"values": grid, "refs": [(reference, tolerance) | None]}}."""
    import oracle
    from cascade_fading import cli
    from points import sweep_points

    out = {}
    for name, points, prefix in plan:
        cfg = shape(cli.parse_config(cli.recipe_path(name)), points, prefix)
        rows = []
        for value, law, x in sweep_points(cfg):
            if law is None:
                rows.append((1.0, oracle.TOL_ABS))  # hardware ceiling: exactly 1
                continue
            try:
                ref, comp = oracle.cdf(law, x)
            except oracle.UntrustedReference:
                rows.append(None)
                continue
            rows.append((ref, oracle.tolerance(law, comp)))
        out[name] = {"values": cfg.sweep.grid(), "refs": rows,
                     "scenario": cfg.scenario}
    return out


def scalar_pool(seed):
    """Seeded (label, kind, x) calls, their (reference, tolerance) and the
    warm-up x of each channel.

    Per channel, POOL_BULK x sit at the mid-points of equal-probability
    strata of the channel's law (the bulk), POOL_TAIL are log-evenly spaced
    over the outage region and POOL_SEAM log-evenly in 1 - F over the upper
    tail.  The x values are the same for every seed, so that every seed
    meets the same cheap, escalated and failing calls and the failure count
    does not depend on the seed; the seed shuffles the order of the calls.
    """
    import numpy as np

    import oracle

    def mids(count):
        return (np.arange(count) + 0.5) / count

    calls, warm = [], {}
    for label, gg, pe in scalar_channels():
        law = oracle.Law(gg, pe)
        bulk = [oracle.cdf_inverse(law, q) for q in mids(POOL_BULK)]
        lo, hi = (math.log(oracle.cdf_inverse(law, f)) for f in TAIL_CDF)
        tail = np.exp(lo + mids(POOL_TAIL) * (hi - lo))
        lo, hi = (math.log(c) for c in SEAM_COMPLEMENT)
        seam = [oracle.cdf_inverse(law, 1.0 - c) for c in np.exp(lo + mids(POOL_SEAM) * (hi - lo))]
        warm[label] = bulk[POOL_BULK // 2]
        for x in [float(v) for v in (*bulk, *tail, *seam)]:
            try:
                f, comp = oracle.cdf(law, x)
                d = oracle.pdf(law, x)
                tol = oracle.tolerance(law, comp)
                refs = ((f, tol), (d, tol))
            except oracle.UntrustedReference:
                refs = (None, None)
            calls += [((label, "cdf", x), refs[0]), ((label, "pdf", x), refs[1])]
    random.Random(seed).shuffle(calls)
    return [c for c, _ in calls], [r for _, r in calls], warm


# ----------------------------------------------------------------------
# checks

def parse_csv(text):
    lines = text.strip("\n").split("\n")
    return [line.split(",") for line in lines[1:]]


def check_recipe(result, ref, mode):
    """{point index: (kind, note)} of the failed points of one recipe result,
    kind being refused, raised or oracle."""
    n = len(ref["values"])
    if result.get("error"):
        return {i: ("raised", f"raised {result['error']}") for i in range(n)}
    rows = parse_csv(result["csv"])
    if len(rows) != n:
        return {i: ("raised", f"{len(rows)} CSV rows for {n} points") for i in range(n)}
    refusals = dict(result["flagged"])  # cli.run's own per-point flags
    fails = {}
    for i, (value, row, r) in enumerate(zip(ref["values"], rows, ref["refs"])):
        op_analytic, op_mc, flag = row[1], row[2], row[5]
        cell = op_mc if mode == "mc" else op_analytic
        if r is None:
            continue  # unchecked: counted against `correct`
        target, tol = r
        if value in refusals or flag == "failed" or cell == "":
            fails[i] = ("refused", f"refused at {value:g}: {refusals.get(value, 'no value')}")
            continue
        got = float(cell)
        if mode == "mc":
            sigma = math.sqrt(max(target * (1.0 - target), 0.0) / MC_SAMPLES)
            dev = got - target
            if ref["scenario"] != "fso_parallel":
                dev = abs(dev)  # the parallel reference is an upper bound
            bad = dev > MC_SIGMAS * sigma + 1e-12
            what = f"MC {got!r} vs ref {target!r} ({dev / max(sigma, 1e-300):.1f} sigma)"
        else:
            bad = not abs(got - target) <= tol
            what = f"got {got!r}, ref {target!r}, |d|={abs(got - target):.2g} > tol {tol:g}"
        if bad:
            fails[i] = ("oracle", f"at {value:g}: {what}")
    return fails


def tally(fails):
    """(failed, kinds, notes) of {operation: (kind, note)}."""
    kinds = {"refused": 0, "raised": 0, "oracle": 0}
    for kind, _ in fails.values():
        kinds[kind] += 1
    return len(fails), kinds, sorted({note for _, note in fails.values()})


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics.  Latencies cluster by input class with gaps between
    the clusters; a single order statistic jumps across a gap when two
    inputs swap rank, the weighted mean moves smoothly."""
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), xs))


def percentile_beyond(values, q=0.9, beyond=10):
    """The q-quantile, or the highest one with >= `beyond` samples above it.

    Returns (value, quantile actually reported).
    """
    n = len(values)
    q = min(q, max((n - beyond) / n, 0.5))  # never below the median
    return quantile(values, q), q


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# workload runners

def run_sweeps(workload, seed, seconds, traced, deadline):
    mode = "mc" if workload == "mc_sweeps" else "analytic"
    plan = recipe_plan(workload, seed)
    extra = trace_only_plan(workload) if traced else []
    run_seed = mc_seed(seed) if mode == "mc" else 1
    refs = sweep_references(plan + extra)
    meter = Meter("sampling" if mode == "mc" else "arithmetic")
    passes = []
    t_start = time.perf_counter()
    while True:
        pass_traced = traced and len(passes) == 1
        pass_plan = plan + (extra if pass_traced else [])
        results = {}
        for name, points, prefix in pass_plan:
            left = deadline - time.monotonic()
            meter.sample()
            res = in_child(_sweep_child, (name, points, prefix, mode, run_seed, pass_traced), left)
            results[name] = res
            if res.get("timed_out"):
                break
        meter.sample()
        passes.append({"traced": pass_traced, "plan": [n for n, _, _ in pass_plan],
                       "results": results})
        elapsed = time.perf_counter() - t_start
        if time.monotonic() >= deadline:
            break
        if traced:
            if len(passes) == 2:
                break
        elif len(passes) >= 2 and elapsed + elapsed / len(passes) > seconds:
            break
    return plan, refs, passes, mode, meter


def summarize_sweeps(refs, passes, mode, meter):
    """Failure accounting, per-point latencies and digests over all passes.

    Times come from untraced passes only: each recipe's median `cli.run`
    time over the passes.  A recipe's points share one call, so each point's
    latency is that time over its points.
    """
    fails = {}  # {recipe: {point index: (kind, note)}}, first pass to fail
    rss = []
    runs, traced_runs, digests, walls = {}, {}, {}, {}
    for p in passes:
        for name in p["plan"]:
            ref = refs[name]
            res = p["results"].get(name)
            unrun = res is None  # not reached before the deadline
            for i, f in check_recipe(res or {"error": "not run before the deadline"},
                                     ref, mode).items():
                fails.setdefault(name, {}).setdefault(i, f)
            if unrun:
                continue
            digests.setdefault(name, []).append(digest(res.get("csv") or ""))
            if "span" not in res:
                continue
            rss.append(res["rss_mb"])
            if p["traced"]:
                traced_runs[name] = meter.seconds(*res["span"])
                continue
            runs.setdefault(name, []).append(meter.seconds(*res["span"]))
            walls.setdefault(name, []).append(res["span"][1] - res["span"][0])
    attempted = sum(len(refs[name]["values"]) for name in {n for p in passes for n in p["plan"]})
    failed, kinds = 0, {"refused": 0, "raised": 0, "oracle": 0}
    notes = {}
    for name, f in fails.items():
        nf, k, nn = tally(f)
        failed += nf
        kinds = {key: kinds[key] + k[key] for key in kinds}
        notes[name] = nn
    typical = {name: statistics.median(v) for name, v in runs.items()}
    latencies = [typical[name] / len(refs[name]["values"])
                 for name in typical for _ in refs[name]["values"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "kinds": kinds,
        "failures": notes,
        "latencies": latencies,
        "work_s": sum(typical.values()),
        "work_ops": len(latencies),
        "rss_mb": max(rss) if rss else 0.0,
        "digests": {n: d[0] for n, d in digests.items()},
        "unit_s": typical,
        "unit_runs": {"s": runs, "wall_s": walls},
        "traced_unit_s": traced_runs,
        "deterministic": all(len(set(d)) == 1 for d in digests.values()),
        "untrusted": sum(r is None for ref in refs.values() for r in ref["refs"]),
        "passes": len(passes),
    }


def run_scalar(seed, seconds, traced, deadline):
    pool, refs, warm = scalar_pool(seed)
    res = in_child(_scalar_child, (pool, warm, seconds, traced), deadline - time.monotonic())
    return pool, refs, warm, res


def summarize_scalar(pool, refs, res):
    """As summarize_sweeps, for the scalar calls: each call's latency is its
    median time over the untraced passes."""
    n = len(pool)
    kinds = {"refused": 0, "raised": 0, "oracle": 0}
    if "passes" not in res:
        kinds["raised"] = n
        return {"attempted": n, "failed": n, "kinds": kinds,
                "failures": {"all": [res.get("error")]}, "latencies": [],
                "work_s": 0.0, "work_ops": 0, "rss_mb": 0.0, "digests": {},
                "unit_s": {}, "traced_unit_s": {}, "deterministic": False,
                "untrusted": 0, "passes": 0}
    passes = res["passes"]
    attempted = 0
    fails = {}  # {call index: (kind, note)}, first pass to fail
    for i, ((label, kind, x), r) in enumerate(zip(pool, refs)):
        if r is None:
            continue
        attempted += 1
        for p in passes:
            v = p["vals"][i]
            if isinstance(v, str):
                fails[i] = ("refused" if v.startswith("AccuracyError") else "raised",
                            f"{label} {kind}({x:.6g}) raised {v}")
            elif not abs(v - r[0]) <= r[1]:
                fails[i] = ("oracle", f"{label} {kind}({x:.6g}) = {v!r}, ref {r[0]!r}, "
                                      f"|d|={abs(v - r[0]):.2g} > tol {r[1]:g}")
            if i in fails:
                break
    failed, kinds, notes = tally(fails)
    # in call order, so that every seed's shuffle of the pool digests alike
    digests = [digest(repr(sorted(zip(pool, map(repr, p["vals"]))))) for p in passes]
    traced_at = 1 if res.get("trace") else None
    untraced = [p for i, p in enumerate(passes) if i != traced_at]
    lat = [statistics.median(ts) for ts in zip(*(p["lat"] for p in untraced))]
    return {
        "attempted": attempted,
        "failed": failed,
        "kinds": kinds,
        "failures": {"scalar": notes},
        "latencies": lat,
        "work_s": sum(lat),
        "work_ops": len(lat),
        "rss_mb": res["rss_mb"],
        "digests": {"pool": digests[0]},
        "unit_s": {"pool": sum(untraced[0]["lat"])},
        "traced_unit_s": {"pool": sum(passes[1]["lat"])} if traced_at else {},
        "deterministic": len(set(digests)) == 1,
        "untrusted": sum(r is None for r in refs),
        "passes": len(passes),
    }


# ----------------------------------------------------------------------
# machine facts

def machine_facts():
    import numpy
    import scipy

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "CASCADE_FADING_THREADS")},
    }


# ----------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", default=None,
                    help="also write the full report (machine, digests, "
                         "failures, layer split) as JSON to this file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cascade_fading", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    deadline = time.monotonic() + RUN_DEADLINE
    traced = bool(args.trace)

    import cascade_fading  # noqa: F401  (the children fork from this import)

    if args.workload == "pointwise_scalar":
        pool, refs, warm, res = run_scalar(args.seed, args.seconds, traced, deadline)
        summary = summarize_scalar(pool, refs, res)
        plan = []
        snaps = [res["trace"]] if res.get("trace") else []
        points_traced = len(pool)
        by_recipe = None
    else:
        plan, refs, passes, mode, meter = run_sweeps(args.workload, args.seed, args.seconds,
                                                     traced, deadline)
        summary = summarize_sweeps(refs, passes, mode, meter)
        pool = warm = None
        traced_results = {n: r for p in passes if p["traced"]
                          for n, r in p["results"].items() if r.get("trace")}
        for r in traced_results.values():
            scale(r["trace"], meter.factor(*r["span"]))
        snaps = [r["trace"] for r in traced_results.values()]
        points_traced = sum(len(refs[n]["values"]) for n in traced_results)
        by_recipe = {n: {k: v for k, v in r["trace"]["self_time"].items() if v > 0}
                     for n, r in traced_results.items()}
    # set-up is an end-to-end metric: the traced run skips it
    setup = [] if traced else measure_setup(args.workload, plan, warm, SETUP_REPEATS)

    lat_ms = [t * 1e3 for t in summary["latencies"]]
    p90, q90 = percentile_beyond(lat_ms) if lat_ms else (0.0, 0.0)
    attempted, failed = summary["attempted"], summary["failed"]
    e2e = {
        "ops_per_s": summary["work_ops"] / summary["work_s"] if summary["work_s"] else 0.0,
        "call_p50_ms": quantile(lat_ms, 0.5) if lat_ms else 0.0,
        "call_p90_ms": p90,
        "ops_ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": summary["rss_mb"],
    }
    correct = bool(summary["deterministic"] and summary["untrusted"] == 0 and attempted > 0)

    layer = None
    split = None
    if traced:
        snap = merge(snaps) if snaps else Tracer().snapshot()
        # compare like with like: the traced pass may also run trace-only recipes
        untraced_s = sum(summary["unit_s"].values())
        traced_s = sum(summary["traced_unit_s"].get(n, 0.0) for n in summary["unit_s"])
        recipe_s = {n: summary["traced_unit_s"].get(n, 0.0)
                    for n in SHARED + FRESH + tuple(TRACE_ONLY_PREFIX)}
        layer = layer_metrics(snap, points_traced, traced_s, untraced_s, recipe_s)
        total_self = sum(snap["self_time"].values()) or 1.0
        split = {"layers": {k: {"self_s": v, "share": v / total_self}
                            for k, v in snap["self_time"].items()},
                 "absent_boundaries": snap["missing"]}
        if by_recipe is not None:
            split["by_recipe"] = by_recipe

    # human-readable report, then the result line
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {summary['passes']}")
    for k, v in e2e.items():
        print(f"  {k:<16} {v:.6g} {E2E_UNITS[k]}")
    kinds = summary["kinds"]
    print(f"  ops_failed_frac  {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} of {attempted}: {kinds['refused']} refused, {kinds['raised']} "
          f"raised, {kinds['oracle']} outside the oracle's tolerance)")
    print(f"  latency samples  {len(lat_ms)}; call_p90_ms reports quantile {q90:.3f}")
    if setup:
        print(f"  setup runs       {', '.join(f'{t:.3f}' for t in setup)} s")
    print(f"  determinism      {'identical' if summary['deterministic'] else 'DIFFERENT'} "
          f"over {summary['passes']} passes")
    print(f"  oracle           {summary['untrusted']} untrusted references")
    for name, notes in summary["failures"].items():
        for note in notes:
            print(f"  failed: {name}: {note}")
    if layer is not None:
        for k, v in layer.items():
            print(f"  {k:<34} " + ("absent" if v[0] is None else f"{v[0]:.6g} {v[1]}"))
        print("  layer split (self time) " + ", ".join(
            f"{k} {v['share']:.1%}" for k, v in split["layers"].items() if v["self_s"] > 0))
        if split["absent_boundaries"]:
            print("  absent boundaries " + ", ".join(split["absent_boundaries"]))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "ops_failed_frac": failed / attempted if attempted else 0.0,
        "attempted": attempted, "failed": failed, "failure_kinds": kinds,
        "failures": summary["failures"],
        "setup_runs_s": setup, "latency_samples": len(lat_ms), "p90_quantile": q90,
        "digests": summary["digests"], "unit_s": summary["unit_s"],
        "unit_runs": summary.get("unit_runs"),
        "deterministic": summary["deterministic"],
        "untrusted_references": summary["untrusted"], "passes": summary["passes"],
        "per_layer": None if layer is None else {
            k: {"value": v[0], "unit": v[1]} for k, v in layer.items()},
        "layer_split": split,
    }
    print("  machine          " + json.dumps(report["machine"], sort_keys=True))
    print("  digests          " + json.dumps(summary["digests"], sort_keys=True))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if traced:
        # an absent layer reads 0 here (the report above says "absent")
        metrics = {k: {"value": 0.0 if v is None else v, "unit": u}
                   for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer timing from outside the package, for the traced benchmark run.

`Tracer.install()` replaces module-level functions of `cascade_fading` with
timing wrappers, in every package module that holds a reference to them
(``from .x import f`` copies the reference, so wrapping only the defining
module would miss callers).  Each wrapper opens a span on a stack: a layer's
self time is span time minus the time of the spans nested inside it, and a
layer's inclusive time counts only its outermost spans.  A function that no
longer exists is skipped and the metrics it feeds are reported as absent.

Only the benchmark's own child processes install the tracer; the untraced
run never imports this module's wrappers into the package.
"""

from __future__ import annotations

import sys
import time

LAYERS = ("cli", "channels", "performance", "distributions", "specfun", "dd", "mc")

# (module, function, layer).  The private entries are the only boundaries
# the package has today for the double series, the dd escalation, the tail
# fit, the pointing mixture and the Richardson ladder.
BOUNDARIES = (
    ("cli", "parse_config", "cli"),
    ("cli", "run", "cli"),
    ("channels", "rytov_variance", "channels"),
    ("channels", "fso_gg_params", "channels"),
    ("channels", "thz_gg_params", "channels"),
    ("channels", "misalignment_params", "channels"),
    ("channels", "molecular_absorption", "channels"),
    ("channels", "thz_gain", "channels"),
    ("channels", "fso_gain", "channels"),
    ("channels", "hill_cn2", "channels"),
    ("performance", "op_fso_cascade", "performance"),
    ("performance", "op_fso_cascade_asymptotic", "performance"),
    ("performance", "op_fso_parallel_bound", "performance"),
    ("performance", "op_thz", "performance"),
    ("performance", "gamma_s", "performance"),
    ("performance", "diversity_order", "performance"),
    ("distributions", "z_cdf", "distributions"),
    ("distributions", "z_pdf", "distributions"),
    ("distributions", "_tail_model", "distributions"),
    ("distributions", "_big_xi_mixture", "distributions"),
    ("specfun", "_richardson", "distributions"),
    ("specfun", "build_slater_expansion", "specfun"),
    ("specfun", "_pfq_series", "specfun"),
    ("specfun", "_eval_expansion_double", "specfun"),
    ("specfun", "_eval_expansion_dd", "dd"),
    ("specfun", "_dd_term_parts", "dd"),
    ("mc", "mc_cdf", "mc"),
    ("mc", "mc_op_parallel", "mc"),
    ("mc", "mc_op_thz", "mc"),
    ("distributions", "sample_z", "mc"),
)

# Which boundary each per-layer metric needs; a metric whose boundary is
# gone reads as absent.
NEEDS = {
    "cli.parse_s": "cli.parse_config",
    "cli.self_s": "cli.run",
    "channels.calls": "channels.rytov_variance",
    "channels.s": "channels.rytov_variance",
    "channels.self_s": "channels.rytov_variance",
    "performance.calls": "performance.op_fso_cascade",
    "performance.self_s": "performance.op_fso_cascade",
    "distributions.calls_per_point": "distributions.z_cdf",
    "distributions.elems": "distributions.z_cdf",
    "distributions.self_s": "distributions.z_cdf",
    "distributions.refusals": "distributions.z_cdf",
    "distributions.tail_fits": "distributions._tail_model",
    "distributions.tail_fit_s": "distributions._tail_model",
    "distributions.mixture_nodes": "distributions._big_xi_mixture",
    "distributions.mixture_s": "distributions._big_xi_mixture",
    "distributions.richardson_evals": "specfun._richardson",
    "specfun.expansion_builds": "specfun.build_slater_expansion",
    "specfun.expansion_build_s": "specfun.build_slater_expansion",
    "specfun.series_elems": "specfun._eval_expansion_double",
    "specfun.series_terms": "specfun._pfq_series",
    "specfun.series_s": "specfun._pfq_series",
    "specfun.self_s": "specfun._pfq_series",
    "dd.escalated_elems": "specfun._eval_expansion_dd",
    "dd.escalation_ratio": "specfun._eval_expansion_dd",
    "dd.s": "specfun._eval_expansion_dd",
    "dd.self_s": "specfun._eval_expansion_dd",
    "mc.draws": "distributions.sample_z",
    "mc.s": "mc.mc_cdf",
    "mc.self_s": "mc.mc_cdf",
    "mc.draws_per_s": "distributions.sample_z",
}


def _size(x):
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


class _Span:
    __slots__ = ("key", "layer", "start", "child", "nodes")

    def __init__(self, key, layer, start):
        self.key = key
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.nodes = 0


class Tracer:
    """Counters and per-layer times of one process."""

    def __init__(self):
        self.stack = []
        self.missing = []
        self.count = {}
        self.time = {}
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.layer_time = {layer: 0.0 for layer in LAYERS}
        self.elems = {}
        self.series_terms = 0
        self.refusals = 0
        self.mixture_nodes = 0
        self.mixture_s = 0.0
        self.tail_fits = 0
        self.tail_fit_s = 0.0
        self.draws = 0

    @classmethod
    def install(cls):
        """Wrap every boundary that exists in the imported package."""
        import importlib

        tracer = cls()
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cascade_fading" or name.startswith("cascade_fading.")]
        for mod_name, fn_name, layer in BOUNDARIES:
            try:
                mod = importlib.import_module(f"cascade_fading.{mod_name}")
            except ImportError:
                mod = None
            fn = getattr(mod, fn_name, None) if mod is not None else None
            key = f"{mod_name}.{fn_name}"
            if not callable(fn):
                tracer.missing.append(key)
                continue
            wrapper = tracer._wrap(fn, key, layer)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
        return tracer

    def _wrap(self, fn, key, layer):
        stack = self.stack
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)
        top_level = key in ("distributions.z_cdf", "distributions.z_pdf")

        def wrapper(*args, **kwargs):
            outer = stack[-1] if stack else None
            span = _Span(key, layer, 0.0)
            misses = cache_info().misses if cache_info is not None else 0
            elems = _size(args[1]) if top_level and len(args) > 1 else 0
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if top_level and type(exc).__name__ == "AccuracyError" and not any(
                        s.key in ("distributions.z_cdf", "distributions.z_pdf")
                        for s in stack[:-1]):
                    self.refusals += 1
                raise
            finally:
                end = clock()
                stack.pop()
                self._close(span, end, outer, elems, cache_info, misses)
            self._observe(key, args, result, outer)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, span, end, outer, elems, cache_info, misses):
        dur = end - span.start
        key, layer = span.key, span.layer
        self.self_time[layer] += dur - span.child
        if outer is not None:
            outer.child += dur
        if not any(s.layer == layer for s in self.stack):
            self.layer_time[layer] += dur
            self.count[layer] = self.count.get(layer, 0) + 1
        if not any(s.key == key for s in self.stack):
            self.count[key] = self.count.get(key, 0) + 1
            self.time[key] = self.time.get(key, 0.0) + dur
            self.elems[key] = self.elems.get(key, 0) + elems
        if span.nodes:
            self.mixture_nodes += span.nodes * elems
            self.mixture_s += dur
        if cache_info is not None and key == "distributions._tail_model":
            if cache_info().misses > misses:
                self.tail_fits += 1
                self.tail_fit_s += dur
        elif key == "distributions._tail_model":
            self.tail_fits += 1
            self.tail_fit_s += dur

    def _observe(self, key, args, result, outer):
        if key == "distributions._big_xi_mixture":
            if result is not None and outer is not None and outer.key in (
                    "distributions.z_cdf", "distributions.z_pdf"):
                outer.nodes = len(result[1])
        elif key == "specfun._pfq_series":
            self.series_terms += int(result[3]) * _size(args[2])
        elif key in ("specfun._eval_expansion_double", "specfun._eval_expansion_dd"):
            self.elems[key + ":x"] = self.elems.get(key + ":x", 0) + _size(args[1])
        elif key == "distributions.sample_z":
            self.draws += int(args[2])

    def snapshot(self):
        """Plain-data totals, for sending back to the parent process."""
        return {
            "missing": list(self.missing),
            "count": dict(self.count),
            "time": dict(self.time),
            "self_time": dict(self.self_time),
            "layer_time": dict(self.layer_time),
            "elems": dict(self.elems),
            "series_terms": self.series_terms,
            "refusals": self.refusals,
            "mixture_nodes": self.mixture_nodes,
            "mixture_s": self.mixture_s,
            "tail_fits": self.tail_fits,
            "tail_fit_s": self.tail_fit_s,
            "draws": self.draws,
        }


def scale(snap, factor):
    """Convert a snapshot's wall seconds into reference seconds."""
    for key in ("time", "self_time", "layer_time"):
        snap[key] = {k: v * factor for k, v in snap[key].items()}
    for key in ("mixture_s", "tail_fit_s"):
        snap[key] *= factor


def merge(snapshots):
    """Sum the snapshots of several processes."""
    out = None
    for snap in snapshots:
        if out is None:
            out = {k: (dict(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v)
                   for k, v in snap.items()}
            continue
        for k, v in snap.items():
            if isinstance(v, dict):
                for kk, vv in v.items():
                    out[k][kk] = out[k].get(kk, 0) + vv
            elif isinstance(v, list):
                out[k] = sorted(set(out[k]) | set(v))
            else:
                out[k] += v
    return out


def layer_metrics(snap, points, seconds_traced, seconds_untraced, recipe_times):
    """Per-layer metrics from merged snapshots.

    `points` is the number of sweep points (or scalar calls) traced; the
    result maps metric name to (value, unit); an absent metric's value is
    None.
    """
    c, t, e = snap["count"], snap["time"], snap["elems"]
    top = c.get("distributions.z_cdf", 0) + c.get("distributions.z_pdf", 0)
    series_x = e.get("specfun._eval_expansion_double:x", 0)
    escalated = e.get("specfun._eval_expansion_dd:x", 0)
    mc_s = sum(t.get(k, 0.0) for k in ("mc.mc_cdf", "mc.mc_op_parallel", "mc.mc_op_thz"))
    m = {
        "cli.parse_s": (t.get("cli.parse_config", 0.0), "s"),
        "cli.self_s": (snap["self_time"]["cli"], "s"),
        "channels.calls": (c.get("channels", 0), "count"),
        "channels.s": (snap["layer_time"]["channels"], "s"),
        "channels.self_s": (snap["self_time"]["channels"], "s"),
        "performance.calls": (c.get("performance", 0), "count"),
        "performance.self_s": (snap["self_time"]["performance"], "s"),
        "distributions.calls_per_point": (top / points if points else 0.0, "calls/op"),
        "distributions.elems": (e.get("distributions.z_cdf", 0) + e.get("distributions.z_pdf", 0), "count"),
        "distributions.self_s": (snap["self_time"]["distributions"], "s"),
        "distributions.refusals": (snap["refusals"], "count"),
        "distributions.tail_fits": (snap["tail_fits"], "count"),
        "distributions.tail_fit_s": (snap["tail_fit_s"], "s"),
        "distributions.mixture_nodes": (snap["mixture_nodes"], "count"),
        "distributions.mixture_s": (snap["mixture_s"], "s"),
        "distributions.richardson_evals": (c.get("specfun._richardson", 0), "count"),
        "specfun.expansion_builds": (c.get("specfun.build_slater_expansion", 0), "count"),
        "specfun.expansion_build_s": (t.get("specfun.build_slater_expansion", 0.0), "s"),
        "specfun.series_elems": (series_x, "count"),
        "specfun.series_terms": (snap["series_terms"], "count"),
        "specfun.series_s": (t.get("specfun._pfq_series", 0.0), "s"),
        "specfun.self_s": (snap["self_time"]["specfun"], "s"),
        "dd.escalated_elems": (escalated, "count"),
        "dd.escalation_ratio": (escalated / series_x if series_x else 0.0, "ratio"),
        "dd.s": (snap["layer_time"]["dd"], "s"),
        "dd.self_s": (snap["self_time"]["dd"], "s"),
        "mc.draws": (snap["draws"], "count"),
        "mc.s": (mc_s, "s"),
        "mc.self_s": (snap["self_time"]["mc"], "s"),
        "mc.draws_per_s": (snap["draws"] / mc_s if mc_s else 0.0, "1/s"),
        "trace.overhead_frac": (
            seconds_traced / seconds_untraced - 1.0 if seconds_untraced else 0.0, "ratio"),
    }
    for name, need in NEEDS.items():
        if need in snap["missing"]:
            m[name] = (None, m[name][1])
    for name, sec in recipe_times.items():
        m[f"cli.recipe.{name}_s"] = (sec, "s")
    return m

"""Value fingerprint of the analytic layer, and how far two trees differ.

Prints one line per outcome: `z_cdf`, `z_pdf`, `z_cdf_asymptotic` and the
raw F, Q and f line integrals (value and error estimate) of 15 channels at
24 x from 5e-324 to 1e300, `meijer_g` (value and error estimate) of 7 specs
at 12 x, and `mc_cdf`, `mc_op_parallel` and `mc_op_thz` (value, standard
error and streams) of 2 channels at 4 (seed, n); 2268 outcomes in all.  An
outcome is the repr of each float, or the type and message of the exception
raised.

    python tools/fingerprint.py                    # the tree's own src/
    python tools/fingerprint.py --src OTHER/src    # another tree's
    python tools/fingerprint.py --compare OTHER/src

--compare runs the fingerprint on both trees, each in a fresh interpreter,
and reports per kind of outcome how many are bit-identical and the largest
relative change of the values (normal and subnormal apart) and of the error
estimates; it lists every outcome whose exception differs, or which raises
in one tree only, and the ten largest moves of a normal value.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

XS = (5e-324, 1e-320, 1e-312, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10, 1e-6,
      1e-4, 1e-2, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 1e2, 1e5, 1e10, 1e100, 1e300)
WEAK, STRONG = (10.02, 2.98), (4.942, 1.231)
# (gamma-gamma links, pointing links) per channel
CHANNELS = {
    "weak": ((WEAK,), ()),
    "strong6": ((STRONG,) * 6, ()),
    "clean_pair": ((WEAK, STRONG), ()),
    "pointing_pair": ((WEAK, STRONG), ((6.7, 0.8), (5.1, 0.9))),
    "coincident_pair": ((WEAK, WEAK), ()),
    "weak3_pe2": ((WEAK,) * 3, ((6.7, 0.8), (1.5, 0.7))),
    "weak_pe": ((WEAK,), ((0.7, 0.8),)),
    "small_shapes": (((0.6, 0.5), (0.7, 0.55)), ()),
    "narrow_pe": (((35.9, 1.056),), ((7.73, 0.677),)),
    "g60_40_cubed": (((60.0, 40.0),) * 3, ()),
    # large shapes fall far more slowly up the line than N pi: the step must
    # come from the measured fall rate (README, "Numerical scope")
    "fall_rate_trap": (((40.0, 50.0),), ((1.2, 0.8),)),
    # fso_gg_params at Cn2 = 1e-16 over 1 km at 1550 nm, two hops
    "physical_1e16": (((1025.3062415742763, 984.8015550453262),) * 2, ()),
    # the flattened branch law of recipe fig8_n3 (three branches of two
    # misaligned weak hops), where the strip's top corners sit lowest over
    # the recipes
    "fig8_n3_flat": ((WEAK,) * 6, ((130.79700001061087, 0.3900061737674387),) * 6),
    # a shape so small that the density near x = 5e-324 exceeds the largest
    # double: the PDF refuses there; at 1e-312 it is 7.3e306, finite although
    # e^peak alone is not
    "tiny_shape": (((0.01, 3.0),), ()),
    # a shape so large that the log integrand's terms leave it no digits:
    # every line refuses but the few proven zero.  Before lines checked
    # their rounding, the CDF came out -0.0042 at x = 1e-4 and 1.0e-7 at
    # x = 0.1, where the beta -> inf limit is 0.25
    "huge_shape": (((4.942, 1e16), STRONG, STRONG), ()),
}
MEIJER_XS = (1e-300, 1e-100, 1e-12, 1e-6, 1e-3, 0.1, 0.7, 1.0, 10.0, 1e4, 1e50, 1e300)
# (m, n, p, q, a, b)
SPECS = {
    "exp": (1, 0, 0, 1, (), (0.0,)),
    "bessel": (2, 0, 0, 2, (), WEAK),
    "coincident": (2, 0, 0, 2, (), (2.98, 2.98)),
    "integer_gap": (2, 0, 0, 2, (), (0.5, 1.5)),
    "cdf2113": (2, 1, 1, 3, (1.0,), (4.94, 1.23, 0.0)),
    "cdf3124": (3, 1, 2, 4, (1.0, 7.7), (4.94, 1.23, 6.7, 0.0)),
    "pole_on_search": (2, 1, 1, 3, (-3.0,), (4.94, 1.23, 0.0)),
}
# Monte Carlo: one chunk, a full chunk, one draw past it, and many chunks
MC_CHANNELS = ("clean_pair", "pointing_pair")
MC_RUNS = ((1, 20000), (1, 1 << 16), (1, (1 << 16) + 1), (3, 10**6))
# threshold arguments of each estimator after the channel
MC_CALLS = {"mc_cdf": (0.3,), "mc_op_parallel": (2, 100.0),
            "mc_op_thz": (100.0, 2.0, 0.25, 0.15)}
KINDS = ("z_cdf", "z_pdf", "z_cdf_asymptotic", "F", "Q", "f", "meijer_g", "mc")


def _outcome(fn, *args):
    """The reprs of the float results of fn(*args), or its exception."""
    try:
        out = fn(*args)
    except Exception as exc:  # the exception is the outcome recorded
        return f"{type(exc).__name__}: {exc}"
    return " ".join(repr(float(v)) for v in (out if isinstance(out, tuple) else (out,)))


def _mc(fn, *args):
    est = fn(*args)
    return est.value, est.std_error, est.streams


def fingerprint():
    """[(key, outcome)] of the package on sys.path."""
    from cascade_fading import distributions, mc, specfun
    from cascade_fading.distributions import (
        CompositeProduct, GammaGammaParams, PointingErrorParams)

    lines, built = [], {}
    for name, (gg, pe) in CHANNELS.items():
        ch = built[name] = CompositeProduct(tuple(GammaGammaParams(*g) for g in gg),
                                            tuple(PointingErrorParams(*p) for p in pe))
        law = ch._law
        for x in XS:
            lines.append((f"z_cdf {name} {x!r}", _outcome(distributions.z_cdf, ch, x)))
            lines.append((f"z_pdf {name} {x!r}", _outcome(distributions.z_pdf, ch, x)))
            lines.append((f"z_cdf_asymptotic {name} {x!r}",
                          _outcome(distributions.z_cdf_asymptotic, ch, x)))
            for kind in "FQf":
                lines.append((f"{kind} {name} {x!r}", _outcome(
                    distributions._line_integral, law, math.log(x), kind)))
    for name, (m, n, p, q, a, b) in SPECS.items():
        spec = specfun.MeijerGSpec(m, n, p, q, a, b)
        for x in MEIJER_XS:
            def value(v=x):
                g = specfun.meijer_g(spec, v)
                return g.value, g.est_abs_err
            lines.append((f"meijer_g {name} {x!r}", _outcome(value)))
    for name in MC_CHANNELS:
        for seed, n in MC_RUNS:
            for fn, args in MC_CALLS.items():
                lines.append((f"mc {fn} {name} {seed} {n}", _outcome(
                    _mc, getattr(mc, fn), built[name], *args, n, seed)))
    return lines


def _floats(outcome):
    try:
        return [float(v) for v in outcome.split()]
    except ValueError:
        return None  # an exception


def _rel(a, b):
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _run(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src],
                          env=env, capture_output=True, text=True, check=True)
    return dict(line.split("\t", 1) for line in proc.stdout.splitlines())


def compare(src, other):
    """Print how far the outcomes of the tree at `src` move from `other`'s."""
    mine, theirs = _run(src), _run(other)
    tiny = sys.float_info.min
    print(f"{len(mine)} outcomes; {other} -> {src}")
    print(f"{'kind':9} {'same':>9} {'value (normal)':>15} {'value (subn.)':>14} {'estimate':>9}")
    differ, moves = [], []
    for kind in KINDS:
        keys = [k for k in theirs if k.split()[0] == kind]
        same = sum(mine[k] == theirs[k] for k in keys)
        normal = subnormal = est = 0.0
        for k in keys:
            a, b = _floats(mine[k]), _floats(theirs[k])
            if a is None or b is None:
                if mine[k] != theirs[k]:
                    differ.append((k, theirs[k], mine[k]))
                continue
            move = _rel(a[0], b[0])
            if max(abs(a[0]), abs(b[0])) < tiny:
                subnormal = max(subnormal, move)
            else:
                normal = max(normal, move)
                moves.append((move, k, b[0], a[0]))
            if len(a) > 1:
                est = max(est, _rel(a[1], b[1]))
        print(f"{kind:9} {same:>4}/{len(keys):<4} {normal:15.2g} {subnormal:14.2g} {est:9.2g}")
    print(f"{len(differ)} outcomes raise differently")
    for k, was, now in differ:
        print(f"  {k}: {was} -> {now}")
    moves = sorted((m for m in moves if m[0] > 0.0), reverse=True)[:10]
    print(f"largest moves of a normal value ({len(moves)} shown)")
    for move, k, was, now in moves:
        print(f"  {k}: {was!r} -> {now!r} ({move:.2g})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=SRC, help="package source to fingerprint")
    ap.add_argument("--compare", metavar="OTHER_SRC",
                    help="report how far the outcomes move from OTHER_SRC's")
    args = ap.parse_args(argv)
    if args.compare:
        compare(args.src, args.compare)
        return 0
    sys.path.insert(0, os.path.abspath(args.src))
    for key, outcome in fingerprint():
        print(f"{key}\t{outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Times in reference seconds, corrected for the machine's drifting speed.

The benchmark runs on shared hosts whose cores slow down and speed up by
up to 2x over seconds to minutes, as neighbouring tenants come and go.
Wall time then measures the neighbours as much as the code.  A `Meter`
runs a fixed probe between units of measured work (never inside them) and
converts a unit's wall time into seconds at the probe's reference speed:
wall time x reference probe time / (median probe time around the unit).

The probe does the kind of work the measured units do, because neighbours
slow arithmetic and memory-bound sampling by different amounts:
`arithmetic_probe` is a sustained ~10 ms loop of small-array numpy
arithmetic, like the package's series, dd and mixture paths;
`sampling_probe` draws and multiplies two 2^16-element gamma arrays from a
Philox generator, like the Monte Carlo sampler.  A single probe is noisy;
the median of the probes within WINDOW seconds of a unit tracks the drift.
On a 2-core Xeon, over 10 s stretches, the arithmetic probe cut the spread
of a fixed piece of analytic work from 10% to 3%.  On 10^6-sample `mc_cdf`
calls it cut a 20% spread only to 17%, the sampling probe to 8%.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Probe times at the typical speed of the 2-core Xeon the benchmark was
# tuned on (Python 3.11, numpy 2.4): reference seconds are seconds there.
REF_ARITHMETIC_S = 8.0e-3
REF_SAMPLING_S = 3.8e-3
WINDOW = 2.0  # seconds either side of a unit whose probes count
_X = np.linspace(0.1, 1.0, 64)


def arithmetic_probe():
    """Seconds taken by the fixed arithmetic loop."""
    x = _X
    t0 = time.perf_counter()
    acc = np.zeros(64)
    for k in range(2000):
        acc = acc * 0.999 + np.exp(-x * (k * 1e-3)) / (1.0 + x)
    return time.perf_counter() - t0


def sampling_probe():
    """Seconds taken by a fixed draw of gamma variates (median of three
    draws: one ~5 ms draw is noisier than the arithmetic loop)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(7))
        z = rng.gamma(4.0, 0.25, 1 << 16)
        z *= rng.gamma(2.0, 0.5, 1 << 16)
        np.count_nonzero(z <= 1.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


PROBES = {"arithmetic": (arithmetic_probe, REF_ARITHMETIC_S),
          "sampling": (sampling_probe, REF_SAMPLING_S)}


class Meter:
    """Probe samples of one process, keyed by perf_counter time (the clock
    is system-wide on Linux, so a parent can place its children's times)."""

    def __init__(self, kind="arithmetic"):
        self.probe, self.ref_s = PROBES[kind]
        self.times = []
        self.probes = []

    def sample(self):
        t0 = time.perf_counter()
        p = self.probe()
        self.times.append(t0 + 0.5 * p)
        self.probes.append(p)

    def factor(self, t0, t1):
        """Reference seconds per wall second over [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t1 + WINDOW)
        near = self.probes[lo:hi]
        if not near:  # no probe close by: take the nearest one
            i = min(bisect.bisect_left(self.times, t0), len(self.times) - 1)
            near = self.probes[max(i - 1, 0):i + 1]
        return self.ref_s / statistics.median(near)

    def seconds(self, t0, t1):
        """Reference seconds spent in [t0, t1]."""
        return (t1 - t0) * self.factor(t0, t1)

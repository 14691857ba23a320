"""Monte Carlo oracle for every scenario the closed forms cover.

Sampling runs over counter-based Philox substreams: chunk k of a run seeded
with `seed` draws from Philox(key=seed, counter=k << 128), so results are
bit-reproducible for a given (seed, n) regardless of how chunks are
scheduled, and chunk tallies aggregate order-independently.  Each call
starts up to one thread per usable CPU and joins them before it returns:
numpy's samplers release the interpreter lock, and the integer tallies sum
exactly.  The threads come from `threading`, which numpy already loads; no
pool module is imported.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .distributions import CompositeProduct, check_count, sample_z, z_cdf
from .specfun import DomainError

__all__ = ["McEstimate", "mc_cdf", "mc_op_parallel", "mc_op_thz", "ks_statistic"]

_CHUNK = 1 << 19
# hit predicates run on slices of this many draws, so their temporaries
# stay small next to the chunk
_BLOCK = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo probability estimate with its binomial standard error."""

    value: float
    std_error: float
    n: int
    seed: int
    streams: int

    def within(self, reference, n_sigma=3.0):
        """True when `reference` lies inside the n-sigma interval."""
        return abs(self.value - reference) <= n_sigma * max(self.std_error, 1e-300)


def check_samples(n):
    """n as an int, or DomainError unless it is an integer >= 1."""
    return check_count(n, "the sample count n")


def check_seed(seed):
    """seed as an int, or DomainError unless it is an integer Philox key in
    [0, 2^128)."""
    try:
        key = operator.index(seed)
    except TypeError:
        key = -1
    if not 0 <= key < 1 << 128:
        raise DomainError(f"seed must be an integer in [0, 2^128), got {seed!r}")
    return key


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _substream(seed, chunk_index):
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 128))


def _chunks(n):
    sizes = []
    left = n
    while left > 0:
        sizes.append(min(_CHUNK, left))
        left -= sizes[-1]
    return sizes


def _estimate(hits, n, seed, streams):
    p = hits / n
    return McEstimate(p, math.sqrt(p * (1.0 - p) / n), n, seed, streams)


def _points(*args):
    """Per-point argument tuples, and whether every argument was a scalar.

    Scalars pass through unchanged; otherwise the arguments broadcast to one
    1-D sequence of points, as Python floats.  A NaN argument raises
    DomainError: it would silently count no hits.
    """
    if all(np.ndim(a) == 0 for a in args):
        points, scalar = [args], True
    else:
        try:
            cols = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
        except ValueError as exc:
            raise DomainError(f"threshold arguments do not broadcast: {exc}") from None
        if cols[0].ndim != 1:
            raise DomainError("threshold arguments must be scalars or 1-D sequences")
        points, scalar = list(zip(*(c.tolist() for c in cols))), False
    if any(math.isnan(a) for point in points for a in point):
        raise DomainError("threshold arguments must not be NaN")
    return points, scalar


def _tally(n, seed, draw, hit, points):
    """One estimate per point from a single set of n draws.

    Chunk k draws from _substream(seed, k); `draw(rng, size)` turns it into
    the statistic the points test, and `hit(stat, *point)` marks the outage
    draws of one point.  Chunk k runs on worker thread k mod w, for
    w = min(chunks, usable CPUs), and the integer hit counts are summed, so a
    point's tally depends only on (seed, n) and the point: a group of points
    gives each the estimate it gets alone, in any schedule.  An exception in
    a chunk is raised here once every worker has been joined; the first
    failing chunk's, if several fail.
    """
    n = check_samples(n)
    seed = check_seed(seed)
    sizes = _chunks(n)

    def chunk(k):
        stat = draw(_substream(seed, k), sizes[k])
        counts = [0] * len(points)
        for lo in range(0, sizes[k], _BLOCK):
            block = stat[lo:lo + _BLOCK]
            for i, point in enumerate(points):
                counts[i] += int(np.count_nonzero(hit(block, *point)))
        return counts

    workers = min(len(sizes), _usable_cpus())
    tallies = [None] * len(sizes)
    errors = {}

    def work(first):
        # a worker stops at its first failing chunk, so the lowest failing
        # chunk of all is among those recorded
        for k in range(first, len(sizes), workers):
            try:
                tallies[k] = chunk(k)
            except BaseException as exc:
                errors[k] = exc
                return

    # plain threads: a pool module would load logging, a few ms a run
    threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]
    hits = [sum(c) for c in zip(*tallies)]
    return [_estimate(h, n, seed, len(sizes)) for h in hits]


def mc_cdf(ch: CompositeProduct, x, n, seed):
    """Empirical CDF of Z at x from n independent draws.

    x is a scalar or a 1-D sequence; a sequence gives one estimate per
    element, all counted on the same draws.
    """
    points, scalar = _points(x)
    est = _tally(n, seed, lambda rng, size: sample_z(ch, rng, size),
                 lambda z, t: z <= t, points)
    return est[0] if scalar else est


def mc_op_parallel(branch: CompositeProduct, n_branches, snr_ratio, n, seed):
    """Outage estimate of the parallel multi-aperture FSO system.

    Per draw, the branch coefficients B_i are sampled from the common branch
    law and the outage event is S = mean(B_i) <= sqrt(rho_th / (N rho_s)).
    snr_ratio is a scalar or a 1-D sequence (one estimate per element).
    """
    n_branches = check_count(n_branches, "the number of branches")
    ratios, scalar = _points(snr_ratio)
    if any(r <= 0 for (r,) in ratios):
        raise DomainError("snr_ratio must be positive")

    def draw(rng, size):
        s = sample_z(branch, rng, size)
        for _ in range(n_branches - 1):
            s += sample_z(branch, rng, size)
        s /= n_branches
        return s

    points = [(math.sqrt(1.0 / (n_branches * r)),) for (r,) in ratios]
    est = _tally(n, seed, draw, lambda mean, t: mean <= t, points)
    return est[0] if scalar else est


def _sdnr_outage(z2, g_s, k2, gamma_th):
    return z2 * g_s / (z2 * g_s * k2 + 1.0) <= gamma_th


def mc_op_thz(ch: CompositeProduct, gamma_ratio, gamma_th, kappa_t, kappa_r, n, seed):
    """Outage estimate of the THz link by simulating the per-draw SDNR.

    gamma = Z^2 gamma_s / (Z^2 gamma_s (kappa_t^2 + kappa_r^2) + 1) with
    gamma_s = gamma_ratio * gamma_th; outage when gamma <= gamma_th.  In the
    ceiling regime the SDNR saturates below the threshold for every draw, so
    the estimate is exactly 1 without special-casing.  The four link
    arguments are scalars or broadcast to a 1-D sequence of points (one
    estimate per point).
    """
    args, scalar = _points(gamma_ratio, gamma_th, kappa_t, kappa_r)
    if any(r <= 0 or g <= 0 for r, g, _, _ in args):
        raise DomainError("gamma_ratio and gamma_th must be positive")
    if any(kt < 0 or kr < 0 for _, _, kt, kr in args):
        raise DomainError("error vector magnitudes are non-negative")
    points = [(r * g, kt * kt + kr * kr, g) for r, g, kt, kr in args]

    def draw(rng, size):
        z = sample_z(ch, rng, size)
        z **= 2
        return z

    est = _tally(n, seed, draw, _sdnr_outage, points)
    return est[0] if scalar else est


def ks_statistic(ch: CompositeProduct, samples, grid_points=4096):
    """Kolmogorov-Smirnov distance between draws and the analytic CDF.

    The CDF is evaluated on a log-spaced grid spanning the positive samples
    and monotonically interpolated onto them; with thousands of grid points
    the interpolation error is far below the KS resolution of any sample size
    this package uses.  Draws that underflowed to 0.0 take the CDF 0.0; a
    negative, NaN or infinite draw, or a `grid_points` that is not an integer
    >= 2, raises DomainError.
    """
    grid_points = check_count(grid_points, "grid_points", 2)
    # imported here: scipy.interpolate pulls in optimize, linalg, sparse and
    # spatial, which nothing else on the import path of the package needs
    from scipy.interpolate import PchipInterpolator

    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 2:
        raise DomainError("need at least two samples")
    bad = ~(np.isfinite(xs) & (xs >= 0.0))
    if bad.any():
        raise DomainError(f"samples must be finite and >= 0, got {float(xs[bad][0])!r}")
    cdf = np.zeros(n)
    first = int(np.searchsorted(xs, 0.0, side="right"))  # the first positive draw
    if first < n:
        pos = xs[first:]
        grid = np.exp(np.linspace(math.log(pos[0] * 0.999), math.log(pos[-1] * 1.001),
                                  grid_points))
        interp = PchipInterpolator(np.log(grid), z_cdf(ch, grid), extrapolate=True)
        cdf[first:] = np.clip(interp(np.log(pos)), 0.0, 1.0)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))

"""Monte Carlo oracle for every scenario the closed forms cover.

Sampling runs over counter-based Philox substreams: chunk k of a run seeded
with `seed` draws from Philox(key=seed, counter=k << 128), so results are
bit-reproducible for a given (seed, n) regardless of how chunks are
scheduled, and chunk tallies aggregate order-independently.  The chunks of
one call are drawn on up to one thread per usable CPU: numpy's samplers
release the interpreter lock, and the integer tallies sum exactly.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .distributions import CompositeProduct, sample_z, z_cdf
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


def _integer(value):
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_samples(n):
    """n as an int, or DomainError unless it is an integer >= 1."""
    count = _integer(n)
    if count is None or count < 1:
        raise DomainError(f"need an integer n >= 1 samples, got {n!r}")
    return count


def check_seed(seed):
    """seed as an int, or DomainError unless it is an integer Philox key in
    [0, 2^128)."""
    key = _integer(seed)
    if key is None or not 0 <= key < 1 << 128:
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
    draws of one point.  The chunks run on up to one thread per usable CPU
    and their integer hit counts are summed, so a point's tally depends only
    on (seed, n) and the point: a group of points gives each the estimate it
    gets alone, in any schedule.
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

    # imported here: concurrent.futures costs a cold analytic run ~6 ms
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(len(sizes), _usable_cpus())) as pool:
        hits = [sum(c) for c in zip(*pool.map(chunk, range(len(sizes))))]
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
    if n_branches < 1:
        raise DomainError("need at least one branch")
    ratios, scalar = _points(snr_ratio)
    if any(r <= 0 for (r,) in ratios):
        raise DomainError("snr_ratio must be positive")

    def draw(rng, size):
        s = np.zeros(size)
        for _ in range(n_branches):
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

    The CDF is evaluated on a log-spaced grid spanning the sample range and
    monotonically interpolated onto the sorted samples; with thousands of
    grid points the interpolation error is far below the KS resolution of
    any sample size this package uses.
    """
    # imported here: scipy.interpolate pulls in optimize, linalg, sparse and
    # spatial, which nothing else on the import path of the package needs
    from scipy.interpolate import PchipInterpolator

    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 2:
        raise DomainError("need at least two samples")
    grid = np.exp(np.linspace(math.log(xs[0] * 0.999), math.log(xs[-1] * 1.001), grid_points))
    cdf_grid = z_cdf(ch, grid)
    interp = PchipInterpolator(np.log(grid), cdf_grid, extrapolate=True)
    cdf = np.clip(interp(np.log(xs)), 0.0, 1.0)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))

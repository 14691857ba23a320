"""Monte Carlo oracle: determinism, agreement with closed forms, coverage."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from cascade_fading import mc
from cascade_fading.distributions import (
    CompositeProduct,
    GammaGammaParams,
    PointingErrorParams,
    sample_z,
    z_cdf,
)
from cascade_fading.mc import McEstimate, ks_statistic, mc_cdf, mc_op_parallel, mc_op_thz
from cascade_fading.performance import op_fso_parallel_bound, op_thz
from cascade_fading.specfun import DomainError

WEAK = GammaGammaParams(10.02, 2.98)
STRONG = GammaGammaParams(4.942, 1.231)
MIXED_21 = CompositeProduct((WEAK, STRONG), (PointingErrorParams(6.7, 0.8),))
FIG7_PE = PointingErrorParams(130.797, 0.390006)
BRANCH = CompositeProduct((WEAK, WEAK), (FIG7_PE, FIG7_PE))


def db(v):
    return 10.0 ** (v / 10.0)


def _one_shot_sample_z(ch, rng, count):
    """Reference sampler: each factor's `count` variates drawn at once."""
    z = np.ones(count)
    for g in ch.gg_links:
        z *= rng.gamma(g.alpha, 1.0 / g.alpha, count)
        z *= rng.gamma(g.beta, g.omega / g.beta, count)
    for p in ch.pe_links:
        z *= p.a_o * rng.random(count) ** (1.0 / p.xi)
    return z


def _plain(state):
    """A bit generator state with its arrays as lists, for comparison."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _serial_tally(n, seed, draw, hit, points):
    """Reference chunk loop: chunk k of 2^19 draws from Philox(seed, k << 128),
    drawn one after another, each point's predicate on the whole chunk."""
    hits = [0] * len(points)
    sizes = [min(1 << 19, n - lo) for lo in range(0, n, 1 << 19)]
    for k, size in enumerate(sizes):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=k << 128))
        stat = draw(rng, size)
        for i, point in enumerate(points):
            hits[i] += int(np.count_nonzero(hit(stat, *point)))
    return [McEstimate(h / n, math.sqrt(h / n * (1.0 - h / n) / n), n, seed, len(sizes))
            for h in hits]


class TestMcCdf:
    def test_limits(self):
        assert mc_cdf(MIXED_21, 1e4, 10**5, 3).value == 1.0
        assert mc_cdf(MIXED_21, 1e-9, 10**5, 3).value == 0.0

    def test_determinism_across_runs(self):
        a = mc_cdf(MIXED_21, 0.3, 10**6, 42)
        b = mc_cdf(MIXED_21, 0.3, 10**6, 42)
        assert a == b

    def test_chunking_invisible(self):
        # one full chunk vs a partial tail chunk share the leading stream
        big = mc_cdf(MIXED_21, 0.3, (1 << 19) + 1000, 7)
        assert big.streams == 2

    def test_matches_analytic_within_3_sigma(self):
        est = mc_cdf(MIXED_21, 0.3, 10**6, 11)
        assert est.within(z_cdf(MIXED_21, 0.3))

    def test_stderr_formula(self):
        est = mc_cdf(MIXED_21, 0.3, 10**5, 5)
        assert est.std_error == pytest.approx(
            math.sqrt(est.value * (1 - est.value) / est.n))

    def test_coverage_band(self):
        # binomial sanity: the analytic value sits inside 3 sigma for at
        # least 28 of 30 independent seeds
        ref = z_cdf(MIXED_21, 0.4)
        hits = sum(mc_cdf(MIXED_21, 0.4, 10**5, seed).within(ref)
                   for seed in range(30))
        assert hits >= 28

    def test_domain(self):
        with pytest.raises(DomainError):
            mc_cdf(MIXED_21, 0.3, 0, 1)


class TestArgumentChecks:
    """Arguments the estimators cannot use raise DomainError instead of
    returning a number."""

    CH = CompositeProduct((GammaGammaParams(7.465009, 5.943215),))

    @pytest.mark.parametrize("call", [
        lambda ch: mc_cdf(ch, math.nan, 1000, 1),
        lambda ch: mc_cdf(ch, [0.5, math.nan], 1000, 1),
        lambda ch: mc_op_parallel(ch, 2, math.nan, 1000, 1),
        lambda ch: mc_op_thz(ch, math.nan, 2.0, 0.0, 0.0, 1000, 1),
        lambda ch: mc_op_thz(ch, db(20), 2.0, math.nan, 0.0, 1000, 1),
    ], ids=["cdf", "cdf-sequence", "parallel", "thz-ratio", "thz-kappa"])
    def test_nan_threshold(self, call):
        with pytest.raises(DomainError):
            call(self.CH)

    @pytest.mark.parametrize("n", [2.5, 1e3, "1000", -3, 0])
    def test_sample_count(self, n):
        with pytest.raises(DomainError):
            mc_cdf(self.CH, 0.5, n, 1)

    @pytest.mark.parametrize("kappa", [(-0.1, 0.0), (0.0, -0.1), ([0.1, -0.1], 0.0)])
    def test_negative_kappa(self, kappa):
        with pytest.raises(DomainError):
            mc_op_thz(self.CH, db(20), 2.0, *kappa, 1000, 1)

    @pytest.mark.parametrize("seed", [-1, 1 << 128, 1.5])
    def test_seed(self, seed):
        with pytest.raises(DomainError):
            mc_cdf(self.CH, 0.5, 1000, seed)

    def test_seed_range_edges(self):
        for seed in (0, (1 << 128) - 1, np.int64(7)):
            assert 0.0 < mc_cdf(self.CH, 0.9, 1000, seed).value < 1.0


class TestSampler:
    @pytest.mark.parametrize("count", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                                       3 * (1 << 16) + 5])
    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 6.7])
    def test_blocks_match_one_shot_draws(self, xi, count):
        # xi = 0.5, 1, 2 give the exponents 2, 1, 0.5 that numpy computes by
        # fast paths; values and the generator's final state must match the
        # one-shot draws bit for bit
        ch = CompositeProduct((GammaGammaParams(10.02, 2.98, omega=1.7), STRONG),
                              (PointingErrorParams(xi, 0.8), FIG7_PE))
        rng = np.random.Generator(np.random.Philox(key=5, counter=3 << 128))
        ref = np.random.Generator(np.random.Philox(key=5, counter=3 << 128))
        got = sample_z(ch, rng, count)
        want = _one_shot_sample_z(ch, ref, count)
        assert got.shape == (count,)
        assert np.array_equal(got, want)
        assert _plain(rng.bit_generator.state) == _plain(ref.bit_generator.state)

    @pytest.mark.parametrize("count", [2.5, math.nan, "3"])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(DomainError):
            sample_z(MIXED_21, np.random.default_rng(0), count)

    def test_numpy_count(self):
        got = sample_z(MIXED_21, np.random.default_rng(4), np.int64(5))
        assert np.array_equal(got, sample_z(MIXED_21, np.random.default_rng(4), 5))


class TestThreadedChunks:
    """Chunks drawn on worker threads tally exactly what a serial chunk loop
    gives, for any number of usable CPUs."""

    N = 3 * (1 << 19) + 7  # four chunks, the last one short

    @pytest.fixture(params=[None, 1, 8], ids=["host", "one-cpu", "eight-cpus"])
    def workers(self, request, monkeypatch):
        """The worker threads the estimators start, and how many one call
        should start."""
        cpus = request.param
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        started = []

        class Worker(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        # _tally looks the class up in the threading module on each call
        monkeypatch.setattr(threading, "Thread", Worker)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often to expose races
        try:
            yield started, min(4, cpus or mc._usable_cpus())
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in started)

    def test_cdf(self, workers):
        xs = [0.05, 0.3, 0.9, 2.5]
        got = mc_cdf(MIXED_21, xs, self.N, 13)
        want = _serial_tally(self.N, 13, lambda rng, size: _one_shot_sample_z(MIXED_21, rng, size),
                             lambda z, t: z <= t, [(x,) for x in xs])
        assert got == want
        started, expected = workers
        assert len(started) == expected

    def test_parallel(self, workers):
        ratios = [db(v) for v in (20.0, 26.0, 32.0)]

        def draw(rng, size):
            s = np.zeros(size)
            for _ in range(2):
                s += _one_shot_sample_z(BRANCH, rng, size)
            return s / 2

        got = mc_op_parallel(BRANCH, 2, ratios, self.N, 19)
        want = _serial_tally(self.N, 19, draw, lambda s, t: s <= t,
                             [(math.sqrt(1.0 / (2 * r)),) for r in ratios])
        assert got == want
        assert len(workers[0]) == workers[1]

    def test_thz(self, workers):
        ch = TestMcThz.CH
        ratios, g_th, kt, kr = [db(10.0), db(20.0), db(30.0)], 2.0, 0.25, 0.15
        got = mc_op_thz(ch, ratios, g_th, kt, kr, self.N, 29)
        want = _serial_tally(
            self.N, 29, lambda rng, size: _one_shot_sample_z(ch, rng, size) ** 2,
            lambda z2, g_s, k2: z2 * g_s / (z2 * g_s * k2 + 1.0) <= g_th,
            [(r * g_th, kt * kt + kr * kr) for r in ratios])
        assert got == want
        assert len(workers[0]) == workers[1]

    def test_single_chunk_runs_on_one_worker(self, workers):
        mc_cdf(MIXED_21, 0.3, 1000, 3)
        assert len(workers[0]) == 1

    def test_failing_chunk_raises_after_every_worker_joins(self):
        class Boom(Exception):
            pass

        def draw(rng, size):
            if size < 1 << 19:  # the short second chunk
                raise Boom(size)
            return sample_z(MIXED_21, rng, size)

        before = threading.active_count()
        with pytest.raises(Boom):
            mc._tally((1 << 19) + 5, 3, draw, lambda z, t: z <= t, [(0.3,)])
        assert threading.active_count() == before

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mc._usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert mc._usable_cpus() == 3


class TestMcParallel:
    def test_single_branch_equals_mc_cdf(self):
        r = db(25)
        t = math.sqrt(1.0 / r)
        a = mc_op_parallel(BRANCH, 1, r, 10**5, 9)
        b = mc_cdf(BRANCH, t, 10**5, 9)
        assert a.value == b.value

    def test_bound_dominates_simulation(self):
        for v in (25.0, 32.0, 40.0):
            est = mc_op_parallel(BRANCH, 2, db(v), 10**6, 17)
            bound = op_fso_parallel_bound(BRANCH, 2, db(v)).probability
            assert bound >= est.value - 3 * est.std_error

    @pytest.mark.parametrize("branches", [2.5, math.nan, "2", 0])
    def test_branch_count_must_be_an_integer(self, branches):
        with pytest.raises(DomainError):
            mc_op_parallel(BRANCH, branches, db(25), 1000, 1)

    def test_numpy_branch_count(self):
        assert mc_op_parallel(BRANCH, np.int64(2), db(25), 10**4, 9) == \
            mc_op_parallel(BRANCH, 2, db(25), 10**4, 9)

    def test_diversity_gain_with_branch_count(self):
        r = db(30)
        ops = [mc_op_parallel(BRANCH, n, r, 10**6, 23).value for n in (1, 2, 3)]
        assert ops[0] > ops[1] > ops[2] > 0


class TestMcThz:
    CH = CompositeProduct((GammaGammaParams(7.465009, 5.943215),
                           GammaGammaParams(4.155350, 2.195809)))

    def test_reduces_to_plain_threshold_without_distortion(self):
        r = db(20)
        a = mc_op_thz(self.CH, r, 2.0, 0.0, 0.0, 10**5, 31)
        b = mc_cdf(self.CH, math.sqrt(1.0 / r), 10**5, 31)
        assert a.value == b.value

    def test_ceiling_regime_estimates_one_exactly(self):
        est = mc_op_thz(self.CH, db(30), 10.0, 0.4, 0.4, 10**4, 2)
        assert est.value == 1.0

    def test_matches_analytic_with_distortion(self):
        r, g_th, kt, kr = db(18), 2.0, 0.25, 0.15
        est = mc_op_thz(self.CH, r, g_th, kt, kr, 10**6, 57)
        ana = op_thz(self.CH, r, g_th, kt, kr).probability
        assert est.within(ana)


class TestThresholdSequences:
    """A sequence of thresholds is tallied on one set of draws; each estimate
    equals the scalar call's bit for bit."""

    N = (1 << 19) + 3000  # two chunks

    def test_cdf(self):
        xs = [0.05, 0.3, 0.9, 2.5]
        got = mc_cdf(MIXED_21, np.array(xs), self.N, 13)
        assert got == [mc_cdf(MIXED_21, x, self.N, 13) for x in xs]
        assert got[0].streams == 2

    def test_parallel(self):
        ratios = [db(v) for v in (20.0, 26.0, 32.0)]
        got = mc_op_parallel(BRANCH, 2, ratios, self.N, 19)
        assert got == [mc_op_parallel(BRANCH, 2, r, self.N, 19) for r in ratios]

    def test_thz_with_ceiling_point(self):
        # gamma_th (kappa_t^2 + kappa_r^2) = 10 * 0.32 >= 1 at the last point
        ch = TestMcThz.CH
        ratios = [db(10.0), db(20.0), db(30.0)]
        g_th, kt, kr = [2.0, 2.0, 10.0], [0.25, 0.0, 0.4], [0.15, 0.0, 0.4]
        got = mc_op_thz(ch, ratios, g_th, kt, kr, self.N, 29)
        assert got == [mc_op_thz(ch, *point, self.N, 29)
                       for point in zip(ratios, g_th, kt, kr)]
        assert got[-1].value == 1.0

    def test_scalars_broadcast(self):
        ratios = [db(15.0), db(25.0)]
        got = mc_op_thz(TestMcThz.CH, ratios, 2.0, 0.25, 0.15, 10**4, 3)
        assert got == [mc_op_thz(TestMcThz.CH, r, 2.0, 0.25, 0.15, 10**4, 3)
                       for r in ratios]

    def test_shape_errors(self):
        with pytest.raises(DomainError):
            mc_op_thz(TestMcThz.CH, [1.0, 2.0], [2.0, 3.0, 4.0], 0.0, 0.0, 100, 1)
        with pytest.raises(DomainError):
            mc_cdf(MIXED_21, [[0.1, 0.2]], 100, 1)


class TestKs:
    def test_needs_samples(self):
        with pytest.raises(DomainError):
            ks_statistic(MIXED_21, np.array([1.0]))

    def test_draws_that_underflow_to_zero(self):
        # alpha = 0.01 puts 11 of these draws at 0.0; they take the CDF 0.0
        ch = CompositeProduct((GammaGammaParams(0.01, 3.0),))
        z = sample_z(ch, np.random.Generator(np.random.Philox(3)), 20000)
        assert np.count_nonzero(z == 0.0) == 11
        assert 0.0 < ks_statistic(ch, z, grid_points=512) < 1.36 / math.sqrt(z.size)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_refuses_a_draw_outside_the_support(self, bad):
        with pytest.raises(DomainError, match=repr(bad)):
            ks_statistic(MIXED_21, np.array([0.5, bad, 1.0]))

    @pytest.mark.parametrize("grid_points", [0, 1, 2.5])
    def test_grid_needs_an_integer_of_at_least_two_points(self, grid_points):
        # 0 and 1 raised scipy's bare ValueError, 2.5 a bare TypeError
        with pytest.raises(DomainError, match="grid_points"):
            ks_statistic(MIXED_21, np.array([0.5, 1.0, 2.0]), grid_points=grid_points)

    def test_numpy_grid_points(self):
        z = np.array([0.5, 1.0, 2.0])
        assert ks_statistic(MIXED_21, z, grid_points=np.int64(64)) == ks_statistic(
            MIXED_21, z, grid_points=64)

    def test_detects_wrong_model(self):
        rng = np.random.default_rng(5)
        wrong = rng.lognormal(0.0, 1.0, 20000)
        assert ks_statistic(MIXED_21, wrong) > 0.05

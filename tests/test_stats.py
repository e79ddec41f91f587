import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgswarm import engine, run_replicate
from orgswarm.experiment import _compare_pair
from orgswarm.stats import (EXACT_MAX_N, _median, _padded_curves, _percentile, _u_tail_counts,
                            aggregate_arm, mann_whitney_u, median_ratio)
from scripted import scripted, scripted_state


def brute_force_mann_whitney(a, b):
    """Enumeration oracle: U from pair counting, p from all label splits.

    Walks every way the pooled values could have been divided between the two
    samples, computes U for each, and sums the tail probabilities. Pure
    python, independent of the library's recurrence.
    """
    def u_of(x, y):
        u = 0.0
        for xi in x:
            for yj in y:
                if xi > yj:
                    u += 1.0
                elif xi == yj:
                    u += 0.5
        return u

    m = len(a)
    pooled = list(a) + list(b)
    u_obs = u_of(a, b)
    total_pairs = m * (len(pooled) - m)
    u_lo = min(u_obs, total_pairs - u_obs)
    u_hi = max(u_obs, total_pairs - u_obs)
    at_most = 0
    at_least = 0
    total = 0
    for first_idx in itertools.combinations(range(len(pooled)), m):
        chosen = set(first_idx)
        x = [pooled[i] for i in first_idx]
        y = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        u = u_of(x, y)
        total += 1
        if u <= u_lo:
            at_most += 1
        if u >= u_hi:
            at_least += 1
    return u_obs, min(1.0, (at_most + at_least) / total)


def engine_hits(monkeypatch, fitness_traces):
    """``(first_any_hit, group_convergence)`` of a ``run_replicate`` whose agent i
    has fitness ``fitness_traces[i][t]`` at iteration t (a scripted swarm), on
    the budget of the traces' last iteration."""
    config, rng = scripted(fitness_traces, dim=10, max_iterations=len(fitness_traces[0]) - 1)
    monkeypatch.setattr(engine, "replicate_rng", lambda *_: rng)
    r = run_replicate(config, 0)
    assert r.trace_best.tolist() == np.min(fitness_traces, axis=0)[:r.iterations_run + 1].tolist()
    return r.first_any_hit, r.group_convergence


class TestFirstHitIteration:
    @pytest.mark.parametrize("trace,expected", [
        ([3, 1, 0, 0], 2),
        ([2, 1, 1], None),
        ([0, 4, 2], 0),
    ])
    def test_hand_examples(self, monkeypatch, trace, expected):
        # one agent: its first hit is both the first and the last of the group
        assert engine_hits(monkeypatch, [trace]) == (expected, expected)

    def test_stable_under_appends_after_first_zero(self, monkeypatch):
        base = [5, 2, 0]
        hits = engine_hits(monkeypatch, [base])
        for extra in ([1], [0, 0], [9, 0, 3]):
            assert engine_hits(monkeypatch, [base + extra]) == hits

    def test_first_hit_of_any_agent_and_last_of_all(self, monkeypatch):
        # the best fitness is 0 first at t = 1 (agent 0, which then leaves the
        # goal), and every personal best is 0 first at t = 3 (agent 1's hit)
        assert engine_hits(monkeypatch, [[3, 0, 2, 2, 1], [2, 2, 1, 0, 4]]) == (1, 3)
        assert engine_hits(monkeypatch, [[3, 0, 2, 2], [2, 2, 1, 1]]) == (1, None)

    @pytest.mark.parametrize("trace", [[5, 2, 0, 9], [3, -1]])
    def test_impossible_script_rejected(self, trace):
        # fitness 9 needs 9 wrong bits of 8; fitness -1 none
        with pytest.raises(ValueError, match=r"\[0, 8\]"):
            scripted_state([trace], dim=8)


@dataclass
class FakeResult:
    group_convergence: int | None
    first_any_hit: int | None = 1
    # t = 0..iterations_run
    trace_best: np.ndarray = field(default_factory=lambda: np.array([5, 3, 1, 0]))
    trace_mean: np.ndarray = field(default_factory=lambda: np.array([8.0, 6.0, 4.0, 2.0]))


class TestAggregateArm:
    def test_odd_count_median(self):
        s = aggregate_arm([FakeResult(v) for v in (10, 20, 30)], "arm", 100)
        assert s.median_group_convergence == 20

    def test_even_count_midpoint(self):
        s = aggregate_arm([FakeResult(v) for v in (10, 20, 30, 40)], "arm", 100)
        assert s.median_group_convergence == 25

    def test_never_excluded_from_median_but_in_rate(self):
        s = aggregate_arm([FakeResult(10), FakeResult(None), FakeResult(30)], "arm", 100)
        assert s.successes == 2 and s.success_rate == pytest.approx(2 / 3)
        assert s.median_group_convergence == 20

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate_arm([], "arm", 100)

    def test_central_tendency_within_range(self):
        rng = np.random.default_rng(1)
        values = rng.integers(5, 500, 31).tolist()
        s = aggregate_arm([FakeResult(v) for v in values], "arm", 500)
        assert min(values) <= s.median_group_convergence <= max(values)
        assert min(values) <= s.mean_group_convergence <= max(values)
        assert s.iqr_low <= s.median_group_convergence <= s.iqr_high

    def test_curve_padding_carries_last_value(self):
        r = FakeResult(3)
        s = aggregate_arm([r], "arm", 6)
        assert s.curve_best.size == 6
        assert s.curve_best[-1] == r.trace_best[-1]
        assert s.curve_best.tolist() == [3, 1, 0, 0, 0, 0]  # t = 1..6
        # converged at t = 0: its t = 0 values fill the whole curve
        at_start = FakeResult(0, trace_best=np.array([0]), trace_mean=np.array([3.0]))
        s = aggregate_arm([at_start], "arm", 6)
        assert s.curve_best.tolist() == [0] * 6 and s.curve_mean.tolist() == [3.0] * 6

    def test_censored_values(self):
        # the converged replicates, sorted, and the budget the rest count at
        s = aggregate_arm([FakeResult(None), FakeResult(40), FakeResult(100),
                           FakeResult(10)], "arm", 100)
        assert s.converged == [10, 40, 100]
        assert s.max_iterations == 100


class TestComparePair:
    """``_compare_pair``: one comparisons.csv row's statistics, by hand."""

    B = [20, 30, 40]  # every replicate converged; median 30

    def arm(self, values, budget=100):
        return aggregate_arm([FakeResult(v) for v in values], "arm", budget)

    def test_never_converged_counts_at_the_budget(self):
        # censored sample [10, 40, 100, 100]: the never-converged replicate
        # sorts last at the budget, level with the one that converged there
        a, b = self.arm([None, 40, 100, 10]), self.arm(self.B)
        ratio, u, p, censored_ratio = _compare_pair(a, b)
        test = mann_whitney_u([10, 40, 100], self.B)
        assert (ratio, u, p) == (40 / 30, test.u_statistic, test.p_value)
        assert censored_ratio == 70 / 30
        assert _compare_pair(self.arm([100, 40, 100, 10]), b)[3] == censored_ratio
        # the budget, not the largest converged value: [10, 40, 1000, 1000]
        assert _compare_pair(self.arm([None, None, 40, 10], 1000), b)[3] == 520 / 30

    def test_no_converged_replicate_leaves_the_test_empty(self):
        assert _compare_pair(self.arm([None, None], 50), self.arm(self.B)) == (
            None, None, None, 50 / 30)


def stacked_curves(results, horizon):
    """Reference arm curves: every replicate's padded row stacked into one
    float (R, horizon) matrix, then ``mean(axis=0)``."""
    steps = np.arange(1, horizon + 1)
    rows = [np.minimum(steps, r.trace_best.size - 1) for r in results]
    return (np.array([r.trace_best[t] for r, t in zip(results, rows)], dtype=float).mean(axis=0),
            np.array([r.trace_mean[t] for r, t in zip(results, rows)], dtype=float).mean(axis=0))


@st.composite
def arm_traces(draw):
    """1-200 replicates on one budget, some stopped at t = 0 and some run to
    the budget; fitness means are k/N for N in 1..40 agents."""
    horizon = draw(st.integers(1, 60))
    agents = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 200))
    stops = draw(st.lists(st.one_of(st.just(0), st.just(horizon), st.integers(0, horizon)),
                          min_size=1, max_size=200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return horizon, [FakeResult(None, trace_best=rng.integers(0, dim + 1, stop + 1),
                                trace_mean=rng.integers(0, dim * agents + 1, stop + 1) / agents)
                     for stop in stops]


class TestPaddedCurves:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(arm_traces())
    def test_equal_to_the_stacked_mean(self, arm):
        horizon, results = arm
        got, expected = _padded_curves(results, horizon), stacked_curves(results, horizon)
        for curve, reference in zip(got, expected):
            assert curve.dtype == reference.dtype == np.float64
            assert curve.tobytes() == reference.tobytes()  # IEEE bits


def numpy_mann_whitney(a, b):
    """Reference U, p and method from numpy midranks: ``np.unique`` ranks
    (ties get the mean rank), U from the first sample's rank sum, and the
    tie term from the per-value counts."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m, n = a.size, b.size
    _, inverse, counts = np.unique(np.concatenate([a, b]), return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    u_a = float(ranks[:m].sum() - m * (m + 1) / 2.0)
    if (counts == 1).all() and m <= EXACT_MAX_N and n <= EXACT_MAX_N:
        tail = _u_tail_counts(m, n)
        u = int(round(u_a))
        u_lo, u_hi = min(u, m * n - u), max(u, m * n - u)
        p = (sum(tail[:u_lo + 1]) + sum(tail[u_hi:])) / sum(tail)
        return u_a, min(1.0, p), "exact"
    tie_term = float(((counts ** 3) - counts).sum()) / ((m + n) * (m + n - 1))
    var = m * n / 12.0 * ((m + n + 1) - tie_term)
    if var <= 0:
        return u_a, 1.0, "normal"
    z = (u_a - m * n / 2.0) / math.sqrt(var)
    return u_a, min(1.0, math.erfc(abs(z) / math.sqrt(2.0))), "normal"


def _bits(x) -> str:
    """A float's IEEE 754 bits, so that -0.0 and 0.0 (or two NaNs) differ."""
    return struct.pack("<d", x).hex()


class TestOrderStatistics:
    """The plain-Python median and percentile against numpy's, bit for bit."""

    # the run passes integer samples only; |values| < 2**62 keeps numpy's
    # int64 differences from wrapping
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=1, max_size=60),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60)))
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([-0.0, 2.5, -0.0])
    def test_equal_to_numpy(self, sample):
        ordered = sorted(sample)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [np.median(sample), np.percentile(sample, 25), np.percentile(sample, 75)]
        got = [_median(ordered), _percentile(ordered, 25), _percentile(ordered, 75)]
        assert all(type(x) is float for x in got)
        assert [_bits(x) for x in got] == [_bits(float(x)) for x in expected]

    @pytest.mark.parametrize("sample,median,low,high", [
        ([7], 7.0, 7.0, 7.0),
        ([1, 2], 1.5, 1.25, 1.75),
        ([3, 1, 2, 10], 2.5, 1.75, 4.75),
        ([-0.0], 0.0, -0.0, -0.0),  # np.mean's sum starts at 0.0; _lerp keeps -0.0
    ])
    def test_hand_examples(self, sample, median, low, high):
        ordered = sorted(sample)
        got = _median(ordered), _percentile(ordered, 25), _percentile(ordered, 75)
        assert [_bits(x) for x in got] == [_bits(x) for x in (median, low, high)]

    def test_mixed_signed_zeros_equal_numpy_but_for_the_sign(self):
        # the one known difference: with 0.0 and -0.0 in one sample, numpy's
        # sign depends on where its unstable partition leaves the equal values,
        # so the same three zeros in two orders give two signs
        assert _bits(np.percentile([0.0, -0.0, -0.0], 75)) == _bits(-0.0)
        assert _bits(np.percentile([-0.0, -0.0, 0.0], 75)) == _bits(0.0)
        sample = [0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.0]
        assert _bits(np.percentile(sample, 75)) == _bits(-0.0)
        assert _bits(_percentile(sorted(sample), 75)) == _bits(0.0)


class TestMedianRatio:
    @pytest.mark.parametrize("a,b,ratio", [
        ([2, 4, 9], [8], 0.5),
        ([0, 0, 5], [0, 1, 0], 1.0),
        ([1, 3], [0], math.inf),
        ([0], [2, 6], 0.0),
    ])
    def test_zero_median_rule(self, a, b, ratio):
        assert median_ratio(a, b) == ratio


class TestMannWhitney:
    def test_identical_samples_p_near_one(self):
        assert median_ratio([4, 5, 6], [4, 5, 6]) == 1.0
        assert mann_whitney_u([4, 5, 6], [4, 5, 6]).p_value >= 0.99

    def test_disjoint_samples_exact(self):
        r = mann_whitney_u([1, 2, 3], [10, 11, 12])
        assert r.u_statistic == 0.0
        assert median_ratio([1, 2, 3], [10, 11, 12]) == pytest.approx(2 / 11)
        assert r.p_value == pytest.approx(0.1)
        assert r.method == "exact"

    def test_singletons(self):
        assert median_ratio([5], [5]) == 1.0
        assert mann_whitney_u([5], [5]).p_value == 1.0

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1, 2])
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [])

    def test_ratio_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = rng.integers(1, 100, 7).tolist()
            b = rng.integers(1, 100, 9).tolist()
            ab = median_ratio(a, b)
            ba = median_ratio(b, a)
            assert ab == pytest.approx(1 / ba)

    def test_tail_counts_sum_to_binomial(self):
        for m in range(1, 8):
            for n in range(1, 8):
                assert sum(_u_tail_counts(m, n)) == math.comb(m + n, m)

    def test_exact_matches_brute_force_all_small_sizes(self):
        rng = np.random.default_rng(3)
        for m in range(1, 6):
            for n in range(1, 6):
                for _ in range(4):
                    pool = rng.permutation(100)[:m + n]  # distinct -> tie-free
                    a = pool[:m].tolist()
                    b = pool[m:].tolist()
                    got = mann_whitney_u(a, b)
                    u_ref, p_ref = brute_force_mann_whitney(a, b)
                    assert got.method == "exact"
                    assert got.u_statistic == u_ref
                    assert got.p_value == pytest.approx(p_ref, abs=1e-12)

    def test_ties_route_to_normal_path(self):
        r = mann_whitney_u([1, 2, 2, 3], [2, 3, 4, 5])
        assert r.method == "normal"

    def test_large_samples_use_normal_path(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, 50)
        b = rng.normal(0, 1, 50)
        r = mann_whitney_u(a, b)
        assert r.method == "normal"
        assert 0.0 <= r.p_value <= 1.0

    def test_separated_samples_small_p(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, 40)
        b = rng.normal(5, 1, 40)
        assert mann_whitney_u(a, b).p_value < 1e-6

    @pytest.mark.parametrize("a,b", [([1.0, math.nan], [2.0, math.nan, 3.0]),
                                     ([1.0, 2.0], [math.nan]), ([math.nan], [1.0])])
    def test_nan_rejected(self, a, b):
        with pytest.raises(ValueError, match="NaN"):
            mann_whitney_u(a, b)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.sampled_from([
        st.integers(0, 4),  # dense ties
        st.integers(-2 ** 40, 2 ** 40),
        st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
                  st.floats(allow_nan=False)),
    ]).flatmap(lambda values: st.tuples(st.lists(values, min_size=1, max_size=60),
                                        st.lists(values, min_size=1, max_size=60))))
    @example(([0.0, -0.0, 1.0], [-0.0, 2.0]))
    @example(([math.inf, -math.inf], [math.inf, 0.0]))
    def test_equal_to_numpy_midranks(self, samples):
        a, b = samples
        got = mann_whitney_u(a, b)
        u_ref, p_ref, method_ref = numpy_mann_whitney(a, b)
        assert [_bits(got.u_statistic), _bits(got.p_value), got.method] == [
            _bits(u_ref), _bits(p_ref), method_ref]

    def test_all_tied_degenerate_p_one(self):
        r = mann_whitney_u([7, 7, 7], [7, 7])
        assert r.p_value == 1.0

    def test_normal_unbiased_under_null(self):
        # Shift-free samples should give roughly uniform p-values; check the
        # median p is not tiny (sanity of the variance formula).
        rng = np.random.default_rng(6)
        ps = []
        for _ in range(200):
            a = rng.normal(0, 1, 30)
            b = rng.normal(0, 1, 30)
            ps.append(mann_whitney_u(a, b).p_value)
        assert 0.3 < np.median(ps) < 0.7

"""An arm's sample statistics and curves, and the statistics that compare two samples.

:func:`aggregate_arm` reads an arm's two ``summary.csv`` columns and its budget,
:func:`padded_curve` one fitness trace per replicate (numpy serves only it).
:func:`mann_whitney_u` and :func:`median_ratio` compare any two samples; the
experiment writer's ``_compare_pair`` applies them to a pair of arms. The Mann-Whitney
U here is self-contained: an exact tail probability from the classical no-ties count
recurrence when both sides have at most 20 observations and the pooled sample is
tie-free, otherwise a tie-corrected normal approximation (no continuity correction,
so identical samples give p = 1 exactly). U is reported for the first sample: the
pairs where it exceeds the second (ties count 1/2), counted by bisecting the sorted
samples. A NaN in either sample is rejected.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EXACT_MAX_N = 20


@dataclass
class ArmSummary:
    """Sample statistics of one (design x tendency) arm: what ``arms.csv`` and
    ``comparisons.csv`` read, from its ``summary.csv`` columns and its budget."""

    label: str
    n: int
    successes: int
    success_rate: float
    median_group_convergence: float          # nan when no replicate converged
    mean_group_convergence: float
    iqr_low: float
    iqr_high: float
    median_first_any_hit: float
    converged: list[int]                     # sorted, converged replicates only
    max_iterations: int                      # the budget the replicates ran on


def padded_curve(traces: list[np.ndarray], horizon: int) -> np.ndarray:
    """Mean of the traces (each from t = 0) at t = 1..horizon, one that ends early carrying
    its last value on. They are summed in place in list order, then divided by the count,
    as ``mean(axis=0)`` reduces their C-ordered stack: same bits."""
    curve = np.zeros(horizon)
    steps = np.arange(1, horizon + 1)
    for trace in traces:
        curve += trace[np.minimum(steps, trace.size - 1)]
    return curve / len(traces)


def _median(ordered: list) -> float:
    """``np.median`` of a sorted sample: the middle value, or the midpoint of
    the middle two, each summed from 0.0 as ``np.mean`` does."""
    half = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + ordered[half]
    return (0.0 + ordered[half - 1] + ordered[half]) / 2


def _percentile(ordered: list, q: float) -> float:
    """``np.percentile(·, q)`` of a sorted sample, numpy's linear method
    (Hyndman & Fan type 7) step for step, as in numpy's ``_lerp``.

    Past the last index numpy interpolates the last value with itself, at
    weight ``v + 1``. Equal to numpy bit for bit, except for the sign of a
    zero from a sample holding both 0.0 and -0.0: numpy's sign then depends
    on where its unstable partition leaves those equal values.
    """
    v = (len(ordered) - 1) * (q / 100)
    i = int(v) if v < len(ordered) - 1 else -1
    g = v - i
    a, b = ordered[i], ordered[i + 1 if i >= 0 else -1]
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def aggregate_arm(label: str, group_convergence: list, first_any_hit: list,
                  max_iterations: int) -> ArmSummary:
    """Summarize an arm from its replicates' ``group_convergence`` and ``first_any_hit``
    (an int each, or None for never), run on a budget of ``max_iterations``.

    Never-converged replicates are excluded from the central-tendency
    statistics. Medians use the midpoint rule for even counts; the IQR uses
    linear interpolation.
    """
    if not group_convergence:
        raise ValueError("aggregate_arm needs at least one replicate")
    conv = sorted(v for v in group_convergence if v is not None)
    hits = sorted(v for v in first_any_hit if v is not None)
    nan = float("nan")
    return ArmSummary(
        label=label,
        n=len(group_convergence),
        successes=len(conv),
        success_rate=len(conv) / len(group_convergence),
        median_group_convergence=_median(conv) if conv else nan,
        mean_group_convergence=sum(conv) / len(conv) if conv else nan,
        iqr_low=_percentile(conv, 25) if conv else nan,
        iqr_high=_percentile(conv, 75) if conv else nan,
        median_first_any_hit=_median(hits) if hits else nan,
        converged=conv,
        max_iterations=max_iterations,
    )


@lru_cache(maxsize=None)
def _u_tail_counts(m: int, n: int) -> tuple[int, ...]:
    """Count of tie-free arrangements of m+n values with U(first side) = u.

    The counts for u = 0..m*n are the coefficients of the Gaussian binomial
    [m+n choose m]_q = prod_{i=1..m} (1 - q^(n+i)) / (1 - q^i), built one
    factor at a time. Both operations only move coefficients to higher
    degrees, so cutting every intermediate off at degree m*n is exact.
    """
    top = m * n
    counts = [1] + [0] * top
    for i in range(1, m + 1):
        for k in range(top, n + i - 1, -1):
            counts[k] -= counts[k - n - i]
        for k in range(i, top + 1):
            counts[k] += counts[k - i]
    return tuple(counts)


@dataclass
class MannWhitneyResult:
    u_statistic: float
    p_value: float
    method: str


def mann_whitney_u(a, b) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test of two independent samples.

    Each term of U is a half-integer, so the float sum is exact.
    """
    a, b = sorted(map(float, a)), sorted(map(float, b))
    if not a or not b:
        raise ValueError("mann_whitney_u requires non-empty samples")
    if any(math.isnan(x) for x in a + b):
        raise ValueError("mann_whitney_u requires samples without NaN")
    m, n = len(a), len(b)
    u_a = sum(bisect_left(b, x) + (bisect_right(b, x) - bisect_left(b, x)) / 2 for x in a)

    tie_counts = Counter(a + b).values()
    if len(tie_counts) == m + n and m <= EXACT_MAX_N and n <= EXACT_MAX_N:
        counts = _u_tail_counts(m, n)
        total = sum(counts)
        u = int(round(u_a))
        u_lo, u_hi = min(u, m * n - u), max(u, m * n - u)
        p = (sum(counts[:u_lo + 1]) + sum(counts[u_hi:])) / total
        return MannWhitneyResult(u_a, min(1.0, p), "exact")

    mu = m * n / 2.0
    total_n = m + n
    tie_term = sum(t ** 3 - t for t in tie_counts) / (total_n * (total_n - 1))
    var = m * n / 12.0 * ((total_n + 1) - tie_term)
    if var <= 0:
        return MannWhitneyResult(u_a, 1.0, "normal")
    z = (u_a - mu) / math.sqrt(var)
    return MannWhitneyResult(u_a, min(1.0, math.erfc(abs(z) / math.sqrt(2.0))), "normal")


def median_ratio(a, b) -> float:
    """median(a) / median(b) of two non-empty samples; 1 when both medians
    are 0, inf when only median(b) is."""
    ma, mb = _median(sorted(a)), _median(sorted(b))
    return ma / mb if mb else (1.0 if ma == 0.0 else float("inf"))


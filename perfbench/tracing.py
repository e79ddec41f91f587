"""Spans recorded from outside the program, and the self time they imply.

The traced run replaces orgswarm's public functions with wrappers at the
places where ``orgswarm.cli``, ``orgswarm.experiment`` and ``orgswarm.engine``
look them up (``orgswarm.stats`` for ``mann_whitney_u``, which only
``compare_arms`` calls). The arm-pair comparison is wrapped at
``experiment._compare_pair``, which calls ``compare_arms`` only when both
arms have converged replicates, so that the span exists on every workload. A wrapper records one span per call in memory:
``(span_id, parent_id, name, start, end)`` with ``perf_counter`` times.
Work inlined in ``engine.step`` -- leader selection, RNG draws, the
binarization compare and the pbest update -- has no function boundary to
wrap, so it lands in ``engine.step``'s self time.

Pool workers are forked after the wrappers are installed, so they record
spans too; each worker hands its spans back attached to the
``ReplicateResult`` it returns. Spans are tagged with the process id when
they are collected, and a span's children are looked up within its process.
"""

from __future__ import annotations

import itertools
import os
from collections import defaultdict
from time import perf_counter

# (module that looks the function up, attribute, span name)
TRACED = (
    ("orgswarm.cli", "parse_config", "experiment.parse_config"),
    ("orgswarm.cli", "run_experiment", "experiment.run_experiment"),
    ("orgswarm.experiment", "run_replicate", "engine.run_replicate"),
    ("orgswarm.experiment", "aggregate_arm", "stats.aggregate_arm"),
    ("orgswarm.experiment", "_compare_pair", "experiment.compare_pair"),
    ("orgswarm.stats", "mann_whitney_u", "stats.mann_whitney_u"),
    ("orgswarm.engine", "init_swarm", "engine.init_swarm"),
    ("orgswarm.engine", "step", "engine.step"),
    ("orgswarm.engine", "update_velocity", "kinematics.update_velocity"),
    ("orgswarm.engine", "clamp_velocity", "kinematics.clamp_velocity"),
    ("orgswarm.engine", "sigmoid", "kinematics.sigmoid"),
    ("orgswarm.engine", "fitness_many", "strategy.fitness_many"),
    ("orgswarm.engine", "reshuffle", "topology.reshuffle"),
    ("orgswarm.engine", "build_assignment", "topology.build_assignment"),
    ("orgswarm.engine", "reactive_shift", "policies.reactive_shift"),
    ("orgswarm.engine", "perceptive_shift", "policies.perceptive_shift"),
)

SPANS_ATTR = "_perfbench_spans"


class Recorder:
    """In-memory span buffer for one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def wrap_replicate(self, name: str, fn):
        """Like :meth:`wrap`, and moves the replicate's spans onto its result."""
        traced = self.wrap(name, fn)

        def replicate(*args, **kwargs):
            pid = os.getpid()
            if pid != self.pid:
                # First call in a forked pool worker: drop the parent's
                # buffered spans and open-span stack inherited by the fork.
                self.pid = pid
                del self.spans[:]
                del self._stack[:]
            mark = len(self.spans)
            result = traced(*args, **kwargs)
            setattr(result, SPANS_ATTR, (pid, self.spans[mark:]))
            del self.spans[mark:]
            return result

        return replicate

    def install(self, modules: dict) -> None:
        """Wrap every function in :data:`TRACED`; ``modules`` maps name -> module."""
        for module_name, attr, span_name in TRACED:
            module = modules[module_name]
            wrap = self.wrap_replicate if attr == "run_replicate" else self.wrap
            setattr(module, attr, wrap(span_name, getattr(module, attr)))

    def collect(self, results) -> list[tuple]:
        """All spans as ``(pid, span_id, parent_id, name, start, end)``.

        ``results`` is an iterable of ReplicateResults carrying worker spans.
        """
        out = [(self.pid,) + s for s in self.spans]
        for r in results:
            pid, spans = r.__dict__.pop(SPANS_ATTR)
            out.extend((pid,) + s for s in spans)
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[tuple[str, float, float, int]]:
    """Per span ``(name, duration, self_time, pid)``.

    Self time is the span's duration minus the part of its interval that its
    child spans (same process, parent id = this span's id) cover.
    """
    children = defaultdict(list)
    for pid, _sid, parent, _name, start, end in spans:
        children[(pid, parent)].append((start, end))
    out = []
    for pid, sid, _parent, name, start, end in spans:
        kids = children.get((pid, sid), ())
        out.append((name, end - start, end - start - _covered(kids, start, end), pid))
    return out


def layer_metrics(spans, workers: int) -> tuple[dict, list[float]]:
    """Per-layer metrics of one traced run command, and its replicate durations.

    Metric names are ``<module>.<function>.<stat>``; ``workers`` is the
    configured worker count, so an idle worker counts toward the imbalance.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    busy = defaultdict(float)
    replicate_s = []
    for name, dur, own, pid in self_times(spans):
        calls[name] += 1
        self_s[name] += own
        incl_s[name] += dur
        if name == "engine.run_replicate":
            busy[pid] += dur
            replicate_s.append(dur)
    total_busy = sum(busy.values())
    metrics = {
        "engine.step.calls": calls["engine.step"],
        "engine.step.self_us_per_call":
            1e6 * self_s["engine.step"] / max(1, calls["engine.step"]),
        "engine.init_swarm.self_s": self_s["engine.init_swarm"],
        "kinematics.update_velocity.self_s": self_s["kinematics.update_velocity"],
        "kinematics.clamp_velocity.self_s": self_s["kinematics.clamp_velocity"],
        "kinematics.sigmoid.self_s": self_s["kinematics.sigmoid"],
        "strategy.fitness_many.self_s": self_s["strategy.fitness_many"],
        "topology.reshuffle.calls": calls["topology.reshuffle"],
        "topology.reshuffle.self_s": self_s["topology.reshuffle"],
        "topology.build_assignment.self_s": self_s["topology.build_assignment"],
        "policies.reactive_shift.self_s": self_s["policies.reactive_shift"],
        "policies.perceptive_shift.self_s": self_s["policies.perceptive_shift"],
        "stats.aggregate_arm.self_s": self_s["stats.aggregate_arm"],
        "experiment.compare_pair.s": incl_s["experiment.compare_pair"],
        "stats.mann_whitney_u.calls": calls["stats.mann_whitney_u"],
        "experiment.parse_config.s": incl_s["experiment.parse_config"],
        "experiment.run_experiment.self_s": self_s["experiment.run_experiment"],
        "experiment.worker_busy_s": total_busy,
        "experiment.parallel_efficiency":
            total_busy / (workers * incl_s["experiment.run_experiment"]),
        "experiment.worker_imbalance": max(busy.values()) / (total_busy / workers),
    }
    return metrics, replicate_s


def nearest_rank(sorted_values, pct: float) -> float:
    """The ``pct`` percentile by the nearest-rank rule (values sorted ascending)."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    None when fewer than 20 samples leave no percentile above the median.
    """
    n = len(values)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    return pct, nearest_rank(sorted(values), pct)

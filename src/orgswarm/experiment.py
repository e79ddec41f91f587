"""Experiment grid: JSON config parsing, replication in blocks, CSV outputs.

A config is a single strict JSON document (unknown keys are rejected). Only
``master_seed`` is required; everything else defaults. Without an ``arms``
list the standard 3 designs x 2 tendencies grid is expanded. One check,
:meth:`ExperimentSpec.validate`, serves the parser and ``run_experiment``.

Each arm runs as the same blocks of 25 replicates at every worker count,
through ``map`` at one worker and a process pool's ``map`` otherwise; an
arm's per-agent traces are written before the next arm's results are taken.

Outputs go through one writer, ``_write_csv``, and one cell rule, ``_CELL``:
an int column prints with ``%d``, a float column with ``%.6g`` (the text of
``f"{x:.6g}"``), a str column with ``%s``, a missing (None) cell empty. Each
file's row format is built once from its column types (a trace file's also
holds its fixed ``W_*`` cells). Arms are written in label order and all row
orders are fixed, so a spec gives byte-identical files at any worker count:

* ``summary.csv``   one row per replicate
* ``arms.csv``      one row per arm
* ``comparisons.csv`` one row per unordered arm pair
* ``goals.csv``     one row per replicate: its goal bitstring
* ``curves/<arm>.csv`` per-iteration convergence curves (trace group|full)
* ``traces/<arm>/replicate_<i>.csv`` per-agent traces (trace full)
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .engine import ReplicateResult, SimConfig, _param, invalid_fields, run_replicate
from .errors import ConfigError, InvariantViolation, is_int
from .policies import Tendency
from .stats import (ArmComparison, ArmSummary, aggregate_arm, censored_values,
                    compare_arms, convergence_values)
from .strategy import to_bitstring
from .topology import DesignKind

_BLOCK = 25  # replicates per block
TRACE_LEVELS = ("none", "group", "full")  # "group" writes curves/, "full" also traces/


@dataclass
class Arm:
    """One design x tendency arm; its label names CSV cells and output paths."""

    label: str = _param("non-empty string other than '.' or '..' without '/', '\\', ',', "
                        "a line break or NUL",
                        lambda v: isinstance(v, str) and v not in ("", ".", "..")
                        and not any(c in v for c in "/\\,\n\r\0"))
    config: SimConfig


@dataclass
class ExperimentSpec:
    """The arms of an experiment and where and how to write them; both
    :func:`parse_config_dict` and :func:`run_experiment` :meth:`validate` it."""

    arms: list[Arm]
    out_dir: str = _param("non-empty string without NUL",
                          lambda v: isinstance(v, str) and v != "" and "\0" not in v,
                          "results")
    trace: str = _param(f"one of {TRACE_LEVELS}", lambda v: v in TRACE_LEVELS, "group")
    workers: int | None = _param("integer >= 1 or null",
                                 lambda v: v is None or (is_int(v) and v >= 1), None)

    def validate(self) -> None:
        """Raise :class:`ConfigError` for the first of: bad top-level fields;
        the first arm with a bad label or config; no arms, duplicate labels or mixed seeds."""
        bad = invalid_fields(self)
        if bad:
            raise ConfigError("invalid config: " + "; ".join(bad.values()), fields=list(bad))
        for i, arm in enumerate(self.arms):
            bad = invalid_fields(arm)
            if bad:
                raise ConfigError(f"arm {i}: " + "; ".join(bad.values()), fields=list(bad))
            arm.config.validate()
        labels = [arm.label for arm in self.arms]
        if not labels or len(set(labels)) < len(labels):
            raise ConfigError(f"arms must be a non-empty list without duplicate labels, "
                              f"got labels {labels}", fields=["arms"])
        seeds = sorted({arm.config.master_seed for arm in self.arms})
        if len(seeds) > 1:
            raise ConfigError(f"arms must share one master_seed, got seeds {seeds}",
                              fields=["master_seed"])


# SimConfig fields a config sets globally or per arm (absent: the SimConfig default)
_PARAMS = tuple(f.name for f in fields(SimConfig) if f.default is not MISSING)
_SPEC_KEYS = tuple(f.name for f in fields(ExperimentSpec) if f.name != "arms")
_TOP_LEVEL_KEYS = {*_PARAMS, "master_seed", *_SPEC_KEYS, "arms"}
_ARM_KEYS = {*_PARAMS, "design", "tendency", "label"}


def _choice(kind, name: str, value):
    """The ``kind`` enum member whose value is ``value`` (config field ``name``)."""
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{name} must be one of {[k.value for k in kind]}, got {value!r}",
                          fields=[name]) from None


def parse_config_dict(data: dict, **overrides) -> ExperimentSpec:
    """Build and validate an :class:`ExperimentSpec`, arms in the mapping's order;
    ``overrides`` (top-level keys, as from the CLI's flags) are laid over its
    values and every arm's after its key checks, and checked like them."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted((data.keys() | overrides.keys()) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}", fields=unknown)
    if "master_seed" not in data:
        raise ConfigError("missing required field master_seed", fields=["master_seed"])
    data = {**data, **overrides}

    arm_entries = data.get("arms")
    if arm_entries is None:
        arm_entries = [{"design": d.value, "tendency": t.value}
                       for d, t in itertools.product(sorted(DesignKind), sorted(Tendency))]
    if not isinstance(arm_entries, list):
        raise ConfigError("arms must be a non-empty list", fields=["arms"])

    shared = {k: v for k, v in data.items() if k in _PARAMS}
    pinned = {k: v for k, v in overrides.items() if k in _PARAMS}  # outrank each arm's
    arms: list[Arm] = []
    for i, entry in enumerate(arm_entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"arm {i} must be an object", fields=["arms"])
        unknown = sorted(set(entry) - _ARM_KEYS)
        if unknown:
            raise ConfigError(f"arm {i}: unknown keys: {', '.join(unknown)}", fields=unknown)
        for required in ("design", "tendency"):
            if required not in entry:
                raise ConfigError(f"arm {i}: missing {required}", fields=[required])
        params = {**shared, **entry, **pinned}
        design = _choice(DesignKind, "design", entry["design"])
        tendency = _choice(Tendency, "tendency", entry["tendency"])
        config = SimConfig(
            master_seed=data["master_seed"], design=design, tendency=tendency,
            **{k: tuple(v) if isinstance(v, list) else v
               for k, v in params.items() if k in _PARAMS})
        arms.append(Arm(entry.get("label", f"{design.value}+{tendency.value}"), config))

    spec = ExperimentSpec(arms, **{k: data[k] for k in _SPEC_KEYS if k in data})
    spec.validate()
    return spec


def parse_config(path, **overrides) -> ExperimentSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config_dict(data, **overrides)


def serialize_spec(spec: ExperimentSpec) -> dict:
    """Canonical, fully resolved config mapping (round-trips through parsing)."""
    spec.validate()
    arms = []
    for arm in spec.arms:
        c = arm.config
        entry = {"label": arm.label, "design": c.design.value,
                 "tendency": c.tendency.value}
        for name in _PARAMS:
            value = getattr(c, name)
            entry[name] = list(value) if isinstance(value, tuple) else value
        arms.append(entry)
    return {"master_seed": spec.arms[0].config.master_seed,
            **{k: getattr(spec, k) for k in _SPEC_KEYS}, "arms": arms}


def _run_block(config: SimConfig, start: int, full: bool) -> list[ReplicateResult]:
    """Replicates ``start .. start + _BLOCK - 1`` of one arm, in index order."""
    return [run_replicate(config, i, full=full)
            for i in range(start, min(start + _BLOCK, config.replicates))]


_CELL = {int: "%d", float: "%.6g", str: "%s"}  # the cell rule: %-conversion by type


def _row_format(types) -> str:
    """One row's %-format: the cell rule's conversion for each column type."""
    return ",".join([_CELL[t] for t in types])


def _maybe(kind: type, value) -> str:
    """A str column's cell for a ``kind`` value that may be None (empty)."""
    return "" if value is None else _CELL[kind] % value


def _write_csv(path: Path, header: str, fmt: str, rows, comment: str | None = None) -> None:
    """One CSV file: an optional ``# comment`` line, the header line, then
    ``fmt % row`` for each row tuple (``fmt`` built by :func:`_row_format`)."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(header)
    lines += [fmt % row for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class ExperimentOutput:
    spec: ExperimentSpec
    results: dict[str, list[ReplicateResult]]
    summaries: list[ArmSummary]
    comparisons: list[tuple[str, str, ArmComparison, float]]
    out_dir: Path


def run_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentOutput:
    """Run every arm x replicate, aggregate, and write all output files.

    ``out_dir``, if given, replaces ``spec.out_dir``; the spec then passes
    :meth:`ExperimentSpec.validate` before anything is written or run. Results
    are identical regardless of worker count and arm order: each replicate's
    stream depends only on (master_seed, replicate index), every worker count
    runs the same blocks, and every output row order is fixed.
    """
    if out_dir is not None:
        spec = replace(spec, out_dir=str(out_dir))
    spec.validate()
    full = spec.trace == "full"
    arms = sorted(spec.arms, key=lambda arm: arm.label)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    starts = [(arm.config, start) for arm in arms
              for start in range(0, arm.config.replicates, _BLOCK)]
    cpu = os.cpu_count() or 1
    workers = min(spec.workers or cpu, cpu, len(starts))
    results: dict[str, list[ReplicateResult]] = {}
    with _block_map(workers) as block_map:
        # Blocks come back in submission order, so each arm's results arrive
        # in replicate order; at trace "full" an arm's traces are written and
        # dropped before the next arm's blocks are taken.
        blocks = block_map(_run_block, *zip(*starts), [full] * len(starts))
        for arm in arms:
            n_blocks = len(range(0, arm.config.replicates, _BLOCK))
            results[arm.label] = [r for block in itertools.islice(blocks, n_blocks)
                                  for r in block]
            if full:
                _write_traces(out / "traces" / arm.label, results[arm.label])

    summaries = [aggregate_arm(results[label], label) for label in results]
    comparisons = [(sa, sb, *_compare_pair(results[sa], results[sb]))
                   for sa, sb in itertools.combinations(results, 2)]

    output = ExperimentOutput(spec, results, summaries, comparisons, out)
    _write_tables(output)
    return output


@contextmanager
def _block_map(workers: int):
    """``map`` at one worker, a process pool's ``map`` otherwise."""
    if workers == 1:
        yield map
        return
    # Imported here so that a run on one worker never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield pool.map
    except BrokenProcessPool as e:
        raise InvariantViolation(f"a worker process died: {e}") from e


def _compare_pair(results_a, results_b) -> tuple[ArmComparison | None, float]:
    conv_a, conv_b = convergence_values(results_a), convergence_values(results_b)
    cens_a, cens_b = censored_values(results_a), censored_values(results_b)
    med_cb = float(np.median(cens_b))
    censored_ratio = float(np.median(cens_a)) / med_cb if med_cb else float("nan")
    if not conv_a or not conv_b:
        return None, censored_ratio
    return compare_arms(conv_a, conv_b), censored_ratio


def _write_tables(output: ExperimentOutput) -> None:
    """summary.csv, arms.csv, comparisons.csv, goals.csv (each replicate's goal
    bitstring) and, at trace group|full, curves/<arm>.csv, arms in label order."""
    out = output.out_dir
    replicates = [(label, r) for label, arm_results in output.results.items()
                  for r in arm_results]
    _write_csv(out / "summary.csv",
               "arm,replicate,seed,group_convergence,first_any_hit,success,final_best_fitness",
               _row_format((str, int, int, str, str, int, int)),
               ((label, r.replicate_index, r.seed, _maybe(int, r.group_convergence),
                 _maybe(int, r.first_any_hit), int(r.success), r.final_best_fitness)
                for label, r in replicates))
    _write_csv(out / "arms.csv",
               "arm,n,success_rate,median_group_convergence,mean_group_convergence,"
               "iqr_low,iqr_high,median_first_any_hit",
               _row_format((str, int, *[float] * 6)),
               ((s.label, s.n, s.success_rate, s.median_group_convergence,
                 s.mean_group_convergence, s.iqr_low, s.iqr_high, s.median_first_any_hit)
                for s in output.summaries))
    _write_csv(out / "comparisons.csv",
               "arm_a,arm_b,median_ratio,u_statistic,p_value,censored_median_ratio",
               _row_format((str, str, str, str, str, float)),
               ((arm_a, arm_b, *[_maybe(float, v) for v in ((None,) * 3 if c is None else
                                 (c.median_ratio, c.u_statistic, c.p_value))], censored_ratio)
                for arm_a, arm_b, c, censored_ratio in output.comparisons))
    _write_csv(out / "goals.csv", "arm,replicate,goal", _row_format((str, int, str)),
               ((label, r.replicate_index, to_bitstring(r.goal)) for label, r in replicates))
    if output.spec.trace != "none":
        (out / "curves").mkdir(exist_ok=True)
        for s in output.summaries:
            _write_csv(out / "curves" / f"{s.label}.csv",
                       "iteration,mean_best_fitness,mean_mean_fitness",
                       _row_format((int, float, float)),
                       zip(itertools.count(1), s.curve_best.tolist(), s.curve_mean.tolist()))


def _write_traces(trace_dir: Path, arm_results: list[ReplicateResult]) -> None:
    """One per-agent trace file per replicate, then drops its full trace; each
    file's row format holds the replicate's fixed ``W_*`` (inertia) cells."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    agents = arm_results[0].full_trace["fitness"].shape[1]
    header = ",".join(["iteration", "best_fitness", "mean_fitness"] + [
        f"{column}{i}" for column in ("fitness_of_agent_", "silo_of_agent_", "W_", "C1_", "C2_")
        for i in range(agents)])
    before_w = _row_format((int, int, float, *[int] * (2 * agents)))
    w_cells = _row_format([float] * agents)
    after_w = _row_format([float] * (2 * agents))
    for r in arm_results:
        ft = r.full_trace
        fmt = f"{before_w},{w_cells % tuple(ft['inertia'].tolist())},{after_w}"
        columns = zip(itertools.count(), r.trace_best.tolist(), r.trace_mean.tolist(),
                      np.hstack([ft["fitness"], ft["silo"]]),
                      np.hstack([ft["self_belief"], ft["prestige_bias"]]))
        _write_csv(trace_dir / f"replicate_{r.replicate_index}.csv", header, fmt,
                   ((t, best, mean, *ints.tolist(), *floats.tolist())
                    for t, best, mean, ints, floats in columns),
                   comment=f"goal={to_bitstring(r.goal)}")
        r.full_trace = None


"""Experiment grid: JSON config parsing, replication in blocks, CSV outputs.

A config is a single strict JSON document (unknown keys are rejected). Only
``master_seed`` is required; everything else defaults. Without an ``arms``
list the standard 3 designs x 2 tendencies grid is expanded.

Each arm runs as the same blocks of 25 replicates at every worker count,
through ``map`` at one worker and a process pool's ``map`` otherwise; an
arm's per-agent traces are written before the next arm's results are taken.

Outputs (one writer, ``_write_csv``: floats with 6 significant digits,
integers as integers, booleans as 0/1, missing values as empty cells; rows
fully sorted, so identical specs produce byte-identical files regardless of
worker count):

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

from .engine import TRACE_LEVELS, ReplicateResult, SimConfig, run_replicate
from .errors import ConfigError, InvariantViolation, is_int
from .policies import Tendency
from .stats import (ArmComparison, ArmSummary, aggregate_arm, censored_values,
                    compare_arms, convergence_values)
from .strategy import to_bitstring
from .topology import DesignKind, OrgDesign

# SimConfig fields a config sets globally or per arm; absent ones keep the
# SimConfig default.
_PARAMS = tuple(f.name for f in fields(SimConfig) if f.default is not MISSING)
# OrgDesign parameters; absent ones keep the OrgDesign.siloed/dynamic default.
_DESIGN_PARAMS = ("silo_count", "reshuffle_interval")
# Accepted for configs written when this was a field; it has one legal value.
_BINARIZATION = "sigmoid-stochastic"
_SHARED_KEYS = {*_PARAMS, *_DESIGN_PARAMS, "binarization"}
_TOP_LEVEL_KEYS = _SHARED_KEYS | {"master_seed", "out_dir", "trace", "workers", "arms"}
_ARM_KEYS = _SHARED_KEYS | {"design", "tendency", "label"}
_LABEL_FORBIDDEN = "/\\,\n\r\0"
_BLOCK = 25  # replicates per block


@dataclass
class Arm:
    label: str
    config: SimConfig


@dataclass
class ExperimentSpec:
    arms: list[Arm]
    out_dir: str = "results"
    trace: str = "group"
    workers: int | None = None


def _design_from(kind, params: dict) -> OrgDesign:
    try:
        kind = DesignKind(kind)
    except ValueError:
        raise ConfigError(
            f"design must be one of {[k.value for k in DesignKind]}, got {kind!r}",
            fields=["design"]) from None
    if kind is DesignKind.FULLY_NETWORKED:
        return OrgDesign.fully_networked()
    options = {k: params[k] for k in _DESIGN_PARAMS if k in params}
    if kind is DesignKind.SILOED:
        options.pop("reshuffle_interval", None)
        return OrgDesign.siloed(**options)
    return OrgDesign.dynamic(**options)


def _tendency_from(value) -> Tendency:
    try:
        return Tendency(value)
    except ValueError:
        raise ConfigError(
            f"tendency must be one of {[t.value for t in Tendency]}, got {value!r}",
            fields=["tendency"]) from None


def _check_label(label) -> str:
    """Labels become CSV cells and path components under the output directory."""
    if (not isinstance(label, str) or label in ("", ".", "..")
            or any(c in label for c in _LABEL_FORBIDDEN)):
        raise ConfigError(
            f"label must be a non-empty string other than '.' or '..' without "
            f"'/', '\\', ',', a line break or NUL, got {label!r}", fields=["label"])
    return label


def _check_trace(trace) -> str:
    if trace not in TRACE_LEVELS:
        raise ConfigError(f"trace must be one of {TRACE_LEVELS}, got {trace!r}",
                          fields=["trace"])
    return trace


def _check_workers(workers) -> int | None:
    if workers is not None and not (is_int(workers) and workers >= 1):
        raise ConfigError(f"workers must be a positive integer or null, got {workers!r}",
                          fields=["workers"])
    return workers


def parse_config_dict(data: dict) -> ExperimentSpec:
    """Build and validate an :class:`ExperimentSpec` from a config mapping."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}", fields=unknown)
    if "master_seed" not in data:
        raise ConfigError("missing required field master_seed", fields=["master_seed"])
    trace = _check_trace(data.get("trace", ExperimentSpec.trace))
    workers = _check_workers(data.get("workers", ExperimentSpec.workers))
    out_dir = data.get("out_dir", ExperimentSpec.out_dir)
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir must be a non-empty string, got {out_dir!r}",
                          fields=["out_dir"])

    arm_entries = data.get("arms")
    if arm_entries is None:
        arm_entries = [{"design": design.value, "tendency": tendency.value}
                       for design in (DesignKind.DYNAMIC, DesignKind.FULLY_NETWORKED,
                                      DesignKind.SILOED)
                       for tendency in (Tendency.PERCEPTIVE, Tendency.REACTIVE)]
    if not isinstance(arm_entries, list) or not arm_entries:
        raise ConfigError("arms must be a non-empty list", fields=["arms"])

    shared = {k: v for k, v in data.items() if k in _SHARED_KEYS}
    arms: list[Arm] = []
    for i, entry in enumerate(arm_entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"arm {i} must be an object", fields=["arms"])
        unknown = sorted(set(entry) - _ARM_KEYS)
        if unknown:
            raise ConfigError(f"arm {i}: unknown keys: {', '.join(unknown)}",
                              fields=unknown)
        for required in ("design", "tendency"):
            if required not in entry:
                raise ConfigError(f"arm {i}: missing {required}", fields=[required])
        params = {**shared, **entry}
        if params.get("binarization", _BINARIZATION) != _BINARIZATION:
            raise ConfigError(f"binarization must be {_BINARIZATION!r}, got "
                              f"{params['binarization']!r}", fields=["binarization"])
        design = _design_from(entry["design"], params)
        tendency = _tendency_from(entry["tendency"])
        label = _check_label(entry.get("label", f"{design.kind.value}+{tendency.value}"))
        config = SimConfig(
            master_seed=data["master_seed"], design=design, tendency=tendency,
            **{k: tuple(v) if isinstance(v, list) else v
               for k, v in params.items() if k in _PARAMS})
        config.validate()
        arms.append(Arm(label=label, config=config))

    labels = [arm.label for arm in arms]
    if len(set(labels)) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        raise ConfigError(f"duplicate arm labels: {', '.join(dupes)}", fields=["arms"])
    arms.sort(key=lambda arm: arm.label)
    return ExperimentSpec(arms=arms, out_dir=out_dir, trace=trace, workers=workers)


def parse_config(path) -> ExperimentSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config_dict(data)


def serialize_spec(spec: ExperimentSpec) -> dict:
    """Canonical, fully resolved config mapping (round-trips through parsing)."""
    arms = []
    for arm in spec.arms:
        c = arm.config
        entry = {"label": arm.label, "design": c.design.kind.value,
                 "tendency": c.tendency.value}
        for name in _PARAMS:
            value = getattr(c, name)
            entry[name] = list(value) if isinstance(value, tuple) else value
        if c.design.kind is not DesignKind.FULLY_NETWORKED:
            entry["silo_count"] = c.design.silo_count
        if c.design.kind is DesignKind.DYNAMIC:
            entry["reshuffle_interval"] = c.design.reshuffle_interval
        arms.append(entry)
    return {
        "master_seed": spec.arms[0].config.master_seed,
        "out_dir": spec.out_dir,
        "trace": spec.trace,
        "workers": spec.workers,
        "arms": arms,
    }


def _run_block(config: SimConfig, start: int, trace_level: str
               ) -> list[ReplicateResult]:
    """Replicates ``start .. start + _BLOCK - 1`` of one arm, in index order."""
    out = []
    for i in range(start, min(start + _BLOCK, config.replicates)):
        try:
            out.append(run_replicate(config, i, trace_level))
        except InvariantViolation as e:
            raise InvariantViolation(f"replicate {i}: {e}") from e
    return out


def _fmt(value) -> str:
    """CSV cell: a float to 6 significant digits, None as empty, else str()."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return "" if value is None else str(value)


def _write_csv(path: Path, header: list[str], rows, comment: str | None = None) -> None:
    """One CSV file: an optional ``# comment`` line, the header, then each
    row's cells through :func:`_fmt`."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    lines += [",".join(map(_fmt, row)) for row in rows]
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

    Every arm's config is validated once, before anything is written or run.
    Results are identical regardless of worker count: each replicate's stream
    depends only on (master_seed, replicate index), every worker count runs
    the same blocks, and every output row is sorted before writing.
    """
    trace_level = _check_trace(spec.trace)
    workers = _check_workers(spec.workers) or os.cpu_count() or 1
    for arm in spec.arms:
        arm.config.validate()
    out = Path(out_dir) if out_dir is not None else Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    starts = [(arm.config, start) for arm in spec.arms
              for start in range(0, arm.config.replicates, _BLOCK)]
    results: dict[str, list[ReplicateResult]] = {}
    with _block_map(workers) as block_map:
        # Blocks come back in submission order, so each arm's results arrive
        # in replicate order; at trace "full" an arm's traces are written and
        # dropped before the next arm's blocks are taken.
        blocks = block_map(_run_block, *zip(*starts), [trace_level] * len(starts))
        for arm in spec.arms:
            n_blocks = len(range(0, arm.config.replicates, _BLOCK))
            results[arm.label] = [r for block in itertools.islice(blocks, n_blocks)
                                  for r in block]
            if trace_level == "full":
                _write_traces(out / "traces" / arm.label, results[arm.label])

    summaries = [aggregate_arm(results[arm.label], arm.label,
                               curves=trace_level != "none")
                 for arm in spec.arms]
    comparisons = []
    for sa, sb in itertools.combinations(sorted(s.label for s in summaries), 2):
        comparisons.append((sa, sb, *_compare_pair(results[sa], results[sb])))

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
    """summary.csv, arms.csv, comparisons.csv, goals.csv (each replicate's
    goal bitstring) and, at trace group|full, curves/<arm>.csv."""
    out, spec = output.out_dir, output.spec
    replicates = [(arm.label, r) for arm in spec.arms for r in output.results[arm.label]]
    _write_csv(out / "summary.csv",
               ["arm", "replicate", "seed", "group_convergence", "first_any_hit",
                "success", "final_best_fitness"],
               ([label, r.replicate_index, r.seed, r.group_convergence, r.first_any_hit,
                 int(r.success), r.final_best_fitness] for label, r in replicates))
    _write_csv(out / "arms.csv",
               ["arm", "n", "success_rate", "median_group_convergence",
                "mean_group_convergence", "iqr_low", "iqr_high", "median_first_any_hit"],
               ([s.label, s.n, s.success_rate, s.median_group_convergence,
                 s.mean_group_convergence, s.iqr_low, s.iqr_high, s.median_first_any_hit]
                for s in sorted(output.summaries, key=lambda s: s.label)))
    _write_csv(out / "comparisons.csv",
               ["arm_a", "arm_b", "median_ratio", "u_statistic", "p_value",
                "censored_median_ratio"],
               ([arm_a, arm_b, None, None, None, censored_ratio] if cmp_result is None
                else [arm_a, arm_b, cmp_result.median_ratio, cmp_result.u_statistic,
                      cmp_result.p_value, censored_ratio]
                for arm_a, arm_b, cmp_result, censored_ratio in output.comparisons))
    _write_csv(out / "goals.csv", ["arm", "replicate", "goal"],
               ([label, r.replicate_index, to_bitstring(r.goal)] for label, r in replicates))
    if spec.trace != "none":
        (out / "curves").mkdir(exist_ok=True)
        for s in output.summaries:
            _write_csv(out / "curves" / f"{s.label}.csv",
                       ["iteration", "mean_best_fitness", "mean_mean_fitness"],
                       zip(itertools.count(1), s.curve_best.tolist(), s.curve_mean.tolist()))


def _write_traces(trace_dir: Path, arm_results: list[ReplicateResult]) -> None:
    """One per-agent trace file per replicate; drops each written full trace."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    for r in arm_results:
        ft = r.full_trace
        n_agents = ft["fitness"].shape[1]
        header = ["iteration", "best_fitness", "mean_fitness"]
        header += [f"{column}{i}" for column in ("fitness_of_agent_", "silo_of_agent_",
                                                 "W_", "C1_", "C2_")
                   for i in range(n_agents)]
        best = [r.initial_best, *r.trace_best.tolist()]
        mean = [r.initial_mean, *r.trace_mean.tolist()]
        inertia = ft["inertia"].tolist()
        _write_csv(trace_dir / f"replicate_{r.replicate_index}.csv", header,
                   ([t, best[t], mean[t], *ft["fitness"][t].tolist(),
                     *ft["silo"][t].tolist(), *inertia, *ft["self_belief"][t].tolist(),
                     *ft["prestige_bias"][t].tolist()] for t in range(len(best))),
                   comment=f"goal={to_bitstring(r.goal)}")
        r.full_trace = None


def with_overrides(spec: ExperimentSpec, master_seed: int | None = None,
                   replicates: int | None = None, workers: int | None = None,
                   trace: str | None = None, out_dir: str | None = None
                   ) -> ExperimentSpec:
    """CLI-style overrides applied to every arm (returns a new spec)."""
    arms = spec.arms
    if master_seed is not None or replicates is not None:
        changes = {}
        if master_seed is not None:
            changes["master_seed"] = master_seed
        if replicates is not None:
            changes["replicates"] = replicates
        arms = [Arm(arm.label, replace(arm.config, **changes)) for arm in spec.arms]
        for arm in arms:
            arm.config.validate()
    return ExperimentSpec(
        arms=arms,
        out_dir=out_dir if out_dir is not None else spec.out_dir,
        trace=_check_trace(trace) if trace is not None else spec.trace,
        workers=_check_workers(workers) if workers is not None else spec.workers,
    )

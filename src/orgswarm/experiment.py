"""Experiment grid: JSON config parsing, replication in blocks, CSV outputs.

A config is one strict UTF-8 JSON document (unknown or repeated keys are
rejected). Only ``master_seed`` is required; everything else defaults. With
no ``arms`` list the standard 3 designs x 2 tendencies grid is expanded. One
check, :meth:`ExperimentSpec.validate`, serves the parser and ``run_experiment``.

Each arm runs as the same blocks of 25 replicates at every worker count,
through ``map`` at one worker and a process pool's ``map`` otherwise. A block
writes each replicate's per-agent trace as it ends: no full trace crosses the pool.

Outputs go through one writer, ``_write_csv``, which alone makes their
subdirectories, and one cell rule, ``_CELL``: an int column prints with ``%d``,
a float column with ``%.6g`` (the text of ``f"{x:.6g}"``), a str column with
``%s``, a missing (None) cell empty. Each file's row format is built once from
its column types; ``_write_trace`` lays out each trace file from its
replicate's own arrays, fixed ``W_*`` cells included. Arms are written in label
order and all row orders are fixed, so a spec gives byte-identical files at
any worker count:

* ``summary.csv``   one row per replicate
* ``arms.csv``      one row per arm
* ``comparisons.csv`` one row per unordered arm pair, all computed by ``_compare_pair``
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

from .engine import (ReplicateResult, SimConfig, _param, derive_replicate_seed, invalid_fields,
                     run_replicate)
from .errors import ConfigError, InvariantViolation, is_int
from .policies import TENDENCIES
from . import stats  # the U test is looked up on the module, where a wrapper may replace it
from .stats import ArmSummary, aggregate_arm
from .strategy import to_bitstring
from .topology import DESIGNS

_BLOCK = 25  # replicates per block
TRACE_LEVELS = ("none", "group", "full")  # "group" writes curves/, "full" also traces/
_LABEL_BYTES = 251  # NAME_MAX (255) less ".csv": a label names curves/<label>.csv


def _encodes(encode, value: str) -> bool:
    """Whether ``encode(value)`` succeeds, so the string can be written out."""
    try:
        encode(value)
    except UnicodeEncodeError:
        return False
    return True


@dataclass
class Arm:
    """One design x tendency arm; its label names CSV cells and output paths."""

    label: str = _param(f"non-empty UTF-8 string of at most {_LABEL_BYTES} bytes other than "
                        "'.' or '..' without '/', '\\', ',', '\"', a line break or NUL",
                        lambda v: isinstance(v, str) and v not in ("", ".", "..")
                        and not any(c in v for c in '/\\,"\n\r\0')
                        and _encodes(str.encode, v) and len(v.encode()) <= _LABEL_BYTES)
    config: SimConfig


@dataclass
class ExperimentSpec:
    """The arms of an experiment and where and how to write them; both
    :func:`parse_config_dict` and :func:`run_experiment` :meth:`validate` it."""

    arms: list[Arm]
    out_dir: str = _param("non-empty file-system-encodable string without NUL",
                          lambda v: isinstance(v, str) and v != "" and "\0" not in v
                          and _encodes(os.fsencode, v), "results")
    trace: str = _param(f"one of {TRACE_LEVELS}", lambda v: v in TRACE_LEVELS, "group")
    workers: int | None = _param("integer >= 1 or null",
                                 lambda v: v is None or (is_int(v) and v >= 1), None)

    def validate(self) -> None:
        """Raise :class:`ConfigError` for the first of: bad top-level fields; the
        first arm with a bad config, then label (a default label is built from the
        config); no arms, duplicate labels or mixed seeds."""
        bad = invalid_fields(self)
        if bad:
            raise ConfigError("invalid config: " + "; ".join(bad.values()), fields=list(bad))
        for i, arm in enumerate(self.arms):
            arm.config.validate()
            bad = invalid_fields(arm)
            if bad:
                raise ConfigError(f"arm {i}: " + "; ".join(bad.values()), fields=list(bad))
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
        arm_entries = [{"design": d, "tendency": t}
                       for d, t in itertools.product(DESIGNS, TENDENCIES)]
    if not isinstance(arm_entries, list):
        raise ConfigError("arms must be a non-empty list", fields=["arms"])

    shared = {k: v for k, v in data.items() if k in _PARAMS}
    pinned = {k: v for k, v in overrides.items() if k in _PARAMS}  # outrank each arm's
    arms: list[Arm] = []
    for i, entry in enumerate(arm_entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"arms: arm {i} must be an object", fields=["arms"])
        unknown = sorted(set(entry) - _ARM_KEYS)
        if unknown:
            raise ConfigError(f"arm {i}: unknown keys: {', '.join(unknown)}", fields=unknown)
        for required in ("design", "tendency"):
            if required not in entry:
                raise ConfigError(f"arm {i}: missing {required}", fields=[required])
        params = {**shared, **entry, **pinned}
        config = SimConfig(
            master_seed=data["master_seed"], design=entry["design"], tendency=entry["tendency"],
            **{k: tuple(v) if isinstance(v, list) else v
               for k, v in params.items() if k in _PARAMS})
        arms.append(Arm(entry.get("label", f"{config.design}+{config.tendency}"), config))

    spec = ExperimentSpec(arms, **{k: data[k] for k in _SPEC_KEYS if k in data})
    spec.validate()
    return spec


def _unique_keys(pairs: list) -> dict:
    """A JSON object's mapping; a key given twice is a config error."""
    keys = [key for key, _ in pairs]
    twice = sorted({key for key in keys if keys.count(key) > 1})
    if twice:
        raise ConfigError(f"duplicate config keys: {', '.join(twice)}", fields=twice)
    return dict(pairs)


def parse_config(path, **overrides) -> ExperimentSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except ConfigError:  # a duplicate key, with its fields
            raise
        except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or a too-long int
            raise ConfigError(f"config is not valid UTF-8 JSON: {e}") from None
    return parse_config_dict(data, **overrides)


def serialize_spec(spec: ExperimentSpec) -> dict:
    """Canonical, fully resolved config mapping (round-trips through parsing)."""
    spec.validate()
    arms = []
    for arm in spec.arms:
        c = arm.config
        entry = {"label": arm.label, "design": c.design, "tendency": c.tendency}
        for name in _PARAMS:
            value = getattr(c, name)
            entry[name] = list(value) if isinstance(value, tuple) else value
        arms.append(entry)
    return {"master_seed": spec.arms[0].config.master_seed,
            **{k: getattr(spec, k) for k in _SPEC_KEYS}, "arms": arms}


def _run_block(config: SimConfig, start: int, trace_dir: Path | None) -> list[ReplicateResult]:
    """Replicates ``start .. start + _BLOCK - 1`` of one arm, in index order. With
    ``trace_dir`` each one's per-agent trace file is written there as it ends and
    its full trace dropped, so no full trace outlives its replicate or leaves the block."""
    results = []
    for i in range(start, min(start + _BLOCK, config.replicates)):
        r = run_replicate(config, i, full=trace_dir is not None)
        if trace_dir is not None:
            _write_trace(trace_dir / f"replicate_{i}.csv", r)
            r.full_trace = None  # in place: a wrapper of run_replicate may have tagged r
        results.append(r)
    return results


_CELL = {int: "%d", float: "%.6g", str: "%s"}  # the cell rule: %-conversion by type


def _row_format(types) -> str:
    """One row's %-format: the cell rule's conversion for each column type."""
    return ",".join([_CELL[t] for t in types])


def _maybe(kind: type, value) -> str:
    """A str column's cell for a ``kind`` value that may be None (empty)."""
    return "" if value is None else _CELL[kind] % value


def _write_csv(path: Path, header: str, fmt: str, rows) -> None:
    """One CSV file, its directory made if missing (pool workers may race): the header
    (one line or more), then ``fmt % row`` for each row tuple (see :func:`_row_format`)."""
    lines = [header]
    lines += [fmt % row for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class ExperimentOutput:
    spec: ExperimentSpec
    results: dict[str, list[ReplicateResult]]
    summaries: list[ArmSummary]
    # one tuple per comparisons.csv row: (arm_a, arm_b, median_ratio, u_statistic,
    # p_value, censored_median_ratio), None for an empty cell
    comparisons: list[tuple]
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
    arms = sorted(spec.arms, key=lambda arm: arm.label)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # before any replicate runs: a bad out_dir fails first

    blocks = [(arm.label, arm.config, start,
               out / "traces" / arm.label if spec.trace == "full" else None)
              for arm in arms for start in range(0, arm.config.replicates, _BLOCK)]
    labels, *columns = zip(*blocks)
    cpu = os.cpu_count() or 1
    workers = min(spec.workers or cpu, cpu, len(blocks))
    results: dict[str, list[ReplicateResult]] = {arm.label: [] for arm in arms}
    with _block_map(workers) as block_map:  # blocks come back in submission order
        for label, block in zip(labels, block_map(_run_block, *columns)):
            results[label] += block

    summaries = [aggregate_arm(results[arm.label], arm.label, arm.config.max_iterations)
                 for arm in arms]
    comparisons = [(a.label, b.label, *_compare_pair(a, b))
                   for a, b in itertools.combinations(summaries, 2)]

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


def _compare_pair(a: ArmSummary, b: ArmSummary) -> tuple:
    """Arms a and b's ``comparisons.csv`` cells after their labels: the median ratio,
    U and p of their converged samples (None unless both have one), and the median
    ratio of their censored samples, a never-converged replicate counting at the budget."""
    censored_ratio = stats.median_ratio(*[s.converged + [s.max_iterations] * (s.n - s.successes)
                                          for s in (a, b)])  # sorted: converged <= budget
    if not (a.converged and b.converged):
        return None, None, None, censored_ratio
    test = stats.mann_whitney_u(a.converged, b.converged)
    return (stats.median_ratio(a.converged, b.converged), test.u_statistic, test.p_value,
            censored_ratio)


def _write_tables(output: ExperimentOutput) -> None:
    """summary.csv, arms.csv, comparisons.csv, goals.csv (each replicate's goal
    bitstring) and, at trace group|full, curves/<arm>.csv, arms in label order."""
    out, master_seed = output.out_dir, output.spec.arms[0].config.master_seed  # the arms' one seed
    replicates = [(label, r) for label, arm_results in output.results.items()
                  for r in arm_results]
    _write_csv(out / "summary.csv",
               "arm,replicate,seed,group_convergence,first_any_hit,success,final_best_fitness",
               _row_format((str, int, int, str, str, int, int)),
               ((label, r.replicate_index, derive_replicate_seed(master_seed, r.replicate_index),
                 _maybe(int, r.group_convergence), _maybe(int, r.first_any_hit),
                 int(r.group_convergence is not None), r.final_best_fitness)
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
               ((arm_a, arm_b, _maybe(float, ratio), _maybe(float, u), _maybe(float, p), censored)
                for arm_a, arm_b, ratio, u, p, censored in output.comparisons))
    _write_csv(out / "goals.csv", "arm,replicate,goal", _row_format((str, int, str)),
               ((label, r.replicate_index, to_bitstring(r.goal)) for label, r in replicates))
    if output.spec.trace != "none":
        for s in output.summaries:
            _write_csv(out / "curves" / f"{s.label}.csv",
                       "iteration,mean_best_fitness,mean_mean_fitness",
                       _row_format((int, float, float)),
                       zip(itertools.count(1), s.curve_best.tolist(), s.curve_mean.tolist()))


def _write_trace(path: Path, r: ReplicateResult) -> None:
    """One replicate's per-agent trace file, laid out from its own arrays (N agents):
    a ``# goal=`` line and the header of 3 + 5N names, then one row per t, whose
    row format holds the replicate's fixed ``W_*`` (inertia) cells."""
    ft = r.full_trace
    n = ft["inertia"].size
    header = ",".join(["iteration", "best_fitness", "mean_fitness"] + [
        f"{column}{i}" for column in ("fitness_of_agent_", "silo_of_agent_", "W_", "C1_", "C2_")
        for i in range(n)])
    fmt = ",".join([_row_format((int, int, float, *[int] * (2 * n))),
                    *[_CELL[float] % w for w in ft["inertia"].tolist()],
                    _row_format([float] * (2 * n))])
    columns = zip(itertools.count(), r.trace_best.tolist(), r.trace_mean.tolist(),
                  np.hstack([ft["fitness"], ft["silo"]]).tolist(),
                  ft["coefficients"].reshape(len(ft["fitness"]), -1).tolist())
    _write_csv(path, f"# goal={to_bitstring(r.goal)}\n{header}", fmt,
               ((t, best, mean, *ints, *floats) for t, best, mean, ints, floats in columns))

"""Output check for one ``orgswarm run``: a digest plus structural checks.

The digest covers ``summary.csv``, ``goals.csv``, ``curves/`` and ``traces/``
byte for byte. ``arms.csv`` and ``comparisons.csv`` enter it through their
current columns only, looked up by header name, so that columns added later
do not change it. Files outside this list, such as a run manifest, are not
part of the digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics
from itertools import combinations
from pathlib import Path

from workloads import ARMS, RESHUFFLE_INTERVAL

EXACT_FILES = ("summary.csv", "goals.csv")
EXACT_DIRS = ("curves", "traces")
PROJECTED = {
    "arms.csv": ("arm", "n", "success_rate", "median_group_convergence",
                 "mean_group_convergence", "iqr_low", "iqr_high",
                 "median_first_any_hit"),
    "comparisons.csv": ("arm_a", "arm_b", "median_ratio", "u_statistic",
                        "p_value", "censored_median_ratio"),
}
SUMMARY_HEADER = ("arm,replicate,seed,group_convergence,first_any_hit,success,"
                  "final_best_fitness")


class OutputError(Exception):
    """The outputs of a run are missing, malformed or inconsistent."""


def _rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except FileNotFoundError:
        raise OutputError(f"missing {path.name}") from None


def digest(out: Path) -> str:
    """SHA-256 over the checked outputs of one run."""
    h = hashlib.sha256()
    files = [out / name for name in EXACT_FILES]
    for d in EXACT_DIRS:
        files += sorted(p for p in (out / d).rglob("*") if p.is_file())
    for path in files:
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise OutputError(f"missing {path.relative_to(out)}") from None
        h.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    for name, columns in PROJECTED.items():
        rows = _rows(out / name)
        if rows and not set(columns) <= set(rows[0]):
            raise OutputError(f"{name} lacks columns {set(columns) - set(rows[0])}")
        table = "\n".join(",".join(row[c] for c in columns) for row in rows)
        h.update(f"{name}\0{table}\0".encode())
    return h.hexdigest()


def size(out: Path) -> tuple[int, int]:
    """(bytes, files) of everything the run wrote."""
    files = [p for p in out.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def _iterations_run(row: dict, max_iterations: int) -> int:
    gc = row["group_convergence"]
    return int(gc) if gc else max_iterations


def check(out: Path, shape: dict) -> dict:
    """Check a run's outputs against its config's shape and against each other.

    Returns counts derived from the files (replicate-iterations and the
    reshuffles the dynamic arms must have made); raises OutputError.
    """
    reps, max_it = shape["replicates"], shape["max_iterations"]
    if (out / "summary.csv").read_text(encoding="utf-8").split("\n", 1)[0] != SUMMARY_HEADER:
        raise OutputError("summary.csv header changed")
    summary = _rows(out / "summary.csv")
    expected_keys = [(arm, str(i)) for arm in ARMS for i in range(reps)]
    if [(r["arm"], r["replicate"]) for r in summary] != expected_keys:
        raise OutputError("summary.csv rows are not arms x replicates in order")
    goals = _rows(out / "goals.csv")
    if [(g["arm"], g["replicate"]) for g in goals] != expected_keys:
        raise OutputError("goals.csv rows are not arms x replicates in order")
    if any(len(g["goal"]) != shape["dim"] or set(g["goal"]) - set("01") for g in goals):
        raise OutputError("goals.csv holds a goal that is not a dim-bit string")

    conv = {arm: [] for arm in ARMS}
    first_hits = {arm: [] for arm in ARMS}
    for r in summary:
        if r["first_any_hit"]:
            first_hits[r["arm"]].append(int(r["first_any_hit"]))
        gc, success = r["group_convergence"], r["success"]
        if success not in ("0", "1") or (success == "1") != bool(gc):
            raise OutputError(f"summary.csv row {r['arm']}/{r['replicate']}: "
                              "success disagrees with group_convergence")
        if gc:
            if not 0 <= int(gc) <= max_it:
                raise OutputError(f"group_convergence {gc} outside [0, {max_it}]")
            conv[r["arm"]].append(int(gc))
    if shape["fixed_work"] and any(conv.values()):
        raise OutputError("a replicate converged on a workload meant to use "
                          "its whole budget")

    arms = _rows(out / "arms.csv")
    if [a["arm"] for a in arms] != list(ARMS):
        raise OutputError("arms.csv does not list the six arms")
    for a in arms:
        if tuple(a[c] for c in PROJECTED["arms.csv"][1:]) != _arm_row(
                conv[a["arm"]], first_hits[a["arm"]], reps):
            raise OutputError(f"arms.csv row {a['arm']} disagrees with summary.csv")
    pairs = [(c["arm_a"], c["arm_b"]) for c in _rows(out / "comparisons.csv")]
    if pairs != list(combinations(ARMS, 2)):
        raise OutputError("comparisons.csv does not list every arm pair once")

    if shape["trace"] != "none":
        for arm in ARMS:
            with open(out / "curves" / f"{arm}.csv", encoding="utf-8") as fh:
                if sum(1 for _ in fh) != max_it + 1:
                    raise OutputError(f"curves/{arm}.csv is not one row per iteration")
    if shape["trace"] == "full":
        _check_traces(out, summary, goals, max_it)

    iterations = [_iterations_run(r, max_it) for r in summary]
    return {
        "rep_iters": sum(iterations),
        "reshuffles": sum(it // RESHUFFLE_INTERVAL
                          for r, it in zip(summary, iterations)
                          if r["arm"].startswith("dynamic+")),
    }


def _arm_row(conv: list[int], first_hits: list[int], reps: int) -> tuple:
    """arms.csv cells after ``arm``, recomputed independently from summary.csv."""
    def fmt(v):
        return f"{v:.6g}"
    if conv:
        # Linear interpolation between order statistics, as numpy's percentile.
        q1, _, q3 = (statistics.quantiles(conv, n=4, method="inclusive")
                     if len(conv) > 1 else conv * 3)
        central = (fmt(statistics.median(conv)), fmt(statistics.fmean(conv)),
                   fmt(q1), fmt(q3))
    else:
        central = ("nan",) * 4
    hit = fmt(statistics.median(first_hits)) if first_hits else "nan"
    return (str(reps), fmt(len(conv) / reps)) + central + (hit,)


def _check_traces(out: Path, summary: list[dict], goals: list[dict],
                  max_it: int) -> None:
    """Each per-agent trace must agree with summary.csv and goals.csv."""
    for row, goal in zip(summary, goals):
        path = out / "traces" / row["arm"] / f"replicate_{row['replicate']}.csv"
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise OutputError(f"missing {path.relative_to(out)}") from None
        first, body = text.split("\n", 1)
        if first != f"# goal={goal['goal']}":
            raise OutputError(f"{path.name}: goal line disagrees with goals.csv")
        trace = list(csv.DictReader(io.StringIO(body)))
        if len(trace) != _iterations_run(row, max_it) + 1:
            raise OutputError(f"{path.relative_to(out)}: not one row per iteration")
        agents = [k for k in trace[0] if k.startswith("fitness_of_agent_")]
        hit_at = {}
        for t in trace:
            fits = [int(t[k]) for k in agents]
            if int(t["best_fitness"]) != min(fits) or not math.isclose(
                    float(t["mean_fitness"]), sum(fits) / len(fits), rel_tol=1e-5):
                raise OutputError(f"{path.relative_to(out)}: best/mean fitness "
                                  "disagree with the per-agent columns")
            for k, f in zip(agents, fits):
                if f == 0:
                    hit_at.setdefault(k, int(t["iteration"]))
        group = str(max(hit_at.values())) if len(hit_at) == len(agents) else ""
        if group != row["group_convergence"]:
            raise OutputError(f"{path.relative_to(out)}: per-agent first hits "
                              "disagree with group_convergence")
        if min(int(t["best_fitness"]) for t in trace) != int(row["final_best_fitness"]):
            raise OutputError(f"{path.relative_to(out)}: best fitness disagrees "
                              "with final_best_fitness")

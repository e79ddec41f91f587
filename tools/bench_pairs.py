"""Alternating parent/change pairs of the benchmark, recorded as JSON.

    python3 tools/bench_pairs.py --parent REV --workload NAME|all --seeds 701-710
        [--trace 0|1] [--out BENCH_N.json --key NAME]
    python3 tools/bench_pairs.py --parent REV --workload NAME --seeds 1 --profile
    python3 tools/bench_pairs.py --parent REV --tier1 PAIRS [--out BENCH_N.json --key NAME]

The parent side is the committed files of ``REV``, extracted with
``git archive`` into a temporary ``.bench_parent_*`` directory inside this
checkout, so that both sides' ``.perfbench_work`` outputs are written to the
same filesystem; the change side is this checkout's working tree. Nothing is
fetched. For each seed, both sides run
``python3 perfbench/run.py --workload NAME --seed SEED`` from their own root,
at the benchmark's own run length, the parent first on odd-numbered pairs and
the change first on even ones, and the last line of each run's stdout (one
JSON object) is kept.

The record lists every pair (``seed``, ``first``, ``parent_failed``,
``change_failed`` and ``parent_<metric>``/``change_<metric>`` for every
metric) and, per metric, each side's median and quartiles, the parent's
interquartile range, ``change_wins_<metric>`` (pairs where the change is
better in the direction ``BENCHMARK.json`` gives; ties count for neither)
and ``median_change_<metric>`` (change median / parent median - 1).

``--profile`` runs ``run_experiment`` once per side under cProfile, on the
first seed's config, and records each orgswarm function's call count, the
calls of ``numpy.array`` and of ``ndarray.copy`` per orgswarm caller, the
minor page faults and system CPU seconds spent during the run
(``resource.getrusage`` of the process and of the workers it waited for),
the growth of the process's own ``ru_maxrss`` in MB across the run, and the
sorted names of the modules first imported during it.

``--tier1 PAIRS`` times the Tier-1 verify command (:data:`TIER1`, with
``PYTHONPATH`` led by that side's ``src``) from each side's root instead,
alternating which side runs first, and records per pair each side's
``tier1_wall_s`` (the whole command, lower is better), the ``tier1_passed``
and ``tier1_failed`` counts and the summary line of pytest, summarized as
above.

``--out FILE --key NAME`` stores the record as ``FILE[NAME]``, with the
host's description under ``FILE["host"]`` (CPU count and model, Python and
numpy versions, numpy's active SIMD dispatch targets); otherwise it goes to
stdout.
Progress goes to stderr. The tool may be run from any directory: each
side's benchmark runs from that side's root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tier-1 verify, after ROADMAP.md; run with PYTHONPATH led by the side's src
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# metrics this tool measures itself, which BENCHMARK.json does not list
OWN_DIRECTIONS = {"tier1_wall_s": "lower"}

PROFILE = r"""
import cProfile, json, pstats, resource, sys, tempfile
from pathlib import Path
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import workloads
from orgswarm.experiment import parse_config_dict, run_experiment
spec = parse_config_dict(workloads.config(workload, seed))
profiler = cProfile.Profile()
def usage():  # (minor page faults, system CPU s) of this process and its waited-for workers
    both = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_minflt for u in both), sum(u.ru_stime for u in both)
maxrss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
faults, system_s = usage()
rss, loaded = maxrss(), set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    profiler.runcall(run_experiment, spec, out)
faults_after, system_s_after = usage()
rss_after, imported = maxrss(), sorted(set(sys.modules) - loaded)
ours = lambda path: "/orgswarm/" in path.replace("\\", "/")
# numpy builtins whose calls are counted per orgswarm caller
watched = {"<built-in method numpy.array>": "np_array_callers",
           "<method 'copy' of 'numpy.ndarray' objects>": "ndarray_copy_callers"}
# module.function -> calls, summed over same-named ones
counts = {"calls": {}, **{key: {} for key in watched.values()}}
for (path, _, name), (_, ncalls, _, _, callers) in pstats.Stats(profiler).stats.items():
    if ours(path):
        key = f"{Path(path).stem}.{name}"
        counts["calls"][key] = counts["calls"].get(key, 0) + ncalls
    elif name in watched:
        by_caller = counts[watched[name]]
        for (p, _, n), c in callers.items():
            if ours(p):
                key = f"{Path(p).stem}.{n}"
                by_caller[key] = by_caller.get(key, 0) + c[1]
counts["rusage"] = {"minor_faults": faults_after - faults,
                    "system_s": round(system_s_after - system_s, 6),
                    "maxrss_growth_mb": round((rss_after - rss) / 1024, 3)}
print(json.dumps({**{k: dict(sorted(v.items())) for k, v in counts.items()},
                  "imported": imported}))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed")


def seeds_from(text: str) -> list[int]:
    """``701-710`` or ``1,5,9`` or a mix."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def directions() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {**{m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]},
            **OWN_DIRECTIONS}


def run_side(root: Path, command: list[str]) -> dict:
    """One benchmark run from ``root``; its stdout is copied to stderr."""
    proc = subprocess.run([sys.executable, *command], cwd=root, check=True,
                          stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sig(value: float) -> float:
    """6 significant digits; counts stay integers."""
    return value if isinstance(value, int) else float(f"{value:.6g}")


def quartiles(values: list[float]) -> list[float] | None:
    """First and third quartile (``statistics.quantiles``' default method)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(pairs: list[dict], metrics: list[str]) -> dict:
    better = directions()
    out = {}
    for m in metrics:
        parent = [p[f"parent_{m}"] for p in pairs]
        change = [p[f"change_{m}"] for p in pairs]
        # "trace_full.wall_s" (--workload all) is BENCHMARK.json's "wall_s"
        sign = next(({"lower": -1, "higher": 1}[d] for name, d in better.items()
                     if m == name or m.endswith("." + name)), None)
        med_p, med_c = statistics.median(parent), statistics.median(change)
        q_p, q_c = quartiles(parent), quartiles(change)
        out[f"parent_median_{m}"] = sig(med_p)
        out[f"change_median_{m}"] = sig(med_c)
        out[f"parent_quartiles_{m}"] = q_p and [sig(q) for q in q_p]
        out[f"change_quartiles_{m}"] = q_c and [sig(q) for q in q_c]
        out[f"parent_iqr_{m}"] = q_p and sig(q_p[1] - q_p[0])
        if sign is not None:
            out[f"change_wins_{m}"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        out[f"median_change_{m}"] = sig(med_c / med_p - 1) if med_p else None
    return out


def pairs_record(args, parent_root: Path, parent: str) -> dict:
    command = ["perfbench/run.py", "--workload", args.workload, "--seed", "SEED",
               "--trace", str(args.trace)]
    pairs, metrics = [], None
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        results = {}
        for side in order:
            root = parent_root if side == "parent" else ROOT
            print(f"# pair {i + 1}/{len(args.seeds)} seed {seed}: {side}", file=sys.stderr)
            results[side] = run_side(root, [c if c != "SEED" else str(seed)
                                            for c in command])
        metrics = metrics or list(results["parent"]["metrics"])
        for side in ("parent", "change"):
            pair[f"{side}_failed"] = results[side]["failed"]
            pair[f"{side}_correct"] = results[side]["correct"]
        for m in metrics:
            for side in ("parent", "change"):
                pair[f"{side}_{m}"] = sig(results[side]["metrics"][m]["value"])
        pairs.append(pair)
    return {"command": "python3 " + " ".join(command)
                       + ", parent and change alternating which runs first",
            "parent": parent, "change": "working tree", "pairs": pairs,
            **summarize(pairs, metrics)}


def pytest_counts(summary: str) -> dict[str, int]:
    """Passed and failed counts from pytest's last line, such as
    ``1 failed, 269 passed, 2 warnings in 27.61s``; absent counts are 0."""
    if not re.search(r" in [\d.]+s", summary):
        raise ValueError(f"not a pytest summary line: {summary!r}")
    found = dict((kind, int(n)) for n, kind in re.findall(r"(\d+) (passed|failed)\b", summary))
    return {kind: found.get(kind, 0) for kind in ("passed", "failed")}


def run_tier1(root: Path) -> tuple[float, str]:
    """Wall seconds and pytest's summary line of one Tier-1 run from ``root``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write("".join(line + "\n" for line in lines[-3:]))
    return wall, lines[-1] if lines else ""


def tier1_record(args, parent_root: Path, parent: str) -> dict:
    pairs = []
    for i in range(args.tier1):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i + 1, "first": order[0]}
        for side in order:
            print(f"# tier-1 pair {i + 1}/{args.tier1}: {side}", file=sys.stderr)
            wall, summary = run_tier1(parent_root if side == "parent" else ROOT)
            counts = pytest_counts(summary)
            pair.update({f"{side}_tier1_wall_s": sig(wall),
                         f"{side}_tier1_passed": counts["passed"],
                         f"{side}_tier1_failed": counts["failed"],
                         f"{side}_summary": summary})
        pairs.append(pair)
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1)
                       + " from each side's root, parent and change alternating which "
                         "runs first",
            "parent": parent, "change": "working tree", "pairs": pairs,
            **summarize(pairs, ["tier1_wall_s", "tier1_passed", "tier1_failed"])}


def profile_record(args, parent_root: Path, parent: str) -> dict:
    seed = args.seeds[0]
    record = {"command": f"cProfile of run_experiment on the {args.workload} config, "
                         f"seed {seed}", "parent": parent, "change": "working tree"}
    for side, root in (("parent", parent_root), ("change", ROOT)):
        print(f"# profile {side}", file=sys.stderr)
        proc = subprocess.run([sys.executable, "-c", PROFILE, str(root), args.workload,
                               str(seed)], check=True, capture_output=True, text=True)
        record[f"{side}_counts"] = json.loads(proc.stdout)
    return record


# numpy's version and the dispatch targets it uses above its baseline, whose
# level sigmoid's np.exp bits follow (as tests/test_golden.py reads them)
NUMPY = """
import json, numpy
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps({"numpy": numpy.__version__,
                  "simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}))
"""


def cpu_model() -> str:
    """The first ``model name`` of /proc/cpuinfo, else ``platform.processor()``."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def host() -> dict:
    proc = subprocess.run([sys.executable, "-c", NUMPY], capture_output=True, text=True)
    numpy = json.loads(proc.stdout) if proc.returncode == 0 else {"numpy": None, "simd": None}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu": cpu_model(), **numpy}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=seeds_from)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--tier1", type=int, metavar="PAIRS",
                        help="time Tier-1 verify in PAIRS alternating pairs instead")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--key")
    args = parser.parse_args()
    if (args.out is None) != (args.key is None):
        parser.error("--out and --key go together")
    if args.tier1 is None and (args.workload is None or args.seeds is None):
        parser.error("--workload and --seeds are required without --tier1")
    if args.tier1 is not None and args.tier1 < 1:
        parser.error("--tier1 needs at least 1 pair")
    parent = git("rev-parse", "--short", args.parent)
    with tempfile.TemporaryDirectory(prefix=".bench_parent_", dir=ROOT) as tmp:
        parent_root = Path(tmp)
        extract(parent, parent_root)
        record = (tier1_record if args.tier1 is not None else profile_record if args.profile
                  else pairs_record)(args, parent_root, parent)
    if args.out is None:
        print(json.dumps(record, indent=1))
        return 0
    bench = (json.loads(args.out.read_text(encoding="utf-8"))
             if args.out.exists() else {})
    bench["host"] = host()
    bench[args.key] = record
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

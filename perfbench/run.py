"""orgswarm benchmark: times ``orgswarm run`` end to end, checks its outputs.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each measured operation is one
``orgswarm run`` command in a fresh interpreter (perfbench/child.py), driven
through ``orgswarm.cli.main`` with a config generated from the seed
(perfbench/workloads.py). Operations repeat, one after another, for about
``--seconds``; timings are medians over them. Before and after every
operation a fixed unit of work (perfbench/calibration.py) measures how fast
the machine runs, and the operation's times are scaled to the reference
speed, so that spells of a faster or slower host do not read as changes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics taken from
the traced ones (perfbench/tracing.py), and ``trace.overhead_frac``.
Every operation's outputs are digested and checked (perfbench/outputs.py);
an operation fails if it raises, if cli.main returns non-zero, or if its
outputs are wrong or differ from the run's first operation. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
import outputs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
DEADLINE_S = 165.0   # a run must end within 180 s
MIN_OPS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "rep_iters_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "engine.step.calls": "count", "engine.step.self_us_per_call": "us",
    "engine.init_swarm.self_s": "s", "engine.run_replicate.ms_p50": "ms",
    "engine.run_replicate.ms_p99": "ms",
    "kinematics.update_velocity.self_s": "s", "kinematics.clamp_velocity.self_s": "s",
    "kinematics.sigmoid.self_s": "s", "kinematics.bytes_per_step": "B",
    "kinematics.flops_per_step": "flop",
    "strategy.fitness_many.self_s": "s",
    "topology.reshuffle.calls": "count", "topology.reshuffle.self_s": "s",
    "topology.build_assignment.self_s": "s",
    "policies.reactive_shift.self_s": "s", "policies.perceptive_shift.self_s": "s",
    "stats.aggregate_arm.self_s": "s", "experiment.compare_pair.s": "s",
    "stats.mann_whitney_u.calls": "count",
    "experiment.parse_config.s": "s", "experiment.run_experiment.self_s": "s",
    "experiment.output_bytes": "B", "experiment.output_files": "count",
    "experiment.worker_busy_s": "s", "experiment.parallel_efficiency": "ratio",
    "experiment.worker_imbalance": "ratio", "trace.overhead_frac": "ratio",
}
TIME_UNITS = ("s", "ms", "us")
# Counts that must repeat exactly on every traced operation of a run.
EXACT_COUNTS = ("engine.step.calls", "topology.reshuffle.calls",
                "stats.mann_whitney_u.calls")


class OpFailed(Exception):
    pass


def kernel_counts(shape: dict, stochastic: bool) -> dict:
    """Computed bytes and flops per step for update_velocity, clamp and sigmoid.

    Minimal traffic: each operand read once and each result written once;
    velocities are float64, positions int8. Temporaries and cache misses are
    not counted.
    """
    n, d = shape["agents"], shape["dim"]
    e = n * d
    coeff_bytes = 16 * e + 8 * n if stochastic else 24 * n
    update = 8 * e + 3 * e + 8 * e + coeff_bytes   # v, p/pbest/gbest in, v' out
    clamp = sigmoid = 16 * e
    return {"kinematics.bytes_per_step": update + clamp + sigmoid,
            # update: 3 mul, 2 sub, 2 add; clamp: 2 compares; sigmoid: neg, exp, add, div
            "kinematics.flops_per_step": (7 + 2 + 4) * e}


def run_op(cli_args: list[str], out: Path, traced: bool, deadline: float) -> dict:
    """One ``orgswarm run`` in a child interpreter; raises OpFailed."""
    shutil.rmtree(out, ignore_errors=True)
    result_path = out.with_suffix(".json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
    cmd += ["--trace"] if traced else []
    cmd += ["--", "run", "--out", str(out)] + cli_args
    launch = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise OpFailed("timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise OpFailed(f"child exited {proc.returncode}: {err.decode()[-400:]}")
    record = json.loads(result_path.read_text(encoding="utf-8"))
    if record["rc"] != 0:
        raise OpFailed(f"cli.main returned {record['rc']}: {err.decode()[-400:]}")
    record["setup_s"] = record["enter"] - launch
    record["wall_s"] = record["exit"] - record["enter"]
    return record


class Workload:
    """All operations of one benchmark run on one workload."""

    def __init__(self, name: str, seed: int, record: bool, calibrate):
        self.name = name
        self.calibrate = calibrate
        self.cfg = workloads.config(name, seed)
        self.shape = workloads.shape(self.cfg)
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg), encoding="utf-8")
        self.record = record
        self.reference = None
        if seed == workloads.RECORDED_SEED and not record:
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
        self.expected = None       # what every operation must reproduce
        self.derived = None        # counts read back from the first outputs
        self.attempted = 0
        self.errors: list[str] = []
        self.ops: list[dict] = []
        self.traced_ops: list[dict] = []
        self.last_calibration = None   # taken after the previous operation

    def op(self, traced: bool, deadline: float, workers: int | None = None) -> None:
        self.attempted += 1
        out = self.dir / f"out{self.attempted % 2}"
        cli_args = ["--config", str(self.config_path)]
        if workers is not None:
            cli_args += ["--workers", str(workers)]
        before = self.last_calibration or self.calibrate()
        self.last_calibration = None
        try:
            rec = run_op(cli_args, out, traced, deadline)
            self.last_calibration = self.calibrate()
            self._verify(rec, out, traced)
        except (OpFailed, outputs.OutputError, OSError, ValueError, KeyError) as e:
            self.errors.append(f"operation {self.attempted}: {e}")
            return
        self._scale(rec, calibration.slowdown(before, self.last_calibration))
        if workers is None:
            (self.traced_ops if traced else self.ops).append(rec)

    def _verify(self, rec: dict, out: Path, traced: bool) -> None:
        nbytes, nfiles = outputs.size(out)
        seen = {"digest": outputs.digest(out), "rep_iters": rec["rep_iters"],
                "output_bytes": nbytes, "output_files": nfiles}
        if self.expected is None:
            self.derived = outputs.check(out, self.shape)
            if self.derived["rep_iters"] != rec["rep_iters"]:
                raise OpFailed(f"replicate-iterations {rec['rep_iters']} disagree "
                               f"with summary.csv ({self.derived['rep_iters']})")
            if self.record:
                self._record(seen)
            elif self.reference is not None:
                for key in ("digest", "rep_iters"):
                    if seen[key] != self.reference[key]:
                        raise OpFailed(f"{key} {seen[key]} differs from the "
                                       f"reference {self.reference[key]}")
            self.expected = seen
        elif seen != self.expected:
            diff = {k: (v, self.expected[k]) for k, v in seen.items()
                    if v != self.expected[k]}
            raise OpFailed(f"outputs differ from the first operation: {diff}")
        rec.update(seen)
        if traced:
            metrics, rec["replicate_s"] = tracing.layer_metrics(
                rec.pop("spans"), self.shape["workers"])
            rec["layers"] = metrics
            if metrics["engine.step.calls"] != rec["rep_iters"]:
                raise OpFailed("engine.step calls differ from replicate-iterations")
            if metrics["topology.reshuffle.calls"] != self.derived["reshuffles"]:
                raise OpFailed("topology.reshuffle calls differ from the dynamic "
                               "arms' iteration counts")
            if self.traced_ops:
                first = self.traced_ops[0]["layers"]
                if any(metrics[k] != first[k] for k in EXACT_COUNTS):
                    raise OpFailed("a traced count changed between operations")

    @staticmethod
    def _scale(rec: dict, slowdown: float) -> None:
        """Turn the operation's times into seconds at the reference speed."""
        rec["slowdown"] = slowdown
        rec["raw_wall_s"], rec["raw_setup_s"] = rec["wall_s"], rec["setup_s"]
        rec["wall_s"] /= slowdown
        rec["setup_s"] /= slowdown
        if "layers" in rec:
            rec["replicate_s"] = [s / slowdown for s in rec["replicate_s"]]
            for k, v in rec["layers"].items():
                if PER_LAYER_UNITS[k] in TIME_UNITS:
                    rec["layers"][k] = v / slowdown

    def _record(self, seen: dict) -> None:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        ref[self.name] = {"seed": workloads.RECORDED_SEED, "digest": seen["digest"],
                          "rep_iters": seen["rep_iters"]}
        REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")

    def measure(self, seconds: float, trace: bool, deadline: float) -> None:
        if self.name == "grid_parallel":
            # Untimed serial run of the same config: every parallel operation
            # must reproduce its digest and counts.
            self.op(False, deadline, workers=1)
        start = perf_counter()
        k = 0
        while perf_counter() < deadline:
            self.op(trace and k % 2 == 1, deadline)
            k += 1
            done = len(self.ops), len(self.traced_ops)
            if (min(done) if trace else done[0]) < (2 if trace else MIN_OPS):
                if self.errors and not any(done):
                    break   # nothing works; do not spin until the deadline
                continue
            per_op = (perf_counter() - start) / k
            if perf_counter() - start + per_op > seconds:
                break

    def end_to_end(self) -> dict:
        return {
            "wall_s": statistics.median(op["wall_s"] for op in self.ops),
            "setup_s": statistics.median(op["setup_s"] for op in self.ops),
            "rep_iters_per_s": statistics.median(op["rep_iters"] / op["wall_s"]
                                                 for op in self.ops),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in self.ops),
        }

    def per_layer(self) -> dict:
        layers = [op["layers"] for op in self.traced_ops]
        metrics = {k: layers[0][k] if k in EXACT_COUNTS
                   else statistics.median(m[k] for m in layers) for k in layers[0]}
        replicate_ms = sorted(1e3 * s for op in self.traced_ops
                              for s in op["replicate_s"])
        metrics["engine.run_replicate.ms_p50"] = tracing.nearest_rank(replicate_ms, 50)
        metrics["engine.run_replicate.ms_p99"] = tracing.nearest_rank(replicate_ms, 99)
        metrics.update(kernel_counts(self.shape, self.cfg.get("stochastic_acceleration", False)))
        metrics["experiment.output_bytes"] = self.expected["output_bytes"]
        metrics["experiment.output_files"] = self.expected["output_files"]
        traced_wall = statistics.median(op["wall_s"] for op in self.traced_ops)
        untraced_wall = statistics.median(op["wall_s"] for op in self.ops)
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        return metrics


def report(w: Workload, trace: bool) -> tuple[dict, list[str]]:
    """Metrics in the result-line format, and human-readable lines."""
    lines = [f"[{w.name}] attempted {w.attempted}, failed {len(w.errors)}, "
             f"error_rate {len(w.errors) / w.attempted:.4g} (ratio)"]
    lines += [f"[{w.name}]   error: {e}" for e in w.errors]
    have = (w.ops and w.traced_ops) if trace else w.ops
    if not have:
        return {}, lines
    lines.append(
        f"[{w.name}] times below are in seconds at the reference speed; "
        "median slowdown against it "
        f"{statistics.median(op['slowdown'] for op in w.ops):.4g}, raw median wall_s "
        f"{statistics.median(op['raw_wall_s'] for op in w.ops):.6g} s, raw median "
        f"setup_s {statistics.median(op['raw_setup_s'] for op in w.ops):.6g} s")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = w.per_layer() if trace else w.end_to_end()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    samples = {"wall_s": [op["wall_s"] for op in w.ops],
               "setup_s": [op["setup_s"] for op in w.ops]}
    for k, m in metrics.items():
        line = f"[{w.name}] {k} = {m['value']:.6g} {m['unit']}"
        if k in samples:
            n = len(samples[k])
            tail = tracing.tail_percentile(samples[k])
            line += f"  (median of n={n}; " + (
                f"p{tail[0]} {tail[1]:.6g} {m['unit']})" if tail else
                "no percentile above the median has ten samples beyond it)")
        lines.append(line)
    if trace:
        n = sum(len(op["replicate_s"]) for op in w.traced_ops)
        lines.append(f"[{w.name}] engine.run_replicate percentiles over n={n} "
                     f"replicates of {len(w.traced_ops)} traced operations; "
                     "engine.step self time includes the inlined leader selection, "
                     "RNG draws, binarization compare and pbest update; "
                     "kinematics bytes/flops are computed, not measured")
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the first operation's digest as the reference "
                             "(only at the recorded seed)")
    args = parser.parse_args()
    if not (ROOT / "src" / "orgswarm" / "__init__.py").is_file():
        print(f"no orgswarm sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.record_reference and args.seed != workloads.RECORDED_SEED:
        parser.error(f"--record-reference needs --seed {workloads.RECORDED_SEED}")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    calibrator = calibration.Calibrator()
    try:
        for name in names:
            deadline = perf_counter() + DEADLINE_S
            w = Workload(name, args.seed, args.record_reference, calibrator)
            w.measure(args.seconds, bool(args.trace), deadline)
            found, lines = report(w, bool(args.trace))
            print("\n".join(lines), flush=True)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in found.items()})
            attempted += w.attempted
            failed += len(w.errors)
            correct = correct and not w.errors and bool(found)
    finally:
        calibrator.close()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

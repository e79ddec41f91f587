"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import outputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from orgswarm import parse_config_dict, run_experiment  # noqa: E402


def test_self_time_on_hand_built_tree():
    spans = [
        # pid, id, parent, name, start, end
        (1, 0, -1, "root", 0.0, 10.0),
        (1, 1, 0, "a", 1.0, 4.0),
        (1, 2, 0, "b", 3.0, 6.0),      # overlaps a: together they cover [1, 6]
        (1, 3, 1, "leaf", 2.0, 3.0),
        (1, 4, 0, "late", 9.0, 12.0),  # only [9, 10] lies inside root
        (2, 5, 0, "other", 0.0, 10.0), # same parent id, other process
    ]
    got = {name: own for name, _dur, own, _pid in tracing.self_times(spans)}
    assert got == {"root": 4.0, "a": 2.0, "b": 3.0, "leaf": 1.0, "late": 3.0,
                   "other": 10.0}


def test_layer_metrics_per_worker_busy_time():
    spans = [(1, 0, -1, "experiment.run_experiment", 0.0, 4.0),
             (7, 0, -1, "engine.run_replicate", 0.0, 3.0),
             (7, 1, 0, "engine.step", 0.5, 1.0),
             (8, 0, -1, "engine.run_replicate", 0.0, 1.0)]
    metrics, replicate_s = tracing.layer_metrics(spans, workers=2)
    assert replicate_s == [3.0, 1.0]
    assert metrics["engine.step.calls"] == 1
    assert metrics["experiment.run_experiment.self_s"] == 4.0
    assert metrics["experiment.worker_busy_s"] == 4.0
    assert metrics["experiment.parallel_efficiency"] == 0.5
    assert metrics["experiment.worker_imbalance"] == 1.5


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(19))) is None
    pct, value = tracing.tail_percentile(list(range(40)))
    assert pct == 75 and sum(v > value for v in range(40)) == 10


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = {"master_seed": 7, "dim": 8, "agents": 6, "max_iterations": 40,
           "replicates": 2, "silo_count": 2, "trace": "full", "workers": 1}
    run_experiment(parse_config_dict(cfg), out_dir=out)
    return out


def _shape():
    return {"replicates": 2, "max_iterations": 40, "dim": 8, "trace": "full",
            "fixed_work": False}


def _flip_one_byte(path: Path) -> None:
    """Change the first digit after the header line to another digit."""
    data = bytearray(path.read_bytes())
    i = data.index(b"\n") + 1
    while not chr(data[i]).isdigit():
        i += 1
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def test_check_accepts_real_outputs(run_dir):
    counts = outputs.check(run_dir, _shape())
    assert counts["rep_iters"] > 0


@pytest.mark.parametrize("rel", ["summary.csv", "goals.csv", "arms.csv",
                                 "curves/dynamic+reactive.csv",
                                 "traces/siloed+reactive/replicate_1.csv"])
def test_output_check_rejects_one_changed_byte(run_dir, tmp_path, rel):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    assert outputs.digest(copy) == outputs.digest(run_dir)
    _flip_one_byte(copy / rel)
    assert outputs.digest(copy) != outputs.digest(run_dir)


def test_consistency_check_rejects_a_changed_convergence(run_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    path = copy / "summary.csv"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    cells = first.split(",")
    cells[3] = str(int(cells[3]) + 1)
    path.write_text("\n".join([header, ",".join(cells)] + rest) + "\n", encoding="utf-8")
    with pytest.raises(outputs.OutputError):
        outputs.check(copy, _shape())


def test_digest_ignores_added_columns(run_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    path = copy / "comparisons.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [lines[0] + ",gehan_p"] + [line + ",0.5" for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert outputs.digest(copy) == outputs.digest(run_dir)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_a_function_of_the_seed(name):
    assert workloads.config(name, 3) == workloads.config(name, 3)
    assert workloads.config(name, 3) != workloads.config(name, 4)


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2**40 + 5])
def test_generated_configs_parse(name, seed):
    spec = parse_config_dict(workloads.config(name, seed))
    assert tuple(arm.label for arm in spec.arms) == workloads.ARMS


def test_scaling_divides_times_and_keeps_counts():
    import run
    rec = {"wall_s": 3.0, "setup_s": 0.3, "replicate_s": [1.5],
           "layers": {"engine.step.calls": 10, "engine.step.self_us_per_call": 90.0,
                      "experiment.worker_imbalance": 1.2}}
    run.Workload._scale(rec, 1.5)
    assert rec["wall_s"] == 2.0 and rec["replicate_s"] == [1.0]
    assert rec["setup_s"] == pytest.approx(0.2)
    assert (rec["raw_wall_s"], rec["raw_setup_s"]) == (3.0, 0.3)
    assert rec["layers"] == {"engine.step.calls": 10,
                             "engine.step.self_us_per_call": 60.0,
                             "experiment.worker_imbalance": 1.2}


def test_slowdown_is_one_at_the_reference():
    import calibration
    ref = calibration.REFERENCE_S
    assert calibration.slowdown(ref, ref) == 1.0
    assert calibration.slowdown(ref, 2 * ref) == pytest.approx(1.5)

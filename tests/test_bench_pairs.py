"""tools/bench_pairs.py's summary, checked against a record it did not write:
BENCH_4.json's grid_serial pairs, whose medians, interquartile range, wins
and median reduction were computed without it; its ``--profile`` script,
run on a one-replicate workload; and the parts of ``--tier1`` that do not
run Tier-1 (the summary-line parser and the direction of its wall time); and
the types of the host description a record carries."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_seed_ranges():
    assert bench_pairs.seeds_from("701-703,9") == [701, 702, 703, 9]
    assert bench_pairs.seeds_from("1") == [1]


def test_summary_reproduces_bench_4():
    record = json.loads((ROOT / "BENCH_4.json").read_text())["grid_serial_pairs"]
    summary = bench_pairs.summarize(record["pairs"], ["wall_s"])
    assert summary["change_wins_wall_s"] == record["change_wins"]
    # BENCH_4.json holds 4 decimals
    for key in ("parent_median_wall_s", "change_median_wall_s", "parent_iqr_wall_s"):
        assert summary[key] == pytest.approx(record[key], abs=1e-4)
    assert -summary["median_change_wall_s"] == pytest.approx(record["median_reduction"],
                                                            abs=1e-4)


def test_wins_follow_each_metric_direction():
    pairs = [{"parent_grid_serial.wall_s": 2.0, "change_grid_serial.wall_s": 1.0,
              "parent_grid_serial.rep_iters_per_s": 10.0,
              "change_grid_serial.rep_iters_per_s": 9.0,
              "parent_engine.step.calls": 5, "change_engine.step.calls": 5}]
    summary = bench_pairs.summarize(pairs, ["grid_serial.wall_s",
                                            "grid_serial.rep_iters_per_s",
                                            "engine.step.calls"])
    assert summary["change_wins_grid_serial.wall_s"] == 1       # lower is better
    assert summary["change_wins_grid_serial.rep_iters_per_s"] == 0  # higher is better
    assert summary["change_wins_engine.step.calls"] == 0        # a tie counts for neither
    assert summary["parent_quartiles_grid_serial.wall_s"] is None  # one pair has none


def test_host_names_cpu_and_simd_level():
    host = bench_pairs.host()
    assert isinstance(host["cpu"], str)
    assert isinstance(host["simd"], list) and all(isinstance(f, str) for f in host["simd"])
    assert isinstance(host["numpy"], str) and isinstance(host["nproc"], int)


@pytest.mark.parametrize("line,passed,failed", [
    ("270 passed in 27.61s", 270, 0),
    ("1 failed, 269 passed, 2 warnings in 30.02s", 269, 1),
    ("======= 3 failed, 1 error in 0.50s =======", 0, 3),
    ("4 passed, 2 xpassed, 1 xfailed in 1.00s", 4, 0),
])
def test_pytest_summary_counts(line, passed, failed):
    assert bench_pairs.pytest_counts(line) == {"passed": passed, "failed": failed}


def test_pytest_summary_refuses_other_lines():
    with pytest.raises(ValueError):
        bench_pairs.pytest_counts("Traceback (most recent call last):")


def test_tier1_wall_time_lower_is_better():
    # BENCHMARK.json does not list it; the tool sets its direction
    pairs = [{"parent_tier1_wall_s": 30.0, "change_tier1_wall_s": 28.0},
             {"parent_tier1_wall_s": 29.0, "change_tier1_wall_s": 31.0},
             {"parent_tier1_wall_s": 33.0, "change_tier1_wall_s": 27.0}]
    summary = bench_pairs.summarize(pairs, ["tier1_wall_s"])
    assert summary["change_wins_tier1_wall_s"] == 2
    assert summary["median_change_tier1_wall_s"] == pytest.approx(28 / 30 - 1)


def test_profile_records_faults_and_system_time(tmp_path):
    # a stand-in checkout: this src/ and a perfbench/workloads.py with one tiny arm
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(
        "def config(workload, seed):\n"
        "    return {'master_seed': seed, 'replicates': 1, 'max_iterations': 5, 'workers': 1,\n"
        "            'arms': [{'label': 'a', 'design': 'fully_networked',\n"
        "                      'tendency': 'reactive'}]}\n")
    proc = subprocess.run([sys.executable, "-c", bench_pairs.PROFILE, str(tmp_path), "tiny",
                           "3"], check=True, capture_output=True, text=True)
    counts = json.loads(proc.stdout)
    assert counts["calls"]["engine.step"] == 5
    rusage = counts["rusage"]
    assert sorted(rusage) == ["maxrss_growth_mb", "minor_faults", "system_s"]
    assert isinstance(rusage["minor_faults"], int) and rusage["minor_faults"] >= 0
    assert isinstance(rusage["system_s"], float) and rusage["system_s"] >= 0
    assert isinstance(rusage["maxrss_growth_mb"], float) and rusage["maxrss_growth_mb"] >= 0
    # run_experiment imported before the run; a one-worker run starts no pool
    imported = counts["imported"]
    assert imported == sorted(imported) and all(isinstance(m, str) for m in imported)
    assert "orgswarm.experiment" not in imported
    assert "concurrent.futures.process" not in imported

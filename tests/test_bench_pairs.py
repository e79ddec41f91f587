"""tools/bench_pairs.py's summary, checked against a record it did not write:
BENCH_4.json's grid_serial pairs, whose medians, interquartile range, wins
and median reduction were computed without it; and its ``--profile`` script,
run on a one-replicate workload."""

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
    assert sorted(rusage) == ["minor_faults", "system_s"]
    assert isinstance(rusage["minor_faults"], int) and rusage["minor_faults"] >= 0
    assert isinstance(rusage["system_s"], float) and rusage["system_s"] >= 0

"""tools/sigmoid_margin.py still measures what it claims after a change to the
engine seams it replaces (``engine.replicate_rng`` and ``engine.sigmoid``):
its binarization count is checked against replicates run without it."""

import json
import subprocess
import sys
from pathlib import Path

from orgswarm import parse_config_dict, run_replicate

ROOT = Path(__file__).resolve().parent.parent


def test_sigmoid_margin_counts_every_binarization():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "sigmoid_margin.py"),
                           "--replicates", "2"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    # one binarization per agent x bit (20 x 25) per iteration of the 6 x 2 replicates
    spec = parse_config_dict({"master_seed": 20260808, "replicates": 2})
    expected = sum(500 * run_replicate(arm.config, i).iterations_run
                   for arm in spec.arms for i in range(2))
    assert record["binarizations"] == expected == 691_000
    assert record["min_ulps"] == min(record["per_arm"].values()) > 0

"""Smallest distance between a binarization uniform and its bit probability.

    python3 tools/sigmoid_margin.py [--seed 20260808] [--replicates 200]

Runs the default grid (3 designs x 2 tendencies) one replicate at a time
through ``run_replicate`` and prints one JSON object: the smallest |u - p|
over every binarization ``u < p``, in ulps of p (``np.spacing(p)``), overall
and per arm. ``sigmoid`` is the one operation whose last bits depend on the
host (numpy's SIMD dispatch level; up to 2 ulp apart on the paths compared in
the README), so a position bit can differ between hosts only where this
margin is that small.

How it measures: ``orgswarm.engine.replicate_rng`` is replaced by one that
wraps each replicate's generator in a proxy remembering the last block that
``random(out=...)`` filled, which ``step`` draws just before the
probabilities, and a wrapper around ``orgswarm.engine.sigmoid`` compares that
block with the probabilities it returns. The proxy hands every draw through
unchanged, so each replicate follows its usual trajectory.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from orgswarm import engine  # noqa: E402
from orgswarm.experiment import parse_config_dict  # noqa: E402


class RememberingRng:
    """A generator that keeps the array its last ``random(out=...)`` filled."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.last = None

    def random(self, *args, **kwargs):
        block = self._rng.random(*args, **kwargs)
        if kwargs.get("out") is not None:
            self.last = block
        return block

    def __getattr__(self, name):
        return getattr(self._rng, name)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20260808, help="master seed")
    parser.add_argument("--replicates", type=int, default=200, help="replicates per arm")
    args = parser.parse_args()
    spec = parse_config_dict({"master_seed": args.seed, "replicates": args.replicates})

    sigmoid, replicate_rng, replicate = engine.sigmoid, engine.replicate_rng, {}
    seen = {"min_ulps": np.inf, "binarizations": 0}

    def remembering_rng(master_seed, replicate_index):
        replicate["rng"] = RememberingRng(replicate_rng(master_seed, replicate_index))
        return replicate["rng"]

    def measured_sigmoid(x, out=None):
        p = sigmoid(x, out=out)
        u = replicate["rng"].last
        seen["min_ulps"] = min(seen["min_ulps"], float((np.abs(u - p) / np.spacing(p)).min()))
        seen["binarizations"] += p.size
        return p

    engine.replicate_rng, engine.sigmoid = remembering_rng, measured_sigmoid
    start, per_arm, rep_iters = time.perf_counter(), {}, 0
    for arm in spec.arms:
        cfg = arm.config
        seen["min_ulps"] = np.inf
        for i in range(cfg.replicates):
            rep_iters += engine.run_replicate(cfg, i).iterations_run * cfg.agents * cfg.dim
        per_arm[arm.label] = seen["min_ulps"]
    if seen["binarizations"] != rep_iters:
        raise SystemExit(f"saw {seen['binarizations']} binarizations, expected {rep_iters}")
    print(json.dumps({
        "master_seed": args.seed, "replicates_per_arm": args.replicates,
        "binarizations": rep_iters, "min_ulps": min(per_arm.values()), "per_arm": per_arm,
        "seconds": round(time.perf_counter() - start, 1),
        "python": platform.python_version(), "numpy": np.__version__}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

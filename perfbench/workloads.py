"""Workload generator: one orgswarm config per (workload, seed).

The program under test receives only the generated config file and the
``--out`` directory. Every workload expands the default 3 designs x 2
tendencies grid, so the arm labels below hold for all of them.
"""

from __future__ import annotations

import hashlib
import os

# The seed whose outputs have stored reference digests (reference.json).
RECORDED_SEED = 1

ARMS = ("dynamic+perceptive", "dynamic+reactive", "fully_networked+perceptive",
        "fully_networked+reactive", "siloed+perceptive", "siloed+reactive")
RESHUFFLE_INTERVAL = 10  # the default of the dynamic arms

GRID_REPLICATES = 30     # > 25, so each arm spans two worker chunks
TRACE_FULL_REPLICATES = 24
WIDE_REPLICATES = 2
WIDE_MAX_ITERATIONS = 100

WHY = {
    "grid_serial": "the paper's default 6-arm grid at workers=1: Python and "
                   "numpy call overhead on ~500-element arrays; engine gains show here",
    "grid_parallel": "the same config at workers=nproc: the only workload that "
                     "runs the process pool, 25-replicate chunking and result pickling",
    "trace_full": "the default grid at trace=full: same engine work, but per-agent "
                  "trace CSV writing dominates, so output-layer changes show here",
    "wide_swarm": "200 agents x 200 bits, 20 silos, stochastic acceleration, "
                  "instantaneous gbest, fixed budget: 40k-element arithmetic dominates",
}
NAMES = tuple(WHY)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def master_seed(seed: int) -> int:
    """u64 master seed derived from the workload seed.

    It does not depend on the workload name, so grid_serial and grid_parallel
    run the same experiment for the same seed.
    """
    digest = hashlib.sha256(f"orgswarm-perfbench/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def config(name: str, seed: int) -> dict:
    """The JSON config the program receives for this workload and seed."""
    cfg = {"master_seed": master_seed(seed)}
    if name == "grid_serial":
        cfg.update(replicates=GRID_REPLICATES, workers=1)
    elif name == "grid_parallel":
        cfg.update(replicates=GRID_REPLICATES, workers=nproc())
    elif name == "trace_full":
        cfg.update(replicates=TRACE_FULL_REPLICATES, workers=1, trace="full")
    elif name == "wide_swarm":
        cfg.update(replicates=WIDE_REPLICATES, workers=1, agents=200, dim=200,
                   silo_count=20, stochastic_acceleration=True,
                   gbest_mode="instantaneous", max_iterations=WIDE_MAX_ITERATIONS)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return cfg


def shape(cfg: dict) -> dict:
    """What the outputs of ``cfg`` must look like (the program's defaults filled in)."""
    return {
        "replicates": cfg["replicates"],
        "max_iterations": cfg.get("max_iterations", 1000),
        "agents": cfg.get("agents", 20),
        "dim": cfg.get("dim", 25),
        "trace": cfg.get("trace", "group"),
        "workers": cfg["workers"],
        # With a 200-bit goal for 200 agents, no replicate can converge within
        # the budget, so the work is exactly arms x replicates x max_iterations.
        "fixed_work": "agents" in cfg,
    }

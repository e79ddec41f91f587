"""Run one seeded replicate and inspect what happened.

A replicate is one organization of 20 agents searching the 25-bit strategy
space until every member has touched the goal at least once (group
convergence) or the iteration budget runs out.
"""

import numpy as np

from orgswarm import SimConfig, run_replicate
from orgswarm.engine import derive_replicate_seed
from orgswarm.strategy import to_bitstring

config = SimConfig(
    master_seed=2026,
    design="fully_networked",
    tendency="reactive",
)

# full=True keeps the per-agent fitness trace, a (iterations_run + 1, N) array
result = run_replicate(config, replicate_index=0, full=True)
hit = result.full_trace["fitness"] == 0
first_hits = np.where(hit.any(axis=0), hit.argmax(axis=0), -1)  # -1 = never

print(f"goal strategy : {to_bitstring(result.goal)}")
print(f"replicate seed: {derive_replicate_seed(config.master_seed, 0)}")
print(f"first agent hit the goal at iteration {result.first_any_hit}")
print(f"group converged at iteration {result.group_convergence} "
      f"(budget {config.max_iterations})")
print(f"per-agent first hits: {np.sort(first_hits).tolist()}")

# the group-level trace: best and mean Hamming distance per iteration
# (index t is iteration t; index 0 is the initial swarm)
checkpoints = np.linspace(0, result.iterations_run - 1, 8, dtype=int) + 1
print("\niteration  best  mean")
for t in checkpoints:
    print(f"{t:9d}  {result.trace_best[t]:4d}  {result.trace_mean[t]:5.2f}")

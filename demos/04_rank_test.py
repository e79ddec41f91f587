"""The built-in Mann-Whitney U test, exact and approximate paths.

Small tie-free samples route to the exact tail enumeration; ties or samples
beyond 20 per side use the tie-corrected normal approximation. Two arms are
compared with ``orgswarm.stats.mann_whitney_u`` and ``median_ratio``, the two
statistics a run's comparisons.csv reports for each arm pair.
"""

import numpy as np

from orgswarm import SimConfig, run_replicate
from orgswarm.stats import mann_whitney_u, median_ratio

# exact path on toy samples
r = mann_whitney_u([1, 2, 3], [10, 11, 12])
print(f"[1,2,3] vs [10,11,12]: U={r.u_statistic}, p={r.p_value:.4f} ({r.method})")

r = mann_whitney_u([4, 5, 6], [4, 5, 6])
print(f"identical samples:     U={r.u_statistic}, p={r.p_value:.4f} ({r.method})")

# real comparison: fully networked vs siloed, reactive tendency
def arm(design, **options):
    config = SimConfig(master_seed=11, design=design, tendency="reactive", **options)
    out = []
    for i in range(60):
        rep = run_replicate(config, i)
        if rep.group_convergence is not None:
            out.append(rep.group_convergence)
    return out

fn = arm("fully_networked")
silo = arm("siloed", silo_count=5)
r = mann_whitney_u(fn, silo)
print(f"\nfully networked vs siloed (reactive, 60 replicates):")
print(f"  medians {np.median(fn):.0f} vs {np.median(silo):.0f}")
print(f"  median ratio {median_ratio(fn, silo):.3f}, U={r.u_statistic}, "
      f"p={r.p_value:.2e} ({r.method})")

"""Compare self-organization speed across the six design x tendency arms.

Reduced replicate count so the script finishes in a few seconds; bump
REPLICATES for tighter medians.
"""

import numpy as np

from orgswarm import SimConfig, run_replicate

REPLICATES = 40

designs = {
    "fully_networked": dict(design="fully_networked"),
    "dynamic": dict(design="dynamic", silo_count=5, reshuffle_interval=10),
    "siloed": dict(design="siloed", silo_count=5),
}

print(f"{'arm':32s} {'success':>8s} {'median':>7s} {'IQR':>12s}")
for tendency in ("reactive", "perceptive"):
    for name, design in designs.items():
        config = SimConfig(master_seed=20260808, tendency=tendency, **design)
        conv = []
        for i in range(REPLICATES):
            r = run_replicate(config, i)
            if r.group_convergence is not None:
                conv.append(r.group_convergence)
        iqr = np.percentile(conv, [25, 75])
        print(f"{name + '+' + tendency:32s} {len(conv):4d}/{REPLICATES}"
              f" {np.median(conv):7.1f} {iqr[0]:5.0f}-{iqr[1]:<5.0f}")

print("\nFully networked groups self-organize fastest: every member is pulled")
print("toward the one best-known strategy. Silos must each rediscover the goal")
print("with only four members; reshuffling spreads good memories between silos.")

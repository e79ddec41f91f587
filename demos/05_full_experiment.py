"""Drive the whole experiment pipeline from Python (same as the CLI).

Writes summary.csv, arms.csv, comparisons.csv, goals.csv and per-arm
convergence curves into ./demo_results; identical inputs always produce
byte-identical files.
"""

from orgswarm import parse_config_dict, run_experiment

spec = parse_config_dict({
    "master_seed": 20260808,
    "replicates": 50,          # default 200; reduced so the demo is quick
    "trace": "group",
    "out_dir": "demo_results",
})

output = run_experiment(spec)

print(f"outputs in {output.out_dir}/")
print(f"{'arm':32s} {'success':>9s} {'median':>8s}")
for s in output.summaries:
    print(f"{s.label:32s} {s.successes:4d}/{s.n:<4d} {s.median_group_convergence:8.1f}")

print("\npairwise comparisons (ratio < 1 means arm_a is faster):")
for arm_a, arm_b, ratio, u_statistic, p_value, censored_ratio in output.comparisons:
    if ratio is not None:  # None unless both arms have a converged replicate
        print(f"  {arm_a:28s} vs {arm_b:28s} ratio {ratio:5.2f} p={p_value:.2g}")

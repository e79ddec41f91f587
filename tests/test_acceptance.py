"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The comparative criteria (5-7) run the full default grid once (module-scoped
fixture) at a fixed master seed; sensitivity sweeps triggered by their
documented branches are written into the pytest tmp directory and echoed to
stdout.
"""

import itertools
import math
import time

import numpy as np
import pytest

from orgswarm import SimConfig, parse_config_dict, run_experiment, run_replicate
from orgswarm.engine import init_swarm, replicate_rng, step
from orgswarm.kinematics import clamp_velocity
from orgswarm.stats import mann_whitney_u
from orgswarm.topology import build_assignment, reshuffle

ACCEPTANCE_SEED = 20260808


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared default grid (criteria 5-8)

@pytest.fixture(scope="module")
def default_grid(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("grid")
    spec = parse_config_dict({"master_seed": ACCEPTANCE_SEED, "trace": "group"})
    start = time.perf_counter()
    output = run_experiment(spec, out_dir=out_dir)
    elapsed = time.perf_counter() - start
    conv = {s.label: s.converged for s in output.summaries}
    return output, conv, elapsed


def median(values):
    return float(np.median(values))


# ---------------------------------------------------------------------------
# criterion 1: determinism & schedule independence

def test_criterion_1_determinism_and_schedule_independence(tmp_path):
    cfg = {"master_seed": 99, "dim": 8, "agents": 6, "max_iterations": 50,
           "replicates": 6, "silo_count": 2}
    files = ("summary.csv", "arms.csv", "comparisons.csv")

    run_experiment(parse_config_dict(cfg, workers=1), out_dir=tmp_path / "r1")
    overheads = []
    for name, workers in (("r2", 1), ("w1", 1), ("w8", 8)):
        start = time.perf_counter()
        run_experiment(parse_config_dict(cfg, workers=workers),
                       out_dir=tmp_path / name)
        overheads.append(time.perf_counter() - start)

    identical = all(
        (tmp_path / "r1" / f).read_bytes()
        == (tmp_path / other / f).read_bytes()
        for other in ("r2", "w1", "w8") for f in files)
    fast = max(overheads) < 1.0
    report(1, identical and fast,
           f"byte-identical outputs across reruns and worker counts 1 vs 8; "
           f"max rerun overhead {max(overheads):.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# criterion 2: kinematics oracle

class RecordingRng:
    """Wraps a Generator, logging every uniform the engine consumes."""

    def __init__(self, inner):
        self.inner = inner
        self.uniforms: list[float] = []

    def random(self, out):
        draws = self.inner.random(out=out)
        self.uniforms.extend(np.ravel(draws).tolist())
        return draws

    def integers(self, *args, **kwargs):
        return self.inner.integers(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self.inner.uniform(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        return self.inner.permutation(*args, **kwargs)


def brute_force_states(snapshot, draws, steps, delta, v_max, lo, hi):
    """Hand-coded evaluation of the motion and policy rules in pure python.

    Independent of the engine: plain floats, explicit loops, recorded
    uniforms fed back in consumption order.
    """
    n, d = len(snapshot["positions"]), len(snapshot["goal"])
    goal = snapshot["goal"]
    pos = [row[:] for row in snapshot["positions"]]
    vel = [[0.0] * d for _ in range(n)]
    w = snapshot["inertia"]
    c1 = snapshot["self_belief"][:]
    c2 = snapshot["prestige_bias"][:]
    pbest = [row[:] for row in pos]

    def fit_of(bits):
        return sum(1 for k in range(d) if bits[k] != goal[k])

    pbest_fit = [fit_of(p) for p in pos]
    last_fit = pbest_fit[:]
    states = []
    cursor = 0
    for _ in range(steps):
        best = min(range(n), key=lambda i: (pbest_fit[i], i))
        gb = pbest[best]
        for i in range(n):
            for k in range(d):
                v = (w[i] * vel[i][k] + c1[i] * (pbest[i][k] - pos[i][k])
                     + c2[i] * (gb[k] - pos[i][k]))
                v = max(-v_max, min(v_max, v))
                vel[i][k] = v
        new_pos = []
        for i in range(n):
            row = []
            for k in range(d):
                u = draws[cursor]
                cursor += 1
                row.append(1 if u < 1.0 / (1.0 + math.exp(-vel[i][k])) else 0)
            new_pos.append(row)
        pos = new_pos
        fits = [fit_of(p) for p in pos]
        for i in range(n):
            if fits[i] < pbest_fit[i]:
                pbest_fit[i] = fits[i]
                pbest[i] = pos[i][:]
        for i in range(n):
            signal = last_fit[i] - fits[i]
            direction = (signal > 0) - (signal < 0)
            c1[i] = min(hi, max(lo, c1[i] + delta * direction))
            c2[i] = min(hi, max(lo, c2[i] - delta * direction))
        last_fit = fits[:]
        states.append(([row[:] for row in pos], [row[:] for row in vel]))
    return states


def test_criterion_2_kinematics_oracle():
    config = SimConfig(master_seed=4242, design="fully_networked",
                       tendency="reactive", dim=3, agents=2,
                       max_iterations=5)
    rng = RecordingRng(replicate_rng(config.master_seed, 0))
    state = init_swarm(config, rng)
    snapshot = {
        "goal": state.goal.tolist(),
        "positions": state.positions.tolist(),
        "inertia": state.inertia.tolist(),
        "self_belief": state.coefficients[0].tolist(),
        "prestige_bias": state.coefficients[1].tolist(),
    }
    engine_states = []
    for _ in range(5):
        step(state)
        engine_states.append((state.positions.copy(), state.velocities.copy()))

    oracle_states = brute_force_states(snapshot, rng.uniforms, 5, config.delta,
                                       config.v_max, config.coeff_min,
                                       config.coeff_max)
    max_vel_err = 0.0
    bits_match = True
    for (got_p, got_v), (exp_p, exp_v) in zip(engine_states, oracle_states):
        bits_match &= got_p.tolist() == exp_p
        max_vel_err = max(max_vel_err, np.abs(got_v - np.array(exp_v)).max())
    report(2, bits_match and max_vel_err <= 1e-12,
           f"engine matches brute-force evaluator over 5 steps: bits exact, "
           f"max velocity error {max_vel_err:.2e} (<= 1e-12)")


# ---------------------------------------------------------------------------
# criterion 3: randomized invariant suite (>= 10,000 cases, zero violations)

def test_criterion_3_invariant_suite():
    rng = np.random.default_rng(31337)
    cases = 0
    violations = 0

    # Hamming distances within [0, D]
    for _ in range(2000):
        d = int(rng.integers(1, 40))
        a = rng.integers(0, 2, d)
        b = rng.integers(0, 2, d)
        h = int(np.count_nonzero(a != b))
        cases += 1
        violations += not (0 <= h <= d)

    # velocity clamp
    for _ in range(2000):
        v_max = float(rng.uniform(0.5, 8))
        v = clamp_velocity(rng.normal(scale=10, size=int(rng.integers(1, 50))), v_max)
        cases += 1
        violations += not (np.abs(v) <= v_max).all()

    # coefficient bounds under random policy sequences (vectorized: each
    # agent-update is a case)
    from orgswarm.policies import perceptive_shift, reactive_shift
    c1 = rng.uniform(0, 2, 100)
    c2 = rng.uniform(0, 2, 100)
    ema = np.zeros(100)
    for t in range(20):
        sig = rng.integers(-5, 6, 100)
        c1, c2 = reactive_shift(np.stack([c1, c2]), sig, 0.1, 0.0, 2.0)
        cases += 100
        violations += int(((c1 < 0) | (c1 > 2) | (c2 < 0) | (c2 > 2)).sum())
        sig = rng.integers(-5, 6, 100)
        ema, (c1, c2) = perceptive_shift(ema, np.stack([c1, c2]), sig, t, 10, 0.1, 0.1,
                                         0.0, 2.0)
        cases += 100
        violations += int(((c1 < 0) | (c1 > 2) | (c2 < 0) | (c2 > 2)).sum())

    # silo balance across reshuffles
    assignment = build_assignment("siloed", 5, 20, np.random.default_rng(5))
    shuffle_rng = np.random.default_rng(6)
    for _ in range(1000):
        assignment = reshuffle(assignment, shuffle_rng)
        sizes = np.bincount(assignment.silo_of, minlength=5)
        cases += 1
        violations += not (sizes.sum() == 20 and sizes.max() - sizes.min() <= 1)

    # engine invariants: pbest monotone, fully-networked historical
    # neighborhood-best fitness monotone (per agent per iteration = a case)
    for rep in range(6):
        cfg = SimConfig(master_seed=777, design="fully_networked",
                        tendency="reactive" if rep % 2 else "perceptive",
                        dim=12, agents=8, max_iterations=60)
        st = init_swarm(cfg, replicate_rng(cfg.master_seed, rep))
        prev_pbest = st.pbest_fitness.copy()
        prev_gbest = prev_pbest.min()
        for _ in range(60):
            step(st)
            cases += cfg.agents
            violations += int((st.pbest_fitness > prev_pbest).sum())
            gbest = st.pbest_fitness.min()
            cases += 1
            violations += not (gbest <= prev_gbest)
            prev_pbest = st.pbest_fitness.copy()
            prev_gbest = gbest

    report(3, cases >= 10_000 and violations == 0,
           f"{cases} randomized invariant cases, {violations} violations")


# ---------------------------------------------------------------------------
# criterion 4: statistics oracle

def test_criterion_4_statistics_oracle():
    from test_stats import brute_force_mann_whitney

    rng = np.random.default_rng(4444)
    checked = 0
    for m in range(1, 6):
        for n in range(1, 6):
            for _ in range(6):
                pool = rng.permutation(200)[:m + n]
                a, b = pool[:m].tolist(), pool[m:].tolist()
                got = mann_whitney_u(a, b)
                u_ref, p_ref = brute_force_mann_whitney(a, b)
                assert got.method == "exact"
                assert got.u_statistic == u_ref, (a, b)
                assert got.p_value == pytest.approx(p_ref, abs=1e-12), (a, b)
                checked += 1

    from orgswarm.stats import aggregate_arm, median_ratio
    assert aggregate_arm("x", [10, 20, 30], [1] * 3, 100).median_group_convergence == 20
    assert aggregate_arm("x", [10, 20, 30, 40], [1] * 4, 100).median_group_convergence == 25
    never = aggregate_arm("x", [10, None, 30], [1] * 3, 100)
    assert never.success_rate == pytest.approx(2 / 3)
    assert never.median_group_convergence == 20
    assert mann_whitney_u([1, 2, 3], [10, 11, 12]).u_statistic == 0
    assert median_ratio([1, 2, 3], [10, 11, 12]) == pytest.approx(2 / 11)

    report(4, True,
           f"exact Mann-Whitney matches brute-force enumeration on {checked} "
           f"sample pairs (all sizes <= 5 per side); median rules match hand values")


# ---------------------------------------------------------------------------
# criteria 5-7: comparative orderings on the default grid

def _sweep(out_dir, arms: dict[str, dict], replicates: int = 100) -> dict[str, list[int]]:
    """The converged replicates' group convergence, sorted, for each labelled
    arm, run as one spec at the acceptance seed: trace none, on every core."""
    spec = parse_config_dict({
        "master_seed": ACCEPTANCE_SEED, "replicates": replicates, "trace": "none",
        "workers": None, "out_dir": str(out_dir),
        "arms": [{"label": label, **arm} for label, arm in arms.items()]})
    output = run_experiment(spec)
    return {s.label: s.converged for s in output.summaries}


def _r_sweep(out_dir, tendency: str) -> dict[int, list[int]]:
    """Dynamic arms (5 silos) at reshuffle intervals 5, 10 and 25."""
    intervals = (5, 10, 25)
    conv = _sweep(out_dir, {f"R{r}": {"design": "dynamic", "tendency": tendency,
                                      "silo_count": 5, "reshuffle_interval": r}
                            for r in intervals})
    return {r: conv[f"R{r}"] for r in intervals}


def test_sweep_arm_samples_equal_run_replicate(tmp_path):
    swept = _sweep(tmp_path, {"R5": {"design": "dynamic", "tendency": "perceptive",
                                     "silo_count": 5, "reshuffle_interval": 5}},
                   replicates=30)["R5"]
    cfg = SimConfig(master_seed=ACCEPTANCE_SEED, design="dynamic",
                    tendency="perceptive", silo_count=5, reshuffle_interval=5)
    serial = [r.group_convergence for r in (run_replicate(cfg, i) for i in range(30))
              if r.group_convergence is not None]
    assert swept == sorted(serial) and len(serial) > 1


def test_criterion_5_reactive_design_ordering(default_grid, tmp_path):
    _, conv, _ = default_grid
    fn = conv["fully_networked+reactive"]
    dyn = conv["dynamic+reactive"]
    silo = conv["siloed+reactive"]
    m_fn, m_dyn, m_silo = median(fn), median(dyn), median(silo)
    p_fn_silo = mann_whitney_u(fn, silo).p_value

    hard_ok = m_fn < m_dyn and m_fn < m_silo and p_fn_silo < 0.05
    soft_ok = m_dyn < m_silo
    detail = (f"reactive medians FN={m_fn:.1f} < Dynamic={m_dyn:.1f} "
              f"< Siloed={m_silo:.1f}; FN vs Siloed p={p_fn_silo:.2e}")
    if not soft_ok:
        lines = ["Dynamic-vs-Siloed (reactive) ordering sweep over reshuffle "
                 "interval R (100 replicates/arm):"]
        for r_interval, dyn_r in _r_sweep(tmp_path / "sweep", "reactive").items():
            cmp_r = mann_whitney_u(dyn_r, silo)
            lines.append(f"  R={r_interval}: median Dynamic {median(dyn_r):.1f} "
                         f"vs Siloed {m_silo:.1f} (p={cmp_r.p_value:.3g})")
        findings = "\n".join(lines)
        (tmp_path / "criterion5_R_sweep.md").write_text(findings)
        print("\n" + findings)
        detail += "; Dynamic<Siloed leg violated, R sweep documented"
    report(5, hard_ok, detail)


def test_criterion_6_perceptive_halving_claim(default_grid, tmp_path):
    _, conv, _ = default_grid
    fn = conv["fully_networked+perceptive"]
    silo = conv["siloed+perceptive"]
    ratio = median(fn) / median(silo)
    detail = f"median(FN+perceptive)/median(Siloed+perceptive) = {ratio:.3f}"
    if ratio < 0.5:
        report(6, True, detail + " (< 0.5 target met)")
        return
    # accepted below 0.7 with the gap documented against alpha and
    # pressure-horizon sweeps
    lines = [f"Perceptive FN/Siloed ratio at defaults: {ratio:.3f} "
             f"(target < 0.5, acceptance < 0.7).",
             "Gap documented against parameter sweeps (100 replicates/arm):"]
    grid = list(itertools.product((0.05, 0.1, 0.2), (250, 500)))
    swept = _sweep(tmp_path / "sweep", {
        f"{design}_{alpha}_{horizon}": {"design": design, "tendency": "perceptive",
                                        "alpha": alpha, "pressure_horizon": horizon}
        for alpha, horizon in grid for design in ("fully_networked", "siloed")})
    for alpha, horizon in grid:
        fn_s = swept[f"fully_networked_{alpha}_{horizon}"]
        silo_s = swept[f"siloed_{alpha}_{horizon}"]
        r = median(fn_s) / median(silo_s) if fn_s and silo_s else float("nan")
        lines.append(f"  alpha={alpha}, T_p={horizon}: ratio {r:.3f} "
                     f"(FN {median(fn_s):.1f} / Siloed {median(silo_s):.1f})")
    findings = "\n".join(lines)
    (tmp_path / "criterion6_gap_analysis.md").write_text(findings)
    print("\n" + findings)
    report(6, ratio < 0.7, detail + " (< 0.7 acceptance, gap analysis written)")


def test_criterion_7_reshuffling_does_not_help_perceptive(default_grid, tmp_path):
    _, conv, _ = default_grid
    dyn = conv["dynamic+perceptive"]
    silo = conv["siloed+perceptive"]
    m_dyn, m_silo = median(dyn), median(silo)
    p = mann_whitney_u(dyn, silo).p_value
    improvement = m_dyn < m_silo and p < 0.05
    detail = (f"Dynamic+perceptive median {m_dyn:.1f} vs Siloed+perceptive "
              f"{m_silo:.1f} (p={p:.2e})")
    if not improvement:
        report(7, True, detail + "; no significant improvement from reshuffling")
        return
    # improvement appeared: document sensitivity over the reshuffle interval
    lines = [f"Dynamic reshuffling improves perceptive self-organization at "
             f"defaults ({detail}).",
             "Sensitivity over reshuffle interval R (100 replicates/arm):"]
    for r_interval, dyn_r in _r_sweep(tmp_path / "sweep", "perceptive").items():
        cmp_r = mann_whitney_u(dyn_r, silo)
        faster = median(dyn_r) < m_silo and cmp_r.p_value < 0.05
        lines.append(f"  R={r_interval}: median {median(dyn_r):.1f} vs Siloed "
                     f"{m_silo:.1f}, p={cmp_r.p_value:.3g} "
                     f"({'improves' if faster else 'no significant improvement'})")
    lines.append("Structurally the dynamic design approaches the siloed design "
                 "as R grows (reshuffles become rare), so any improvement must "
                 "vanish in the large-R limit.")
    findings = "\n".join(lines)
    (tmp_path / "criterion7_R_sensitivity.md").write_text(findings)
    print("\n" + findings)
    report(7, True, detail + "; improvement present, R sensitivity documented")


# ---------------------------------------------------------------------------
# criterion 8: desk-scale runtime

def test_criterion_8_runtime(default_grid):
    _, _, grid_elapsed = default_grid
    cfg = SimConfig(master_seed=ACCEPTANCE_SEED,
                    design="fully_networked", tendency="reactive")
    run_replicate(cfg, 0)  # warm-up
    single = min(
        _timed(run_replicate, cfg, i) for i in range(3))
    report(8, grid_elapsed < 60.0 and single < 0.05,
           f"default 6-arm grid (200 replicates/arm) in {grid_elapsed:.1f}s "
           f"(< 60s); single replicate {single * 1000:.1f}ms (< 50ms)")


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start

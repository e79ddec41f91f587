import itertools
import tracemalloc

import numpy as np
import pytest

from orgswarm import ConfigError, SimConfig, parse_config_dict, run_experiment, run_replicate
from orgswarm.engine import derive_replicate_seed, init_swarm, replicate_rng, step
from reference_step import reference_hits


def config(**overrides):
    base = dict(master_seed=42, design="fully_networked",
                tendency="reactive", dim=8, agents=6, max_iterations=80)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_defaults(self):
        c = SimConfig(master_seed=1, design="fully_networked",
                      tendency="reactive")
        assert (c.dim, c.agents, c.max_iterations) == (25, 20, 1000)
        assert c.v_max == 4.0 and c.delta == 0.1 and c.alpha == 0.1
        assert c.pressure_horizon == 250
        assert c.replicates == 200

    def test_invalid_fields_all_reported(self):
        bad = config(dim=0, alpha=3.0, v_max=-1.0)
        with pytest.raises(ConfigError) as err:
            bad.validate()
        message = str(err.value)
        for name in ("dim", "alpha", "v_max"):
            assert name in message
        assert err.value.fields == ["dim", "v_max", "alpha"]

    def test_init_range_outside_bounds_rejected(self):
        with pytest.raises(ConfigError) as err:
            config(self_belief_init=(1.0, 3.0)).validate()
        assert "self_belief_init" in str(err.value)

    def test_silo_count_checked_against_agents(self):
        with pytest.raises(ConfigError) as err:
            config(design="siloed", silo_count=30, agents=20).validate()
        assert "silo_count" in str(err.value)

    def test_bad_gbest_mode(self):
        with pytest.raises(ConfigError):
            config(gbest_mode="psychic").validate()

    def test_bad_binarization(self):
        # not a config key: the one stochastic-sigmoid rule is the model, so
        # a config naming it, even with that value, is rejected as unknown
        assert not hasattr(config(), "binarization")
        for bad in ({"master_seed": 1, "binarization": "sigmoid-stochastic"},
                    {"master_seed": 1, "binarization": "round"},
                    {"master_seed": 1, "arms": [{"design": "siloed",
                                                 "tendency": "reactive",
                                                 "binarization": None}]}):
            with pytest.raises(ConfigError) as err:
                parse_config_dict(bad)
            assert err.value.fields == ["binarization"]


class TestSeedDerivation:
    def test_stacked_draw_is_two_block_draws(self):
        # step draws the C1 and C2 multipliers into one (2, N, D) buffer;
        # the documented stream is two successive (N, D) draws
        stacked, blocks = replicate_rng(9, 4), replicate_rng(9, 4)
        buffer = np.empty((2, 7, 3))
        assert stacked.random(out=buffer) is buffer
        assert np.array_equal(buffer, [blocks.random((7, 3)), blocks.random((7, 3))])
        assert stacked.random() == blocks.random()  # and both streams go on alike

    def test_deterministic_and_distinct(self):
        seeds = {derive_replicate_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_replicate_seed(42, 5) == derive_replicate_seed(42, 5)
        assert derive_replicate_seed(42, 5) != derive_replicate_seed(43, 5)

    def test_u64_range(self):
        for i in range(100):
            assert 0 <= derive_replicate_seed(2**64 - 1, i) < 2**64


class TestInitSwarm:
    def test_degenerate_single_agent(self):
        c = config(agents=1)
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        assert state.assignment.silo_of.tolist() == [0]
        assert np.array_equal(state.bests[0], state.positions)
        assert (state.velocities == 0).all()

    def test_same_seed_same_swarm(self):
        c = config()
        a = init_swarm(c, replicate_rng(c.master_seed, 3))
        b = init_swarm(c, replicate_rng(c.master_seed, 3))
        for field in ("goal", "positions", "inertia", "coefficients"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(a.assignment.silo_of, b.assignment.silo_of)

    def test_coefficient_ranges(self):
        c = config(agents=50, inertia_init=(0.4, 0.9),
                   self_belief_init=(0.5, 1.5), prestige_bias_init=(0.5, 1.5))
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        assert ((state.inertia >= 0.4) & (state.inertia <= 0.9)).all()
        self_belief, prestige_bias = state.coefficients
        assert ((self_belief >= 0.5) & (self_belief <= 1.5)).all()
        assert ((prestige_bias >= 0.5) & (prestige_bias <= 1.5)).all()

    def test_pbest_fitness_consistent(self):
        c = config()
        state = init_swarm(c, replicate_rng(c.master_seed, 1))
        expected = (state.bests[0] != state.goal).sum(axis=1)
        assert np.array_equal(state.pbest_fitness, expected)


class TestStep:
    def test_determinism(self):
        c = config()
        a = init_swarm(c, replicate_rng(c.master_seed, 2))
        b = init_swarm(c, replicate_rng(c.master_seed, 2))
        for _ in range(20):
            step(a)
            step(b)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.pbest_fitness, b.pbest_fitness)

    def test_pbest_monotone_and_consistent(self):
        c = config(dim=10, agents=8)
        state = init_swarm(c, replicate_rng(c.master_seed, 4))
        prev = state.pbest_fitness.copy()
        for _ in range(60):
            step(state)
            assert (state.pbest_fitness <= prev).all()
            expected = (state.bests[0] != state.goal).sum(axis=1)
            assert np.array_equal(state.pbest_fitness, expected)
            prev = state.pbest_fitness.copy()

    def test_step_allocates_no_float_block(self):
        # The (N, D) arithmetic runs in the state's buffers: after warm-up, a
        # step's peak of fresh memory stays below one N x D float block
        # (the bit rows it allocates are 1 byte per element).
        c = config(dim=200, agents=200, design="siloed", silo_count=20,
                   stochastic_acceleration=True, gbest_mode="instantaneous")
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        for _ in range(3):
            step(state)
        tracemalloc.start()
        try:
            step(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < c.agents * c.dim * 8

    def test_velocities_respect_clamp(self):
        c = config(v_max=2.5)
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        for _ in range(40):
            step(state)
            assert (np.abs(state.velocities) <= 2.5).all()

    def test_trace_best_le_mean(self):
        c = config(max_iterations=40)
        r = run_replicate(c, 5, full=True)
        assert r.trace_best.size == r.iterations_run + 1 > 1
        assert all(b <= m + 1e-12 for b, m in zip(r.trace_best, r.trace_mean))
        # both are read off the per-agent fitness at t = 0..iterations_run
        rows = r.full_trace["fitness"].tolist()
        assert r.trace_best.tolist() == [min(row) for row in rows]
        assert r.trace_mean.tolist() == [sum(row) / len(row) for row in rows]

    def test_dynamic_reshuffles_on_schedule(self):
        c = config(design="dynamic", silo_count=3, reshuffle_interval=5, agents=9)
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        before = state.assignment.silo_of.copy()
        for _ in range(4):
            step(state)
            assert np.array_equal(state.assignment.silo_of, before)
        step(state)
        # a reshuffle happened at t=5 (new draw; equality would be a fluke)
        assert not np.array_equal(state.assignment.silo_of, before)


class TestRunReplicate:
    def test_deterministic_result(self):
        c = config()
        a = run_replicate(c, 0)
        b = run_replicate(c, 0)
        assert (a.group_convergence, a.first_any_hit, a.iterations_run) == (
            b.group_convergence, b.first_any_hit, b.iterations_run)
        assert np.array_equal(a.trace_best, b.trace_best)
        assert np.array_equal(a.goal, b.goal)

    def test_budget_of_one_iteration(self):
        c = config(max_iterations=1)
        r = run_replicate(c, 0)
        assert r.iterations_run <= 1

    def test_group_convergence_is_max_first_hit(self):
        c = config(dim=5, agents=4, max_iterations=300)
        for i in range(5):
            r = run_replicate(c, i, full=True)
            first_hit = reference_hits(r.full_trace["fitness"].tolist())[0]
            assert r.group_convergence is not None
            assert r.group_convergence == max(first_hit) == r.iterations_run
            assert r.first_any_hit == min(first_hit)
            assert r.first_any_hit <= r.group_convergence

    def test_initial_hit_recorded_at_zero(self):
        # With D=2 an agent matches the goal immediately in most replicates;
        # find one deterministically and pin it.
        c = config(dim=2, agents=4, max_iterations=10)
        for i in range(20):
            r = run_replicate(c, i, full=True)
            if r.trace_best[0] == 0:
                assert (r.full_trace["fitness"][0] == 0).any()
                assert r.first_any_hit == 0
                return
        pytest.fail("no replicate with an immediate hit found")

    def test_trace_length_matches_iterations_run(self):
        c = config(max_iterations=30)
        r = run_replicate(c, 1)
        assert r.trace_best.size == r.iterations_run + 1
        assert r.trace_mean.size == r.iterations_run + 1

    def test_full_trace_leaves_the_replicate_unchanged(self):
        c = config(dim=20, agents=10, max_iterations=99)
        r = run_replicate(c, 0)
        assert r.iterations_run > 0 and r.full_trace is None
        f = run_replicate(c, 0, full=True)
        for result in (r, f):
            assert result.trace_best.size == result.trace_mean.size == r.iterations_run + 1
        assert (r.group_convergence, r.first_any_hit, r.final_best_fitness) == (
            f.group_convergence, f.first_any_hit, f.final_best_fitness)
        assert np.array_equal(r.trace_best, f.trace_best)
        assert np.array_equal(r.trace_mean, f.trace_mean)

    def test_strings_built_at_run_time_take_the_literal_branches(self):
        # a parsed config holds fresh str objects, not the interned literals,
        # so a design or tendency compared by identity would miss its branch
        options = dict(silo_count=3, reshuffle_interval=2, dim=12, agents=9, max_iterations=60)
        signatures = set()
        for design, tendency in itertools.product(("dynamic", "fully_networked", "siloed"),
                                                  ("perceptive", "reactive")):
            built = ["".join(list(s)) for s in (design, tendency)]
            assert built == [design, tendency]
            assert built[0] is not design and built[1] is not tendency
            a = run_replicate(config(design=design, tendency=tendency, **options), 3, full=True)
            b = run_replicate(config(design=built[0], tendency=built[1], **options), 3,
                              full=True)
            assert (a.group_convergence, a.first_any_hit, a.iterations_run) == (
                b.group_convergence, b.first_any_hit, b.iterations_run)
            arrays = [(a.goal, b.goal), (a.trace_best, b.trace_best),
                      (a.trace_mean, b.trace_mean),
                      *((a.full_trace[k], b.full_trace[k]) for k in a.full_trace)]
            for x, y in arrays:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            signatures.add(a.full_trace["fitness"].tobytes())
        assert len(signatures) == 6  # each arm takes its own branches

    @pytest.mark.parametrize("level", ["none", "group", "full"])
    def test_trace_level_argument_refused(self, level):
        # full is keyword-only: a positional level string (truthy) cannot
        # silently ask for the per-agent trace
        with pytest.raises(TypeError):
            run_replicate(config(max_iterations=5), 0, level)

    def test_never_converged_flagged(self):
        c = config(dim=20, agents=10, max_iterations=3)
        r = run_replicate(c, 0)
        assert r.group_convergence is None
        assert r.iterations_run == 3

    def test_full_trace_row_per_iteration(self):
        c = config(max_iterations=25)
        r = run_replicate(c, 0, full=True)
        ft = r.full_trace
        assert ft.keys() == {"fitness", "silo", "coefficients", "inertia"}
        for key in ("fitness", "silo"):
            assert ft[key].shape == (r.iterations_run + 1, c.agents)
        assert ft["coefficients"].shape == (r.iterations_run + 1, 2, c.agents)
        assert ft["inertia"].shape == (c.agents,)
        # the hits are those read off the per-agent fitness trace
        assert ft["fitness"].dtype == np.int64
        _, group, first_any, best = reference_hits(ft["fitness"].tolist())
        assert (r.group_convergence, r.first_any_hit, r.final_best_fitness) == (
            group, first_any, best)

    def test_gbest_mode_instantaneous_uses_current_positions(self):
        # Force pbest and current fitness to disagree about the leader; the
        # two modes must pull agent 1 toward different references.
        c = config(dim=4, agents=2, delta=0.001)
        states = {}
        for mode in ("historical", "instantaneous"):
            cm = config(dim=4, agents=2, gbest_mode=mode)
            s = init_swarm(cm, replicate_rng(cm.master_seed, 0))
            s.goal = np.array([1, 1, 1, 1], dtype=np.int8)
            s.positions = np.array([[1, 1, 1, 0], [0, 0, 0, 0]], dtype=np.int8)
            s.bests[0] = [[0, 1, 0, 0], [1, 1, 0, 0]]
            s.fitness = (s.positions != s.goal).sum(axis=1)      # [1, 4]
            s.pbest_fitness = (s.bests[0] != s.goal).sum(axis=1)  # [3, 2]
            s.velocities[:] = 0.0
            step(s)
            states[mode] = s.velocities.copy()
        # agent 1's reference: historical -> its own pbest (fitness 2);
        # instantaneous -> agent 0's position (fitness 1); different pulls.
        assert not np.allclose(states["historical"][1], states["instantaneous"][1])

    def test_stochastic_acceleration_deterministic_but_distinct(self):
        base = run_replicate(config(), 0)
        a = run_replicate(config(stochastic_acceleration=True), 0)
        b = run_replicate(config(stochastic_acceleration=True), 0)
        assert np.array_equal(a.trace_mean, b.trace_mean)
        assert a.group_convergence == b.group_convergence
        assert (a.group_convergence != base.group_convergence
                or not np.array_equal(a.trace_mean, base.trace_mean))

    def test_goal_is_absorbing_in_memory_not_position(self):
        # Park the whole swarm on the goal with zero velocity: the next step
        # flips each bit with probability sigmoid(0) = 0.5, but every
        # personal best stays at the goal.
        c = config(dim=10, agents=5)
        s = init_swarm(c, replicate_rng(c.master_seed, 0))
        s.positions = np.tile(s.goal, (5, 1)).astype(np.int8)
        s.bests[0] = s.positions
        s.fitness = np.zeros(5, dtype=s.fitness.dtype)
        s.pbest_fitness = np.zeros(5, dtype=s.pbest_fitness.dtype)
        s.velocities[:] = 0.0
        step(s)
        assert (s.pbest_fitness == 0).all()
        assert np.array_equal(s.bests[0], np.tile(s.goal, (5, 1)))
        # positions do not freeze: over 50 bits, some flips are near-certain
        assert s.fitness.sum() > 0

    def test_freeze_on_goal_pins_position(self):
        # an agent has hit once its personal best is 0; from then on it stays put
        c = config(dim=4, agents=3, max_iterations=200, freeze_on_goal=True)
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        frozen_positions = {}
        while True:
            for i in np.flatnonzero(state.pbest_fitness == 0):
                frozen_positions.setdefault(i, state.positions[i].copy())
            if len(frozen_positions) == c.agents or state.t == c.max_iterations:
                break
            step(state)
            for i, position in frozen_positions.items():
                assert np.array_equal(state.positions[i], position)
        assert len(frozen_positions) == c.agents

    def test_seed_column_matches_derivation(self, tmp_path):
        spec = parse_config_dict({"master_seed": 42, "dim": 4, "agents": 3, "max_iterations": 5,
                                  "replicates": 8, "trace": "none",
                                  "arms": [{"label": "a", "design": "fully_networked",
                                            "tendency": "reactive"}]})
        run_experiment(spec, tmp_path)
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [
            str(derive_replicate_seed(42, i)) for i in range(8)]


class TestSmallInstanceConvergence:
    def test_guided_search_beats_random_floor(self):
        # D=3, N=4, fully networked, reactive, T=500: the 8-point space must
        # be solved by >= 95% of 100 replicates. A pure random-search oracle
        # establishes that the harness floor itself is near-certain success.
        c = config(dim=3, agents=4, max_iterations=500,
                   design="fully_networked",
                   tendency="reactive", master_seed=2026)
        guided = sum(run_replicate(c, i).group_convergence is not None for i in range(100))

        oracle_rng = np.random.default_rng(909)
        random_successes = 0
        for _ in range(100):
            goal = oracle_rng.integers(0, 2, 3)
            hit = np.zeros(4, dtype=bool)
            for _ in range(501):
                draws = oracle_rng.integers(0, 2, (4, 3))
                hit |= (draws == goal).all(axis=1)
                if hit.all():
                    random_successes += 1
                    break
        assert random_successes >= 95
        assert guided >= 95

import numpy as np
import pytest

from orgswarm import (ConfigError, OrgDesign, SimConfig, Tendency,
                      derive_replicate_seed, init_swarm, parse_config_dict,
                      replicate_rng, run_replicate, step)


def config(**overrides):
    base = dict(master_seed=42, design=OrgDesign.fully_networked(),
                tendency=Tendency.REACTIVE, dim=8, agents=6, max_iterations=80)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_defaults(self):
        c = SimConfig(master_seed=1, design=OrgDesign.fully_networked(),
                      tendency=Tendency.REACTIVE)
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
            config(design=OrgDesign.siloed(30), agents=20).validate()
        assert "silo_count" in str(err.value)

    def test_bad_gbest_mode(self):
        with pytest.raises(ConfigError):
            config(gbest_mode="psychic").validate()

    def test_bad_binarization(self):
        # not a SimConfig field: the one stochastic-sigmoid rule is the
        # model; configs may still name it, and nothing else
        assert not hasattr(config(), "binarization")
        ok = {"master_seed": 1, "binarization": "sigmoid-stochastic"}
        assert parse_config_dict(ok) == parse_config_dict({"master_seed": 1})
        for bad in ({**ok, "binarization": "round"},
                    {"master_seed": 1, "arms": [{"design": "siloed",
                                                 "tendency": "reactive",
                                                 "binarization": None}]}):
            with pytest.raises(ConfigError) as err:
                parse_config_dict(bad)
            assert err.value.fields == ["binarization"]


class TestSeedDerivation:
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
        assert np.array_equal(state.pbest_positions, state.positions)
        assert (state.velocities == 0).all()

    def test_same_seed_same_swarm(self):
        c = config()
        a = init_swarm(c, replicate_rng(c.master_seed, 3))
        b = init_swarm(c, replicate_rng(c.master_seed, 3))
        for field in ("goal", "positions", "inertia", "self_belief",
                      "prestige_bias"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(a.assignment.silo_of, b.assignment.silo_of)

    def test_coefficient_ranges(self):
        c = config(agents=50, inertia_init=(0.4, 0.9),
                   self_belief_init=(0.5, 1.5), prestige_bias_init=(0.5, 1.5))
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        assert ((state.inertia >= 0.4) & (state.inertia <= 0.9)).all()
        assert ((state.self_belief >= 0.5) & (state.self_belief <= 1.5)).all()
        assert ((state.prestige_bias >= 0.5) & (state.prestige_bias <= 1.5)).all()

    def test_pbest_fitness_consistent(self):
        c = config()
        state = init_swarm(c, replicate_rng(c.master_seed, 1))
        expected = (state.pbest_positions != state.goal).sum(axis=1)
        assert np.array_equal(state.pbest_fitness, expected)


class TestStep:
    def test_steps_must_be_sequential(self):
        c = config()
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        with pytest.raises(Exception):
            step(state, 5)

    def test_determinism(self):
        c = config()
        a = init_swarm(c, replicate_rng(c.master_seed, 2))
        b = init_swarm(c, replicate_rng(c.master_seed, 2))
        for t in range(1, 21):
            step(a, t)
            step(b, t)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.first_hit, b.first_hit)

    def test_pbest_monotone_and_consistent(self):
        c = config(dim=10, agents=8)
        state = init_swarm(c, replicate_rng(c.master_seed, 4))
        prev = state.pbest_fitness.copy()
        for t in range(1, 61):
            step(state, t)
            assert (state.pbest_fitness <= prev).all()
            expected = (state.pbest_positions != state.goal).sum(axis=1)
            assert np.array_equal(state.pbest_fitness, expected)
            prev = state.pbest_fitness.copy()

    def test_velocities_respect_clamp(self):
        c = config(v_max=2.5)
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        for t in range(1, 41):
            step(state, t)
            assert (np.abs(state.velocities) <= 2.5).all()

    def test_trace_best_le_mean(self):
        c = config()
        state = init_swarm(c, replicate_rng(c.master_seed, 5))
        for t in range(1, 41):
            step(state, t)
        assert all(b <= m + 1e-12 for b, m in zip(state.trace_best,
                                                  state.trace_mean))

    def test_dynamic_reshuffles_on_schedule(self):
        c = config(design=OrgDesign.dynamic(3, 5), agents=9)
        state = init_swarm(c, replicate_rng(c.master_seed, 0))
        before = state.assignment.silo_of.copy()
        for t in range(1, 5):
            step(state, t)
            assert np.array_equal(state.assignment.silo_of, before)
        step(state, 5)
        # a reshuffle happened at t=5 (new draw; equality would be a fluke)
        assert not np.array_equal(state.assignment.silo_of, before)


class TestRunReplicate:
    def test_deterministic_result(self):
        c = config()
        a = run_replicate(c, 0)
        b = run_replicate(c, 0)
        assert a.group_convergence == b.group_convergence
        assert np.array_equal(a.first_hit, b.first_hit)
        assert np.array_equal(a.trace_best, b.trace_best)
        assert a.seed == b.seed

    def test_budget_of_one_iteration(self):
        c = config(max_iterations=1)
        r = run_replicate(c, 0)
        assert r.iterations_run <= 1

    def test_group_convergence_is_max_first_hit(self):
        c = config(dim=5, agents=4, max_iterations=300)
        for i in range(5):
            r = run_replicate(c, i)
            assert r.group_convergence is not None
            assert r.group_convergence == r.first_hit.max()
            assert r.first_any_hit == r.first_hit.min()
            assert r.first_any_hit <= r.group_convergence

    def test_initial_hit_recorded_at_zero(self):
        # With D=2 an agent matches the goal immediately in most replicates;
        # find one deterministically and pin it.
        c = config(dim=2, agents=4, max_iterations=10)
        for i in range(20):
            r = run_replicate(c, i)
            if r.initial_best == 0:
                assert (r.first_hit == 0).any()
                assert r.first_any_hit == 0
                return
        pytest.fail("no replicate with an immediate hit found")

    def test_trace_length_matches_iterations_run(self):
        c = config(max_iterations=30)
        r = run_replicate(c, 1)
        assert r.trace_best.size == r.iterations_run
        assert r.trace_mean.size == r.iterations_run

    def test_trace_none_records_nothing_per_step(self):
        c = config(dim=20, agents=10, max_iterations=99)
        r = run_replicate(c, 0, "none")
        assert r.iterations_run > 0
        assert r.trace_best.size == 0 and r.trace_mean.size == 0
        g = run_replicate(c, 0, "group")
        assert g.trace_best.size == g.trace_mean.size == r.iterations_run
        assert (r.group_convergence, r.final_best_fitness, r.initial_best) == (
            g.group_convergence, g.final_best_fitness, g.initial_best)
        assert np.array_equal(r.first_hit, g.first_hit)

    def test_never_converged_flagged(self):
        c = config(dim=20, agents=10, max_iterations=3)
        r = run_replicate(c, 0)
        assert r.group_convergence is None
        assert not r.success
        assert r.iterations_run == 3

    def test_full_trace_row_per_iteration(self):
        c = config(max_iterations=25)
        r = run_replicate(c, 0, trace_level="full")
        ft = r.full_trace
        for key in ("fitness", "silo", "self_belief", "prestige_bias"):
            assert ft[key].shape == (r.iterations_run + 1, c.agents)
        assert ft["inertia"].shape == (c.agents,)
        # first hits re-derivable from the per-agent fitness trace
        for agent in range(c.agents):
            zeros = np.flatnonzero(ft["fitness"][:, agent] == 0)
            expected = int(zeros[0]) if zeros.size else -1
            assert r.first_hit[agent] == expected

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
            s.pbest_positions = np.array([[0, 1, 0, 0], [1, 1, 0, 0]], dtype=np.int8)
            s.fitness = (s.positions != s.goal).sum(axis=1)      # [1, 4]
            s.pbest_fitness = (s.pbest_positions != s.goal).sum(axis=1)  # [3, 2]
            s.velocities[:] = 0.0
            step(s, 1)
            states[mode] = s.velocities.copy()
        # agent 1's reference: historical -> its own pbest (fitness 2);
        # instantaneous -> agent 0's position (fitness 1); different pulls.
        assert not np.allclose(states["historical"][1], states["instantaneous"][1])

    def test_stochastic_acceleration_deterministic_but_distinct(self):
        base = run_replicate(config(), 0)
        a = run_replicate(config(stochastic_acceleration=True), 0)
        b = run_replicate(config(stochastic_acceleration=True), 0)
        assert np.array_equal(a.first_hit, b.first_hit)
        assert a.group_convergence == b.group_convergence
        assert (a.group_convergence != base.group_convergence
                or not np.array_equal(a.first_hit, base.first_hit))

    def test_goal_is_absorbing_in_memory_not_position(self):
        # Park the whole swarm on the goal with zero velocity: the next step
        # flips each bit with probability sigmoid(0) = 0.5, but every
        # personal best stays at the goal.
        c = config(dim=10, agents=5)
        s = init_swarm(c, replicate_rng(c.master_seed, 0))
        s.positions = np.tile(s.goal, (5, 1)).astype(np.int8)
        s.pbest_positions = s.positions.copy()
        s.fitness = np.zeros(5, dtype=s.fitness.dtype)
        s.pbest_fitness = np.zeros(5, dtype=s.pbest_fitness.dtype)
        s.velocities[:] = 0.0
        s.first_hit[:] = 0
        s.group_convergence = 0
        step(s, 1)
        assert (s.pbest_fitness == 0).all()
        assert np.array_equal(s.pbest_positions, np.tile(s.goal, (5, 1)))
        # positions do not freeze: over 50 bits, some flips are near-certain
        assert s.fitness.sum() > 0

    def test_freeze_on_goal_pins_position(self):
        c = config(dim=4, agents=3, max_iterations=200, freeze_on_goal=True)
        seed_rng = replicate_rng(c.master_seed, 0)
        state = init_swarm(c, seed_rng)
        frozen_positions = {}
        for t in range(1, c.max_iterations + 1):
            step(state, t)
            for i in range(c.agents):
                if state.first_hit[i] >= 0 and state.first_hit[i] < t:
                    if i in frozen_positions:
                        assert np.array_equal(state.positions[i],
                                              frozen_positions[i])
                if state.first_hit[i] == t:
                    frozen_positions[i] = state.positions[i].copy()
            if state.group_convergence is not None:
                break

    def test_seed_column_matches_derivation(self):
        c = config()
        r = run_replicate(c, 7)
        assert r.seed == derive_replicate_seed(42, 7)


class TestSmallInstanceConvergence:
    def test_guided_search_beats_random_floor(self):
        # D=3, N=4, fully networked, reactive, T=500: the 8-point space must
        # be solved by >= 95% of 100 replicates. A pure random-search oracle
        # establishes that the harness floor itself is near-certain success.
        c = config(dim=3, agents=4, max_iterations=500,
                   design=OrgDesign.fully_networked(),
                   tendency=Tendency.REACTIVE, master_seed=2026)
        guided = sum(run_replicate(c, i).success for i in range(100))

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

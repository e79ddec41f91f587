import math

import numpy as np
import pytest

from orgswarm import ConfigError, SimConfig, parse_config_dict
from orgswarm.kinematics import clamp_velocity, sigmoid, update_velocity
from orgswarm.engine import init_swarm, replicate_rng, step


class StubRng:
    """Feeds a fixed uniform sequence to the engine's binarization draw."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, out):
        out[...] = np.reshape(self.values[:out.size], out.shape)
        del self.values[:out.size]
        return out


def engine_position_update(position, velocity, draws=None, seed=1):
    """New positions from one engine step whose pulls are all zero.

    With W = 1 and C1 = C2 = 0 the step's velocity is ``velocity`` clamped
    to +/-4, so the new bits come from the engine's binarization alone.
    ``draws`` replaces the replicate stream's uniforms when given.
    """
    position = np.asarray(position, dtype=np.int8)
    rows = np.atleast_2d(position)
    cfg = SimConfig(master_seed=seed, design="fully_networked",
                    tendency="reactive", dim=rows.shape[1],
                    agents=rows.shape[0], inertia_init=(1.0, 1.0),
                    self_belief_init=(0.0, 0.0), prestige_bias_init=(0.0, 0.0))
    state = init_swarm(cfg, replicate_rng(seed, 0))
    state.positions = rows.copy()
    state.bests[0] = rows
    state.velocities = np.asarray(velocity, dtype=float).reshape(rows.shape).copy()
    if draws is not None:
        state.rng = StubRng(draws)
    step(state)
    return state.positions.reshape(position.shape)


class TestUpdateVelocity:
    def test_pure_inertia_identity(self):
        v = update_velocity([0.3], [0], [[0], [0]], 1.0, [[0.0], [0.0]])
        assert v == pytest.approx([0.3])

    def test_zero_acceleration_when_positions_coincide(self):
        v = update_velocity([0.4], [1], [[1], [1]], 0.5, [[1.3], [0.7]])
        assert v == pytest.approx([0.2])

    def test_scalar_evaluation(self):
        # 0.5*0.2 + 1.0*(1-0) + 1.5*(1-0) = 2.6
        v = update_velocity([0.2], [0], [[1], [1]], 0.5, [[1.0], [1.5]])
        assert v == pytest.approx([2.6])

    def test_dimension_mismatch(self):
        # Every array the engine passes has shape (agents, dim); the config
        # boundary rejects both unless they are integers >= 1.
        for key in ("dim", "agents"):
            for bad in (0, 2.5, "6", True, None):
                with pytest.raises(ConfigError) as err:
                    parse_config_dict({"master_seed": 1, key: bad})
                assert err.value.fields == [key]

    def test_non_finite_coefficient(self):
        # Coefficients come from the init ranges, which the config boundary
        # rejects unless they are finite.
        for key, pair in (("inertia_init", [float("nan"), 0.9]),
                          ("self_belief_init", [0.5, float("inf")])):
            with pytest.raises(ConfigError) as err:
                parse_config_dict({"master_seed": 1, key: pair})
            assert key in err.value.fields

    def test_linearity_in_inertia(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 30))
            v = rng.normal(size=d)
            p = rng.integers(0, 2, d)
            w = float(rng.uniform(0, 2))
            out = update_velocity(v, p, [p, p], w, [[0.0], [0.0]])
            assert np.allclose(out, w * v)

    def test_geometric_decay_at_consensus(self):
        v = np.array([3.0, -2.0, 0.5])
        p = np.array([1, 0, 1])
        w = 0.7
        for t in range(1, 12):
            v = clamp_velocity(update_velocity(v, p, [p, p], w, [[1.1], [0.9]]), 4.0)
            assert np.allclose(np.abs(v), (w ** t) * np.array([3.0, 2.0, 0.5]))

    def test_whole_swarm_matches_per_agent(self):
        rng = np.random.default_rng(8)
        n, d = 7, 5
        vel = rng.normal(size=(n, d))
        pos = rng.integers(0, 2, (n, d))
        pb = rng.integers(0, 2, (n, d))
        gb = rng.integers(0, 2, (n, d))
        w = rng.uniform(0.4, 0.9, n)
        c1 = rng.uniform(0.5, 1.5, n)
        c2 = rng.uniform(0.5, 1.5, n)
        coefficients = np.stack([c1, c2])[:, :, None]
        batch = update_velocity(vel, pos, np.stack([pb, gb]), w[:, None], coefficients)
        for i in range(n):
            single = update_velocity(vel[i], pos[i], [pb[i], gb[i]],
                                     w[i], [[c1[i]], [c2[i]]])
            assert np.array_equal(batch[i], single)
        # into buffers, the engine's way: the pulls into work, in place
        work, out = np.empty((2, n, d)), vel.copy()
        buffered = update_velocity(out, pos, np.stack([pb, gb]), w[:, None],
                                   coefficients, out=out, work=work)
        assert buffered is out and np.array_equal(buffered, batch)


class TestClampVelocity:
    @pytest.mark.parametrize("v,expected", [(5.0, 4.0), (-5.0, -4.0), (3.2, 3.2)])
    def test_clamp_cases(self, v, expected):
        assert clamp_velocity(np.array([v]), 4.0)[0] == expected

    def test_invalid_vmax(self):
        for bad in (0.0, -1.0, float("nan"), float("inf"), "4", None, True):
            with pytest.raises(ConfigError) as err:
                parse_config_dict({"master_seed": 1, "v_max": bad})
            assert err.value.fields == ["v_max"]

    def test_all_components_within_bounds(self):
        rng = np.random.default_rng(4)
        v = clamp_velocity(rng.normal(scale=10, size=1000), 4.0)
        assert (np.abs(v) <= 4.0).all()


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_asymptotes(self):
        assert sigmoid(60.0) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(-60.0) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert abs(sigmoid(2.0) - expected) < 1e-12
        assert sigmoid(2.0) == pytest.approx(0.8808, abs=1e-4)

    def test_strictly_increasing(self):
        xs = np.linspace(-8, 8, 500)
        ys = sigmoid(xs)
        assert (np.diff(ys) > 0).all()


class TestUpdatePosition:
    """The engine's stochastic binarization: bit d is 1 iff u_d < sigmoid(v_d)."""

    def test_high_velocity_with_draw_below_probability(self):
        # sigmoid(4.0) ~ 0.9820 > 0.9 -> bit set
        assert engine_position_update([0], [4.0], [0.9]).tolist() == [1]

    def test_zero_velocity_threshold(self):
        assert engine_position_update([0], [0.0], [0.4]).tolist() == [1]
        assert engine_position_update([1], [0.0], [0.6]).tolist() == [0]

    def test_deterministic_given_seed(self):
        v = np.linspace(-2, 2, 9)
        p = np.zeros(9, dtype=np.int8)
        a = engine_position_update(p, v, seed=5)
        b = engine_position_update(p, v, seed=5)
        assert np.array_equal(a, b)

    def test_output_is_valid_position(self):
        rng = np.random.default_rng(6)
        out = engine_position_update(rng.integers(0, 2, (10, 20)),
                                     rng.normal(size=(10, 20)))
        assert out.shape == (10, 20) and out.dtype == np.int8
        assert set(np.unique(out)) <= {0, 1}

    def test_block_draws_equal_sequential_rows(self):
        # The (N, D) update consumes uniforms agent-major, dimension order.
        v = np.linspace(-3, 3, 12).reshape(3, 4)
        p = np.zeros((3, 4), dtype=np.int8)
        draws = np.random.default_rng(21).random(12)
        block = engine_position_update(p, v, draws.tolist())
        rows = [(draws[4 * i:4 * i + 4] < sigmoid(v[i])).astype(np.int8)
                for i in range(3)]
        assert np.array_equal(block, np.stack(rows))

    def test_saturated_flip_frequency(self):
        # A velocity of 9 is clamped to +4.0, where P(bit=1) = sigmoid(4.0);
        # 100,000 draws stay within +/- 0.005 of it.
        n = 100_000
        out = engine_position_update(np.zeros(n, dtype=np.int8), np.full(n, 9.0),
                                     seed=77)
        assert abs(out.mean() - sigmoid(4.0)) < 0.005


class TestFullStepAgainstHandEvaluator:
    def test_one_step_matches_brute_force(self):
        # Pure-python evaluation of one velocity+clamp+binarization step for
        # D=3, checked bit-for-bit against agent 1 of a 2-agent engine step
        # whose leader (agent 0) holds gb as its personal best.
        w, c1, c2, v_max = 0.6, 1.2, 0.8, 4.0
        v = [0.5, -1.0, 2.0]
        p = [0, 1, 1]
        pb = [1, 1, 0]
        gb = [1, 0, 0]
        draws = [0.3, 0.9, 0.05]

        expected_v, expected_bits = [], []
        for d in range(3):
            vd = w * v[d] + c1 * (pb[d] - p[d]) + c2 * (gb[d] - p[d])
            vd = max(-v_max, min(v_max, vd))
            expected_v.append(vd)
            expected_bits.append(1 if draws[d] < 1.0 / (1.0 + math.exp(-vd)) else 0)

        cfg = SimConfig(master_seed=3, design="fully_networked",
                        tendency="reactive", dim=3, agents=2, v_max=v_max)
        state = init_swarm(cfg, replicate_rng(3, 0))
        state.goal = np.array(gb, dtype=np.int8)
        state.positions = np.array([gb, p], dtype=np.int8)
        state.bests[0] = [gb, pb]
        state.pbest_fitness = np.array([0, 1])
        state.velocities = np.array([[0.0] * 3, v])
        state.inertia[1], state.coefficients[:, 1] = w, (c1, c2)
        state.rng = StubRng([0.5] * 3 + draws)
        step(state)
        assert np.allclose(state.velocities[1], expected_v, atol=1e-12)
        assert state.positions[1].tolist() == expected_bits

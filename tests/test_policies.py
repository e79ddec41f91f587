import numpy as np
import pytest

from orgswarm import (ConfigError, DesignKind, SimConfig, Tendency, init_swarm,
                      parse_config_dict, pressure, step)
from orgswarm.engine import replicate_rng
from orgswarm.policies import perceptive_shift, reactive_shift
from scripted import scripted_state

BOUNDS = (0.0, 2.0)


def rejected_fields(**config):
    with pytest.raises(ConfigError) as err:
        parse_config_dict({"master_seed": 1, **config})
    return err.value.fields


class TestFeedbackSignal:
    @pytest.mark.parametrize("prev,new,expected", [(5, 3, 2), (4, 4, 0), (2, 6, -4)])
    def test_hand_examples(self, prev, new, expected):
        # The engine's signal is previous minus current fitness: with
        # alpha = 1 the perceptive EMA equals it after one step, and the
        # reactive rule moves C1 by delta * sign(signal).
        perceptive = scripted_state([[prev, new]], tendency=Tendency.PERCEPTIVE,
                                    alpha=1.0)
        reactive = scripted_state([[prev, new]], self_belief_init=(1.0, 1.5))
        step(perceptive)
        step(reactive)
        assert perceptive.feedback_ema[0] == expected
        assert reactive.coefficients[0, 0] == pytest.approx(1.0 + 0.1 * np.sign(expected))


def reactive(c1, c2, signal, step=0.1):
    """``reactive_shift`` on one agent's C1 and C2, as a (C1', C2') pair."""
    return tuple(reactive_shift([[c1], [c2]], signal, step, *BOUNDS)[:, 0])


class TestReactiveUpdate:
    def test_improvement_shifts_toward_self_belief(self):
        c1, c2 = reactive(0.9, 1.1, 1)
        assert c1 == pytest.approx(1.0)
        assert c2 == pytest.approx(1.0)

    def test_zero_signal_is_fixed_point(self):
        c1, c2 = reactive(0.9, 1.1, 0)
        assert (c1, c2) == (0.9, 1.1)

    def test_deterioration_shifts_toward_prestige(self):
        c1, c2 = reactive(1.0, 1.0, -3)
        assert c1 == pytest.approx(0.9)
        assert c2 == pytest.approx(1.1)

    def test_saturation_at_bounds(self):
        c1, c2 = reactive(2.0, 1.1, 1)
        assert c1 == 2.0
        assert c2 == pytest.approx(1.0)

    def test_inertia_never_adapted(self):
        for tendency in Tendency:
            cfg = SimConfig(master_seed=8, design=DesignKind.SILOED, silo_count=2,
                            tendency=tendency, dim=12, agents=6)
            state = init_swarm(cfg, replicate_rng(cfg.master_seed, 0))
            inertia = state.inertia.copy()
            self_belief = state.coefficients[0].copy()
            for _ in range(30):
                step(state)
            assert np.array_equal(state.inertia, inertia)
            assert not np.array_equal(state.coefficients[0], self_belief)

    def test_invalid_delta(self):
        # checked once, at the config boundary, not on every step
        for bad in (0.0, -0.1, "0.1", None):
            assert rejected_fields(delta=bad) == ["delta"]


class TestPressure:
    def test_no_pressure_at_start(self):
        assert pressure(0, 500) == 0.0

    def test_saturation(self):
        assert pressure(500, 500) == 1.0
        assert pressure(9000, 500) == 1.0

    def test_linear_midpoint(self):
        assert pressure(250, 500) == 0.5

    def test_invalid_inputs(self):
        # the horizon is checked at the config boundary; the engine's
        # iteration index starts at 1
        for bad in (0, -5, 2.5, True):
            assert rejected_fields(pressure_horizon=bad) == ["pressure_horizon"]

    def test_unset_horizon_not_named_beside_a_bad_budget(self):
        # the default horizon comes from max_iterations, so it stays unset
        # when max_iterations is rejected; only the key the user set is named
        for bad in ("x", 2.5, True):
            assert rejected_fields(max_iterations=bad) == ["max_iterations"]


def perceptive(ema, c1, c2, signal, t, horizon=500, alpha=0.1, delta=0.1):
    """``perceptive_shift`` on one agent, as (ema', C1', C2')."""
    ema, coefficients = perceptive_shift(ema, [[c1], [c2]], signal, t, horizon, alpha,
                                         delta, *BOUNDS)
    return ema, *coefficients[:, 0]


class TestPerceptiveUpdate:
    def test_ema_arithmetic(self):
        ema, _, _ = perceptive(0.0, 1.0, 1.0, signal=2, t=0)
        assert ema == pytest.approx(0.2)

    def test_effective_step_at_t0(self):
        # pressure 0 -> step = delta * alpha = 0.01
        _, c1, c2 = perceptive(0.0, 1.0, 1.0, signal=2, t=0)
        assert c1 == pytest.approx(1.01)
        assert c2 == pytest.approx(0.99)

    def test_effective_step_saturates_to_delta(self):
        _, c1, _ = perceptive(0.0, 1.0, 1.0, signal=2, t=500)
        assert c1 == pytest.approx(1.1)

    def test_zero_ema_is_fixed_point(self):
        _, c1, c2 = perceptive(0.0, 1.2, 0.8, signal=0, t=100)
        assert c1 == pytest.approx(1.2)
        assert c2 == pytest.approx(0.8)

    def test_invalid_parameters(self):
        # checked once, at the config boundary, not on every step
        for bad in (0.0, -0.5, 1.5, float("nan")):
            assert rejected_fields(alpha=bad) == ["alpha"]
        assert rejected_fields(delta=0.0) == ["delta"]

    def test_effective_step_monotone_in_time(self):
        steps = []
        for t in (0, 100, 250, 400, 500, 700):
            _, c1, _ = perceptive(5.0, 1.0, 1.0, signal=5, t=t)
            steps.append(c1 - 1.0)
        assert all(b >= a - 1e-12 for a, b in zip(steps, steps[1:]))

    def test_degenerates_to_reactive_for_alpha_one_past_horizon(self):
        rng = np.random.default_rng(20)
        signals = rng.integers(-3, 4, 200)
        reactive_c = (1.0, 1.0)
        ema, perceptive_c = 0.0, (1.0, 1.0)
        for i, s in enumerate(signals):
            t = 50 + i
            reactive_c = reactive(*reactive_c, int(s))
            ema, *perceptive_c = perceptive(ema, *perceptive_c, int(s), t,
                                            horizon=50, alpha=1.0)
            assert perceptive_c[0] == pytest.approx(reactive_c[0])
            assert perceptive_c[1] == pytest.approx(reactive_c[1])

    def test_ema_bounded_by_signal_range(self):
        rng = np.random.default_rng(21)
        ema, c1, c2 = 0.0, 1.0, 1.0
        signals = []
        for t in range(300):
            s = int(rng.integers(-6, 7))
            signals.append(s)
            ema, c1, c2 = perceptive(ema, c1, c2, s, t, alpha=0.3)
            lo = min(signals + [0])
            hi = max(signals + [0])
            assert lo - 1e-12 <= ema <= hi + 1e-12


class TestReactiveIsPerceptiveAtAlphaOne:
    """The engine runs reactive agents as perceptive ones at alpha = 1; these
    pin the identity that makes the two bit-identical."""

    def test_full_step_at_every_pressure(self):
        # delta * (p + (1 - p) * 1) == delta needs the bracket to be exactly 1
        t = np.arange(1001)[:, None]
        horizon = np.arange(1, 1001)[None, :]
        p = np.minimum(1.0, t / horizon)  # pressure(t, horizon), vectorised
        for ti, h in [(0, 1), (5, 10), (333, 999), (1000, 3)]:
            assert p[ti, h - 1] == pressure(ti, h)
        assert (p + (1.0 - p) * 1.0 == 1.0).all()

    @pytest.mark.parametrize("delta", [0.1, 1])
    @pytest.mark.parametrize("t,horizon", [(0, 1), (1, 7), (3, 1000), (250, 500), (9, 3)])
    def test_same_bytes_as_reactive_shift(self, delta, t, horizon):
        rng = np.random.default_rng(24)
        n = 400
        signal = rng.integers(-4, 5, n)
        signal[:50] = 0
        prior = rng.normal(size=n)
        prior[::7] = -0.0
        prior[1::7] = 0.0
        coefficients = rng.uniform(*BOUNDS, (2, n))
        # at a clamp, or within one step of it
        coefficients[:, :200] = rng.choice([0.0, 2.0, 0.05, 1.95], size=(2, 200))
        ema, moved = perceptive_shift(prior, coefficients, signal, t, horizon, 1.0, delta,
                                      *BOUNDS)
        assert ema.tobytes() == signal.astype(float).tobytes()
        assert moved.tobytes() == reactive_shift(coefficients, signal, delta,
                                                 *BOUNDS).tobytes()


class TestIntegerParameters:
    def test_integer_step_and_bounds_give_float_coefficients(self):
        # "delta": 1, "coeff_min": 0 and "coeff_max": 2 are valid config values
        coefficients = np.array([[0.5, 1.0, 2.0], [1.5, 1.0, 0.0]])
        signal = np.array([2, 0, -1])
        got = reactive_shift(coefficients, signal, 1, 0, 2)
        assert got.dtype == float
        assert got.tolist() == [[1.5, 1.0, 1.0], [0.5, 1.0, 1.0]]
        ema, got = perceptive_shift(np.zeros(3), coefficients, signal, 9, 3, 1, 1, 0, 2)
        assert ema.tolist() == [2.0, 0.0, -1.0] and got.tolist() == [[1.5, 1.0, 1.0],
                                                                      [0.5, 1.0, 1.0]]


class TestBoundsInvariant:
    def test_coefficients_stay_in_bounds_reactive(self):
        rng = np.random.default_rng(22)
        c1 = rng.uniform(0, 2, 500)
        c2 = rng.uniform(0, 2, 500)
        for _ in range(40):
            sig = rng.integers(-5, 6, 500)
            c1, c2 = reactive_shift(np.stack([c1, c2]), sig, 0.1, *BOUNDS)
            assert (c1 >= 0).all() and (c1 <= 2).all()
            assert (c2 >= 0).all() and (c2 <= 2).all()

    def test_coefficients_stay_in_bounds_perceptive(self):
        rng = np.random.default_rng(23)
        c1 = rng.uniform(0, 2, 500)
        c2 = rng.uniform(0, 2, 500)
        ema = np.zeros(500)
        for t in range(40):
            sig = rng.integers(-5, 6, 500)
            ema, (c1, c2) = perceptive_shift(ema, np.stack([c1, c2]), sig, t, 20, 0.1, 0.1,
                                             *BOUNDS)
            assert (c1 >= 0).all() and (c1 <= 2).all()
            assert (c2 >= 0).all() and (c2 <= 2).all()

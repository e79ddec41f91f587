"""The straightforward swarm iteration, kept as an oracle for ``engine.step``.

``reference_step`` recomputes the neighbourhood bests on every step,
allocates every intermediate, writes every personal best and re-counts the
hits, and writes the frozen agents' coefficients back in place: the plain
reading of the model, with no cache and no buffer. It keeps C1 and C2 apart,
draws their multipliers as two (N, D) blocks, and stores fresh stacked
arrays back into the state. It evaluates the same floating-point expressions
in the same order and draws the same random numbers as ``engine.step``, so
the two must agree to the bit. It reads and writes a :class:`SwarmState`
built by ``init_swarm``; give it a state of its own.
"""

import numpy as np

from orgswarm.policies import Tendency, pressure
from orgswarm.strategy import BIT_DTYPE, fitness_many
from orgswarm.topology import DesignKind, reshuffle, silo_leaders


def _clamp(x, lo, hi):
    # bound first, as np.clip: np.maximum(lo, x) is lo where x == lo
    return np.minimum(hi, np.maximum(lo, x))


def reference_step(state):
    cfg = state.config
    t = state.t + 1

    if cfg.design is DesignKind.DYNAMIC and t % cfg.reshuffle_interval == 0:
        state.assignment = reshuffle(state.assignment, state.rng)

    if cfg.gbest_mode == "historical":
        ref_fit, ref_pos = state.pbest_fitness, state.bests[0]
    else:
        ref_fit, ref_pos = state.fitness, state.positions
    gbest = ref_pos[silo_leaders(state.assignment, ref_fit)[state.assignment.silo_of]]

    shape = state.positions.shape
    pbest = state.bests[0].copy()
    belief, bias = state.coefficients[0].copy(), state.coefficients[1].copy()
    c1 = belief[:, None]
    c2 = bias[:, None]
    if cfg.stochastic_acceleration:
        c1 = c1 * state.rng.random(shape)
        c2 = c2 * state.rng.random(shape)
    vel = (state.inertia[:, None] * state.velocities
           + c1 * (pbest - state.positions)
           + c2 * (gbest - state.positions))
    vel = _clamp(vel, -cfg.v_max, cfg.v_max)
    probability = 1.0 / (1.0 + np.exp(np.negative(vel)))
    uniforms = state.rng.random(shape)
    new_pos = (uniforms < probability).astype(BIT_DTYPE)

    if cfg.freeze_on_goal:
        live = state.first_hit < 0
        frozen = ~live[:, None]
        new_pos = np.where(frozen, state.positions, new_pos)
        vel = np.where(frozen, state.velocities, vel)

    state.velocities = vel
    state.positions = new_pos
    fit = fitness_many(new_pos, state.goal)
    signal = state.fitness - fit
    state.fitness = fit

    improved = fit < state.pbest_fitness
    pbest = np.where(improved[:, None], new_pos, pbest)
    state.pbest_fitness = np.minimum(state.pbest_fitness, fit)

    ema = state.feedback_ema.copy()
    sub_ema, sub_belief, sub_bias, sub_signal = ema, belief, bias, signal
    if cfg.freeze_on_goal:
        sub_ema, sub_belief, sub_bias = ema[live], belief[live], bias[live]
        sub_signal = signal[live]
    if cfg.tendency is Tendency.REACTIVE:
        sub_ema = sub_signal.astype(float)  # the engine's reactive rule is alpha = 1
        step_size = cfg.delta
    else:
        sub_ema = (1.0 - cfg.alpha) * sub_ema + cfg.alpha * sub_signal
        press = pressure(t, cfg.pressure_horizon)
        step_size = cfg.delta * (press + (1.0 - press) * cfg.alpha)
        sub_signal = sub_ema
    move = step_size * np.sign(sub_signal)
    sub_belief = _clamp(sub_belief + move, cfg.coeff_min, cfg.coeff_max)
    sub_bias = _clamp(sub_bias - move, cfg.coeff_min, cfg.coeff_max)
    if cfg.freeze_on_goal:
        ema[live], belief[live], bias[live] = sub_ema, sub_belief, sub_bias
    else:
        ema, belief, bias = sub_ema, sub_belief, sub_bias
    state.feedback_ema = ema
    state.coefficients = np.stack([belief, bias])
    state.bests = np.stack([pbest, gbest])
    state.work = np.stack([uniforms, probability])

    # An agent has hit the goal iff its personal best is 0.
    unhit = np.count_nonzero(state.pbest_fitness)
    if unhit < state.unhit:
        state.first_hit[(fit == 0) & (state.first_hit < 0)] = t
        state.unhit = unhit
        if unhit == 0:
            state.group_convergence = t
    state.t = t
    return state

"""The straightforward swarm iteration, kept as an oracle for ``engine.step``.

``reference_step`` recomputes the neighbourhood bests on every step,
allocates every intermediate, writes every personal best, and writes the
frozen agents' positions and coefficients back: the plain reading of the
model, with no cache and no buffer. A frozen agent pins only those two, the
values an output reads; its velocity and feedback EMA are updated like any
other agent's. It keeps C1 and C2 apart, draws their
multipliers as two (N, D) blocks, and stores fresh stacked arrays back into
the state. It evaluates the same floating-point expressions in the same
order and draws the same random numbers as ``engine.step``, so the two must
agree to the bit. It reads and writes a :class:`SwarmState` built by
``init_swarm``; give it a state of its own.

``reference_hits`` reads the hit measures off a list of fitness rows with
plain loops, as an oracle for the ones ``run_replicate`` derives.
"""

import numpy as np

from orgswarm.policies import pressure
from orgswarm.strategy import BIT_DTYPE, fitness_many
from orgswarm.topology import reshuffle, silo_leaders


def _clamp(x, lo, hi):
    # bound first, as np.clip: np.maximum(lo, x) is lo where x == lo
    return np.minimum(hi, np.maximum(lo, x))


def reference_step(state):
    cfg = state.config
    t = state.t + 1

    if cfg.design == "dynamic" and t % cfg.reshuffle_interval == 0:
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
        frozen = state.pbest_fitness == 0  # an agent has hit iff its personal best is 0
        new_pos = np.where(frozen[:, None], state.positions, new_pos)

    state.velocities = vel
    state.positions = new_pos
    fit = fitness_many(new_pos, state.goal)
    signal = state.fitness - fit
    state.fitness = fit

    improved = fit < state.pbest_fitness
    pbest = np.where(improved[:, None], new_pos, pbest)
    state.pbest_fitness = np.minimum(state.pbest_fitness, fit)

    if cfg.tendency == "reactive":
        ema = signal.astype(float)  # the engine's reactive rule is alpha = 1
        step_size = cfg.delta
    else:
        ema = (1.0 - cfg.alpha) * state.feedback_ema + cfg.alpha * signal
        press = pressure(t, cfg.pressure_horizon)
        step_size = cfg.delta * (press + (1.0 - press) * cfg.alpha)
        signal = ema
    move = step_size * np.sign(signal)
    new_belief = _clamp(belief + move, cfg.coeff_min, cfg.coeff_max)
    new_bias = _clamp(bias - move, cfg.coeff_min, cfg.coeff_max)
    if cfg.freeze_on_goal:
        new_belief[frozen], new_bias[frozen] = belief[frozen], bias[frozen]
    state.feedback_ema = ema
    state.coefficients = np.stack([new_belief, new_bias])
    state.bests = np.stack([pbest, gbest])
    state.work = np.stack([uniforms, probability])
    state.t = t
    return state


def reference_hits(fitness_rows):
    """``(first_hit, group_convergence, first_any_hit, final_best_fitness)`` of
    the fitness rows at t = 0, 1, ...: an agent's first hit is its first t at
    fitness 0 (-1 if none); the group converges at the last of them, if every
    agent hits."""
    first_hit = []
    for agent in range(len(fitness_rows[0])):
        hit = -1
        for t, row in enumerate(fitness_rows):
            if row[agent] == 0:
                hit = t
                break
        first_hit.append(hit)
    hits = [t for t in first_hit if t >= 0]
    group = max(hits) if len(hits) == len(first_hit) else None
    best = min(min(row) for row in fitness_rows)
    return first_hit, group, min(hits) if hits else None, best

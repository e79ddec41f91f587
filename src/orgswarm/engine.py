"""Replicate engine: initialization, the synchronous iteration loop, results.

One replicate owns a single random stream derived from
``(master_seed, replicate_index)`` by SplitMix64 (see
:func:`derive_replicate_seed`) and feeds it to a Philox counter-based bit
generator. Draw order is fixed so identical configurations reproduce
bit-for-bit on any host:

* init: goal bits, then all agent positions as one (N, D) block, then the
  inertia / self-belief / prestige-bias vectors, then the silo permutation
  (siloed/dynamic only);
* each iteration: the reshuffle permutation when due, then (with
  ``stochastic_acceleration``) the C1 and C2 acceleration multipliers as one
  (2, N, D) block, the same stream as two successive (N, D) draws, then the
  (N, D) binarization uniforms, row-major (agent-major, dimension order).

Iteration ``t=0`` is the evaluation of the initial positions; each
:func:`step` is one synchronous update, to ``state.t + 1``. The one loop,
:func:`run_replicate`, steps at ``t = 1..max_iterations`` and stops early once
every personal best is 0, at group convergence; the first hit is the first
``t`` of its best-fitness trace at 0. :func:`step` owns the state, keeps no hit
record and keeps the neighbourhood bests until a reshuffle or an improving step.
A config is an :class:`orgswarm.experiment.SimConfig` that passed its ``validate``;
this module names that type only in annotations and re-checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import clamp_velocity, sigmoid, update_velocity
# reactive_shift stays bound here: perfbench's tracing.TRACED wraps it by this name
from .policies import perceptive_shift, reactive_shift
from .strategy import BIT_DTYPE, fitness_many
from .topology import SiloAssignment, build_assignment, reshuffle, silo_leaders

_MASK64 = 0xFFFFFFFFFFFFFFFF

GBEST_MODES = ("historical", "instantaneous")


def derive_replicate_seed(master_seed: int, replicate_index: int) -> int:
    """SplitMix64 output at counter ``replicate_index``, keyed by the master seed.

    This is the stated counter-based stream split: replicate streams are
    disjoint Philox keys, independent of scheduling or worker count.
    """
    z = (master_seed + (replicate_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_rng(master_seed: int, replicate_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=derive_replicate_seed(master_seed, replicate_index)))


@dataclass
class SwarmState:
    """Mutable whole-swarm state for one replicate (struct-of-arrays), no hit record."""

    config: SimConfig
    rng: np.random.Generator
    goal: np.ndarray
    positions: np.ndarray          # (N, D) bits
    velocities: np.ndarray         # (N, D) float
    bests: np.ndarray              # (2, N, D) bits: [personal; neighbourhood] bests
    pbest_fitness: np.ndarray      # (N,) int, 0 iff the agent has hit the goal
    fitness: np.ndarray            # (N,) int, current positions
    inertia: np.ndarray            # (N,) float, never adapted
    coefficients: np.ndarray       # (2, N) float: [self-belief C1; prestige bias C2]
    feedback_ema: np.ndarray       # (N,) float
    assignment: SiloAssignment
    work: np.ndarray               # (2, N, D) float buffer, see step
    stale: bool = True             # bests[1] must be gathered again
    t: int = 0


@dataclass
class ReplicateResult:
    """What the output files read of one replicate; its seed and budget are the config's."""

    replicate_index: int
    goal: np.ndarray
    group_convergence: int | None      # the last t, if every personal best is 0 there
    first_any_hit: int | None          # the first t at which trace_best is 0
    iterations_run: int
    trace_best: np.ndarray             # t = 0..iterations_run
    trace_mean: np.ndarray
    final_best_fitness: int            # min fitness in the trace (= min pbest)
    # with full, at t = 0..iterations_run: "fitness" and "silo" (iterations_run + 1, N),
    # "coefficients" (iterations_run + 1, 2, N) as [C1; C2]; and "inertia" (N,)
    full_trace: dict | None = None


def init_swarm(config: SimConfig, rng: np.random.Generator) -> SwarmState:
    """Build the initial swarm state; evaluates iteration t=0.

    Velocities start at zero, personal bests at the initial positions.
    ``config`` must have passed :meth:`SimConfig.validate`; it is not
    re-checked here. The state keeps no trace; :func:`run_replicate` does.
    """
    goal = rng.integers(0, 2, size=config.dim, dtype=BIT_DTYPE)
    positions = rng.integers(0, 2, size=(config.agents, config.dim), dtype=BIT_DTYPE)
    inertia = rng.uniform(*config.inertia_init, config.agents)
    coefficients = np.array([rng.uniform(*config.self_belief_init, config.agents),
                             rng.uniform(*config.prestige_bias_init, config.agents)])
    assignment = build_assignment(config.design, config.silo_count, config.agents, rng)
    fit = fitness_many(positions, goal)
    return SwarmState(
        config=config,
        rng=rng,
        goal=goal,
        positions=positions,
        velocities=np.zeros((config.agents, config.dim)),
        bests=np.array([positions, positions]),
        pbest_fitness=fit.copy(),
        fitness=fit,
        inertia=inertia,
        coefficients=coefficients,
        feedback_ema=np.zeros(config.agents),
        assignment=assignment,
        work=np.zeros((2, *positions.shape)),
    )


def step(state: SwarmState) -> SwarmState:
    """Advance the swarm by one synchronous iteration, to ``state.t + 1``.

    Order: reshuffle when due -> neighborhood bests from the previous
    iteration's memory -> velocity update, clamp, stochastic binarization ->
    evaluation -> personal-best update (strict improvement) -> policy update.
    Mutates and returns ``state``, whose fields it owns: nothing may write them
    between steps (tests set them before step 1). It keeps no hit record;
    ``freeze_on_goal`` freezes the agents whose personal best is 0. Historical
    neighbourhood bests (``bests[1]``) are kept until a reshuffle or a step
    improving a personal best; a step improving none skips the personal-best
    writes. Velocities are updated and clamped in place on every path. A
    frozen agent keeps only its position and its coefficients, the values an
    output reads; its velocity and feedback EMA run on unread (its personal
    best stays 0, so it stays frozen). The (2, N, D) ``work`` buffer holds the
    C1 and C2 pulls, then the binarization uniforms and the bit probabilities.
    Each step's fitness, silo and coefficient arrays are new objects, never
    written in place, so the trace rows that :func:`run_replicate` keeps
    without copying hold their values.
    """
    cfg = state.config
    t = state.t + 1

    if cfg.design == "dynamic" and t % cfg.reshuffle_interval == 0:
        state.assignment = reshuffle(state.assignment, state.rng)
        state.stale = True

    bests, work = state.bests, state.work
    if cfg.gbest_mode == "historical":
        ref_fit, ref_pos = state.pbest_fitness, bests[0]
    else:
        ref_fit, ref_pos = state.fitness, state.positions
        state.stale = True
    if state.stale:
        leaders = silo_leaders(state.assignment, ref_fit)[state.assignment.silo_of]
        # mode "raise" would gather into a temporary and copy it to out
        ref_pos.take(leaders, axis=0, out=bests[1], mode="clip")
        state.stale = False

    coefficients = state.coefficients[:, :, None]
    if cfg.stochastic_acceleration:
        coefficients = np.multiply(coefficients, state.rng.random(out=work), out=work)
    vel = update_velocity(state.velocities, state.positions, bests, state.inertia[:, None],
                          coefficients, out=state.velocities, work=work)
    clamp_velocity(vel, cfg.v_max, out=vel)
    # the spent pulls take the uniforms and the probabilities; bool and int8
    # share a byte layout, so the view gives the 0/1 bits without a copy
    new_pos = (state.rng.random(out=work[0]) < sigmoid(vel, out=work[1])).view(BIT_DTYPE)

    if cfg.freeze_on_goal:
        live = state.pbest_fitness > 0  # not yet hit (a new array)
        np.copyto(new_pos, state.positions, where=~live[:, None])

    state.positions = new_pos
    fit = fitness_many(new_pos, state.goal)
    signal = state.fitness - fit
    state.fitness = fit

    improved = fit < state.pbest_fitness
    if np.count_nonzero(improved):  # else pbests and leaders are unchanged
        np.copyto(bests[0], new_pos, where=improved[:, None])
        np.minimum(state.pbest_fitness, fit, out=state.pbest_fitness)
        state.stale = True

    alpha = 1.0 if cfg.tendency == "reactive" else cfg.alpha  # see policies
    ema, coefficients = perceptive_shift(state.feedback_ema, state.coefficients, signal, t,
                                         cfg.pressure_horizon, alpha, cfg.delta,
                                         cfg.coeff_min, cfg.coeff_max)
    if cfg.freeze_on_goal:  # a new array that keeps the frozen agents' coefficients
        coefficients = np.where(live, coefficients, state.coefficients)
    state.feedback_ema, state.coefficients = ema, coefficients
    state.t = t
    return state


def run_replicate(config: SimConfig, replicate_index: int, *, full=False) -> ReplicateResult:
    """Run one seeded replicate to group convergence or the iteration budget.

    ``config`` must have passed :meth:`SimConfig.validate`. Every iteration's fitness
    is kept and gives the traces; ``full`` also keeps each agent's silo and coefficients.
    """
    state = init_swarm(config, replicate_rng(config.master_seed, replicate_index))
    fitness_rows, full_rows = [], []  # at t = 0..: fitness; with full (silo_of, coefficients)
    while True:
        fitness_rows.append(state.fitness)
        if full:
            full_rows.append((state.assignment.silo_of, state.coefficients))
        if np.count_nonzero(state.pbest_fitness) == 0 or state.t >= config.max_iterations:
            break
        step(state)

    fitness = np.array(fitness_rows, dtype=np.int64)  # t = 0..iterations_run, stacked once
    trace_best = fitness.min(axis=1)
    hits = np.flatnonzero(trace_best == 0)
    full_trace = None
    if full:
        silo, coefficients = (np.array(column) for column in zip(*full_rows))
        full_trace = {"fitness": fitness, "silo": silo, "coefficients": coefficients,
                      "inertia": state.inertia}
    return ReplicateResult(
        replicate_index=replicate_index,
        goal=state.goal,
        group_convergence=None if np.count_nonzero(state.pbest_fitness) else state.t,
        first_any_hit=int(hits[0]) if hits.size else None,
        iterations_run=state.t,
        trace_best=trace_best,
        trace_mean=fitness.mean(axis=1),
        final_best_fitness=int(trace_best.min()),
        full_trace=full_trace,
    )

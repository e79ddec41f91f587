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
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError, is_int, is_real
from .kinematics import clamp_velocity, sigmoid, update_velocity
# reactive_shift stays bound here: perfbench's tracing.TRACED wraps it by this name
from .policies import TENDENCIES, perceptive_shift, reactive_shift
from .strategy import BIT_DTYPE, fitness_many
from .topology import DESIGNS, SiloAssignment, build_assignment, reshuffle, silo_leaders

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


def _param(need: str, ok, default=MISSING):
    """A config field (of :class:`SimConfig`, ``ExperimentSpec`` or ``Arm``)
    whose valid values satisfy ``ok``; ``need`` describes them in messages."""
    return field(default=default, metadata={"need": need, "ok": ok})


def invalid_fields(obj) -> dict[str, str]:
    """``{field: message}`` for each :func:`_param` field of ``obj`` that fails."""
    return {f.name: f"{f.name} ({f.metadata['need']} required, got {getattr(obj, f.name)!r})"
            for f in fields(obj)
            if "ok" in f.metadata and not f.metadata["ok"](getattr(obj, f.name))}


# numpy raises ValueError, not MemoryError, for an array of 2**63 bytes or more; the
# largest, the (2, agents, dim) float work buffer, takes 16 bytes per agent and dimension
_COUNT_LIMIT = 2 ** 59  # bounds each count and agents x dim


def _count(default):
    return _param("integer >= 1 and < 2**59", lambda v: is_int(v) and 1 <= v < _COUNT_LIMIT,
                  default)


def _positive(default):
    return _param("positive real", lambda v: is_real(v) and v > 0, default)


def _pair(default):
    return _param("[low, high] pair of reals with low <= high and a finite high - low",
                  lambda v: (isinstance(v, (tuple, list)) and len(v) == 2
                             and all(map(is_real, v)) and v[0] <= v[1]
                             and is_real(float(v[1]) - float(v[0]))), default)


def _flag(default):
    return _param("true or false", lambda v: isinstance(v, bool), default)


@dataclass
class SimConfig:
    """Full parameterization of one experimental arm.

    Each field states its default and its valid values once; :meth:`validate`
    and the JSON config parser (:mod:`orgswarm.experiment`, CLI overrides
    included) derive theirs from :func:`dataclasses.fields`.
    """

    master_seed: int = _param("u64", lambda v: is_int(v) and 0 <= v < 2 ** 64)
    design: str = _param(f"one of {DESIGNS}", lambda v: v in DESIGNS)
    tendency: str = _param(f"one of {TENDENCIES}", lambda v: v in TENDENCIES)
    silo_count: int = _count(5)          # siloed and dynamic only
    reshuffle_interval: int = _count(10)  # dynamic only
    dim: int = _count(25)
    agents: int = _count(20)
    max_iterations: int = _count(1000)
    replicates: int = _count(200)
    v_max: float = _positive(4.0)
    delta: float = _positive(0.1)
    alpha: float = _param("real in (0, 1]", lambda v: is_real(v) and 0 < v <= 1, 0.1)
    # None means max(1, max_iterations // 4); it stays None only beside a bad max_iterations
    pressure_horizon: int | None = _param("integer >= 1 or null",
                                          lambda v: v is None or (is_int(v) and v >= 1), None)
    coeff_min: float = _param("real", is_real, 0.0)
    coeff_max: float = _param("real", is_real, 2.0)
    inertia_init: tuple[float, float] = _pair((0.9, 0.95))
    self_belief_init: tuple[float, float] = _pair((0.5, 1.5))
    prestige_bias_init: tuple[float, float] = _pair((1.5, 2.0))
    gbest_mode: str = _param(f"one of {GBEST_MODES}", lambda v: v in GBEST_MODES,
                             "historical")
    stochastic_acceleration: bool = _flag(False)
    freeze_on_goal: bool = _flag(False)

    def __post_init__(self):
        if self.pressure_horizon is None and is_int(self.max_iterations):
            self.pressure_horizon = max(1, self.max_iterations // 4)

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming every offending field."""
        bad = invalid_fields(self)
        lo, hi = self.coeff_min, self.coeff_max
        if not bad.keys() & {"coeff_min", "coeff_max"}:
            if lo > hi:
                bad["coeff_max"] = f"coeff_max (real >= coeff_min {lo!r} required, got {hi!r})"
            else:
                for name in ("inertia_init", "self_belief_init", "prestige_bias_init"):
                    pair = getattr(self, name)
                    if name not in bad and not (lo <= pair[0] and pair[1] <= hi):
                        bad[name] = (f"{name} (range within [{lo}, {hi}] required, "
                                     f"got [{pair[0]}, {pair[1]}])")
        if not bad.keys() & {"agents", "dim"} and self.agents * self.dim >= _COUNT_LIMIT:
            bad["dim"] = f"dim (agents x dim < 2**59 required, got {self.agents} x {self.dim})"
        if (self.design != "fully_networked"
                and not bad.keys() & {"design", "agents", "silo_count"}
                and self.silo_count > self.agents):
            bad["silo_count"] = (f"silo_count (integer in [1, {self.agents}] required, "
                                 f"got {self.silo_count!r})")
        if bad:
            raise ConfigError("invalid config: " + "; ".join(bad.values()),
                              fields=list(bad))


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

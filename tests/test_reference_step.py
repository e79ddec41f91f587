"""``engine.step`` against the straightforward reference step, bit for bit.

Two swarms start from the same seed; one advances with ``engine.step``, the
other with :func:`reference_step.reference_step`. After every step their
states must hold the same bytes, so the engine's leader cache, its skipped
personal-best writes, its in-place velocity update, its (2, N, D) work buffer
and its freeze path change no value, signed zeros included. The stacked
arrays are compared whole: the bests include the neighbourhood bests the step
used, and the work buffer ends holding the binarization uniforms and the bit
probabilities. The run stops once every personal best is 0; ``run_replicate``
must then report the hits that :func:`reference_step.reference_hits` reads off
the reference's own fitness rows.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgswarm import SimConfig, run_replicate
from orgswarm.engine import init_swarm, replicate_rng, step
from reference_step import reference_hits, reference_step

FIELDS = ("positions", "velocities", "bests", "pbest_fitness", "fitness",
          "coefficients", "feedback_ema", "work")


@st.composite
def configs(draw):
    agents = draw(st.integers(1, 24))
    silos = draw(st.integers(1, agents))
    reshuffle_interval = draw(st.integers(1, 7))
    design = draw(st.sampled_from(["fully_networked", "siloed", "dynamic"]))
    coeff_min = draw(st.sampled_from([0.0, -0.0, -0.5, -2.0]))
    return SimConfig(
        master_seed=draw(st.integers(0, 2 ** 64 - 1)), design=design, silo_count=silos,
        reshuffle_interval=reshuffle_interval,
        tendency=draw(st.sampled_from(["reactive", "perceptive"])),
        dim=draw(st.integers(1, 30)), agents=agents, max_iterations=60,
        v_max=draw(st.sampled_from([0.5, 4.0])),
        delta=draw(st.sampled_from([0.1, 0.3, 1.0, 1])),
        alpha=draw(st.sampled_from([0.05, 0.5, 1.0])),
        pressure_horizon=draw(st.integers(1, 30)),
        coeff_min=coeff_min, self_belief_init=(coeff_min, 1.5),
        prestige_bias_init=(coeff_min, 2.0),
        gbest_mode=draw(st.sampled_from(["historical", "instantaneous"])),
        stochastic_acceleration=draw(st.booleans()),
        freeze_on_goal=draw(st.booleans()))


def assert_same_bytes(engine, reference, t):
    for name in FIELDS:
        got, want = getattr(engine, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, (name, t)
        assert got.tobytes() == want.tobytes(), (name, t)
    assert np.array_equal(engine.assignment.silo_of, reference.assignment.silo_of), t


def _config(**overrides):
    base = dict(master_seed=7, design="dynamic", silo_count=4, reshuffle_interval=1,
                tendency="reactive", dim=12, agents=12, max_iterations=60)
    return SimConfig(**{**base, **overrides})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(configs(), st.integers(0, 3))
@example(_config(), 0)
@example(_config(gbest_mode="instantaneous", stochastic_acceleration=True), 1)
@example(_config(tendency="perceptive", freeze_on_goal=True, dim=4,
                 coeff_min=-0.0, self_belief_init=(-0.0, 1.5),
                 prestige_bias_init=(-0.0, 2.0)), 2)
@example(_config(coeff_min=-0.5, delta=1.0, self_belief_init=(-0.5, 0.0),
                 prestige_bias_init=(-0.5, 0.0)), 3)
@example(_config(delta=1, freeze_on_goal=True, dim=4), 0)  # an int delta is valid
@example(_config(delta=1, tendency="perceptive"), 1)
@example(_config(delta=1, coeff_min=0, coeff_max=2, self_belief_init=(0, 2),  # all ints
                 prestige_bias_init=(1, 2), stochastic_acceleration=True), 2)
@example(_config(delta=1, coeff_min=-1, coeff_max=3, inertia_init=(1, 1),
                 tendency="perceptive", freeze_on_goal=True, dim=4), 3)
def test_step_matches_reference_step(config, replicate):
    config.validate()
    engine = init_swarm(config, replicate_rng(config.master_seed, replicate))
    reference = init_swarm(config, replicate_rng(config.master_seed, replicate))
    assert_same_bytes(engine, reference, 0)
    rows = [reference.fitness.tolist()]
    while reference.pbest_fitness.any() and reference.t < config.max_iterations:
        step(engine)
        reference_step(reference)
        assert_same_bytes(engine, reference, reference.t)
        rows.append(reference.fitness.tolist())

    result = run_replicate(config, replicate)
    _, group, first_any, best = reference_hits(rows)
    assert (result.group_convergence, result.first_any_hit, result.iterations_run,
            result.final_best_fitness) == (group, first_any, len(rows) - 1, best)

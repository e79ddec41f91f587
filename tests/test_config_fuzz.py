"""Property: any JSON object either parses into a spec or raises ConfigError.

Objects are built from the real config keys with valid example values, then
up to two keys, at the top level or inside one of the ``arms``, are set to an
arbitrary JSON value, usually of the wrong type. Any other exception is a
defect at the config boundary.
"""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from orgswarm import ConfigError, SimConfig, parse_config_dict
from orgswarm.experiment import Arm, ExperimentSpec

VALID = {
    "master_seed": [0, 7, 2**64 - 1], "design": ["siloed", "dynamic", "fully_networked"],
    "tendency": ["reactive", "perceptive"], "dim": [1, 6], "agents": [4, 20],
    "max_iterations": [1, 40], "replicates": [1, 3], "v_max": [4.0, 1],
    "delta": [0.1], "alpha": [0.1, 1], "pressure_horizon": [None, 5],
    "coeff_min": [0.0, 0.5], "coeff_max": [2.0, 3], "inertia_init": [[0.9, 0.95]],
    "self_belief_init": [[0.5, 1.5]], "prestige_bias_init": [[1.5, 2.0]],
    "gbest_mode": ["historical", "instantaneous"],
    "stochastic_acceleration": [False, True], "freeze_on_goal": [False, True],
    "silo_count": [2, 5], "reshuffle_interval": [3], "label": ["a", "b"],
    "out_dir": ["results"],
    "trace": ["none", "group", "full"], "workers": [None, 1, 2],
}
SHARED = [f.name for f in fields(SimConfig) if f.name not in (
    "master_seed", "design", "tendency")]

anything = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 30),
              st.integers(-2**70, 2**70), st.floats(), st.text(max_size=4),
              st.sampled_from(["..", "a,b", "x/y", "", "5", "yes"])),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


def entries(required, optional):
    return st.fixed_dictionaries(
        {k: st.sampled_from(VALID[k]) for k in required},
        optional={k: st.sampled_from(VALID[k]) for k in optional})


SPEC_KEYS = [f.name for f in fields(ExperimentSpec) if f.name != "arms"]
TOP_KEYS = ["master_seed"] + SHARED + SPEC_KEYS
ARM_KEYS = ["design", "tendency", "label"] + SHARED


@st.composite
def configs(draw):
    config = draw(entries(["master_seed"], TOP_KEYS[1:]))
    arms = draw(st.none() | st.lists(entries(["design", "tendency"], ARM_KEYS[2:]),
                                     min_size=1, max_size=3))
    if arms is not None:
        config["arms"] = arms
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from([config] + (arms or [])))
        key = draw(st.sampled_from(TOP_KEYS + ["arms"] if target is config else ARM_KEYS))
        target[key] = draw(anything)
    return config


def test_every_config_field_has_valid_examples():
    assert {f.name for f in fields(SimConfig)} <= set(VALID)
    assert set(SPEC_KEYS) | {f.name for f in fields(Arm) if f.name != "config"} <= set(VALID)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(configs())
def test_any_object_parses_or_raises_config_error(data):
    try:
        spec = parse_config_dict(data)
    except ConfigError:
        return
    assert isinstance(spec, ExperimentSpec)

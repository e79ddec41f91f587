"""orgswarm: seedable simulator of self-organizing cooperative groups.

Agents search a binary strategy space under swarm-kinematic update rules
(inertia, self-belief, prestige bias), constrained by an organizational
communication design (fully networked, siloed, or dynamically reshuffled
silos) and a behavioral feedback policy (reactive or perceptive). The
package measures iterations-to-goal per agent and per group across seeded,
reproducible replicates.
"""

from .engine import ReplicateResult, SimConfig, init_swarm, run_replicate, step
from .errors import ConfigError
from .experiment import parse_config, parse_config_dict, run_experiment
from .kinematics import clamp_velocity, sigmoid, update_velocity
from .policies import pressure
from .stats import aggregate_arm, mann_whitney_u
from .strategy import fitness_many, to_bitstring
from .topology import build_assignment, reshuffle

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ReplicateResult", "SimConfig", "aggregate_arm", "build_assignment",
    "clamp_velocity", "fitness_many", "init_swarm", "mann_whitney_u", "parse_config",
    "parse_config_dict", "pressure", "reshuffle", "run_experiment", "run_replicate",
    "sigmoid", "step", "to_bitstring", "update_velocity", "__version__",
]

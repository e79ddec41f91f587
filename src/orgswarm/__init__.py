"""orgswarm: seedable simulator of self-organizing cooperative groups.

Agents search a binary strategy space under swarm-kinematic update rules
(inertia, self-belief, prestige bias), constrained by an organizational
communication design (fully networked, siloed, or dynamically reshuffled
silos) and a behavioral feedback policy (reactive or perceptive). The
package measures iterations-to-goal per agent and per group across seeded,
reproducible replicates. The root exports what the demos use; every other
name is imported from its own module (``orgswarm.engine``, ``.stats``, ...).
"""

from .engine import SimConfig, run_replicate
from .errors import ConfigError
from .experiment import parse_config_dict, run_experiment
from .kinematics import clamp_velocity, sigmoid, update_velocity
from .stats import mann_whitney_u
from .strategy import to_bitstring

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "SimConfig", "clamp_velocity", "mann_whitney_u", "parse_config_dict",
    "run_experiment", "run_replicate", "sigmoid", "to_bitstring", "update_velocity",
    "__version__",
]

"""orgswarm: seedable simulator of self-organizing cooperative groups.

Agents search a binary strategy space under swarm-kinematic update rules
(inertia, self-belief, prestige bias), constrained by an organizational
communication design (fully networked, siloed, or dynamically reshuffled
silos) and a behavioral feedback policy (reactive or perceptive). The
package measures iterations-to-goal per agent and per group across seeded,
reproducible replicates. The root exports the run API: a replicate's config
and runner, and an experiment's parser and runner. Every other name is
imported from its own module (``orgswarm.kinematics``, ``.stats``, ...).
"""

from .engine import SimConfig, run_replicate
from .errors import ConfigError
from .experiment import parse_config_dict, run_experiment

__version__ = "0.1.0"

__all__ = ["ConfigError", "SimConfig", "parse_config_dict", "run_experiment", "run_replicate",
           "__version__"]

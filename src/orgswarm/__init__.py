"""orgswarm: seedable simulator of self-organizing cooperative groups.

Agents search a binary strategy space under swarm-kinematic update rules
(inertia, self-belief, prestige bias), constrained by an organizational
communication design (fully networked, siloed, or dynamically reshuffled
silos) and a behavioral feedback policy (reactive or perceptive). The
package measures iterations-to-goal per agent and per group across seeded,
reproducible replicates.
"""

from .engine import (ReplicateResult, SimConfig, SwarmState, derive_replicate_seed,
                     init_swarm, replicate_rng, run_replicate, step)
from .errors import ConfigError, InvalidParameterError, InvariantViolation, OrgswarmError
from .experiment import (Arm, ExperimentOutput, ExperimentSpec, parse_config,
                         parse_config_dict, run_experiment, serialize_spec,
                         with_overrides)
from .kinematics import clamp_velocity, sigmoid, update_velocity
from .policies import Tendency, pressure
from .stats import (ArmComparison, ArmSummary, MannWhitneyResult, aggregate_arm,
                    compare_arms, mann_whitney_u)
from .strategy import fitness_many, to_bitstring
from .topology import (DesignKind, OrgDesign, SiloAssignment, build_assignment,
                       reshuffle, silo_leaders)

__version__ = "0.1.0"

__all__ = [
    "Arm", "ArmComparison", "ArmSummary", "ConfigError", "DesignKind",
    "ExperimentOutput", "ExperimentSpec", "InvalidParameterError",
    "InvariantViolation", "MannWhitneyResult", "OrgDesign", "OrgswarmError",
    "ReplicateResult", "SiloAssignment", "SimConfig", "SwarmState", "Tendency",
    "aggregate_arm", "build_assignment", "clamp_velocity", "compare_arms",
    "derive_replicate_seed", "fitness_many", "init_swarm", "mann_whitney_u",
    "parse_config", "parse_config_dict", "pressure", "replicate_rng", "reshuffle",
    "run_experiment", "run_replicate", "serialize_spec", "sigmoid", "silo_leaders",
    "step", "to_bitstring", "update_velocity", "with_overrides", "__version__",
]

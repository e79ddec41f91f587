"""Organizational communication designs as neighborhood structures.

Three designs constrain which "most fit" reference each agent can see:

* fully_networked -- one silo containing everyone; all agents share the same
  reference.
* siloed -- a fixed random balanced partition into ``silo_count`` disjoint
  silos; agents see only their own silo.
* dynamic -- siloed, but the partition is redrawn every ``reshuffle_interval``
  iterations.

A design is three plain :class:`~orgswarm.engine.SimConfig` fields
(``design``, ``silo_count``, ``reshuffle_interval``), checked there once;
the functions here take them as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvariantViolation


class DesignKind(str, Enum):
    FULLY_NETWORKED = "fully_networked"
    SILOED = "siloed"
    DYNAMIC = "dynamic"


@dataclass
class SiloAssignment:
    """Partition of agents into silos: ``silo_of[i]`` is agent i's silo index.

    Computed once, when the partition is built: ``order`` lists the agents
    grouped by silo, ascending within each silo (a stable sort of
    ``silo_of``), and ``starts[s]`` is where silo s begins in ``order``.
    """

    silo_of: np.ndarray
    silo_count: int
    order: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.silo_of = np.asarray(self.silo_of, dtype=np.int64)
        sizes = self.sizes()
        if (sizes == 0).any():
            raise InvariantViolation("empty silo in assignment")
        if sizes.max() - sizes.min() > 1:
            raise InvariantViolation(f"unbalanced silo sizes {sizes.tolist()}")
        self.order = np.argsort(self.silo_of, kind="stable")
        self.starts = np.cumsum(sizes) - sizes

    def sizes(self) -> np.ndarray:
        return np.bincount(self.silo_of, minlength=self.silo_count)


def _balanced_sizes(agent_count: int, silo_count: int) -> np.ndarray:
    sizes = np.full(silo_count, agent_count // silo_count, dtype=np.int64)
    sizes[: agent_count % silo_count] += 1
    return sizes


def build_assignment(design: DesignKind, silo_count: int, agent_count: int,
                     rng: np.random.Generator) -> SiloAssignment:
    """Initial silo assignment for a design (``silo_count`` in [1, agent_count]).

    Fully-networked puts everyone in silo 0 without consuming randomness;
    siloed/dynamic draw one random permutation and deal it into ``silo_count``
    balanced silos, which makes the partition uniform over balanced partitions.
    """
    if design is DesignKind.FULLY_NETWORKED:
        return SiloAssignment(np.zeros(agent_count, dtype=np.int64), 1)
    return _random_partition(agent_count, silo_count, rng)


def _random_partition(agent_count: int, silo_count: int,
                      rng: np.random.Generator) -> SiloAssignment:
    perm = rng.permutation(agent_count)
    silo_of = np.empty(agent_count, dtype=np.int64)
    silo_of[perm] = np.repeat(np.arange(silo_count),
                              _balanced_sizes(agent_count, silo_count))
    return SiloAssignment(silo_of, silo_count)


def reshuffle(assignment: SiloAssignment, rng: np.random.Generator) -> SiloAssignment:
    """Redraw the partition with identical silo count and sizes."""
    return _random_partition(assignment.silo_of.size, assignment.silo_count, rng)


def silo_leaders(assignment: SiloAssignment, fitnesses: np.ndarray) -> np.ndarray:
    """Index of the fittest agent in each silo (ties -> lowest agent index).

    ``fitnesses`` must be integers. Each agent's key ``fitness * N + index``
    orders by fitness first and index second, so one minimum per silo of
    ``order`` finds the leader, and the key modulo N is its index.
    """
    n = assignment.silo_of.size
    order = assignment.order
    keys = np.multiply(fitnesses[order], n, dtype=np.int64)
    keys += order
    return np.minimum.reduceat(keys, assignment.starts) % n

"""Organizational communication designs as neighborhood structures.

Three designs constrain which "most fit" reference each agent can see:

* fully_networked -- one silo containing everyone; all agents share the same
  reference.
* siloed -- a fixed random balanced partition into ``silo_count`` disjoint
  silos; agents see only their own silo.
* dynamic -- siloed, but the partition is redrawn every ``reshuffle_interval``
  iterations.

A design is three plain :class:`~orgswarm.engine.SimConfig` fields:
``design``, one of the strings in :data:`DESIGNS`, ``silo_count`` and
``reshuffle_interval``. They are checked there once; the functions here take
them as given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


DESIGNS = ("dynamic", "fully_networked", "siloed")  # sorted, as the default grid runs them


@dataclass
class SiloAssignment:
    """Partition of agents into silos: ``silo_of[i]`` is agent i's silo index.

    ``order`` is the drawn permutation, which lists the agents silo by silo,
    and ``starts[s]`` is where silo s begins in ``order``. ``starts`` depends
    only on the agent and silo counts, so every redraw keeps it.
    """

    silo_of: np.ndarray
    order: np.ndarray
    starts: np.ndarray


def build_assignment(design: str, silo_count: int, agent_count: int,
                     rng: np.random.Generator) -> SiloAssignment:
    """Initial silo assignment for a design (``silo_count`` in [1, agent_count]).

    The agents in index order are dealt into ``silo_count`` balanced silos
    (one silo for fully-networked, which consumes no randomness);
    siloed/dynamic then redraw that once, which makes the partition uniform
    over balanced partitions.
    """
    if design == "fully_networked":
        silo_count = 1
    sizes = np.full(silo_count, agent_count // silo_count, dtype=np.int64)
    sizes[: agent_count % silo_count] += 1
    dealt = SiloAssignment(np.repeat(np.arange(silo_count), sizes),
                           np.arange(agent_count), np.cumsum(sizes) - sizes)
    return dealt if design == "fully_networked" else reshuffle(dealt, rng)


def reshuffle(assignment: SiloAssignment, rng: np.random.Generator) -> SiloAssignment:
    """Redraw the partition with identical silo count and sizes: one random
    permutation, dealt into the same consecutive silos."""
    order = rng.permutation(assignment.order.size)
    silo_of = np.empty_like(assignment.silo_of)
    silo_of[order] = assignment.silo_of[assignment.order]  # silo ids, silo by silo
    return SiloAssignment(silo_of, order, assignment.starts)


def silo_leaders(assignment: SiloAssignment, fitnesses: np.ndarray) -> np.ndarray:
    """Index of the fittest agent in each silo (ties -> lowest agent index).

    ``fitnesses`` must be integers. Each agent's key ``fitness * N + index``
    orders by fitness first and index second, so one minimum over each
    silo's run of ``order``, whatever the order within it, finds the leader,
    and the key modulo N is its index.
    """
    n = assignment.silo_of.size
    order = assignment.order
    keys = np.multiply(fitnesses[order], n, dtype=np.int64)
    keys += order
    return np.minimum.reduceat(keys, assignment.starts) % n

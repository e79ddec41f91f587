"""Binary strategy space: positions and their distance to the goal.

A strategy position is a length-D vector of 0/1 bits (int8 ndarray). Fitness
is the Hamming distance to the goal position: lower is better, 0 means the
goal is reached.
"""

from __future__ import annotations

import numpy as np

BIT_DTYPE = np.int8


def fitness_many(positions: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Row-wise Hamming distance of an (n, D) position matrix to a length-D goal.

    ``np.add.reduce`` sums the bool mismatches in numpy's default integer
    (int64), as ``ndarray.sum`` does, but without its Python wrapper.
    """
    return np.add.reduce(np.not_equal(positions, goal), axis=1)


def to_bitstring(position) -> str:
    """Serialize a position as an ASCII '0'/'1' string, index 0 first."""
    return "".join("1" if b else "0" for b in np.asarray(position))

"""Binary strategy space: positions, goal distance, random sampling.

A strategy position is a length-D vector of 0/1 bits (int8 ndarray). Fitness
is the Hamming distance to the goal position: lower is better, 0 means the
goal is reached.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError

BIT_DTYPE = np.int8


def hamming_distance(a, b) -> int:
    """Count of positions at which two equal-length bit vectors differ.

    Symmetric and satisfies the triangle inequality.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def fitness(position, goal) -> int:
    """Hamming distance from ``position`` to ``goal`` (0 = goal reached)."""
    return hamming_distance(position, goal)


def fitness_many(positions: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Row-wise Hamming distance of an (n, D) position matrix to a length-D goal."""
    return (np.asarray(positions) != np.asarray(goal)).sum(axis=1)


def random_position(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform random position: each bit is 0 or 1 with probability 1/2."""
    if dim < 1:
        raise InvalidParameterError(f"dim must be >= 1, got {dim}")
    return rng.integers(0, 2, size=dim, dtype=BIT_DTYPE)


def random_positions(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` independent uniform positions as one (count, dim) block."""
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    if dim < 1:
        raise InvalidParameterError(f"dim must be >= 1, got {dim}")
    return rng.integers(0, 2, size=(count, dim), dtype=BIT_DTYPE)


def to_bitstring(position) -> str:
    """Serialize a position as an ASCII '0'/'1' string, index 0 first."""
    return "".join("1" if b else "0" for b in np.asarray(position))


def from_bitstring(s: str) -> np.ndarray:
    """Parse an ASCII '0'/'1' string back into a position array."""
    if not s or any(c not in "01" for c in s):
        raise InvalidParameterError(f"not a bitstring: {s!r}")
    return np.fromiter((1 if c == "1" else 0 for c in s), dtype=BIT_DTYPE, count=len(s))

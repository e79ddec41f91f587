"""Equations of motion for agents in the binary strategy space.

Velocity is real-valued per dimension and evolves as

    v' = W * v + C1 * (pbest - p) + C2 * (gbest - p)

with bits treated as reals 0.0/1.0. The continuous velocity is mapped onto
bit flips stochastically: after clamping to [-v_max, +v_max], each new bit is
1 with probability sigmoid(v') (the engine draws the uniforms). All functions
broadcast, so they apply both to one agent's length-D vectors and to
whole-swarm (N, D) matrices (with per-agent coefficients shaped (N, 1)).
Arguments are not re-checked here: the engine passes only values that
:meth:`orgswarm.experiment.SimConfig.validate` accepted.
Each function takes an optional numpy-style ``out``, a float array of the
result's shape (possibly the velocity argument) that receives the result.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x, out=None):
    """Logistic transfer 1 / (1 + e^-x); strictly increasing, range (0, 1)."""
    e = np.exp(np.negative(x, out=out, dtype=float), out=out)
    return np.divide(1.0, np.add(1.0, e, out=out), out=out)


def update_velocity(velocity, position, bests, inertia, coefficients, out=None, work=None):
    """One velocity step; the result is NOT yet clamped.

    ``bests`` stacks [pbest; gbest] and ``coefficients`` [C1; C2] on a leading
    axis of 2: (2, D) and (2, 1) for one agent, (2, N, D) and (2, N, 1) for a
    swarm. ``work`` (float, the bests' shape) receives the pulls in place.
    """
    pulls = np.multiply(coefficients, np.subtract(bests, position), out=work)
    out = np.multiply(inertia, velocity, out=out, dtype=float)
    out += pulls[0]
    out += pulls[1]
    return out


def clamp_velocity(velocity, v_max: float, out=None):
    """Clamp every component into [-v_max, +v_max]; same values as ``np.clip``."""
    return clamp(velocity, -v_max, v_max, out)


def clamp(x, lo, hi, out=None):
    """``np.clip(x, lo, hi)`` for ``lo <= hi`` without its Python wrapper.

    The bound comes first in each call: ``np.maximum(lo, x)`` returns ``lo``
    where ``x == lo``, as ``np.clip`` does, so signed zeros and NaNs come out
    exactly as ``np.clip`` gives them.
    """
    return np.minimum(hi, np.maximum(lo, x, out=out), out=out)

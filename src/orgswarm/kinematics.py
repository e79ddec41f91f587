"""Equations of motion for agents in the binary strategy space.

Velocity is real-valued per dimension and evolves as

    v' = W * v + C1 * (pbest - p) + C2 * (gbest - p)

with bits treated as reals 0.0/1.0. The continuous velocity is mapped onto
bit flips stochastically: after clamping to [-v_max, +v_max], each new bit is
1 with probability sigmoid(v') (the engine draws the uniforms). All functions
broadcast, so they apply both to one agent's length-D vectors and to
whole-swarm (N, D) matrices (with per-agent coefficients shaped (N, 1)).
Arguments are not re-checked here: the engine passes only values that
:meth:`orgswarm.engine.SimConfig.validate` accepted.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Logistic transfer 1 / (1 + e^-x); strictly increasing, range (0, 1)."""
    return 1.0 / (1.0 + np.exp(np.negative(x, dtype=float)))


def update_velocity(velocity, position, personal_best, neighborhood_best,
                    inertia, self_belief, prestige_bias):
    """One velocity step; the result is NOT yet clamped.

    ``inertia``/``self_belief``/``prestige_bias`` may be scalars or (N, 1)
    columns for a whole-swarm update.
    """
    velocity = np.asarray(velocity, dtype=float)
    position = np.asarray(position)
    return (inertia * velocity
            + self_belief * (np.asarray(personal_best) - position)
            + prestige_bias * (np.asarray(neighborhood_best) - position))


def clamp_velocity(velocity, v_max: float):
    """Clamp every component into [-v_max, +v_max]; same values as ``np.clip``."""
    return clamp(velocity, -v_max, v_max)


def clamp(x, lo, hi):
    """``np.clip(x, lo, hi)`` for ``lo <= hi`` without its Python wrapper.

    The bound comes first in each call: ``np.maximum(lo, x)`` returns ``lo``
    where ``x == lo``, as ``np.clip`` does, so signed zeros and NaNs come out
    exactly as ``np.clip`` gives them.
    """
    return np.minimum(hi, np.maximum(lo, x))

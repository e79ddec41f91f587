"""Behavioral tendencies: how feedback reshapes the coefficient triple.

Both policies move weight between self-belief (C1) and prestige bias (C2),
never touching inertia. The feedback signal is an agent's fitness change,
previous minus current, so a positive signal means it improved. Perceptive
agents respond to an exponential moving average of it, with a step size that
ramps from ``delta * alpha`` up to ``delta`` as performance pressure grows
over time. Reactive agents are perceptive agents at ``alpha = 1``, bit for
bit: ema' = signal, and ``delta * (p + (1 - p))`` is ``delta`` at every p.

The functions are elementwise over agents and take C1 and C2 stacked as one
``(2, ...)`` array. They do not re-check their parameters: the engine passes
only values that :meth:`orgswarm.engine.SimConfig.validate` accepted.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .kinematics import clamp


class Tendency(str, Enum):
    REACTIVE = "reactive"
    PERCEPTIVE = "perceptive"


def pressure(t, horizon: int) -> float:
    """Performance pressure at iteration t >= 0: linear ramp min(1, t / horizon)."""
    return min(1.0, t / horizon)


_DIRECTIONS = np.array([[1.0], [-1.0]])  # C1 moves with the signal, C2 against it


def reactive_shift(coefficients, signal, step, lo, hi):
    """:func:`perceptive_shift`'s move: weight toward self-belief on improvement,
    toward prestige on deterioration, none on zero signal. ``coefficients`` stacks
    [C1; C2] as (2, N), or (2, 1) for a scalar ``signal``; returns a new float
    array clamped to [lo, hi]. ``step`` (> 0) may be an array."""
    moved = step * np.sign(signal) * _DIRECTIONS
    moved += coefficients
    return clamp(moved, lo, hi, out=moved)


def perceptive_shift(feedback_ema, coefficients, signal, t, horizon, alpha, delta, lo, hi):
    """One adaptation step, elementwise, for either tendency (reactive is
    ``alpha = 1``): returns ``(ema', coefficients')``, where ema' smooths the
    signal and :func:`reactive_shift` moves the coefficients by sign(ema') *
    delta * (pressure + (1 - pressure) * alpha)."""
    ema = (1.0 - alpha) * feedback_ema + alpha * signal
    press = pressure(t, horizon)
    step = delta * (press + (1.0 - press) * alpha)
    return ema, reactive_shift(coefficients, ema, step, lo, hi)

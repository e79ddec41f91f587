"""Behavioral tendencies: how feedback reshapes the coefficient triple.

Both policies move weight between self-belief (C1) and prestige bias (C2),
never touching inertia. The feedback signal is an agent's fitness change,
previous minus current, so a positive signal means it improved. Reactive
agents respond to each iteration's raw signal; perceptive agents respond to
an exponential moving average of it, with a step size that ramps from
``delta * alpha`` up to ``delta`` as performance pressure grows over time.

The functions are elementwise and accept scalars or aligned arrays. They do
not re-check their parameters: the engine passes only values that
:meth:`orgswarm.engine.SimConfig.validate` accepted.
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


def reactive_shift(self_belief, prestige_bias, signal, step, lo, hi):
    """Shift weight toward self-belief on improvement, toward prestige on
    deterioration; zero signal leaves both untouched. Results are clamped to
    [lo, hi]. ``step`` (> 0) may be an array (used by the perceptive ramp)."""
    move = step * np.sign(signal)
    return (clamp(self_belief + move, lo, hi),
            clamp(prestige_bias - move, lo, hi))


def perceptive_shift(feedback_ema, self_belief, prestige_bias, signal,
                     t, horizon, alpha, delta, lo, hi):
    """One perceptive adaptation step (elementwise).

    Returns ``(ema', c1', c2')`` where ema' smooths the signal and the
    coefficient move follows the reactive rule with direction sign(ema') and
    magnitude delta * (pressure + (1 - pressure) * alpha).
    """
    ema = (1.0 - alpha) * np.asarray(feedback_ema, dtype=float) + alpha * np.asarray(signal)
    press = pressure(t, horizon)
    step = delta * (press + (1.0 - press) * alpha)
    c1, c2 = reactive_shift(self_belief, prestige_bias, ema, step, lo, hi)
    return ema, c1, c2

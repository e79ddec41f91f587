"""A stand-in random stream that makes the engine follow scripted positions.

The engine sets bit d of agent i to 1 iff its uniform draw u < sigmoid(v).
A clamped velocity keeps sigmoid(v) strictly inside (0, 1), so a draw of 0.0
always sets the bit and a draw of 1.0 never does, whatever the velocity.
"""

import numpy as np

from orgswarm import SimConfig
from orgswarm.engine import init_swarm


class ScriptedRng:
    """Replays ``positions[t]`` (an (N, D) bit array) as the swarm at step t.

    ``init_swarm`` draws an all-zero goal, ``positions[0]`` and the low end of
    each coefficient range; each ``step`` then draws the uniforms that make
    ``positions[t]`` its new positions. Fully networked designs only (no
    permutation), without stochastic acceleration (one draw per step).
    """

    def __init__(self, positions):
        self.positions = [np.asarray(p, dtype=np.int8) for p in positions]

    def integers(self, low, high, size, dtype):
        if np.ndim(size) == 0:
            return np.zeros(size, dtype=dtype)
        return self.positions.pop(0).astype(dtype)

    def uniform(self, low, high, size):
        return np.full(size, float(low))

    def random(self, out):
        bits = self.positions.pop(0)
        assert bits.shape == out.shape
        return np.subtract(1.0, bits, out=out)


def scripted_state(fitness_traces, dim=8, **overrides):
    """A swarm, before step 1, in which agent i's fitness at step t will be
    ``fitness_traces[i][t]`` (its first that many bits are set; the goal is 0).
    A fitness outside ``[0, dim]`` cannot be scripted and raises ValueError."""
    return init_swarm(*scripted(fitness_traces, dim, **overrides))


def scripted(fitness_traces, dim=8, **overrides):
    """The config and the :class:`ScriptedRng` of :func:`scripted_state`."""
    traces = np.asarray(fitness_traces)
    if traces.min() < 0 or traces.max() > dim:
        raise ValueError(f"scripted fitness must lie in [0, {dim}], got {traces.tolist()}")
    positions = (np.arange(dim) < traces.T[:, :, None]).astype(np.int8)
    cfg = dict(master_seed=1, design="fully_networked",
               tendency="reactive", dim=dim, agents=traces.shape[0])
    cfg.update(overrides)
    return SimConfig(**cfg), ScriptedRng(positions)

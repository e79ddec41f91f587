"""Machine-speed calibration: one fixed unit of Python and numpy work, timed.

The speed of the 2-vCPU machine the baseline was measured on moves by up to
1.7x over tens of seconds (most likely other work on its physical cores), and
a whole run can fall into a fast or a slow spell. run.py times this unit
before and after every operation and divides the operation's times by the
slowdown it shows against REFERENCE_S, so that every reported time is in
seconds at the reference speed. The unit never touches orgswarm: a change
to the program moves the scaled times exactly as much as the raw ones.

    python3 perfbench/calibration.py

serves calibrations: one timing, printed as a line, per line read on stdin.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

# Median of calibrate() on the baseline machine (perfbench/README.md).
REFERENCE_S = 0.045
ROUNDS = 5


def calibrate() -> float:
    """Seconds the fixed unit of work takes now: the median of ROUNDS timings."""
    import numpy as np

    rng = np.random.default_rng(12345)
    # The array shapes of the default swarm (20 x 25) and of wide_swarm
    # (200 x 200): the first is dominated by interpreter and call overhead,
    # the second by vector arithmetic and memory traffic, as the program's
    # workloads are.
    work = ((rng.random((20, 25)), 1000), (rng.random((200, 200)), 48))
    times = []
    for _ in range(ROUNDS):
        start = perf_counter()
        for x, repeats in work:
            for _ in range(repeats):
                # A velocity-update-like expression, clamp and sigmoid compare.
                v = x * 0.7 + (x - 0.5) * 1.3
                np.clip(v, -4.0, 4.0, out=v)
                (1.0 / (1.0 + np.exp(-v)) > x).sum()
        times.append(perf_counter() - start)
    return statistics.median(times)


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the machine ran between two calibrations."""
    return (before + after) / (2.0 * REFERENCE_S)


class Calibrator:
    """Runs calibrate() on request in an interpreter of its own.

    The benchmark process never loads numpy: a child process starts with its
    parent's peak RSS in ru_maxrss, so a large benchmark process would lift
    every operation's peak_rss_mb to its own.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the calibration process ended ({self.proc.wait()})")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)

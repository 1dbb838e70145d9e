"""Host-speed gauge: a fixed kernel timed between the program's calls.

The benchmark's host is a few virtual cores of a shared machine whose speed
changes from run to run; the same work has taken up to 40 % longer in one run
than in the next, apparently as the process landed on a faster or a slower
core.  A run therefore reads a fixed kernel after each timed call, for at
least a set share of that call's time, and scales every time it reports by
``(NOMINAL_S / gauge) ** ELASTICITY``, where ``gauge`` is the median of the
kernel's readings over the run.  A normalised time reads as the time on a
host where the kernel takes ``NOMINAL_S``.  A change to the program moves it
as it moves the raw time; a change in host speed from run to run moves kernel
and program together and largely cancels.

One factor per run, and medians on both sides: within a run the kernel
swings more than the program does (single readings ranged from 19 to 36 ms
while calls of the same work stayed within 15 %), so a factor per call added
noise, while the median reading, like the median repeat, follows the state
the run spent most of its time in.

The kernel is code of the same kind as the program's hot loops (Python control
flow, small dataclasses, NumPy calls on arrays of a few elements, a random
generator), so it speeds up and slows down with the host much as they do.  It
imports nothing from the program: an optimisation of the program must not
change the gauge.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Mean time of one kernel pass on a 2-vCPU Intel Xeon virtual machine
# (Python 3.11, NumPy 2.x) in its usual, slower state.  Only a scale: it makes
# normalised times read close to raw ones on that host.
NOMINAL_S = 0.030
MIN_PASSES = 2  # kernel passes per reading, at the least
SHARE = 0.1  # a reading after a timed call lasts at least this share of it
# How far the program's time moves, on a log scale, when the kernel's moves by
# one.  Over four sets of five to ten runs per workload on the host above, the
# slope of log raw time on log reading ranged from 0.4 to 0.99 by workload and
# hour, most near 0.7; the full ratio over-corrected when the host sped up.
ELASTICITY = 0.7
STEPS = 1000  # steps per pass


@dataclass(frozen=True)
class _State:
    position: np.ndarray
    velocity: np.ndarray


def _kernel(steps: int = STEPS) -> float:
    """A damped point mass under clipped Gaussian pushes, with a KL-style
    bisection every 50 steps."""
    rng = np.random.default_rng(12345)
    state = _State(np.zeros(2), np.zeros(2))
    var0 = np.array([1.0, 0.5])
    total = 0.0
    for step in range(steps):
        push = np.clip(rng.standard_normal(2), -1.0, 1.0)
        velocity = np.clip(0.95 * state.velocity + 0.1 * push, -2.0, 2.0)
        state = _State(state.position + 0.1 * velocity, velocity)
        total += math.hypot(float(state.position[0]), float(state.position[1]))
        if step % 50 == 0:
            var = var0 + np.abs(state.position)
            lo, hi = 0.0, 1.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                v = var0 + mid * (var - var0)
                kl = 0.5 * float(np.sum(v / var0 - 1.0 + np.log(var0 / v)))
                if kl > 0.01:
                    hi = mid
                else:
                    lo = mid
            total += lo
    return total


EXPECTED = _kernel()  # the kernel is deterministic; a reading checks it


class Gauge:
    """Kernel readings over one run."""

    def __init__(self):
        self.readings: list[float] = []  # mean pass time of each reading

    def read(self, after_s: float = 0.0):
        """At least MIN_PASSES passes, lasting at least SHARE of ``after_s``,
        the length of the call just timed."""
        start = perf_counter()
        passes = 0
        while passes < MIN_PASSES or perf_counter() - start < SHARE * after_s:
            if _kernel() != EXPECTED:
                raise RuntimeError("gauge kernel gave a different result")
            passes += 1
        self.readings.append((perf_counter() - start) / passes)

    def factor(self) -> float:
        """Factor turning the run's raw times into normalised ones."""
        return (NOMINAL_S / statistics.median(self.readings)) ** ELASTICITY

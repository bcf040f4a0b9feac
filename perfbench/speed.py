"""Machine-speed probe for timings on a shared machine.

On a machine shared with other tenants, the speed one process gets drifts by
15-20% over tens of seconds, so a 10-second run cannot average it away. A
short fixed probe, run right before and right after each timed interval,
measures the speed around it. Scaling the interval by REFERENCE_S over
the mean of its two probes gives its length in seconds at the reference
speed. The probe is the benchmark's own code, identical for every version of
the program, so it rescales both sides of a comparison alike.
"""

from __future__ import annotations

import time

import numpy as np

# The probe reading that defines reference speed. It is close to the median
# reading on the 2-vCPU Intel Xeon virtual machine the benchmark was built on
# (Python 3.11, numpy 2.4, one BLAS thread), where readings ran from 5 to 9 ms.
REFERENCE_S = 0.0060


class SpeedProbe:
    """About 6 ms of interpreter loops, small matrix products and a 2 MiB
    streaming sum: the mix of work the sabmis pipelines do."""

    def __init__(self):
        self._mat = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
        self._vec = np.linspace(0.0, 1.0, 32)
        self._big = np.linspace(0.0, 1.0, 1 << 18)

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(48000):
            acc += i * i % 7
        for _ in range(600):
            acc += float((self._mat @ self._vec)[0])
        for _ in range(16):
            acc += float(self._big.sum())
        return time.perf_counter() - t0

    def __call__(self, window_s: float = 0.0) -> float:
        """Mean probe time over at least three probes and at least `window_s`
        seconds. A long interval is bracketed by long windows, so that the
        readings average the fast part of the drift as the interval does."""
        times: list[float] = []
        end = time.perf_counter() + window_s
        while len(times) < 3 or time.perf_counter() < end:
            times.append(self._once())
        return sum(times) / len(times)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Rescale an interval bracketed by two probe readings."""
    return seconds * REFERENCE_S * 2.0 / (before + after)

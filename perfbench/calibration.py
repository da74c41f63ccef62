"""Scale timings to a fixed machine speed with a calibration kernel.

The benchmark host is a shared virtual machine whose speed swings by up to
a factor of two over tens of seconds, so raw wall times of the same work
spread widely from run to run.  The calibration kernel below does a fixed
amount of the kind of work the workloads do (interpreted float arithmetic
and small numpy calls) and runs no fhnburst code, so a change to the
program cannot move it.  Each measured interval is scaled by
REFERENCE_S / (the kernel's time measured on either side of it).  Over ten
seeds per workload on a 2-vCPU Xeon VM this cut the quartile spread of
throughput and median latency from 13-35% raw to under 4%.
"""
from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 1.2e-3    # the kernel's time in the host's fast state

_A = np.eye(5) + 0.1
_B = np.ones(5)


def kernel_seconds() -> float:
    """Time one run of the calibration kernel (about a millisecond)."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(4000):
        s += math.sqrt(i * 0.5 + 1.0) * 1.0001
    for _ in range(150):
        np.linalg.solve(_A, _B)
    return time.perf_counter() - t0


class SpeedClock:
    """Scales intervals by the calibration samples taken on either side."""

    def __init__(self):
        for _ in range(20):     # first calls run cold
            kernel_seconds()
        self.samples = [kernel_seconds()]

    def scale(self, seconds):
        """Sample the kernel again and scale each interval measured since
        the previous sample; returns the scaled intervals."""
        now = kernel_seconds()
        factor = REFERENCE_S / (0.5 * (self.samples[-1] + now))
        self.samples.append(now)
        return [s * factor for s in seconds]

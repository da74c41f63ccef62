"""Configuration and knot table of the forced Rosenbrock kernel.

`IntegratorConfig` holds a run's tolerances and step budget, and
`Trajectory` the knot table a kernel run returns, or one built by hand.
The scheme itself, its tables, step controller and quintic Hermite dense
output, is the kernel's: `_kernel_py` in Python and `_kernel.c` in C.

Everything here is deterministic: identical inputs produce bit-identical
trajectories on a fixed build.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._kernel_py import KNOT_WIDTH
from .errors import OutOfRange

__all__ = [
    "IntegratorConfig",
    "Trajectory",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step budget for one integration run.  Every run starts
    with the step 1e-4 * span, and no step is longer than T/64 of its drive."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 5_000_000

    def __post_init__(self):
        if not (0.0 < self.abs_tol <= self.rel_tol < 1e-2):
            raise ValueError("tolerances must satisfy 0 < abs_tol <= rel_tol < 1e-2")
        if not (isinstance(self.max_steps, numbers.Integral) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")


class Trajectory:
    """Accepted knots plus the data needed for dense evaluation.

    `knots` is the one knot table: n rows (t, x, y, x', y', x'', y''), the
    state and its first and second time derivatives at each knot, with
    strictly increasing t, kept in place when it is a C-contiguous float
    array.  times, states, derivs and curvatures are column views of it.
    spikes and minima hold the times of the upward crossings of x = 1 and of
    the local x-minima that the forced kernel located, in time order (both
    empty unless passed, as for a hand-built table).  stats holds the forced
    kernel's step counters, keyed by `_kernel_py.STAT_NAMES`, and
    sq_integral its integral of x^2 + y^2 over the knots' span; both are
    None when not known.
    """

    def __init__(self, knots, spikes=(), minima=(), stats=None, sq_integral=None):
        knots = np.ascontiguousarray(knots, dtype=float)
        if knots.ndim != 2 or knots.shape[1] != KNOT_WIDTH:
            raise ValueError(f"the knot table must be n x {KNOT_WIDTH}")
        self.knots = knots
        self.times = knots[:, 0]
        self.states = knots[:, 1:3]
        self.derivs = knots[:, 3:5]
        self.curvatures = knots[:, 5:]
        self.spikes = np.asarray(spikes, dtype=float)
        self.minima = np.asarray(minima, dtype=float)
        self.stats: dict[str, float] | None = stats
        self.sq_integral = sq_integral
        if not (self.times[1:] > self.times[:-1]).all():
            raise ValueError("knot times must be strictly increasing")
        if not np.isfinite(knots).all():
            raise ValueError("non-finite values in trajectory data")

    @property
    def t_span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def _dense(self, times, deriv: bool) -> np.ndarray:
        """The dense output (or its time derivative) at the requested sorted
        times, on the backend that `fastpath` selects."""
        from . import fastpath   # fastpath imports this module

        if self.times.size < 2:
            raise OutOfRange("dense output needs at least two knots")
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        t0, t1 = self.t_span
        if ts.size and not (ts.min() >= t0 - 1e-12 and ts.max() <= t1 + 1e-12):
            raise OutOfRange(f"sample times outside [{t0}, {t1}]")
        if not (ts[1:] >= ts[:-1]).all():
            raise ValueError("sample times must be sorted")
        return fastpath.sample_knots(self.knots, np.clip(ts, t0, t1), deriv)

    def sample(self, times) -> np.ndarray:
        """Dense-output states at the requested sorted times (vectorized)."""
        return self._dense(times, False)

    def sample_deriv(self, times) -> np.ndarray:
        """Time derivative of the dense output at the requested sorted times."""
        return self._dense(times, True)


"""Tables, configuration and dense output of the forced Rosenbrock kernel.

The kernel's scheme is a stiffly accurate 6-stage linearly implicit method
of order 4 with an embedded order-3 error estimate and an analytic
Jacobian.  Dense output is a two-point quintic Hermite built from state,
first and second derivatives at the accepted knots, so interpolation error
stays far below the step error.  The stage tables, the step controller and
the Hermite basis defined here are read by the kernel's Python twin
`_kernel_py`, the one Rosenbrock stepper on the Python side; `Trajectory`
holds the knot table a kernel run returns, or one built by hand.

Everything here is deterministic: identical inputs produce bit-identical
trajectories on a fixed build.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange

__all__ = [
    "IntegratorConfig",
    "Trajectory",
]

# --- stage coefficients: stiffly accurate Rosenbrock, order 4(3), 6 stages ---
# ROS_A holds stages 2-5, ROS_C stages 2-6, ROS_ALPHA stages 2-4 and ROS_GSUM
# stages 1-4; stages 5 and 6 sit at t + h with a gamma sum of 0
ROS_A = (
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950),
)
ROS_C = (
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
     -6.058818238834054),
)
ROS_ALPHA = (0.386, 0.21, 0.63)
ROS_GSUM = (0.25, -0.1043, 0.1035, -0.03620000000000023)
ROS_GAMMA = 0.25

KNOT_WIDTH = 7   # knot table columns: t, x, y, x', y', x'', y''

# step-size controller constants, read by _kernel_py.py; the C twin
# _kernel.c writes them, like the stage tables, as literals
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 6.0
FAC_REJECT_MIN = 0.1
FAC_REJECT_MAX = 0.5


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


def _hermite_weights(s):
    """Quintic two-point Hermite basis at normalized position s in [0, 1]."""
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    s5 = s4 * s
    return (
        1.0 - 10.0 * s3 + 15.0 * s4 - 6.0 * s5,
        s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5,
        0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5,
        10.0 * s3 - 15.0 * s4 + 6.0 * s5,
        -4.0 * s3 + 7.0 * s4 - 3.0 * s5,
        0.5 * s3 - s4 + 0.5 * s5,
    )


# Gram matrix G of the quintic Hermite basis on [0, 1]: entry (i, j) is the
# integral of _hermite_weights(s)[i] * _hermite_weights(s)[j] ds, in exact
# fractions HERMITE_GRAM_INT / HERMITE_GRAM_DEN.  With c = (x0, h f0, h^2 d0,
# x1, h f1, h^2 d1) on a knot interval of width h, the interval's integral
# of x^2 is h * c @ G @ c (Hairer & Wanner, Solving ODEs II, IV.7).  The
# forced kernels sum it with the integer entries and divide once at the end.
HERMITE_GRAM_INT = (
    (21720, 3732, 281, 6000, -1812, 181),
    (3732, 832, 69, 1812, -532, 52),
    (281, 69, 6, 181, -52, 5),
    (6000, 1812, 181, 21720, -3732, 281),
    (-1812, -532, -52, -3732, 832, -69),
    (181, 52, 5, 281, -69, 6),
)
HERMITE_GRAM_DEN = 55440


def _hermite_weights_d1(s):
    """d/ds of the quintic Hermite basis."""
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    return (
        -30.0 * s2 + 60.0 * s3 - 30.0 * s4,
        1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4,
        s - 4.5 * s2 + 6.0 * s3 - 2.5 * s4,
        30.0 * s2 - 60.0 * s3 + 30.0 * s4,
        -12.0 * s2 + 28.0 * s3 - 15.0 * s4,
        1.5 * s2 - 4.0 * s3 + 2.5 * s4,
    )


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


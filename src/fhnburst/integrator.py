"""Adaptive linearly implicit (Rosenbrock) integrator with dense output.

The scheme is a stiffly accurate 6-stage method of order 4 with an embedded
order-3 error estimate and an analytic user Jacobian.  Dense output is a
two-point quintic Hermite built from state, first and second derivatives at
the accepted knots, so interpolation error stays far below the step error.
The stage tables, the step controller and the Hermite basis defined here are
shared with the forced kernel `_kernel_py`, which also locates the spikes
and the x-minima; the generic `integrate` is the reference stepper for any
system.

Everything here is deterministic: identical inputs produce bit-identical
trajectories on a fixed build.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    MaxStepsExceeded,
    NonFiniteState,
    OutOfRange,
    StepSizeUnderflow,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
]

# --- stage coefficients: stiffly accurate Rosenbrock, order 4(3), 6 stages ---
ROS_A = (
    (),
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950, 1.0),
)
ROS_C = (
    (),
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
     -6.058818238834054),
)
ROS_M = (1.221224509226641, 6.019134481288629, 12.53708332932087,
         -0.6878860361058950, 1.0, 1.0)
ROS_ALPHA = (0.0, 0.386, 0.21, 0.63, 1.0, 1.0)
ROS_GSUM = (0.25, -0.1043, 0.1035, -0.03620000000000023, 0.0, 0.0)
ROS_GAMMA = 0.25

# step-size controller constants, shared by `integrate` and _kernel_py.py;
# the C twin _kernel.c writes them, like the stage tables, as literals
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 6.0
FAC_REJECT_MIN = 0.1
FAC_REJECT_MAX = 0.5


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step policy for one integration run."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float | None = None
    first_step: float | None = None
    max_steps: int = 5_000_000

    def __post_init__(self):
        if not (0.0 < self.abs_tol <= self.rel_tol < 1e-2):
            raise ValueError("tolerances must satisfy 0 < abs_tol <= rel_tol < 1e-2")
        if self.max_step is not None and self.max_step <= 0.0:
            raise ValueError("max_step must be positive")


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


# Gram matrix of the quintic Hermite basis on [0, 1]: entry (i, j) is the
# integral of _hermite_weights(s)[i] * _hermite_weights(s)[j] ds, in exact
# fractions over the common denominator 55440.  With c = (x0, h f0, h^2 d0,
# x1, h f1, h^2 d1) on a knot interval of width h, the interval's integral
# of x^2 is h * c @ HERMITE_GRAM @ c (Hairer & Wanner, Solving ODEs II, IV.7).
HERMITE_GRAM = np.array([
    [21720, 3732, 281, 6000, -1812, 181],
    [3732, 832, 69, 1812, -532, 52],
    [281, 69, 6, 181, -52, 5],
    [6000, 1812, 181, 21720, -3732, 281],
    [-1812, -532, -52, -3732, 832, -69],
    [181, 52, 5, 281, -69, 6],
]) / 55440.0


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

    times are strictly increasing; states/derivs/curvatures are the solution,
    its first and its second time derivative at the knots.  spikes and minima
    hold the times of the upward crossings of x = 1 and of the local
    x-minima that the forced kernel located, in time order (both empty for
    runs of the generic `integrate`).  meta is free-form context (e.g. the
    forcing that produced the run and the kernel's step counters).
    """

    def __init__(self, times, states, derivs, curvatures, spikes=(), minima=(), meta=None):
        self.times = np.ascontiguousarray(times, dtype=float)
        self.states = np.ascontiguousarray(states, dtype=float)
        self.derivs = np.ascontiguousarray(derivs, dtype=float)
        self.curvatures = np.ascontiguousarray(curvatures, dtype=float)
        self.spikes = np.asarray(spikes, dtype=float)
        self.minima = np.asarray(minima, dtype=float)
        self.meta = dict(meta) if meta else {}
        if (
            self.times.ndim != 1
            or self.states.ndim != 2
            or self.states.shape[0] != self.times.shape[0]
            or self.derivs.shape != self.states.shape
            or self.curvatures.shape != self.states.shape
        ):
            raise ValueError("knot arrays are inconsistent")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("knot times must be strictly increasing")
        for arr in (self.times, self.states, self.derivs, self.curvatures):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite values in trajectory data")

    @property
    def t_span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def _hermite_sum(self, times, weights):
        """Quintic Hermite sum with the given basis at the requested times,
        and the knot spacing of each time as a column."""
        if self.times.size < 2:
            raise OutOfRange("dense output needs at least two knots")
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        t0, t1 = self.t_span
        if ts.size and (ts.min() < t0 - 1e-12 or ts.max() > t1 + 1e-12):
            raise OutOfRange(f"sample times outside [{t0}, {t1}]")
        ts = np.clip(ts, t0, t1)
        idx = np.searchsorted(self.times, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.times) - 2)
        ta = self.times[idx]
        h = self.times[idx + 1] - ta
        w = weights((ts - ta) / h)
        h = h[:, None]
        out = (
            w[0][:, None] * self.states[idx]
            + h * w[1][:, None] * self.derivs[idx]
            + h * h * w[2][:, None] * self.curvatures[idx]
            + w[3][:, None] * self.states[idx + 1]
            + h * w[4][:, None] * self.derivs[idx + 1]
            + h * h * w[5][:, None] * self.curvatures[idx + 1]
        )
        return out, h

    def sample(self, times) -> np.ndarray:
        """Dense-output states at the requested times (vectorized)."""
        return self._hermite_sum(times, _hermite_weights)[0]

    def sample_deriv(self, times) -> np.ndarray:
        """Time derivative of the dense output at the requested times."""
        out, h = self._hermite_sum(times, _hermite_weights_d1)
        return out / h


def _small_inverse(G):
    """Explicit inverse for 1x1..3x3; falls back to numpy beyond that."""
    n = G.shape[0]
    if n == 1:
        return np.array([[1.0 / G[0, 0]]])
    if n == 2:
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        return np.array([[G[1, 1], -G[0, 1]], [-G[1, 0], G[0, 0]]]) / det
    return np.linalg.inv(G)


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    jacobian: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float],
    t_span: tuple[float, float],
    config: IntegratorConfig | None = None,
    *,
    rhs_t: Callable[[float, np.ndarray], np.ndarray],
) -> Trajectory:
    """Integrate y' = rhs(t, y) over t_span with adaptive error control.

    rhs_t is the explicit time partial of rhs (zero for autonomous systems).
    Raises StepSizeUnderflow / MaxStepsExceeded / NonFiniteState with the
    partial trajectory attached.
    """
    cfg = config or IntegratorConfig()
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t_end) and t_end > t0):
        raise ValueError("t_span must be finite and increasing")
    span = t_end - t0

    y = np.asarray(y0, dtype=float).copy()
    n = y.size
    if not np.all(np.isfinite(y)):
        raise NonFiniteState("initial state is not finite")

    max_step = cfg.max_step if cfg.max_step is not None else span
    h = cfg.first_step if cfg.first_step is not None else 1e-4 * span
    h = min(h, max_step, span)

    t = t0
    f = np.asarray(rhs(t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise NonFiniteState("right-hand side not finite at the initial state")
    J = np.asarray(jacobian(t, y), dtype=float)
    ft = np.asarray(rhs_t(t, y), dtype=float)
    d2 = ft + J @ f

    knot_t = [t]
    knot_y = [y.copy()]
    knot_f = [f.copy()]
    knot_d2 = [d2.copy()]

    def trajectory() -> Trajectory:
        return Trajectory(
            np.array(knot_t), np.array(knot_y), np.array(knot_f), np.array(knot_d2)
        )

    n_steps = 0
    rejected = False
    identity = np.eye(n)
    t_snap = 2e-13 * span  # land exactly on t_end once this close

    while t < t_end - 1e-13 * span:
        if n_steps >= cfg.max_steps:
            raise MaxStepsExceeded(
                f"exceeded {cfg.max_steps} steps at t={t!r}", trajectory()
            )
        h = min(h, t_end - t)
        h_floor = max(1e-13 * span, 8.0 * np.finfo(float).eps * abs(t))
        if h < h_floor and h < (t_end - t):
            raise StepSizeUnderflow(f"step size underflow at t={t!r}", trajectory())

        G = identity / (h * ROS_GAMMA) - J
        Ginv = _small_inverse(G)

        K = []
        bad = False
        for i in range(6):
            Yi = y.copy()
            for j, aij in enumerate(ROS_A[i]):
                Yi += aij * K[j]
            fi = np.asarray(rhs(t + ROS_ALPHA[i] * h, Yi), dtype=float)
            if not np.all(np.isfinite(fi)):
                bad = True
                break
            stage_rhs = fi + (h * ROS_GSUM[i]) * ft
            for j, cij in enumerate(ROS_C[i]):
                stage_rhs += (cij / h) * K[j]
            K.append(Ginv @ stage_rhs)

        if not bad:
            y_new = y.copy()
            for j in range(6):
                y_new += ROS_M[j] * K[j]
            err_vec = K[5]
            if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(err_vec))):
                bad = True

        n_steps += 1
        if bad:
            h *= 0.5
            if h < h_floor:
                raise NonFiniteState(
                    f"state became non-finite near t={t!r}", trajectory()
                )
            rejected = True
            continue

        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
        err = max(err, 1e-10)

        if err > 1.0:
            fac = max(FAC_REJECT_MIN, min(FAC_REJECT_MAX, SAFETY * err ** -0.25))
            h *= fac
            rejected = True
            continue

        # step accepted
        t_new = t_end if (t_end - (t + h)) < t_snap else t + h
        h_used = t_new - t
        f_new = np.asarray(rhs(t_new, y_new), dtype=float)
        J_new = np.asarray(jacobian(t_new, y_new), dtype=float)
        ft_new = np.asarray(rhs_t(t_new, y_new), dtype=float)
        if not (np.all(np.isfinite(f_new)) and np.all(np.isfinite(J_new))):
            raise NonFiniteState(
                f"derivative data non-finite at t={t_new!r}", trajectory()
            )
        d2_new = ft_new + J_new @ f_new

        t, y, f, J, ft, d2 = t_new, y_new, f_new, J_new, ft_new, d2_new
        knot_t.append(t)
        knot_y.append(y.copy())
        knot_f.append(f.copy())
        knot_d2.append(d2.copy())

        fac = min(FAC_MAX, max(FAC_MIN, SAFETY * err ** -0.25))
        if rejected:
            fac = min(fac, 1.0)
        rejected = False
        h = min(h_used * fac, max_step)

    return trajectory()

"""Model core: parameters, coordinate changes, and every vector field.

All operations are pure functions of plain values, safe to call from any
thread.  Angles are wrapped into [0, 2*pi) only at API boundaries; during
integration the phase is kept unwrapped (monotone in time).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# left knee of the cubic nullcline in (x, Y) coordinates
X_KNEE_LEFT = -1.0
Y_KNEE_LEFT = -2.0 / 3.0


def wrap_angle(theta: float) -> float:
    """Reduce an angle into [0, 2*pi)."""
    th = math.fmod(theta, TWO_PI)
    if th < 0.0:
        th += TWO_PI
        if th == TWO_PI:    # th was within half an ulp of 2*pi below zero
            th = 0.0
    return th


def wrap_angles(theta) -> np.ndarray:
    """`wrap_angle` over an array, bit for bit."""
    th = np.fmod(np.asarray(theta, dtype=float), TWO_PI)
    th[th < 0.0] += TWO_PI
    th[th == TWO_PI] = 0.0
    return th


@dataclass(frozen=True)
class ModelParams:
    """Intrinsic constants: offset a, recovery coupling b, timescale ratio eps."""

    a: float = 0.875
    b: float = 0.8
    eps: float = 0.08

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError("a must be positive and finite")
        if not 0.0 < self.b < 1.0:
            raise ValueError("b must lie in (0, 1)")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")


@dataclass(frozen=True)
class Forcing:
    """Sinusoidal drive: amplitude E and angular frequency omega."""

    E: float
    omega: float

    def __post_init__(self):
        if not (self.E >= 0.0 and math.isfinite(self.E)):
            raise ValueError("E must be non-negative and finite")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError("omega must be positive and finite")

    def delta(self, params: ModelParams) -> float:
        """Frequency ratio delta = omega / eps."""
        return self.omega / params.eps

    @property
    def period(self) -> float:
        return TWO_PI / self.omega


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants of the shifted system."""

    mu: float
    r_delta: float
    phi_delta: float


@dataclass(frozen=True)
class StateXY:
    """State of the planar forced system; t carries the forcing phase."""

    x: float
    y: float
    t: float = 0.0


@dataclass(frozen=True)
class StateUVTheta:
    """State of the shifted autonomous system, theta in [0, 2*pi)."""

    u: float
    v: float
    theta: float


def mu_constant(params: ModelParams) -> float:
    return params.b * (params.a + 2.0 / 3.0) - 1.0


def derived_constants(params: ModelParams, forcing: Forcing) -> DerivedConstants:
    """mu, the rotated forcing amplitude R_delta, and its phase lag phi_delta.

    phi_delta is computed with a two-argument arctangent so the branch lies
    in (0, pi/2) for every delta > 0 and tends to pi/2 as delta -> 0.
    """
    delta = forcing.delta(params)
    r_delta = forcing.E * math.hypot(params.b, delta)
    phi_delta = math.atan2(params.b, delta)
    return DerivedConstants(mu=mu_constant(params), r_delta=r_delta, phi_delta=phi_delta)


def cubic_F(u: float) -> float:
    """Shifted cubic: F(u) = u^2 - u^3/3, both knees at u = 0 and u = 2."""
    return u * u - u * u * u / 3.0


def cubic_F_prime(u: float) -> float:
    return u * (2.0 - u)


def cubic_G(u: float, params: ModelParams) -> float:
    """G(u) = mu + u - b*F(u); strictly increasing for 0 < b < 1."""
    return mu_constant(params) + u - params.b * cubic_F(u)


def cubic_G_prime(u: float, params: ModelParams) -> float:
    return 1.0 + params.b * u * (u - 2.0)


def to_shifted(s: StateXY, params: ModelParams, forcing: Forcing) -> StateUVTheta:
    """Move the left knee to the origin and fold the drive into the phase."""
    theta = forcing.omega * s.t
    u = s.x - X_KNEE_LEFT
    v = (s.y + params.a - forcing.E * math.sin(theta)) - Y_KNEE_LEFT
    return StateUVTheta(u=u, v=v, theta=wrap_angle(theta))


def from_shifted(
    s: StateUVTheta, params: ModelParams, forcing: Forcing, t_ref: float | None = None
) -> StateXY:
    """Inverse of to_shifted.  theta fixes t modulo the forcing period; when
    t_ref is given the branch closest to it is returned."""
    t = s.theta / forcing.omega
    if t_ref is not None:
        period = forcing.period
        t += period * round((t_ref - t) / period)
    x = s.u + X_KNEE_LEFT
    y = s.v + Y_KNEE_LEFT - params.a + forcing.E * math.sin(s.theta)
    return StateXY(x=x, y=y, t=t)


def rhs_forced(s: StateXY, params: ModelParams, forcing: Forcing) -> tuple[float, float]:
    """Planar forced vector field (dx/dt, dy/dt)."""
    dx = s.x - s.x**3 / 3.0 - s.y - params.a + forcing.E * math.sin(forcing.omega * s.t)
    dy = params.eps * (s.x - params.b * s.y)
    return dx, dy


def jac_forced(s: StateXY, params: ModelParams, forcing: Forcing) -> np.ndarray:
    """Analytic 2x2 Jacobian of rhs_forced with respect to (x, y)."""
    return np.array(
        [[1.0 - s.x * s.x, -1.0], [params.eps, -params.eps * params.b]], dtype=float
    )


def rhs_autonomous(
    s: StateUVTheta, params: ModelParams, forcing: Forcing
) -> tuple[float, float, float]:
    """Shifted three-dimensional autonomous field (du, dv, dtheta)/dt."""
    dc = derived_constants(params, forcing)
    du = -s.v + cubic_F(s.u)
    dv = params.eps * (
        s.u - params.b * s.v + dc.mu - dc.r_delta * math.cos(s.theta - dc.phi_delta)
    )
    dtheta = forcing.omega
    return du, dv, dtheta


def jac_autonomous(
    s: StateUVTheta, params: ModelParams, forcing: Forcing
) -> np.ndarray:
    dc = derived_constants(params, forcing)
    return np.array(
        [
            [cubic_F_prime(s.u), -1.0, 0.0],
            [
                params.eps,
                -params.eps * params.b,
                params.eps * dc.r_delta * math.sin(s.theta - dc.phi_delta),
            ],
            [0.0, 0.0, 0.0],
        ],
        dtype=float,
    )


def rhs_desingularized(
    u: float, theta: float, params: ModelParams, forcing: Forcing
) -> tuple[float, float]:
    """Reduced slow flow after the fold-removing time rescale.

    The rescale reverses the flow direction on the repelling sheet
    (0 < u < 2), where d(theta)/d(tau) is negative.
    """
    dc = derived_constants(params, forcing)
    delta = forcing.delta(params)
    du = dc.r_delta * math.cos(theta - dc.phi_delta) - cubic_G(u, params)
    dtheta = delta * u * (u - 2.0)
    return du, dtheta


def jac_desingularized(
    u: float, theta: float, params: ModelParams, forcing: Forcing
) -> np.ndarray:
    dc = derived_constants(params, forcing)
    delta = forcing.delta(params)
    return np.array(
        [
            [-cubic_G_prime(u, params), -dc.r_delta * math.sin(theta - dc.phi_delta)],
            [2.0 * delta * (u - 1.0), 0.0],
        ],
        dtype=float,
    )


def rhs_slow_layer(
    u: float, v: float, params: ModelParams, forcing_E: float, theta0: float
) -> tuple[float, float]:
    """Slow-layer field at frozen phase theta0 (the delta -> 0 plane problem)."""
    du = (-v + cubic_F(u)) / params.eps
    dv = u - params.b * v + mu_constant(params) - forcing_E * params.b * math.sin(theta0)
    return du, dv


def jac_slow_layer(u: float, params: ModelParams) -> np.ndarray:
    """Jacobian of the slow-layer field; its determinant is positive for 0<b<1."""
    inv_eps = 1.0 / params.eps
    return np.array(
        [[inv_eps * cubic_F_prime(u), -inv_eps], [1.0, -params.b]], dtype=float
    )


def unforced_equilibrium(params: ModelParams) -> tuple[float, float]:
    """Rest state of the drive-free system, used as the simulation seed.

    Solves x - x^3/3 - x/b - a = 0 by damped Newton from the left branch.
    """
    b, a = params.b, params.a

    def g(x):
        return x - x**3 / 3.0 - x / b - a

    def gp(x):
        return 1.0 - x * x - 1.0 / b

    x = -1.2
    for _ in range(100):
        step = g(x) / gp(x)
        x -= step
        if abs(step) < 1e-15:
            break
    return x, x / b


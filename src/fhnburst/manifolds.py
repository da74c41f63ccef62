"""Quintic series expansions of the folded saddle's invariant manifolds.

The saddle's stable and unstable manifolds are written locally as
u = a1*th + a2*th^2 + ... + a5*th^5 in the phase offset th measured from the
saddle angle.  Matching series coefficients of the reduced-flow direction
field gives five nonlinear equations k*a_k = b_{k-1}(a).  The system is
triangular: a1 is fixed by the branch eigenvalue, and equation k is linear in
a_k once a1..a_(k-1) are known, so forward substitution solves it.  Each
b_k has one function, which reads a1..a_(k+1) and the powers of a1, a2, a3
it needs, with every product and sum in the order of the written polynomial.
a_k enters b_(k-1) through one term, -q a_k with q = C/(2 a1^2 delta) in all
four equations, so a solve divides b_(k-1) at a_k = 0 by k + q.  It takes
each power and each drive constant once and evaluates each b_(k-1) once; the
residual check, `b_coefficients`, takes the powers once more and evaluates
all five.  The saddle-existence check reads only the left threshold
(`geometry._left_threshold`).  The solve stays in plain floats: only when
the residual check fails (a residual above the tolerance, or NaN) are the
coefficients put into numpy arrays for a finite-difference Newton polish.
On the atlas master lattice it runs on one of the 48,634 saddle solves,
which still raises NewtonDiverged; below omega of about 0.0046 it runs more.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fastpath
from .errors import DomainError, NewtonDiverged, NoIntersection, NoSaddle, OutOfValidity
from .geometry import _left_threshold
from .model import Forcing, ModelParams, TWO_PI, _drive_constants, wrap_angle

VALIDITY_HALF_WIDTH = math.pi / 2.0
# the offset recovered from a wrapped window edge, theta_base -/+ pi/2 taken
# modulo 2 pi, may land up to half an ulp of 2 pi past the window
_VALIDITY_LIMIT = VALIDITY_HALF_WIDTH + math.ulp(TWO_PI)
LOWER_BOUND_U = -1.0        # the lower bound x = -2 in the shifted coordinate u = x + 1
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
FD_STEP = 1e-7
# the lower-bound scan's offsets th_i = -(pi/2) i / n, i = 1..n, from the saddle outward
_SCAN_N = 4001
_SCAN_OFFSETS = -VALIDITY_HALF_WIDTH * np.arange(1, _SCAN_N + 1) / _SCAN_N
_SCAN_OFFSETS.flags.writeable = False


@dataclass(frozen=True)
class ManifoldExpansion:
    """Local graph of one saddle manifold branch over the phase offset."""

    branch: str                      # "stable" | "unstable"
    theta_base: float                # saddle angle, in [0, 2*pi)
    coeffs: tuple[float, float, float, float, float]
    c_const: float                   # C = sqrt(R_delta^2 - mu^2), as the b_k use it
    residual: float                  # worst equation residual of the solve


def _b0(a1, C, delta, mu, b):
    return (a1 + C) / (2.0 * a1 * delta)


def _a1_powers(a1):
    """a1**2 .. a1**9, the powers of a1 the b_k read."""
    return a1**2, a1**3, a1**4, a1**5, a1**6, a1**7, a1**8, a1**9


# x holds _a1_powers(a1) and y (a2**2, a2**3, a2**4); each b_k reads its
# powers from them, with every product and sum in the written order
def _b1(a1, a2, C, delta, mu, b, x):
    a1_2, a1_3 = x[:2]
    return (-2.0 * a1_3 * b + a1_3 + a1_2 * C + a1 * mu - 2.0 * a2 * C) / (
        4.0 * a1_2 * delta
    )


def _b2(a1, a2, a3, C, delta, mu, b, x, y):
    a1_2, a1_3, a1_4, a1_5 = x[:4]
    return (
        -2.0 * a1_5 * b + 3.0 * a1_5 + 3.0 * a1_4 * C
        - 12.0 * a1_3 * a2 * b + 6.0 * a1_3 * a2 + 3.0 * a1_3 * mu
        - 2.0 * a1_2 * C - 6.0 * a1 * a2 * mu - 12.0 * a1 * a3 * C
        + 12.0 * y[0] * C
    ) / (24.0 * a1_3 * delta)


def _b3(a1, a2, a3, a4, C, delta, mu, b, x, y):
    a1_2, a1_3, a1_4, a1_5, a1_6, a1_7 = x[:6]
    a2_2, a2_3 = y[:2]
    return (
        -2.0 * a1_7 * b + 3.0 * a1_7 + 3.0 * a1_6 * C
        - 8.0 * a1_5 * a2 * b + 12.0 * a1_5 * a2 + 3.0 * a1_5 * mu
        + 6.0 * a1_4 * a2 * C - 24.0 * a1_4 * a3 * b + 12.0 * a1_4 * a3
        - 2.0 * a1_4 * C - a1_3 * mu + 4.0 * a1_2 * a2 * C
        - 12.0 * a1_2 * a3 * mu - 24.0 * a1_2 * a4 * C
        + 12.0 * a1 * a2_2 * mu + 48.0 * a1 * a2 * a3 * C - 24.0 * a2_3 * C
    ) / (48.0 * a1_4 * delta)


def _b4(a1, a2, a3, a4, a5, C, delta, mu, b, x, y, a3_2):
    a1_2, a1_3, a1_4, a1_5, a1_6, a1_7, a1_8, a1_9 = x
    a2_2, a2_3, a2_4 = y
    return (
        -10.0 * a1_9 * b + 15.0 * a1_9 + 15.0 * a1_8 * C
        - 60.0 * a1_7 * a2 * b + 90.0 * a1_7 * a2 + 15.0 * a1_7 * mu
        + 60.0 * a1_6 * a2 * C - 80.0 * a1_6 * a3 * b + 120.0 * a1_6 * a3
        - 10.0 * a1_6 * C - 40.0 * a1_5 * a2_2 * b + 60.0 * a1_5 * a2_2
        + 30.0 * a1_5 * a2 * mu + 60.0 * a1_5 * a3 * C
        - 240.0 * a1_5 * a4 * b + 120.0 * a1_5 * a4 - 5.0 * a1_5 * mu
        + 2.0 * a1_4 * C + 10.0 * a1_3 * a2 * mu + 40.0 * a1_3 * a3 * C
        - 120.0 * a1_3 * a4 * mu - 240.0 * a1_3 * a5 * C
        - 40.0 * a1_2 * a2_2 * C + 240.0 * a1_2 * a2 * a3 * mu
        + 480.0 * a1_2 * a2 * a4 * C + 240.0 * a1_2 * a3_2 * C
        - 120.0 * a1 * a2_3 * mu - 720.0 * a1 * a2_2 * a3 * C
        + 240.0 * a2_4 * C
    ) / (480.0 * a1_5 * delta)


def _amplitude_const(r_delta: float, mu: float) -> float:
    """C = sqrt(R_delta^2 - mu^2), zero where rounding leaves it negative."""
    return math.sqrt(max(r_delta * r_delta - mu * mu, 0.0))


def b_coefficients(a, delta: float, r_delta: float, mu: float, b: float):
    """Series coefficients b0..b4 of du/dth on the manifold graph.

    a is the 5-vector (a1..a5) of graph coefficients; b is the recovery
    coupling of the model.  Raises ZeroDivisionError when a1 = 0.
    """
    a1, a2, a3, a4, a5 = (float(v) for v in a)
    if a1 == 0.0:
        raise ZeroDivisionError("a1 must be nonzero")
    C = _amplitude_const(r_delta, mu)
    x = _a1_powers(a1)
    y = (a2**2, a2**3, a2**4)
    return (
        _b0(a1, C, delta, mu, b),
        _b1(a1, a2, C, delta, mu, b, x),
        _b2(a1, a2, a3, C, delta, mu, b, x, y),
        _b3(a1, a2, a3, a4, C, delta, mu, b, x, y),
        _b4(a1, a2, a3, a4, a5, C, delta, mu, b, x, y, a3**2),
    )


def saddle_eigenvalues(params: ModelParams, forcing: Forcing) -> tuple[float, float]:
    """Exact (stable, unstable) eigenvalues of the left folded saddle.

    Raises DomainError outside b(a + 2/3) > 1 and NoSaddle at or below the
    saddle-existence threshold, where there is no saddle.
    """
    delta, mu, root, r_delta, _ = _drive_constants(params, forcing)
    return _saddle_eigenvalues(forcing.E, delta, mu, root, _amplitude_const(r_delta, mu))


def _saddle_eigenvalues(E: float, delta: float, mu: float, root: float,
                        c_const: float) -> tuple[float, float]:
    """`saddle_eigenvalues` from the drive's constants and C, with its errors."""
    e_star_left = _left_threshold(delta, mu, root)
    if E <= e_star_left:
        raise NoSaddle(f"no folded saddle: E={E} <= existence threshold {e_star_left:.6g}")
    root = math.sqrt(1.0 + 8.0 * delta * c_const)
    return -0.5 - 0.5 * root, -0.5 + 0.5 * root


def closed_form_a1(lam: float, delta: float) -> float:
    return -lam / (2.0 * delta)


def closed_form_a2(lam: float, delta: float, c_const: float, mu: float, b: float) -> float:
    num = lam**3 * (2.0 * b - 1.0) + 2.0 * delta * lam**2 * c_const - 4.0 * mu * delta**2 * lam
    den = 16.0 * delta**2 * (lam**2 + delta * c_const)
    return num / den


def solve_expansion(branch: str, params: ModelParams, forcing: Forcing) -> ManifoldExpansion:
    """Solve the five coefficient equations for one branch.

    a1 = -lam/(2 delta) with lam the branch eigenvalue; for k = 2..5,
    a_k = b_(k-1)(a_k = 0) / (k + q) with q = C/(2 a1^2 delta).  k + q =
    (k lam - lam')/lam, lam' the other eigenvalue, is the order-k divisor of
    the parameterization method; it is at least k, since q = -lam'/lam >= 0
    (C >= 0, and a saddle's eigenvalues have opposite signs).  The five
    residuals are checked in plain floats, and only when the worst exceeds
    NEWTON_TOL (or one is NaN) does a Newton iteration (at most
    NEWTON_MAX_ITER steps) polish the coefficients; inside the studied
    parameter range it rarely runs.
    DomainError where a1 rounds to 0 or the substitution leaves the float
    range (omega far below the studied range, say).
    """
    if branch not in ("stable", "unstable"):
        raise ValueError("branch must be 'stable' or 'unstable'")
    delta, mu, root, r_delta, phi_delta = _drive_constants(params, forcing)
    b = params.b
    C = _amplitude_const(r_delta, mu)
    lam_stable, lam_unstable = _saddle_eigenvalues(forcing.E, delta, mu, root, C)
    lam = lam_stable if branch == "stable" else lam_unstable
    theta_base = wrap_angle(phi_delta + math.acos(mu / r_delta))

    a1 = closed_form_a1(lam, delta)
    if a1 == 0.0:
        raise DomainError(f"the {branch} eigenvalue rounds to 0 at delta={delta!r}, "
                          f"E={forcing.E!r}, so a1 = 0")
    try:
        x = _a1_powers(a1)
        q = C / (2.0 * x[0] * delta)        # x[0] = a1**2
        a2 = _b1(a1, 0.0, C, delta, mu, b, x) / (2.0 + q)
        y = (a2**2, a2**3, a2**4)
        a3 = _b2(a1, a2, 0.0, C, delta, mu, b, x, y) / (3.0 + q)
        a4 = _b3(a1, a2, a3, 0.0, C, delta, mu, b, x, y) / (4.0 + q)
        a5 = _b4(a1, a2, a3, a4, 0.0, C, delta, mu, b, x, y, a3**2) / (5.0 + q)
        a = [a1, a2, a3, a4, a5]
        bs = b_coefficients(a, delta, r_delta, mu, b)
    except ArithmeticError:
        raise DomainError(f"the {branch} series leaves the float range at delta={delta!r}, "
                          f"E={forcing.E!r} (a1={a1!r})") from None
    res = [(k + 1.0) * a[k] - bs[k] for k in range(5)]
    # a NaN compares false, so it fails the check as it fails np.max's
    if all(abs(r) <= NEWTON_TOL for r in res):
        return ManifoldExpansion(
            branch=branch, theta_base=theta_base, coeffs=tuple(a), c_const=C,
            residual=max(abs(r) for r in res),
        )

    def residual(a):
        try:
            bs = b_coefficients(a, delta, r_delta, mu, b)
        except ArithmeticError as exc:
            raise NewtonDiverged(f"coefficient solve left the float range: {exc}") from None
        return np.array([(k + 1.0) * a[k] - bs[k] for k in range(5)])

    a = np.array(a)
    res = np.array(res)
    for _ in range(NEWTON_MAX_ITER):
        if float(np.max(np.abs(res))) <= NEWTON_TOL:
            break
        J = np.empty((5, 5))
        for j in range(5):
            ap = a.copy()
            ap[j] += FD_STEP
            J[:, j] = (residual(ap) - res) / FD_STEP
        try:
            step = np.linalg.solve(J, res)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular Jacobian in coefficient solve: {exc}")
        if not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 1e6:
            raise NewtonDiverged("coefficient solve stepped out of range")
        a = a - step
        res = residual(a)
    if not float(np.max(np.abs(res))) <= NEWTON_TOL:
        raise NewtonDiverged(
            f"no convergence in {NEWTON_MAX_ITER} iterations (residual {np.max(np.abs(res)):.3e})"
        )
    return ManifoldExpansion(
        branch=branch,
        theta_base=theta_base,
        coeffs=tuple(float(v) for v in a),
        c_const=C,
        residual=float(np.max(np.abs(res))),
    )


def eval_manifold(expansion: ManifoldExpansion, theta: float) -> float:
    """u on the manifold graph at absolute phase theta (Horner in the offset).

    Its offset from theta_base, recovered modulo 2 pi, must lie within
    VALIDITY_HALF_WIDTH; the wrapped window edges, whose offsets may round
    just past it, evaluate at that recovered offset."""
    th_hat = math.remainder(theta - expansion.theta_base, TWO_PI)
    if abs(th_hat) > _VALIDITY_LIMIT:
        raise OutOfValidity(
            f"|theta offset| = {abs(th_hat):.4f} exceeds the pi/2 validity window"
        )
    return _eval_offset(expansion.coeffs, th_hat)


def _eval_offset(coeffs, th_hat: float) -> float:
    a1, a2, a3, a4, a5 = coeffs
    return th_hat * (a1 + th_hat * (a2 + th_hat * (a3 + th_hat * (a4 + th_hat * a5))))


def theta_at_lower_bound(expansion: ManifoldExpansion) -> float:
    """Phase where the stable branch reaches the lower bound u = -1 (x = -2).

    The relevant intersection lies on the backward-phase side of the saddle.
    The offsets th_i = -(pi/2) i / 4001, i = 1..4001 (`_SCAN_OFFSETS`), are
    evaluated from the saddle outward with `_eval_offset`'s Horner
    expression.  u(0) = 0 lies above the bound, so the first scan point at
    or below it ends the first sign change, and that bracket is halved as
    `bisect_root` halves it.  `fastpath.bound_phase` does both on the
    active backend: the C library's `fhn_bound_phase` or its numpy twin
    `_kernel_py.bound_phase`, bit for bit the same.
    """
    if expansion.branch != "stable":
        raise ValueError("the lower-bound intersection is defined for the stable branch")
    th_star = fastpath.bound_phase(expansion.coeffs, LOWER_BOUND_U, _SCAN_OFFSETS)
    if th_star is None:
        raise NoIntersection(
            "stable branch does not reach the lower bound inside the validity window"
        )
    return wrap_angle(expansion.theta_base + th_star)

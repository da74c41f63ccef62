"""Quintic series expansions of the folded saddle's invariant manifolds.

The saddle's stable and unstable manifolds are written locally as
u = a1*th + a2*th^2 + ... + a5*th^5 in the phase offset th measured from the
saddle angle.  Matching series coefficients of the reduced-flow direction
field gives five nonlinear equations k*a_k = b_{k-1}(a); they are solved by
Newton iteration seeded on the appropriate eigendirection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NewtonDiverged, NoIntersection, NoSaddle, OutOfValidity
from .geometry import fold_thresholds
from .model import Forcing, ModelParams, TWO_PI, derived_constants, wrap_angle

VALIDITY_HALF_WIDTH = math.pi / 2.0
LOWER_BOUND_U = -1.0        # the lower bound x = -2 in the shifted coordinate u = x + 1
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
FD_STEP = 1e-7


@dataclass(frozen=True)
class ManifoldExpansion:
    """Local graph of one saddle manifold branch over the phase offset."""

    branch: str                      # "stable" | "unstable"
    theta_base: float                # saddle angle, in [0, 2*pi)
    coeffs: tuple[float, float, float, float, float]
    c_const: float                   # sqrt(R_delta^2 - mu^2)
    residual: float                  # worst equation residual of the solve


def b_coefficients(a, delta: float, r_delta: float, mu: float, b: float):
    """Series coefficients b0..b4 of du/dth on the manifold graph.

    a is the 5-vector (a1..a5) of graph coefficients; b is the recovery
    coupling of the model.  Raises ZeroDivisionError when a1 = 0.
    """
    a1, a2, a3, a4, a5 = (float(v) for v in a)
    if a1 == 0.0:
        raise ZeroDivisionError("a1 must be nonzero")
    C = math.sqrt(max(r_delta * r_delta - mu * mu, 0.0))

    b0 = (a1 + C) / (2.0 * a1 * delta)
    b1 = (-2.0 * a1**3 * b + a1**3 + a1**2 * C + a1 * mu - 2.0 * a2 * C) / (
        4.0 * a1**2 * delta
    )
    b2 = (
        -2.0 * a1**5 * b + 3.0 * a1**5 + 3.0 * a1**4 * C
        - 12.0 * a1**3 * a2 * b + 6.0 * a1**3 * a2 + 3.0 * a1**3 * mu
        - 2.0 * a1**2 * C - 6.0 * a1 * a2 * mu - 12.0 * a1 * a3 * C
        + 12.0 * a2**2 * C
    ) / (24.0 * a1**3 * delta)
    b3 = (
        -2.0 * a1**7 * b + 3.0 * a1**7 + 3.0 * a1**6 * C
        - 8.0 * a1**5 * a2 * b + 12.0 * a1**5 * a2 + 3.0 * a1**5 * mu
        + 6.0 * a1**4 * a2 * C - 24.0 * a1**4 * a3 * b + 12.0 * a1**4 * a3
        - 2.0 * a1**4 * C - a1**3 * mu + 4.0 * a1**2 * a2 * C
        - 12.0 * a1**2 * a3 * mu - 24.0 * a1**2 * a4 * C
        + 12.0 * a1 * a2**2 * mu + 48.0 * a1 * a2 * a3 * C - 24.0 * a2**3 * C
    ) / (48.0 * a1**4 * delta)
    b4 = (
        -10.0 * a1**9 * b + 15.0 * a1**9 + 15.0 * a1**8 * C
        - 60.0 * a1**7 * a2 * b + 90.0 * a1**7 * a2 + 15.0 * a1**7 * mu
        + 60.0 * a1**6 * a2 * C - 80.0 * a1**6 * a3 * b + 120.0 * a1**6 * a3
        - 10.0 * a1**6 * C - 40.0 * a1**5 * a2**2 * b + 60.0 * a1**5 * a2**2
        + 30.0 * a1**5 * a2 * mu + 60.0 * a1**5 * a3 * C
        - 240.0 * a1**5 * a4 * b + 120.0 * a1**5 * a4 - 5.0 * a1**5 * mu
        + 2.0 * a1**4 * C + 10.0 * a1**3 * a2 * mu + 40.0 * a1**3 * a3 * C
        - 120.0 * a1**3 * a4 * mu - 240.0 * a1**3 * a5 * C
        - 40.0 * a1**2 * a2**2 * C + 240.0 * a1**2 * a2 * a3 * mu
        + 480.0 * a1**2 * a2 * a4 * C + 240.0 * a1**2 * a3**2 * C
        - 120.0 * a1 * a2**3 * mu - 720.0 * a1 * a2**2 * a3 * C
        + 240.0 * a2**4 * C
    ) / (480.0 * a1**5 * delta)
    return b0, b1, b2, b3, b4


def saddle_eigenvalues(params: ModelParams, forcing: Forcing) -> tuple[float, float]:
    """Exact (stable, unstable) eigenvalues of the left folded saddle."""
    dc = derived_constants(params, forcing)
    delta = forcing.delta(params)
    c = math.sqrt(dc.r_delta * dc.r_delta - dc.mu * dc.mu)
    root = math.sqrt(1.0 + 8.0 * delta * c)
    return -0.5 - 0.5 * root, -0.5 + 0.5 * root


def closed_form_a1(lam: float, delta: float) -> float:
    return -lam / (2.0 * delta)


def closed_form_a2(lam: float, delta: float, c_const: float, mu: float, b: float) -> float:
    num = lam**3 * (2.0 * b - 1.0) + 2.0 * delta * lam**2 * c_const - 4.0 * mu * delta**2 * lam
    den = 16.0 * delta**2 * (lam**2 + delta * c_const)
    return num / den


def solve_expansion(
    branch: str, params: ModelParams, forcing: Forcing, max_iter: int = NEWTON_MAX_ITER
) -> ManifoldExpansion:
    """Newton solve of the five coefficient equations for one branch.

    Seeded at (-lam/(2 delta), 0, 0, 0, 0) with lam the branch eigenvalue;
    converges to residual <= 1e-12 in a handful of iterations inside the
    studied parameter range.
    """
    if branch not in ("stable", "unstable"):
        raise ValueError("branch must be 'stable' or 'unstable'")
    dc = derived_constants(params, forcing)
    delta = forcing.delta(params)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    th = fold_thresholds(params, delta)
    if forcing.E <= th.e_star_left:
        raise NoSaddle(
            f"no folded saddle: E={forcing.E} <= existence threshold {th.e_star_left:.6g}"
        )

    lam_stable, lam_unstable = saddle_eigenvalues(params, forcing)
    lam = lam_stable if branch == "stable" else lam_unstable
    c_const = math.sqrt(dc.r_delta**2 - dc.mu**2)
    theta_base = wrap_angle(dc.phi_delta + math.acos(dc.mu / dc.r_delta))

    def residual(a):
        bs = b_coefficients(a, delta, dc.r_delta, dc.mu, params.b)
        return np.array([(k + 1.0) * a[k] - bs[k] for k in range(5)])

    a = np.array([closed_form_a1(lam, delta), 0.0, 0.0, 0.0, 0.0])
    res = residual(a)
    for _ in range(max_iter):
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
    if float(np.max(np.abs(res))) > NEWTON_TOL:
        raise NewtonDiverged(
            f"no convergence in {max_iter} iterations (residual {np.max(np.abs(res)):.3e})"
        )
    return ManifoldExpansion(
        branch=branch,
        theta_base=theta_base,
        coeffs=tuple(float(v) for v in a),
        c_const=c_const,
        residual=float(np.max(np.abs(res))),
    )


def eval_manifold(expansion: ManifoldExpansion, theta: float) -> float:
    """u on the manifold graph at absolute phase theta (Horner in the offset)."""
    th_hat = math.remainder(theta - expansion.theta_base, TWO_PI)
    if abs(th_hat) > VALIDITY_HALF_WIDTH:
        raise OutOfValidity(
            f"|theta offset| = {abs(th_hat):.4f} exceeds the pi/2 validity window"
        )
    return _eval_offset(expansion.coeffs, th_hat)


def _eval_offset(coeffs, th_hat: float) -> float:
    a1, a2, a3, a4, a5 = coeffs
    return th_hat * (a1 + th_hat * (a2 + th_hat * (a3 + th_hat * (a4 + th_hat * a5))))


def _eval_offset_deriv(coeffs, th_hat: float) -> float:
    a1, a2, a3, a4, a5 = coeffs
    return a1 + th_hat * (
        2.0 * a2 + th_hat * (3.0 * a3 + th_hat * (4.0 * a4 + th_hat * 5.0 * a5))
    )


def theta_at_lower_bound(expansion: ManifoldExpansion) -> float:
    """Phase where the stable branch reaches the lower bound u = -1 (x = -2).

    The relevant intersection lies on the backward-phase side of the saddle.
    The offsets th_i = -(pi/2) i / 4001, i = 1..4001, are evaluated at once
    (Horner on an array); the first sign change from the saddle outward,
    with u(0) = 0 before th_1, brackets the root, which is bisected in
    scalar steps and polished with four Newton steps.
    """
    if expansion.branch != "stable":
        raise ValueError("the lower-bound intersection is defined for the stable branch")
    coeffs = expansion.coeffs

    n_scan = 4001
    ths = -VALIDITY_HALF_WIDTH * np.arange(1, n_scan + 1) / n_scan
    g_scan = _eval_offset(coeffs, ths) - LOWER_BOUND_U
    below = g_scan <= 0.0
    # u(0) = 0, above the lower bound, precedes the first scan point
    flips = np.flatnonzero(below != np.concatenate(([False], below[:-1])))
    if len(flips) == 0:
        raise NoIntersection(
            "stable branch does not reach the lower bound inside the validity window"
        )

    i = int(flips[0])
    lo, hi, g_lo = float(ths[i]), (float(ths[i - 1]) if i else 0.0), float(g_scan[i])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = _eval_offset(coeffs, mid) - LOWER_BOUND_U
        if (gm <= 0.0) == (g_lo <= 0.0):
            lo, g_lo = mid, gm
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    th_star = 0.5 * (lo + hi)
    for _ in range(4):
        g = _eval_offset(coeffs, th_star) - LOWER_BOUND_U
        dg = _eval_offset_deriv(coeffs, th_star)
        if dg == 0.0:
            break
        th_star -= g / dg
    return wrap_angle(expansion.theta_base + th_star)

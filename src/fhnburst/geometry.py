"""Closed-form geometry of the singular limits.

Critical-manifold classification, folded equilibria with type and
eigenstructure, amplitude thresholds and the derived region labels in the
(omega, E) plane, the super-critical curve, and the delayed-Hopf points of
the slow-layer problem.  Everything is a pure function; nothing here
integrates anything.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DomainError, SaddleNodeBoundary
from .model import (
    Forcing,
    ModelParams,
    cubic_F,
    cubic_G,
    cubic_G_prime,
    derived_constants,
    mu_constant,
    wrap_angle,
)

BOUNDARY_TOL = 1e-10   # half-width of the excluded band at each amplitude threshold
FOLD_TOL = 1e-12       # half-width of each fold line u = 0, u = 2 on the cubic surface


def classify_manifold_point(u: float) -> str:
    """Partition of the cubic surface by the sign of F'(u) = u(2-u)."""
    if not math.isfinite(u):
        raise ValueError("u must be finite")
    if abs(u) <= FOLD_TOL:
        return "fold_minus"
    if abs(u - 2.0) <= FOLD_TOL:
        return "fold_plus"
    if u < 0.0:
        return "attracting_minus"
    if u > 2.0:
        return "attracting_plus"
    return "repelling"


@dataclass(frozen=True)
class FoldThresholds:
    """Forcing-amplitude thresholds for existence and type of folded equilibria.

    e_star_*: saddle-node (existence) thresholds on the left/right fold.
    e_2star_*: node-to-focus transition thresholds on the left/right fold.
    """

    e_star_left: float
    e_star_right: float
    e_2star_left: float
    e_2star_right: float


def fold_thresholds(params: ModelParams, delta: float) -> FoldThresholds:
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError("delta must be positive and finite")
    mu = mu_constant(params)
    if mu <= 0.0:
        raise DomainError("fold thresholds require b*(a + 2/3) > 1")
    root = math.hypot(params.b, delta)
    g2 = cubic_G(2.0, params)
    e_star_left = mu / root
    e_star_right = g2 / root
    bump = 1.0 / (64.0 * delta * delta)
    e_2star_left = math.sqrt((mu * mu + bump)) / root
    e_2star_right = math.sqrt((g2 * g2 + bump)) / root
    return FoldThresholds(
        e_star_left=e_star_left,
        e_star_right=e_star_right,
        e_2star_left=e_2star_left,
        e_2star_right=e_2star_right,
    )


def fold_thresholds_limit(params: ModelParams) -> tuple[float, float]:
    """delta -> 0 limits of the two existence thresholds."""
    mu = mu_constant(params)
    return mu / params.b, cubic_G(2.0, params) / params.b


def threshold_intersection_delta(params: ModelParams) -> float:
    """delta at which the left node-to-focus curve meets the right existence curve.

    Closed form from equating the two threshold expressions:
    mu^2 + 1/(64 delta^2) = G(2)^2.
    It is also where, on the right existence curve, the left folded node
    turns into a focus: delta = 0.10935 (omega ~ 0.00875) at the defaults.
    """
    mu = mu_constant(params)
    g2 = cubic_G(2.0, params)
    gap = g2 * g2 - mu * mu
    if gap <= 0.0:
        raise DomainError("threshold curves do not intersect for these parameters")
    return 1.0 / (8.0 * math.sqrt(gap))


@dataclass(frozen=True)
class FoldedEquilibrium:
    """Equilibrium of the desingularized flow sitting on a fold line.

    Eigen data comes from the 2x2 Jacobian in (u, theta); eigenvalues are
    stored as complex numbers (focus pairs carry the +imag representative
    first), eigenvectors as complex 2-vectors.
    """

    side: str                     # "left" | "right"
    kind: str                     # "saddle" | "node" | "focus"
    u: float
    v: float
    theta: float
    eigenvalues: tuple[complex, complex]
    eigenvectors: tuple[tuple[complex, complex], tuple[complex, complex]]


def _eig_pair(delta: float, u_star: float, det: float):
    """Eigenpairs of [[-1, J12], [2 delta (u*-1), 0]] given its determinant."""
    disc = 1.0 - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        lam1 = 0.5 * (-1.0 - root)
        lam2 = 0.5 * (-1.0 + root)
        lams = (complex(lam1), complex(lam2))
    else:
        root = math.sqrt(-disc)
        lams = (complex(-0.5, 0.5 * root), complex(-0.5, -0.5 * root))
    c = 2.0 * delta * (u_star - 1.0)
    vecs = tuple((lam, complex(c)) for lam in lams)
    return lams, vecs


def folded_equilibria(params: ModelParams, forcing: Forcing) -> list[FoldedEquilibrium]:
    """All folded equilibria for the given drive: 0, 2, or 4 of them.

    Raises SaddleNodeBoundary within BOUNDARY_TOL of an existence threshold,
    where the saddle and node coalesce (excluded degenerate case).
    """
    dc = derived_constants(params, forcing)
    delta = forcing.delta(params)
    if dc.r_delta <= 0.0:
        return []
    out: list[FoldedEquilibrium] = []
    for side, u_star in (("left", 0.0), ("right", 2.0)):
        g = cubic_G(u_star, params)
        ratio = g / dc.r_delta
        if abs(ratio - 1.0) <= BOUNDARY_TOL:
            raise SaddleNodeBoundary(
                f"amplitude within {BOUNDARY_TOL} of the {side} saddle-node threshold"
            )
        if ratio > 1.0:
            continue
        spread = math.acos(ratio)
        v_star = cubic_F(u_star)
        sin_spread = math.sin(spread)  # = sqrt(R^2-G^2)/R, positive

        # saddle: determinant negative on either fold
        theta_saddle = wrap_angle(
            dc.phi_delta + spread if side == "left" else dc.phi_delta - spread
        )
        det_s = 2.0 * delta * (u_star - 1.0) * dc.r_delta * (
            sin_spread if side == "left" else -sin_spread
        )
        lams, vecs = _eig_pair(delta, u_star, det_s)
        out.append(
            FoldedEquilibrium(
                side=side, kind="saddle", u=u_star, v=v_star, theta=theta_saddle,
                eigenvalues=lams, eigenvectors=vecs,
            )
        )

        # node (or focus above the second threshold): determinant positive
        theta_node = wrap_angle(
            dc.phi_delta - spread if side == "left" else dc.phi_delta + spread
        )
        det_n = 2.0 * delta * (u_star - 1.0) * dc.r_delta * (
            -sin_spread if side == "left" else sin_spread
        )
        kind = "node" if 1.0 - 4.0 * det_n > 0.0 else "focus"
        lams, vecs = _eig_pair(delta, u_star, det_n)
        out.append(
            FoldedEquilibrium(
                side=side, kind=kind, u=u_star, v=v_star, theta=theta_node,
                eigenvalues=lams, eigenvectors=vecs,
            )
        )
    return out


def classify_region(params: ModelParams, forcing: Forcing) -> str:
    """Region label I..VI from amplitude comparisons, or 'boundary'."""
    th = fold_thresholds(params, forcing.delta(params))
    E = forcing.E
    cuts = (th.e_star_left, th.e_star_right, th.e_2star_left, th.e_2star_right)
    if any(abs(E - c) <= BOUNDARY_TOL for c in cuts):
        return "boundary"
    if E < th.e_star_left:
        return "I"
    if E < min(th.e_2star_left, th.e_star_right):
        return "II"
    if th.e_2star_left < E < th.e_star_right:
        return "III"
    if th.e_star_right < E < min(th.e_2star_left, th.e_2star_right):
        return "IV"
    if max(th.e_star_right, th.e_2star_left) < E < th.e_2star_right:
        return "V"
    return "VI"


def eigen_expansion_lambda(params: ModelParams, E: float) -> float:
    """The squared-amplitude excess 2*(E^2 b^2 - mu^2) used in the small-delta report."""
    mu = mu_constant(params)
    return 2.0 * (E * E * params.b * params.b - mu * mu)


def eigen_smalldelta_expansion(
    params: ModelParams, E: float, delta: float
) -> tuple[float, float, float, float]:
    """Second-order small-delta expansion of the four left-fold eigenvalues.

    Returns (saddle_1, saddle_2, node_1, node_2).  The expansion is the
    Taylor series of the exact eigenvalues about delta = 0: with
    s = sqrt(E^2 b^2 - mu^2),

        saddle_1 = -1 - 2 s delta + 4 s^2 delta^2 + O(delta^3)
        saddle_2 =      2 s delta - 4 s^2 delta^2 + O(delta^3)

    and the node pair mirrors it with the sign of the delta term flipped.
    """
    lam = eigen_expansion_lambda(params, E)
    if lam <= 0.0:
        raise DomainError("requires E^2 b^2 > mu^2 (folded equilibria in the limit)")
    s = math.sqrt(0.5 * lam)        # sqrt(E^2 b^2 - mu^2)
    lin = 2.0 * s * delta
    quad = 4.0 * s * s * delta * delta
    return (-1.0 - lin + quad, lin - quad, -1.0 + lin + quad, -lin - quad)


def supercritical_manifold_point(
    theta0: float, params: ModelParams, E: float
) -> tuple[float, float]:
    """Point (u, F(u)) of the super-critical curve at frozen phase theta0.

    Solves G(u) = E*b*sin(theta0); G is a strictly increasing bijection, so
    the root is unique.  Safeguarded Newton with a bisection fallback.
    """
    target = E * params.b * math.sin(theta0)

    lo, hi = -4.0, 4.0
    while cubic_G(lo, params) > target:
        lo *= 2.0
    while cubic_G(hi, params) < target:
        hi *= 2.0

    u = 0.5 * (lo + hi)
    for _ in range(200):
        r = cubic_G(u, params) - target
        if r > 0.0:
            hi = u
        else:
            lo = u
        step = r / cubic_G_prime(u, params)
        u_next = u - step
        if not (lo < u_next < hi):
            u_next = 0.5 * (lo + hi)
        if abs(u_next - u) < 1e-15 * max(1.0, abs(u)):
            u = u_next
            break
        u = u_next
    if abs(cubic_G(u, params) - target) > 1e-12:
        # fall back to pure bisection until the residual contract holds
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cubic_G(mid, params) - target > 0.0:
                hi = mid
            else:
                lo = mid
        u = 0.5 * (lo + hi)
    return u, cubic_F(u)


def delayed_hopf_points(params: ModelParams) -> tuple[float, float]:
    """u-coordinates where the slow-layer Jacobian trace vanishes: 1 -+ sqrt(1-eps*b)."""
    if params.eps * params.b >= 1.0:
        raise DomainError("requires eps*b < 1")
    s = math.sqrt(1.0 - params.eps * params.b)
    return 1.0 - s, 1.0 + s


def equilibrium_to_dict(eq: FoldedEquilibrium) -> dict:
    return {
        "side": eq.side,
        "kind": eq.kind,
        "u": eq.u,
        "v": eq.v,
        "theta": eq.theta,
        "eigenvalues": [[lam.real, lam.imag] for lam in eq.eigenvalues],
        "eigenvectors": [
            [[comp.real, comp.imag] for comp in vec] for vec in eq.eigenvectors
        ],
    }


def equilibria_report(params: ModelParams, forcing: Forcing) -> dict:
    """JSON-ready document with thresholds, region, and equilibria."""
    delta = forcing.delta(params)
    return {
        "E": forcing.E,
        "omega": forcing.omega,
        "delta": delta,
        "region": classify_region(params, forcing),
        "thresholds": asdict(fold_thresholds(params, delta)),
        "equilibria": [equilibrium_to_dict(e) for e in folded_equilibria(params, forcing)],
    }

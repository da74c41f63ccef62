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
    _drive_constants,
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


# the rule of the fold thresholds' domain, mu = b(a + 2/3) - 1 > 0
_FOLD_DOMAIN = "fold thresholds require b*(a + 2/3) > 1"


def _left_threshold(delta: float, mu: float, root: float) -> float:
    """e_star_left = mu / hypot(b, delta) after the fold thresholds' domain
    checks: the saddle-existence test needs only this threshold."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta={delta!r} must be positive and finite")
    if mu <= 0.0:
        raise DomainError(_FOLD_DOMAIN)
    return mu / root


def _thresholds(params: ModelParams, delta: float, mu: float,
                root: float) -> tuple[float, float, float, float]:
    """The `FoldThresholds` fields, in order, from delta, mu and hypot(b, delta).

    DomainError where 64 delta^2 underflows to zero (delta below about
    2e-163), which leaves the node-to-focus thresholds undefined."""
    e_star_left = _left_threshold(delta, mu, root)
    g2 = cubic_G(2.0, params)
    scale = 64.0 * delta * delta
    if scale == 0.0:
        raise DomainError(f"delta={delta!r} is too small: 64*delta^2 underflows to zero")
    bump = 1.0 / scale
    return (e_star_left, g2 / root, math.sqrt((mu * mu + bump)) / root,
            math.sqrt((g2 * g2 + bump)) / root)


def fold_thresholds(params: ModelParams, delta: float) -> FoldThresholds:
    return FoldThresholds(*_thresholds(params, delta, mu_constant(params),
                                       math.hypot(params.b, delta)))


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


def folded_equilibria(params: ModelParams, forcing: Forcing) -> list[FoldedEquilibrium]:
    """All folded equilibria for the given drive: 0, 2, or 4 of them.

    Raises DomainError outside b(a + 2/3) > 1, where `classify_region`
    does, and SaddleNodeBoundary within BOUNDARY_TOL of an existence
    threshold, where the saddle and node coalesce (excluded degenerate case).
    """
    delta, mu, _, r_delta, phi_delta = _drive_constants(params, forcing)
    if mu <= 0.0:
        raise DomainError(_FOLD_DOMAIN)
    if r_delta <= 0.0:
        return []
    out: list[FoldedEquilibrium] = []
    for side, u_star in (("left", 0.0), ("right", 2.0)):
        g = cubic_G(u_star, params)
        ratio = g / r_delta
        if abs(ratio - 1.0) <= BOUNDARY_TOL:
            raise SaddleNodeBoundary(
                f"amplitude within {BOUNDARY_TOL} of the {side} saddle-node threshold"
            )
        if ratio > 1.0:
            continue
        spread = math.acos(ratio)
        v_star = cubic_F(u_star)
        sin_spread = math.sin(spread)  # = sqrt(R^2-G^2)/R, positive
        # the Jacobian [[-1, J12], [c, 0]] has eigenvectors (lam, c)
        c = 2.0 * delta * (u_star - 1.0)
        # the saddle (determinant negative) and the node (or focus above the
        # second threshold; determinant positive) mirror each other across
        # the fold: sign +1 puts the saddle at phi + spread on the left fold
        for kind, sign in (("saddle", 1.0), ("node", -1.0)):
            if side == "right":
                sign = -sign
            theta = wrap_angle(phi_delta + sign * spread)
            det = c * r_delta * (sign * sin_spread)
            disc = 1.0 - 4.0 * det
            if kind == "node" and not disc > 0.0:
                kind = "focus"
            if disc >= 0.0:
                root = math.sqrt(disc)
                lams = (complex(0.5 * (-1.0 - root)), complex(0.5 * (-1.0 + root)))
            else:
                root = math.sqrt(-disc)
                lams = (complex(-0.5, 0.5 * root), complex(-0.5, -0.5 * root))
            out.append(
                FoldedEquilibrium(
                    side=side, kind=kind, u=u_star, v=v_star, theta=theta, eigenvalues=lams,
                    eigenvectors=((lams[0], complex(c)), (lams[1], complex(c))),
                )
            )
    return out


REGIONS = ("I", "II", "III", "IV", "V", "VI", "boundary")   # the labels classify_region gives


def classify_region(params: ModelParams, forcing: Forcing) -> str:
    """Region label I..VI from amplitude comparisons, or 'boundary'."""
    delta, mu, root, _, _ = _drive_constants(params, forcing)
    star_l, star_r, two_l, two_r = _thresholds(params, delta, mu, root)
    E = forcing.E
    if (abs(E - star_l) <= BOUNDARY_TOL or abs(E - star_r) <= BOUNDARY_TOL
            or abs(E - two_l) <= BOUNDARY_TOL or abs(E - two_r) <= BOUNDARY_TOL):
        return "boundary"
    if E < star_l:
        return "I"
    if E < min(two_l, star_r):
        return "II"
    if two_l < E < star_r:
        return "III"
    if star_r < E < min(two_l, two_r):
        return "IV"
    if max(star_r, two_l) < E < two_r:
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


def bisect_root(g, lo: float, hi: float) -> float:
    """Root of g in the bracket g(lo) <= 0 < g(hi), halved until no double
    lies strictly inside it; returns the last midpoint, lo or hi itself."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def supercritical_manifold_point(
    theta0: float, params: ModelParams, E: float
) -> tuple[float, float]:
    """Point (u, F(u)) of the super-critical curve at frozen phase theta0.

    Solves G(u) = E*b*sin(theta0); G is a strictly increasing bijection, so
    the root is unique.  `bisect_root` on a bracket doubled until it holds
    the root.  DomainError when theta0 or E is not finite.
    """
    if not (math.isfinite(theta0) and math.isfinite(E)):
        raise DomainError(f"theta0 and E must be finite, got {theta0!r} and {E!r}")
    target = E * params.b * math.sin(theta0)

    lo, hi = -4.0, 4.0
    while cubic_G(lo, params) > target:
        lo *= 2.0
    while cubic_G(hi, params) < target:
        hi *= 2.0
    u = bisect_root(lambda v: cubic_G(v, params) - target, lo, hi)
    return u, cubic_F(u)


def delayed_hopf_points(params: ModelParams) -> tuple[float, float]:
    """u-coordinates where the slow-layer Jacobian trace vanishes: 1 -+ sqrt(1-eps*b).
    `ModelParams` keeps b and eps in (0, 1), so eps*b < 1."""
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

"""Isoline extraction on sweep grids: marching squares, chained polylines,
and cusp counting on the extracted boundaries.

Cells touching a failed (NaN) grid node produce no segments; holes are
allowed rather than interpolated.
"""
from __future__ import annotations

import math

import numpy as np

CUSP_MAX_INTERIOR_ANGLE_DEG = 90.0   # a vertex sharper than this is a cusp

# segment topology per marching-squares case: pairs of edge ids
# edges: 0 bottom (j fixed low), 1 right, 2 top, 3 left
_CASE_SEGMENTS = {
    0: (),
    1: ((3, 0),),
    2: ((0, 1),),
    3: ((3, 1),),
    4: ((1, 2),),
    5: None,  # ambiguous, resolved by cell average
    6: ((0, 2),),
    7: ((3, 2),),
    8: ((2, 3),),
    9: ((0, 2),),
    10: None,  # ambiguous, resolved by cell average
    11: ((2, 1),),
    12: ((1, 3),),
    13: ((0, 1),),
    14: ((3, 0),),
    15: (),
}


def _interp(c0, v0, c1, v1, level):
    t = (level - v0) / (v1 - v0)
    return (c0[0] + t * (c1[0] - c0[0]), c0[1] + t * (c1[1] - c0[1]))


def marching_squares(xs, ys, values, level) -> list[list[tuple[float, float]]]:
    """Isolines of values (shape len(xs) x len(ys)) at the given level.

    Returns chained polylines as lists of (x, y) pairs; closed contours
    repeat their first point at the end.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.shape != (len(xs), len(ys)):
        raise ValueError("values must have shape (len(xs), len(ys))")

    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = (
                ((xs[i], ys[j]), v[i, j]),          # 0: bottom-left
                ((xs[i + 1], ys[j]), v[i + 1, j]),   # 1: bottom-right
                ((xs[i + 1], ys[j + 1]), v[i + 1, j + 1]),  # 2: top-right
                ((xs[i], ys[j + 1]), v[i, j + 1]),   # 3: top-left
            )
            vals = [c[1] for c in corners]
            if any(math.isnan(val) for val in vals):
                continue
            case = 0
            for bit, val in enumerate(vals):
                if val >= level:
                    case |= 1 << bit
            if case in (0, 15):
                continue

            def edge_point(edge):
                # canonical corner order per edge keeps shared points bitwise equal
                pairs = ((0, 1), (1, 2), (3, 2), (0, 3))
                a, b = pairs[edge]
                return _interp(corners[a][0], vals[a], corners[b][0], vals[b], level)

            topo = _CASE_SEGMENTS[case]
            if topo is None:
                center = sum(vals) / 4.0
                if case == 5:
                    topo = ((3, 2), (0, 1)) if center >= level else ((3, 0), (1, 2))
                else:  # case 10
                    topo = ((0, 3), (1, 2)) if center >= level else ((0, 1), (2, 3))
            for ea, eb in topo:
                pa, pb = edge_point(ea), edge_point(eb)
                if pa != pb:
                    segments.append((pa, pb))

    return _chain_segments(segments)


def _chain_segments(segments):
    """Join raw segments into ordered polylines by shared endpoints."""
    if not segments:
        return []
    adjacency: dict[tuple, list[int]] = {}
    for k, (pa, pb) in enumerate(segments):
        adjacency.setdefault(pa, []).append(k)
        adjacency.setdefault(pb, []).append(k)

    used = [False] * len(segments)
    polylines = []

    def walk(start_point, seg_idx):
        chain = [start_point]
        point = start_point
        k = seg_idx
        while True:
            used[k] = True
            pa, pb = segments[k]
            point = pb if pa == point else pa
            chain.append(point)
            nxt = [m for m in adjacency[point] if not used[m]]
            if not nxt:
                return chain
            k = nxt[0]

    # open chains first: start from endpoints of odd degree
    for point, ks in sorted(adjacency.items()):
        if len(ks) % 2 == 1:
            for k in ks:
                if not used[k]:
                    polylines.append(walk(point, k))
    # remaining are closed loops
    for k in range(len(segments)):
        if not used[k]:
            polylines.append(walk(segments[k][0], k))
    return polylines


def spike_boundary_levels(counts) -> list[float]:
    """Half-integer levels between the observed min and max spike count."""
    finite = counts[np.isfinite(counts)]
    if finite.size == 0:
        return []
    lo = int(math.floor(finite.min()))
    hi = int(math.ceil(finite.max()))
    return [m + 0.5 for m in range(lo, hi)]


def levelsets(xs, ys, values, levels=None, n_levels: int = 24) -> list[list[tuple[float, float]]]:
    """Isolines of an array at each level, in level order; default levels are
    evenly spaced between its finite extremes (exclusive)."""
    values = np.asarray(values, dtype=float)
    if levels is None:
        finite = values[np.isfinite(values)]
        if finite.size == 0 or n_levels <= 0:
            return []
        lo, hi = float(finite.min()), float(finite.max())
        if hi <= lo:
            return []
        step = (hi - lo) / (n_levels + 1)
        levels = [lo + step * (k + 1) for k in range(n_levels)]
    lines = []
    for level in levels:
        lines.extend(marching_squares(xs, ys, values, level))
    return lines


def spike_boundaries(xs, ys, counts) -> list[list[tuple[float, float]]]:
    """Boundaries between the spike-count (or other integer) regions of an array."""
    counts = np.asarray(counts, dtype=float)
    return levelsets(xs, ys, counts, spike_boundary_levels(counts))


def extract_boundaries(grid) -> list[list[tuple[float, float]]]:
    """Spike-count boundary polylines of a complete grid."""
    return spike_boundaries(grid.omegas, grid.e_values, grid.value_array("spike_count"))


def l2_levelsets(grid, n_levels: int = 24) -> list[list[tuple[float, float]]]:
    """Level sets of the L2 norm of a complete grid (see levelsets)."""
    return levelsets(grid.omegas, grid.e_values, grid.value_array("l2"), n_levels=n_levels)


def count_cusps(polyline, x_span: float, y_span: float) -> int:
    """Vertices whose interior angle is below CUSP_MAX_INTERIOR_ANGLE_DEG.

    Coordinates are normalized by the axis spans first so the turn angle is
    meaningful on anisotropic grids.
    """
    if len(polyline) < 3:
        return 0
    pts = [(p[0] / x_span, p[1] / y_span) for p in polyline]
    # direction change must exceed 180 - threshold strictly
    cos_limit = -math.cos(math.radians(CUSP_MAX_INTERIOR_ANGLE_DEG))
    n = 0
    for k in range(1, len(pts) - 1):
        ax = pts[k][0] - pts[k - 1][0]
        ay = pts[k][1] - pts[k - 1][1]
        bx = pts[k + 1][0] - pts[k][0]
        by = pts[k + 1][1] - pts[k][1]
        na = math.hypot(ax, ay)
        nb = math.hypot(bx, by)
        if na == 0.0 or nb == 0.0:
            continue
        cosang = (ax * bx + ay * by) / (na * nb)
        # interior angle < threshold <=> direction change > 180 - threshold
        if cosang < cos_limit:
            n += 1
    return n


def total_cusps(polylines, x_span, y_span) -> int:
    return sum(count_cusps(p, x_span, y_span) for p in polylines)


def polylines_to_json(polylines) -> list:
    return [[[float(x), float(y)] for (x, y) in line] for line in polylines]

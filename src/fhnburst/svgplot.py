"""Minimal hand-rolled SVG output for static result plots."""
from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 720, 480
MARGIN = 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round tick values covering [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * abs(hi - lo):
        out.append(v)
        if v + step == v:   # span below the float resolution of its values
            break
        v += step
    return out


def render_svg(
    path: str,
    polylines,
    x_label: str,
    y_label: str,
    title: str = "",
    colors=None,
    bounds=None,
) -> None:
    """Write a fixed-size plot of (x, y) polylines with linear axes.

    polylines: iterable of point sequences, each a list of (x, y) pairs or an
    (n, 2) array; empty ones are skipped. colors: optional per-line color;
    bounds: optional (x_lo, x_hi, y_lo, y_hi) override, else the range of
    the points. The points are scaled as numpy columns and each polyline is
    formatted with one `%` call, "%.2f,%.2f" per point.
    """
    polylines = [np.asarray(p, dtype=float) for p in polylines if len(p) > 0]
    if bounds is None:
        if polylines:
            pts = np.concatenate(polylines)
            x_lo, y_lo = pts.min(axis=0).tolist()
            x_hi, y_hi = pts.max(axis=0).tolist()
        else:
            x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    else:
        x_lo, x_hi, y_lo, y_hi = bounds
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad_x = 0.03 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def sx(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(y):
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="{MARGIN / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for tx in _ticks(x_lo + pad_x, x_hi - pad_x):
        parts.append(
            f'<line x1="{sx(tx):.2f}" y1="{HEIGHT - MARGIN}" x2="{sx(tx):.2f}" '
            f'y2="{HEIGHT - MARGIN + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{sx(tx):.2f}" y="{HEIGHT - MARGIN + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo + pad_y, y_hi - pad_y):
        parts.append(
            f'<line x1="{MARGIN - 5}" y1="{sy(ty):.2f}" x2="{MARGIN}" '
            f'y2="{sy(ty):.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 8}" y="{sy(ty):.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" font-size="11">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {HEIGHT / 2})">{y_label}</text>'
    )
    for k, line in enumerate(polylines):
        color = (colors[k] if colors else PALETTE[k % len(PALETTE)])
        xy = np.column_stack([sx(line[:, 0]), sy(line[:, 1])])
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.1"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")

import json
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from fhnburst.contours import levelsets, spike_boundaries
from fhnburst.svgplot import HEIGHT, MARGIN, PALETTE, WIDTH, _ticks, svg_document

from child_env import child_env


# A span of two ulps around -1.1994 (the flat x of an E = 0 drive) used to
# make _ticks loop forever, so it runs in a child with a time and memory cap.
CHILD = """
import json, sys
from fhnburst.cli import main
from fhnburst.svgplot import _ticks
ticks = _ticks(-1.1994, -1.1994 + 4.4e-16)
code = main(["simulate", "--E", "0", "--omega", "0.0149354", "--svg", sys.argv[1]])
print(json.dumps(ticks))
sys.exit(code)
"""


def _cap_memory():
    cap = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_ticks_normal_span():
    assert _ticks(-2.1, 2.3) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert _ticks(1.0, 1.0) == [1.0]


def test_ticks_span_below_float_resolution(tmp_path):
    env = child_env(OPENBLAS_NUM_THREADS="1")
    svg = tmp_path / "flat.svg"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(svg)], env=env, capture_output=True,
        text=True, timeout=10, preexec_fn=_cap_memory,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    ticks = json.loads(proc.stdout.strip().splitlines()[-1])
    assert 1 <= len(ticks) <= 10
    assert all(abs(t + 1.1994) < 1e-12 for t in ticks)
    assert svg.read_text().startswith("<svg")


def _reference_render_svg(path, polylines, x_label, y_label, title="",
                          colors=None, bounds=None):
    """The per-point writer `svg_document` replaced: Python min/max bounds and
    one f-string per point."""
    polylines = [list(p) for p in polylines if len(p) > 0]
    if bounds is None:
        all_x = [pt[0] for line in polylines for pt in line]
        all_y = [pt[1] for line in polylines for pt in line]
        if not all_x:
            all_x, all_y = [0.0, 1.0], [0.0, 1.0]
        x_lo, x_hi = min(all_x), max(all_x)
        y_lo, y_hi = min(all_y), max(all_y)
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
        pts = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in line)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.1"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _simulate_segments():
    """theta-x segments shaped like `fhnburst simulate --svg`'s: two periods
    of a spiking signal, split where theta wraps."""
    omega = 0.0149354
    ts = np.linspace(2 * 420.69, 4 * 420.69, 4001)
    thetas = np.mod(omega * ts, 2 * np.pi)
    xs = 2.0 * np.tanh(8.0 * np.sin(3.0 * thetas)) + 0.1 * np.cos(ts)
    wraps = np.flatnonzero(np.diff(thetas) < 0.0) + 1
    return np.split(np.column_stack([thetas, xs]), wraps)


def _contour_lines():
    """Spike-count boundaries and L2-like level sets on a 15 x 13 grid."""
    xs = np.linspace(0.01, 0.04, 15)
    ys = np.linspace(0.40, 0.55, 13)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    l2 = np.hypot((X - 0.025) / 0.03, (Y - 0.47) / 0.15)
    counts = np.floor(3.0 * l2)
    counts[3, 4] = np.nan
    level_lines = levelsets(xs, ys, l2, n_levels=6)
    boundaries = spike_boundaries(xs, ys, counts)
    return xs, ys, level_lines, boundaries


def _near_ties():
    """Points whose pixel coordinates land within a few ulps of a half-cent,
    where %.2f shows any change in the order of the scaling operations."""
    targets = 100.0 + 0.01 * np.arange(2000) + 0.005
    # bounds (0, 1, 0, 1) pad to x in [-0.03, 1.03] and y in [-0.05, 1.05]
    xs = (targets - MARGIN) / (WIDTH - 2 * MARGIN) * 1.06 - 0.03
    ys = (HEIGHT - MARGIN - targets) / (HEIGHT - 2 * MARGIN) * 1.1 - 0.05
    return [np.column_stack([xs, ys])]


class TestRenderSvgMatchesReference:
    """The text of `svg_document` against the per-point reference writer."""

    def _both(self, tmp_path, polylines, *args, **kwargs):
        ref = tmp_path / "ref.svg"
        _reference_render_svg(str(ref), polylines, *args, **kwargs)
        return svg_document(polylines, *args, **kwargs), ref.read_bytes()

    def test_simulate_segments(self, tmp_path):
        lines = _simulate_segments()
        assert len(lines) == 3 and sum(len(seg) for seg in lines) == 4001
        new, ref = self._both(
            tmp_path, lines, "theta", "x", title="E=0.55 omega=0.0149354 (3 spikes/period)",
            colors=["#1f77b4"] * len(lines),
        )
        assert new.count(b"<polyline") == 3
        assert new == ref

    def test_contours_with_bounds_and_colors(self, tmp_path):
        xs, ys, level_lines, boundaries = _contour_lines()
        assert level_lines and boundaries
        lines = level_lines + boundaries
        colors = ["#9ecae1"] * len(level_lines) + ["#d62728"] * len(boundaries)
        new, ref = self._both(
            tmp_path, lines, "omega", "E", title="boundaries", colors=colors,
            bounds=(float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])),
        )
        assert b"#9ecae1" in new and b"#d62728" in new
        assert new == ref

    def test_rounding_ties(self, tmp_path):
        new, ref = self._both(tmp_path, _near_ties(), "x", "y", bounds=(0.0, 1.0, 0.0, 1.0))
        assert new == ref

    def test_out_of_range_polyline(self, tmp_path, c_formatter_calls):
        # a point far outside the bounds lands beyond the C formatter's %.2f
        # range (1e15 pixels), so the `%` twin writes that polyline
        lines = [[(0.2, 0.3), (1e14, 0.5), (0.7, 0.9)], [(0.1, 0.1), (0.9, 0.4)]]
        new, ref = self._both(tmp_path, lines, "x", "y", bounds=(0.0, 1.0, 0.0, 1.0))
        assert [text is None for text in c_formatter_calls] == [True, False]
        assert new == ref

    @pytest.mark.parametrize("polylines", [
        [[(0.0, -0.0), (0.5, 0.25)], [(-0.0, 0.0), (1.0, 2.0)]],
        [[(-1.0, -2.0), (-0.0, 0.0)], [(0.0, -0.0), (-0.5, -1.0)]],
        [[(0.0, -0.0), (-0.0, 0.0)], [(-0.0, -0.0), (0.0, 0.0)]],
    ], ids=["zeros-at-minimum", "zeros-at-maximum", "only-zeros"])
    def test_signed_zero_bounds(self, tmp_path, polylines):
        # numpy's reductions keep the later of two equal zeros and Python's
        # min/max the earlier; the padding makes the sign of a zero bound
        # vanish, so the text is the same
        new, ref = self._both(tmp_path, polylines, "x", "y")
        assert new == ref

    @pytest.mark.parametrize("polylines", [
        [[], [(0.0, 1.0), (2.0, -3.0), (2.5, 0.25)], np.empty((0, 2))],
        [[]],
        [],
    ], ids=["empty-and-points", "only-empty", "none"])
    def test_empty_polylines(self, tmp_path, polylines):
        new, ref = self._both(tmp_path, polylines, "a", "b")
        assert new == ref


class TestPolylineBytes:
    """The points of each polyline, as the C formatter or its twin writes them."""

    def _points(self, tmp_path, lines):
        """Each polyline's points in the document, which must hold the
        reference writer's bytes."""
        ref = tmp_path / "ref.svg"
        _reference_render_svg(str(ref), lines, "x", "y", bounds=(0.0, 1.0, 0.0, 1.0))
        doc = svg_document(lines, "x", "y", bounds=(0.0, 1.0, 0.0, 1.0))
        assert doc == ref.read_bytes()
        return re.findall(rb'points="([^"]*)"', doc)

    def test_far_point_written_by_twin(self, tmp_path, c_formatter_calls):
        # 1e300 scales to a pixel far beyond the C formatter's %.2f range,
        # so the `%` twin writes that polyline's bytes
        lines = [[(0.2, 0.3), (1e300, 0.5), (0.7, 0.9)], [(0.1, 0.1), (0.9, 0.4)]]
        points = self._points(tmp_path, lines)
        assert [data is None for data in c_formatter_calls] == [True, False]
        assert len(points) == 2 and len(points[0]) > 300

    def test_each_polyline_keeps_its_points(self, tmp_path, c_formatter_calls):
        # the C formatter writes every polyline into the thread's one
        # buffer, so each one's bytes must be copied out before the next
        lines = [np.column_stack([np.linspace(0.0, 1.0, n), np.full(n, k / 4.0)])
                 for k, n in enumerate((5, 3, 7))]
        points = self._points(tmp_path, lines)
        assert len(c_formatter_calls) == 3 and None not in c_formatter_calls
        assert [len(p.split(b" ")) for p in points] == [5, 3, 7] and len(set(points)) == 3

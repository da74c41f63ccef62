import math

import numpy as np
import pytest

from fhnburst.contours import (
    count_cusps,
    extract_boundaries,
    l2_levelsets,
    marching_squares,
    polylines_to_json,
    spike_boundaries,
    spike_boundary_levels,
    total_cusps,
)


class TestMarchingSquares:
    def test_uniform_grid_empty(self):
        xs = np.linspace(0.0, 1.0, 6)
        ys = np.linspace(0.0, 1.0, 5)
        values = np.full((6, 5), 2.0)
        assert spike_boundaries(xs, ys, values) == []

    def test_vertical_split(self):
        # two-valued left/right grid: one vertical boundary polyline
        xs = np.linspace(0.0, 1.0, 6)
        ys = np.linspace(0.0, 1.0, 5)
        values = np.zeros((6, 5))
        values[3:, :] = 1.0
        lines = spike_boundaries(xs, ys, values)
        assert len(lines) == 1
        line = lines[0]
        x_vals = {round(p[0], 12) for p in line}
        assert len(x_vals) == 1                      # constant x: vertical
        y_span = max(p[1] for p in line) - min(p[1] for p in line)
        assert y_span == pytest.approx(1.0)

    def test_circle_contour(self):
        xs = np.linspace(-2.0, 2.0, 81)
        ys = np.linspace(-2.0, 2.0, 81)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        lines = marching_squares(xs, ys, X * X + Y * Y, 1.0)
        assert len(lines) == 1
        loop = lines[0]
        assert loop[0] == loop[-1]                   # closed
        radii = [math.hypot(px, py) for px, py in loop]
        assert max(abs(r - 1.0) for r in radii) < 0.05

    def test_interpolated_crossing(self):
        xs = np.array([0.0, 1.0])
        ys = np.array([0.0, 1.0])
        values = np.array([[0.0, 0.0], [4.0, 4.0]])
        lines = marching_squares(xs, ys, values, 1.0)
        assert len(lines) == 1
        for px, _ in lines[0]:
            assert px == pytest.approx(0.25)

    def test_nan_cells_skipped(self):
        xs = np.linspace(0.0, 1.0, 4)
        ys = np.linspace(0.0, 1.0, 4)
        values = np.zeros((4, 4))
        values[2:, :] = 1.0
        values[2, 1] = np.nan
        lines = marching_squares(xs, ys, values, 0.5)
        pts = [p for line in lines for p in line]
        assert pts                                  # partial boundary survives
        ys_covered = {round(p[1], 6) for p in pts}
        assert len(ys_covered) < 7                  # the hole removed a stretch

    @pytest.mark.parametrize("values, level, want", [
        # saddles: the cell mean decides which corners the lines cut off
        ([[1, 0], [0, 1]], 0.5, [[(0, 0.5), (0.5, 1)], [(0.5, 0), (1, 0.5)]]),
        ([[1, 0], [0, 1]], 0.6, [[(0, 0.4), (0.4, 0)], [(0.6, 1), (1, 0.6)]]),
        ([[0, 1], [1, 0]], 0.5, [[(0, 0.5), (0.5, 0)], [(0.5, 1), (1, 0.5)]]),
        ([[0, 1], [1, 0]], 0.6, [[(0, 0.6), (0.4, 1)], [(0.6, 0), (1, 0.4)]]),
        # a level at a node value: the segment shrinks to a point and is dropped
        ([[1, 0], [0, 0]], 1.0, []),
    ])
    def test_saddles_and_node_levels(self, values, level, want):
        assert marching_squares([0.0, 1.0], [0.0, 1.0], values, level) == want

    def test_levels(self):
        counts = np.array([[0.0, 1.0], [2.0, np.nan]])
        assert spike_boundary_levels(counts) == [0.5, 1.5]
        assert spike_boundary_levels(np.full((2, 2), np.nan)) == []


class TestCusps:
    def test_straight_line(self):
        line = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
        assert count_cusps(line, 1.0, 1.0) == 0

    def test_right_angle_not_counted(self):
        line = [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5)]
        assert count_cusps(line, 1.0, 1.0) == 0

    def test_hairpin_counted(self):
        line = [(0.0, 0.0), (0.5, 0.02), (0.0, 0.04)]
        assert count_cusps(line, 1.0, 1.0) == 1

    def test_normalization_matters(self):
        # a hairpin in normalized coordinates that looks blunt unnormalized
        line = [(0.0, 0.0), (0.001, 0.5), (0.0, 1.0)]
        assert count_cusps(line, 0.001, 1.0) == 1
        assert count_cusps(line, 1.0, 1.0) == 0

    def test_total(self):
        lines = [
            [(0.0, 0.0), (1.0, 0.0), (0.0, 0.1)],
            [(0.0, 0.5), (1.0, 0.6)],
        ]
        assert total_cusps(lines, 1.0, 1.0) == 1


class TestGridIntegration:
    def test_constant_l2_empty(self, params):
        # synthetic: hand-built grid object with constant l2
        from fhnburst.sweep import CellResult, SweepGrid, SweepSpec

        spec = SweepSpec(omega_range=(0.01, 0.03, 0.01), e_range=(0.4, 0.5, 0.05))
        grid = SweepGrid(spec, params)
        for k in range(spec.cell_count):
            i, j = divmod(k, len(spec.e_values))
            grid.cells[k] = CellResult(
                omega=float(spec.omegas[i]), E=float(spec.e_values[j]),
                status="ok", spike_count=1, l2=2.5, est_count=1, region="II",
            )
        assert l2_levelsets(grid) == []
        assert extract_boundaries(grid) == []

    def test_zero_levels_empty(self, desk_grids):
        grid = desk_grids[0]
        assert l2_levelsets(grid, n_levels=0) == []

    def test_desk_grid_boundaries_and_levels(self, desk_grids):
        grid = desk_grids[0]
        bounds = extract_boundaries(grid)
        levels = l2_levelsets(grid)
        assert bounds and levels
        js = polylines_to_json(bounds)
        assert isinstance(js[0][0], list) and len(js[0][0]) == 2

    def test_level_sets_funnel_along_boundaries(self, desk_grids):
        # at least half the boundary vertices sit within two cells of an
        # l2 level-set vertex
        grid = desk_grids[0]
        bounds = extract_boundaries(grid)
        levels = l2_levelsets(grid)
        cell_w = grid.omegas[1] - grid.omegas[0]
        cell_h = grid.e_values[1] - grid.e_values[0]
        level_pts = np.array([p for line in levels for p in line])
        near = 0
        total = 0
        for line in bounds:
            for px, py in line:
                total += 1
                d = np.hypot(
                    (level_pts[:, 0] - px) / cell_w, (level_pts[:, 1] - py) / cell_h
                )
                if d.min() <= 2.0:
                    near += 1
        assert total > 0
        assert near / total >= 0.5

import json
import math

import numpy as np
import pytest

from fhnburst.burst import count_spikes, simulate_standard
from fhnburst.cli import _wrap_angles, main
from fhnburst.contours import extract_boundaries, l2_levelsets, polylines_to_json
from fhnburst.manifolds import eval_manifold, solve_expansion
from fhnburst.model import Forcing, ModelParams, TWO_PI, wrap_angle
from fhnburst.svgplot import render_svg
from fhnburst.sweep import SweepSpec, run_sweep, write_grid_csv


def _reference_simulate_files(params, forcing, csv_path, svg_path):
    """Reference writers for `simulate --out/--svg` at the default flags,
    looping over numpy rows one at a time; returns the number of segments."""
    traj = simulate_standard(params, forcing)
    count = count_spikes(traj, 2)
    t0, t1 = traj.t_span
    ts = np.linspace(t0, t1, 2000 * 2 + 1)
    states = traj.sample(ts)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,theta\n")
        for tv, (xv, yv) in zip(ts, states):
            fh.write(
                f"{tv:.17g},{xv:.17g},{yv:.17g},{wrap_angle(forcing.omega * tv):.17g}\n"
            )
    thetas = np.mod(forcing.omega * ts, TWO_PI)
    lines = []
    seg = []
    for th, xv in zip(thetas, states[:, 0]):
        if seg and th < seg[-1][0]:
            lines.append(seg)
            seg = []
        seg.append((th, xv))
    if seg:
        lines.append(seg)
    render_svg(
        svg_path, lines, "theta", "x",
        title=f"E={forcing.E} omega={forcing.omega} ({count} spikes/period)",
        colors=["#1f77b4"] * len(lines),
    )
    return len(lines)


def _reference_manifold_csv(exp, csv_path, samples=401):
    """Reference writer for `manifold --out`, one row at a time."""
    half = math.pi / 2.0
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("theta,u,x\n")
        for off in np.linspace(-half, half, samples):
            theta = exp.theta_base + off
            u = eval_manifold(exp, wrap_angle(theta))
            fh.write(f"{wrap_angle(theta):.17g},{u:.17g},{u - 1.0:.17g}\n")


class TestRegions:
    def test_region_two_drive(self, capsys):
        assert main(["regions", "--E", "0.55", "--omega", "0.0149354"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "II"
        assert out[1].startswith("e_star_left=")
        values = dict(line.split("=") for line in out[1:])
        assert float(values["e_star_left"]) == pytest.approx(0.2840, abs=5e-4)

    def test_low_amplitude(self, capsys):
        assert main(["regions", "--E", "0.1", "--omega", "0.08"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "I"


class TestSimulate:
    def test_burst_metrics_and_files(self, capsys, tmp_path):
        out_csv = tmp_path / "traj.csv"
        out_json = tmp_path / "metrics.json"
        out_svg = tmp_path / "traj.svg"
        code = main([
            "simulate", "--E", "0.55", "--omega", "0.0149354",
            "--out", str(out_csv), "--metrics-out", str(out_json),
            "--svg", str(out_svg),
        ])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["spike_count"] == 3
        assert metrics["region"] == "II"
        assert metrics["n_theta"] == 6

        header, first, *_ = out_csv.read_text().splitlines()
        assert header == "t,x,y,theta"
        assert len(first.split(",")) == 4
        assert json.loads(out_json.read_text())["spike_count"] == 3
        svg = out_svg.read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("E, omega", [
        ("0.55", "0.0149354"),        # three spikes per period
        ("0", "0.0149354"),           # no drive: x stays flat
    ])
    def test_files_match_reference_writers(self, params, capsys, tmp_path, E, omega):
        out_csv, out_svg = tmp_path / "traj.csv", tmp_path / "traj.svg"
        ref_csv, ref_svg = tmp_path / "ref.csv", tmp_path / "ref.svg"
        assert main([
            "simulate", "--E", E, "--omega", omega,
            "--out", str(out_csv), "--svg", str(out_svg),
        ]) == 0
        capsys.readouterr()
        forcing = Forcing(E=float(E), omega=float(omega))
        # two periods sampled from just below theta = 2 pi: three segments
        assert _reference_simulate_files(params, forcing, ref_csv, ref_svg) == 3
        assert out_csv.read_bytes() == ref_csv.read_bytes()
        assert out_svg.read_bytes() == ref_svg.read_bytes()


class TestEquilibria:
    def test_json_document(self, capsys, tmp_path):
        out = tmp_path / "eq.json"
        assert main([
            "equilibria", "--E", "0.55", "--omega", "0.0149354", "--out", str(out)
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["region"] == "II"
        assert {e["kind"] for e in doc["equilibria"]} == {"saddle", "node"}
        assert json.loads(out.read_text()) == doc


class TestManifold:
    def test_expansion_and_polyline(self, capsys, tmp_path):
        out = tmp_path / "m.csv"
        assert main([
            "manifold", "--E", "0.482", "--omega", "0.02",
            "--branch", "stable", "--out", str(out),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["branch"] == "stable"
        assert doc["residual"] <= 1e-12
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,u,x"
        assert len(lines) == 402
        theta, u, x = (float(v) for v in lines[1].split(","))
        assert x == pytest.approx(u - 1.0, abs=1e-12)


    @pytest.mark.parametrize("branch", ["stable", "unstable"])
    def test_file_matches_reference_writer(self, params, capsys, tmp_path, branch):
        out, ref = tmp_path / "m.csv", tmp_path / "ref.csv"
        assert main([
            "manifold", "--E", "0.482", "--omega", "0.02",
            "--branch", branch, "--out", str(out),
        ]) == 0
        capsys.readouterr()
        exp = solve_expansion(branch, params, Forcing(E=0.482, omega=0.02))
        _reference_manifold_csv(exp, ref)
        assert out.read_bytes() == ref.read_bytes()


    def test_wrap_angles_bitwise(self):
        # the array wrap of both --out writers against the scalar rule
        theta = np.concatenate([
            np.linspace(-20.0, 20.0, 4001),
            [0.0, -0.0, TWO_PI, -TWO_PI, 3 * TWO_PI, -1e-300, 1e-300, -np.pi],
        ])
        want = np.array([wrap_angle(v) for v in theta.tolist()])
        assert _wrap_angles(theta).tobytes() == want.tobytes()


class TestEstimate:
    def test_three_spike_drive(self, capsys):
        assert main(["estimate", "--E", "0.55", "--omega", "0.0149354"]) == 0
        assert capsys.readouterr().out.strip() == "estimated=3 simulated=3"


class TestSweepAndContours:
    def test_spec_file_flow(self, capsys, tmp_path):
        spec_file = tmp_path / "sweep.cfg"
        spec_file.write_text(
            "# tiny demonstration sweep\n"
            "omega_lo = 0.019\n"
            "omega_hi = 0.023\n"
            "omega_step = 0.004\n"
            "e_lo = 0.48\n"
            "e_hi = 0.50\n"
            "e_step = 0.02\n"
            "workers = 1\n"
        )
        grid_csv = tmp_path / "grid.csv"
        assert main(["sweep", "--spec", str(spec_file), "--out", str(grid_csv)]) == 0
        lines = grid_csv.read_text().splitlines()
        assert lines[0] == "omega,E,status,spike_count,l2,est_count,region"
        assert len(lines) == 1 + 2 * 2

        out_json = tmp_path / "contours.json"
        out_svg = tmp_path / "contours.svg"
        assert main([
            "contours", "--grid", str(grid_csv),
            "--out", str(out_json), "--svg", str(out_svg),
        ]) == 0
        doc = json.loads(out_json.read_text())
        assert set(doc) == {"spike_count_boundaries", "l2_level_sets"}
        assert out_svg.read_text().startswith("<svg")

    def test_flag_overrides_spec(self, tmp_path, capsys):
        spec_file = tmp_path / "sweep.cfg"
        spec_file.write_text(
            "omega_lo = 0.019\nomega_hi = 0.023\nomega_step = 0.004\n"
            "e_lo = 0.48\ne_hi = 0.50\ne_step = 0.02\n"
        )
        grid_csv = tmp_path / "grid.csv"
        assert main([
            "sweep", "--spec", str(spec_file), "--e-hi", "0.49",
            "--out", str(grid_csv),
        ]) == 0
        lines = grid_csv.read_text().splitlines()
        assert len(lines) == 1 + 2 * 1

    def test_contours_match_library(self, tmp_path):
        spec = SweepSpec(omega_range=(0.01, 0.04, 0.0075), e_range=(0.40, 0.55, 0.0375),
                         workers=2)
        grid = run_sweep(spec, ModelParams())
        assert spec.cell_count == 25
        grid_csv = tmp_path / "grid.csv"
        write_grid_csv(grid, str(grid_csv))
        out_json = tmp_path / "contours.json"
        assert main(["contours", "--grid", str(grid_csv), "--out", str(out_json)]) == 0
        boundaries, levels = extract_boundaries(grid), l2_levelsets(grid)
        assert boundaries and levels
        assert out_json.read_text() == json.dumps({
            "spike_count_boundaries": polylines_to_json(boundaries),
            "l2_level_sets": polylines_to_json(levels),
        }) + "\n"


class TestErrors:
    def test_flag_error_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--E", "0.5"])      # omega missing
        assert info.value.code == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["regions", "--E", "0.5", "--omega", "0.02", "--bogus", "1"])
        assert info.value.code == 2

    def test_computation_error_exit_1(self, capsys):
        assert main(["contours", "--grid", "/nonexistent/grid.csv"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and err["error"]["type"]

    def test_invalid_parameter_error(self, capsys):
        assert main(["regions", "--E", "0.5", "--omega", "0.02", "--b", "1.5"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("axis_flags, message", [
        (["--omega-lo", "0.01", "--omega-hi", "inf", "--omega-step", "0.01"], "finite"),
        (["--omega-lo", "0.0", "--omega-hi", "0.02", "--omega-step", "0.01"], "omega axis"),
    ])
    def test_sweep_axis_outside_domain(self, capsys, tmp_path, axis_flags, message):
        # rejected when the spec is built, before any cell runs
        out = tmp_path / "grid.csv"
        assert main([
            "sweep", *axis_flags, "--e-lo", "0.5", "--e-hi", "0.55", "--e-step", "0.05",
            "--metrics", "region", "--out", str(out),
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert message in err["error"]["message"]
        assert not out.exists()

    def test_contours_malformed_grid_row(self, capsys, tmp_path):
        grid_csv = tmp_path / "grid.csv"
        grid_csv.write_text(
            "omega,E,status,spike_count,l2,est_count,region\n"
            "0.01,0.5,ok,3,0.9,3,II\n"
            "0.01,0.55,ok,3\n"
        )
        assert main(["contours", "--grid", str(grid_csv)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert "line 3" in err["error"]["message"]

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fhnburst import _kernel_py, burst, cli, fastpath, sweep
from fhnburst.burst import count_spikes, simulate_standard
from fhnburst.cli import main
from fhnburst.contours import extract_boundaries, l2_levelsets, polylines_to_json
from fhnburst.errors import NewtonDiverged
from fhnburst.manifolds import _eval_offset, solve_expansion
from fhnburst.model import Forcing, ModelParams, TWO_PI, wrap_angle
from fhnburst.svgplot import svg_document
from fhnburst.sweep import SweepSpec, run_sweep, write_grid_csv

from child_env import child_env


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
    with open(svg_path, "wb") as fh:
        fh.write(svg_document(
            lines, "theta", "x",
            title=f"E={forcing.E} omega={forcing.omega} ({count} spikes/period)",
            colors=["#1f77b4"] * len(lines),
        ))
    return len(lines)


def _reference_manifold_csv(exp, csv_path, samples=401):
    """Reference writer for `manifold --out`, one row at a time."""
    half = math.pi / 2.0
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("theta,u,x\n")
        for off in np.linspace(-half, half, samples).tolist():
            theta = exp.theta_base + off
            u = _eval_offset(exp.coeffs, off)
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

    def test_est_count_without_first_spike(self, capsys):
        # a drive without a spike reports an estimate of 0, as a sweep cell does
        assert main(["simulate", "--E", "0", "--omega", "0.0149354"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["spike_count"] == 0 and metrics["est_count"] == 0

    def test_est_count_null_when_estimate_fails(self, capsys, monkeypatch):
        def diverged(*args, **kw):
            raise NewtonDiverged("synthetic failure")

        monkeypatch.setattr(burst, "solve_expansion", diverged)
        assert main(["simulate", "--E", "0.55", "--omega", "0.0149354"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["spike_count"] == 3 and metrics["est_count"] is None


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

    def test_window_ends_at_a_wrapped_base(self, params, capsys, tmp_path):
        # the offsets +-pi/2 recovered from the wrapped theta of this drive
        # came out one rounding step past pi/2, and the file was refused
        out = tmp_path / "m.csv"
        E, omega = 2.077715893090918, 0.006368535887306907
        assert main([
            "manifold", "--E", str(E), "--omega", str(omega),
            "--branch", "stable", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 401
        base = solve_expansion("stable", params, Forcing(E=E, omega=omega)).theta_base
        assert float(rows[0].split(",")[0]) == wrap_angle(base - math.pi / 2.0)
        assert float(rows[-1].split(",")[0]) == wrap_angle(base + math.pi / 2.0)


class TestCsvWriter:
    @pytest.mark.parametrize("odd", [1e-300, -1e20, 1e-16, 1e300])
    def test_out_of_range_value(self, tmp_path, c_formatter_calls, odd):
        # one value outside the C formatter's %.17g range: it refuses the
        # table and the `%` twin writes all of it
        ts = np.linspace(0.0, 3.0, 7)
        xs, ys = np.sin(ts), np.cos(ts)
        xs[3] = odd
        out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        with open(out, "wb") as fh:
            cli._write_csv(fh, "t,x,y", ts, xs, ys)
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write("t,x,y\n")
            for row in zip(ts, xs, ys):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        assert c_formatter_calls == [None]
        assert out.read_bytes() == ref.read_bytes()


class TestEstimate:
    def test_three_spike_drive(self, capsys):
        assert main(["estimate", "--E", "0.55", "--omega", "0.0149354"]) == 0
        assert capsys.readouterr().out.strip() == "estimated=3 simulated=3"

    def test_no_first_spike_is_an_error(self, capsys):
        # the estimate command reports the estimator's own answer or error
        assert main(["estimate", "--E", "0", "--omega", "0.0149354"]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "NoFirstSpike"


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

    def test_one_parser_across_calls(self, capsys, monkeypatch):
        # main builds its parser once per process; a flag error and the flags
        # of one call must not reach the next
        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                            lambda self, **kw: built.append(self) or add_subparsers(self, **kw))
        assert main(["simulate", "--E", "0.55", "--omega", "0.0149354", "--periods", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["n_theta"] == 3
        first = len(built)
        assert first <= 1                          # none when an earlier test built it
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--E", "0.5"])      # omega missing
        assert info.value.code == 2
        assert main(["simulate", "--E", "0.55", "--omega", "0.0149354"]) == 0
        assert json.loads(capsys.readouterr().out)["n_theta"] == 6
        assert len(built) == first
        assert cli.build_parser() is not cli.build_parser()

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

    def test_contours_header_only_grid(self, capsys, tmp_path):
        grid_csv = tmp_path / "grid.csv"
        grid_csv.write_text("omega,E,status,spike_count,l2,est_count,region\n")
        svg = tmp_path / "grid.svg"
        assert main(["contours", "--grid", str(grid_csv), "--svg", str(svg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert "no rows" in err["error"]["message"]
        assert not svg.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--samples-per-period", "-3"], "--samples-per-period"),
        (["simulate", "--samples-per-period", "0"], "--samples-per-period"),
        (["manifold", "--branch", "stable", "--samples", "0"], "--samples"),
    ])
    def test_rejects_bad_sample_counts(self, capsys, tmp_path, argv, flag):
        # refused before any work: no metrics on stdout, no file
        out = tmp_path / "f.csv"
        assert main([*argv, "--E", "0.55", "--omega", "0.0149354", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["type"] == "ValueError"
        assert err["error"]["message"].startswith(flag + " ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--burn-in", "-1"], ["--periods", "0"]])
    def test_simulate_rejects_bad_periods(self, capsys, tmp_path, flags):
        out = tmp_path / "f.csv"
        assert main([
            "simulate", "--E", "0.5", "--omega", "0.02", *flags, "--out", str(out),
        ]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert "periods" in err["error"]["message"]
        assert not out.exists()


# a valid 2x2 spec whose one metric, the region label, needs no simulation
TINY_SWEEP = ("omega_lo = 0.02\nomega_hi = 0.03\nomega_step = 0.01\n"
              "e_lo = 0.5\ne_hi = 0.55\ne_step = 0.05\nmetrics = region\n"
              "out = {tmp}/grid.csv\n")


class TestOutputContract:
    """A failing command exits 1, prints one JSON error line on stderr and
    nothing on stdout, and leaves no file behind: output paths are opened
    before any work, and the files a failed call created are removed."""

    @pytest.mark.parametrize("argv, spec, match", [
        pytest.param(["simulate", "--E", "0.55", "--omega", "0.02", "--out", "{missing}/x.csv"],
                     None, "{missing}", id="simulate-out-dir-missing"),
        pytest.param(["simulate", "--E", "0.55", "--omega", "0.02", "--out", "{tmp}/ok.csv",
                      "--metrics-out", "{tmp}/ok.json", "--svg", "{missing}/x.svg"],
                     None, "x.svg", id="simulate-svg-dir-missing"),
        pytest.param(["simulate", "--E", "0.55", "--omega", "0.02", "--periods", "0",
                      "--out", "{tmp}/ok.csv", "--svg", "{tmp}/ok.svg"],
                     None, "periods", id="simulate-fails-after-open"),
        pytest.param(["manifold", "--E", "0.482", "--omega", "0.02", "--branch", "stable",
                      "--out", "{missing}/x.csv"], None, "x.csv", id="manifold-out-dir-missing"),
        pytest.param(["equilibria", "--E", "0.55", "--omega", "0.02", "--out", "{missing}/x.json"],
                     None, "x.json", id="equilibria-out-dir-missing"),
        pytest.param(["contours", "--grid", "{tmp}/none.csv", "--out", "{tmp}/c.json",
                      "--svg", "{tmp}/c.svg"], None, "none.csv", id="contours-grid-missing"),
        pytest.param(["sweep", "--spec", "{tmp}/sweep.cfg"],
                     TINY_SWEEP + "chekpoint = {tmp}/ck.jsonl\n", "'chekpoint'",
                     id="sweep-unknown-spec-key"),
        # a flag value out of range
        pytest.param(["sweep", "--spec", "{tmp}/sweep.cfg", "--workers", "0",
                      "--checkpoint", "{tmp}/ck.jsonl"], TINY_SWEEP, "workers",
                     id="sweep-workers-zero"),
        pytest.param(["sweep", "--spec", "{tmp}/sweep.cfg", "--metrics", " , "], TINY_SWEEP,
                     "no metrics", id="sweep-metrics-empty"),
        pytest.param(["contours", "--grid", "{tmp}/none.csv", "--levels", "0",
                      "--out", "{tmp}/c.json", "--svg", "{tmp}/c.svg"], None, "--levels must",
                     id="contours-levels-zero"),
        pytest.param(["contours", "--grid", "{tmp}/none.csv", "--levels", "-3"], None,
                     "--levels must", id="contours-levels-negative"),
        pytest.param(["estimate", "--E", "0.55", "--omega", "0.02", "--rel-tol", "0.5"],
                     None, "tolerances", id="estimate-rel-tol-too-large"),
        pytest.param(["equilibria", "--E", "-0.1", "--omega", "0.02", "--out", "{tmp}/x.json"],
                     None, "non-negative", id="equilibria-negative-amplitude"),
        # a non-finite number
        pytest.param(["simulate", "--E", "nan", "--omega", "0.02", "--out", "{tmp}/x.csv",
                      "--metrics-out", "{tmp}/x.json", "--svg", "{tmp}/x.svg"],
                     None, "finite", id="simulate-E-nan"),
        pytest.param(["regions", "--E", "0.5", "--omega", "inf"], None, "finite",
                     id="regions-omega-inf"),
        pytest.param(["manifold", "--E", "0.5", "--omega", "0.02", "--branch", "stable",
                      "--a", "nan", "--out", "{tmp}/x.csv"], None, "finite",
                     id="manifold-a-nan"),
        pytest.param(["sweep", "--spec", "{tmp}/sweep.cfg", "--e-step", "nan"], TINY_SWEEP,
                     "finite", id="sweep-e-step-nan"),
        # a point outside the domain
        pytest.param(["manifold", "--E", "0.2", "--omega", "0.02", "--branch", "stable",
                      "--out", "{tmp}/x.csv"], None, "no folded saddle",
                     id="manifold-below-saddle-threshold"),
        # a missing input
        pytest.param(["contours", "--grid", "{missing}/grid.csv"], None, "grid.csv",
                     id="contours-grid-dir-missing"),
        pytest.param(["sweep", "--spec", "{tmp}/none.cfg"], None, "none.cfg",
                     id="sweep-spec-missing"),
        pytest.param(["sweep", "--spec", "{tmp}/sweep.cfg"], "e_lo = 0.5\n", "'omega_lo'",
                     id="sweep-key-missing"),
        # a spec key set twice
        pytest.param(["sweep", "--spec", "{tmp}/sweep.cfg"],
                     TINY_SWEEP + "workers = 1\nworkers = 3\n", "'workers' set again on line 10",
                     id="sweep-spec-key-twice"),
    ])
    def test_failure_leaves_nothing(self, capsys, tmp_path, argv, spec, match):
        fill = dict(tmp=tmp_path, missing=tmp_path / "missing")
        if spec:
            (tmp_path / "sweep.cfg").write_text(spec.format(**fill))
        before = sorted(tmp_path.iterdir())
        assert main([arg.format(**fill) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)["error"]
        assert err["type"] and match.format(**fill) in err["message"]
        assert sorted(tmp_path.iterdir()) == before

    def test_unallocatable_table(self, capsys, tmp_path):
        # 2e13 samples ask numpy for 146 TiB, which it refuses at once: the
        # MemoryError is reported like any other failure
        paths = [str(tmp_path / name) for name in ("x.csv", "x.json", "x.svg")]
        assert main(["simulate", "--E", "0.47", "--omega", "0.025",
                     "--samples-per-period", "10000000000000", "--out", paths[0],
                     "--metrics-out", paths[1], "--svg", paths[2]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)["error"]
        assert err["type"] == "MemoryError" and "TiB" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_stdout_path_under_text_stdout(self, capfd):
        # an in-process caller that swaps sys.stdout for a text stream, which
        # has no binary buffer: the table still reaches fd 1 and the printed
        # text the stream
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(["manifold", "--E", "0.482", "--omega", "0.02", "--branch", "stable",
                         "--samples", "2", "--out", "/dev/stdout"]) == 0
        captured = capfd.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines(keepends=True)
        assert len(lines) == 3 and lines[0] == "theta,u,x\n"
        assert json.loads(text.getvalue())

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--E", "0.55", "--omega", "0.0149354", "--out", "{f}",
                      "--svg", "{f}"], id="simulate-out-svg"),
        pytest.param(["simulate", "--E", "0.55", "--omega", "0.0149354", "--out", "{f}",
                      "--metrics-out", "{f}"], id="simulate-out-metrics"),
        pytest.param(["simulate", "--E", "0.55", "--omega", "0.0149354", "--out", "/dev/stdout",
                      "--svg", "/dev/stdout"], id="simulate-stdout-twice"),
        pytest.param(["contours", "--grid", "{grid}", "--out", "{f}", "--svg", "{f}"],
                     id="contours-out-svg"),
    ])
    def test_two_outputs_one_file(self, capsys, tmp_path, argv):
        # refused before any work: a file the call created is removed, and
        # an existing one is left as it was
        grid, f = tmp_path / "grid.csv", tmp_path / "f"
        grid.write_text("omega,E,status,spike_count,l2,est_count,region\n"
                        "0.02,0.5,ok,1,1.5,1,II\n0.02,0.55,ok,2,1.6,2,II\n"
                        "0.03,0.5,ok,1,1.4,1,II\n0.03,0.55,ok,1,1.5,1,II\n")
        for old in (None, "old\n"):
            if old:
                f.write_text(old)
            assert main([arg.format(f=f, grid=grid) for arg in argv]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "name the same file" in json.loads(captured.err)["error"]["message"]
            assert sorted(tmp_path.iterdir()) == ([f, grid] if old else [grid])
            assert not old or f.read_text() == old

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_sweep_out_is_checkpoint(self, capsys, tmp_path, link):
        # the grid CSV would replace the checkpoint log: refused before the
        # log is opened, and a log that exists is left as it was
        spec, ck = tmp_path / "sweep.cfg", tmp_path / "ck.jsonl"
        spec.write_text(TINY_SWEEP.format(tmp=tmp_path))
        out = tmp_path / "out.csv" if link else ck
        if link:
            out.symlink_to(ck)
        argv = ["sweep", "--spec", str(spec), "--checkpoint", str(ck), "--out"]
        for existing in (False, True):
            if existing:
                assert main([*argv, str(tmp_path / "grid.csv")]) == 0
                capsys.readouterr()
            before = sorted(tmp_path.iterdir())
            log = ck.read_bytes() if existing else None
            assert main([*argv, str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "name the same file" in json.loads(captured.err)["error"]["message"]
            assert sorted(tmp_path.iterdir()) == before
            assert not existing or ck.read_bytes() == log

    def test_argparse_error_leaves_nothing(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--E", "0.5", "--omega", "0.02", "--periods", "two",
                  "--out", str(out)])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_sweep_output_checked_before_first_cell(self, capsys, tmp_path, monkeypatch):
        calls = []
        burst_metrics = sweep.burst_metrics
        monkeypatch.setattr(sweep, "burst_metrics",
                            lambda *args, **kw: calls.append(args) or burst_metrics(*args, **kw))
        spec = tmp_path / "sweep.cfg"
        spec.write_text(TINY_SWEEP.format(tmp=tmp_path).replace("= region", "= spike_count"))
        argv = ["sweep", "--spec", str(spec), "--checkpoint", str(tmp_path / "ck.jsonl"),
                "--out"]
        assert main([*argv, str(tmp_path / "missing" / "grid.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"]["type"] == "FileNotFoundError"
        assert calls == []
        assert sorted(tmp_path.iterdir()) == [spec]
        # the same sweep with a writable output computes its four cells
        assert main([*argv, str(tmp_path / "grid.csv")]) == 0
        assert len(calls) == 4

    def test_unknown_spec_key_names_known_keys(self, capsys, tmp_path):
        spec = tmp_path / "sweep.cfg"
        spec.write_text(TINY_SWEEP.format(tmp=tmp_path))
        assert main(["sweep", "--spec", str(spec)]) == 0
        spec.write_text(TINY_SWEEP.format(tmp=tmp_path) + "chekpoint = ck.jsonl\n")
        assert main(["sweep", "--spec", str(spec)]) == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert all(key in message for key in cli.SPEC_KEYS)

    def test_existing_file(self, capsys, tmp_path):
        # a failing call leaves an existing output as it was; a call that
        # succeeds replaces all of it
        old = "old,longer than the new file\n" * 100
        out, fresh = tmp_path / "m.csv", tmp_path / "fresh.csv"
        out.write_text(old)
        assert main(["simulate", "--E", "0.5", "--omega", "0.02", "--periods", "0",
                     "--out", str(out)]) == 1
        assert out.read_text() == old
        manifold = ["manifold", "--E", "0.482", "--omega", "0.02", "--branch", "stable",
                    "--samples", "3", "--out"]
        assert main([*manifold, str(out)]) == 0 and main([*manifold, str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()


# one value per sweep key in the spec file, and another for its flag
SPEC_BASE = dict(omega_lo=0.02, omega_hi=0.03, omega_step=0.01, e_lo=0.5, e_hi=0.55,
                 e_step=0.05, metrics=("region",), workers=1, out="spec.csv",
                 checkpoint="spec.jsonl")
SPEC_FLAGS = dict(omega_lo=0.01, omega_hi=0.04, omega_step=0.015, e_lo=0.45, e_hi=0.6,
                  e_step=0.075, metrics=("region", "spike_count"), workers=2,
                  out="flag.csv", checkpoint="flag.jsonl")


def _spec_text(value, tmp_path) -> str:
    if isinstance(value, tuple):
        return ",".join(value)
    return str(tmp_path / value) if isinstance(value, str) else repr(value)


@pytest.mark.parametrize("key", list(SPEC_BASE))
def test_sweep_flag_overrides_spec_key(capsys, tmp_path, monkeypatch, key):
    assert list(SPEC_BASE) == list(SPEC_FLAGS) == list(cli.SPEC_KEYS)
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text("".join(f"{k} = {_spec_text(v, tmp_path)}\n"
                                 for k, v in SPEC_BASE.items()))
    seen = []
    run_sweep = cli.run_sweep
    monkeypatch.setattr(cli, "run_sweep", lambda spec, *args, checkpoint_path: seen.append(
        (spec, checkpoint_path)) or run_sweep(spec, *args, checkpoint_path=checkpoint_path))
    flag = "--" + key.replace("_", "-")
    assert main(["sweep", "--spec", str(spec_file),
                 flag, _spec_text(SPEC_FLAGS[key], tmp_path)]) == 0
    want = dict(SPEC_BASE, **{key: SPEC_FLAGS[key]})
    [(spec, checkpoint)] = seen
    assert spec == SweepSpec(
        omega_range=(want["omega_lo"], want["omega_hi"], want["omega_step"]),
        e_range=(want["e_lo"], want["e_hi"], want["e_step"]),
        metrics=want["metrics"], workers=want["workers"],
    )
    assert checkpoint == str(tmp_path / want["checkpoint"])
    out = tmp_path / want["out"]
    assert capsys.readouterr().out == f"wrote {out}: {spec.cell_count} cells, 0 failed\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["sweep.cfg", want["out"], want["checkpoint"]])


@pytest.mark.parametrize("argv, header, rows", [
    (["manifold", "--E", "0.482", "--omega", "0.02", "--branch", "stable",
      "--samples", "2"], "theta,u,x\n", 2),
    (["simulate", "--E", "0.55", "--omega", "0.0149354", "--periods", "1",
      "--samples-per-period", "4"], "t,x,y,theta\n", 5),
])
def test_out_to_stdout_file(tmp_path, argv, header, rows):
    # `--out /dev/stdout` writes the table through stdout, ahead of the JSON
    # that the command prints: a pipe and a redirected file get the same bytes
    env = child_env(OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-c", "import sys; from fhnburst.cli import main; sys.exit(main())",
           *argv, "--out", "/dev/stdout"]
    piped = subprocess.run(cmd, env=env, capture_output=True, check=True).stdout
    with open(tmp_path / "f", "wb") as fh:
        subprocess.run(cmd, env=env, stdout=fh, check=True)
    assert (tmp_path / "f").read_bytes() == piped
    lines = piped.decode().splitlines(keepends=True)
    assert lines[0] == header
    assert all(line.count(",") == header.count(",") for line in lines[1:rows + 1])
    assert json.loads("".join(lines[rows + 1:]))


SIX_DRIVES = [("0.55", "0.0149354"), ("0.47", "0.025"), ("0.45", "0.035"),
              ("0", "0.0149354"), ("0.25", "0.02"), ("0.40", "0.01")]


@pytest.mark.parametrize("E, omega", SIX_DRIVES)
def test_simulate_files_identical_on_both_backends(c_library, monkeypatch, capsys,
                                                   tmp_path, E, omega):
    written = {}
    for name, backend in {"compiled": c_library, "pure": _kernel_py}.items():
        monkeypatch.setattr(fastpath, "_IMPL", backend)
        paths = [tmp_path / f"{name}.{ext}" for ext in ("csv", "json", "svg")]
        assert main(["simulate", "--E", E, "--omega", omega,
                     *(arg for flag, path in zip(("--out", "--metrics-out", "--svg"), paths)
                       for arg in (flag, str(path)))]) == 0
        written[name] = [capsys.readouterr().out] + [p.read_bytes() for p in paths]
    assert written["compiled"] == written["pure"]


@pytest.mark.parametrize("argv", [
    pytest.param(["manifold", "--E", "0.482", "--omega", "0.02", "--branch", "stable",
                  "--out", "{stem}.csv"], id="manifold-out"),
    pytest.param(["manifold", "--E", "0.55", "--omega", "0.0149354", "--branch", "unstable",
                  "--samples", "1001", "--out", "{stem}.csv"], id="manifold-unstable-out"),
    pytest.param(["contours", "--grid", "{grid}", "--out", "{stem}.json", "--svg",
                  "{stem}.svg"], id="contours-svg"),
])
def test_files_identical_on_both_backends(c_library, monkeypatch, capsys, tmp_path, argv):
    grid = tmp_path / "grid.csv"
    spec = SweepSpec(omega_range=(0.01, 0.04, 0.01), e_range=(0.40, 0.55, 0.05),
                     metrics=("spike_count", "l2"))
    write_grid_csv(run_sweep(spec, ModelParams()), str(grid))
    written = {}
    for name, backend in {"compiled": c_library, "pure": _kernel_py}.items():
        monkeypatch.setattr(fastpath, "_IMPL", backend)
        stem = tmp_path / name
        assert main([arg.format(stem=stem, grid=grid) for arg in argv]) == 0
        files = sorted(tmp_path.glob(f"{name}.*"))
        assert files and all(p.stat().st_size for p in files)
        written[name] = [capsys.readouterr().out] + [p.read_bytes() for p in files]
    assert written["compiled"] == written["pure"]

"""Batch command-line surface.

Subcommands: simulate, equilibria, regions, manifold, estimate, sweep,
contours.  Exit code 2 for flag errors (argparse), 1 for computation errors
with a machine-readable JSON object on stderr, 0 otherwise.  Everything is
deterministic; output files are the only side effects.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .burst import (
    count_spikes,
    estimate_spike_count,
    l2_norm,
    simulate_standard,
    theta_sequence,
    wrap_sequence,
)
from .contours import levelsets, polylines_to_json, spike_boundaries
from .errors import FhnBurstError
from .geometry import classify_region, equilibria_report, fold_thresholds
from .integrator import IntegratorConfig
from .manifolds import eval_manifold, solve_expansion
from .model import Forcing, ModelParams, TWO_PI
from .svgplot import render_svg
from .sweep import (
    ALL_METRICS,
    SweepSpec,
    grid_from_rows,
    load_grid_csv,
    run_sweep,
    write_grid_csv,
)


def _params_from(args) -> ModelParams:
    return ModelParams(a=args.a, b=args.b, eps=args.eps)


def _config_from(args) -> IntegratorConfig:
    return IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=0.875, help="offset constant")
    p.add_argument("--b", type=float, default=0.8, help="recovery coupling in (0,1)")
    p.add_argument("--eps", type=float, default=0.08, help="timescale ratio in (0,1)")


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--abs-tol", type=float, default=1e-10)


def _add_forcing_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--E", type=float, required=True, help="drive amplitude")
    p.add_argument("--omega", type=float, required=True, help="drive angular frequency")


def _wrap_angles(theta: np.ndarray) -> np.ndarray:
    """`wrap_angle` over an array, bit for bit."""
    th = np.fmod(theta, TWO_PI)
    th[th < 0.0] += TWO_PI
    return th


def _write_csv(path: str, header: str, *columns) -> None:
    """Write float columns under a header line, each value as %.17g, with one
    format call for the whole table."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


def _cmd_simulate(args) -> int:
    params = _params_from(args)
    forcing = Forcing(E=args.E, omega=args.omega)
    cfg = _config_from(args)
    traj = simulate_standard(
        params, forcing, cfg,
        burn_in_periods=args.burn_in, measure_periods=args.periods,
    )
    n_periods = args.periods
    count = count_spikes(traj, n_periods)
    l2 = l2_norm(traj, forcing.period)
    seq = theta_sequence(traj)
    try:
        est = estimate_spike_count(params, forcing, traj, seq)
    except FhnBurstError:
        est = None
    metrics = {
        "omega": forcing.omega,
        "E": forcing.E,
        "spike_count": count,
        "l2": l2,
        "n_theta": int(len(seq)),
        "theta_seq": [float(v) for v in wrap_sequence(seq)],
        "est_count": est,
        "region": classify_region(params, forcing),
    }
    print(json.dumps(metrics, indent=2))

    t0, t1 = traj.t_span
    ts = np.linspace(t0, t1, args.samples_per_period * n_periods + 1)
    states = traj.sample(ts)
    thetas = _wrap_angles(forcing.omega * ts)
    if args.out:
        _write_csv(args.out, "t,x,y,theta", ts, states[:, 0], states[:, 1], thetas)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2)
    if args.svg:
        # one polyline per forcing period: split where theta wraps back
        wraps = np.flatnonzero(np.diff(thetas) < 0.0) + 1
        lines = np.split(np.column_stack([thetas, states[:, 0]]), wraps)
        render_svg(
            args.svg, lines, "theta", "x",
            title=f"E={forcing.E} omega={forcing.omega} ({count} spikes/period)",
            colors=["#1f77b4"] * len(lines),
        )
    return 0


def _cmd_equilibria(args) -> int:
    params = _params_from(args)
    forcing = Forcing(E=args.E, omega=args.omega)
    doc = equilibria_report(params, forcing)
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_regions(args) -> int:
    params = _params_from(args)
    forcing = Forcing(E=args.E, omega=args.omega)
    th = fold_thresholds(params, forcing.delta(params))
    print(classify_region(params, forcing))
    print(f"e_star_left={th.e_star_left:.10g}")
    print(f"e_2star_left={th.e_2star_left:.10g}")
    print(f"e_star_right={th.e_star_right:.10g}")
    print(f"e_2star_right={th.e_2star_right:.10g}")
    return 0


def _cmd_manifold(args) -> int:
    params = _params_from(args)
    forcing = Forcing(E=args.E, omega=args.omega)
    exp = solve_expansion(args.branch, params, forcing)
    print(json.dumps(asdict(exp), indent=2))
    if args.out:
        half = math.pi / 2.0
        thetas = _wrap_angles(exp.theta_base + np.linspace(-half, half, args.samples))
        u = np.array([eval_manifold(exp, th) for th in thetas.tolist()])
        _write_csv(args.out, "theta,u,x", thetas, u, u - 1.0)
    return 0


def _cmd_estimate(args) -> int:
    params = _params_from(args)
    forcing = Forcing(E=args.E, omega=args.omega)
    cfg = _config_from(args)
    traj = simulate_standard(params, forcing, cfg)
    simulated = count_spikes(traj, traj.meta["measure_periods"])
    estimated = estimate_spike_count(params, forcing, traj, theta_sequence(traj))
    print(f"estimated={estimated} simulated={simulated}")
    return 0


def _read_spec_file(path: str) -> dict:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad spec line (expected key = value): {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _cmd_sweep(args) -> int:
    values: dict[str, str] = {}
    if args.spec:
        values = _read_spec_file(args.spec)

    def pick(key, flag, cast=float):
        if flag is not None:
            return flag
        if key in values:
            return cast(values[key])
        raise ValueError(f"missing sweep parameter {key!r}")

    omega_range = (
        pick("omega_lo", args.omega_lo), pick("omega_hi", args.omega_hi),
        pick("omega_step", args.omega_step),
    )
    e_range = (
        pick("e_lo", args.e_lo), pick("e_hi", args.e_hi), pick("e_step", args.e_step),
    )
    metrics = tuple(
        m.strip()
        for m in (args.metrics or values.get("metrics", ",".join(ALL_METRICS))).split(",")
        if m.strip()
    )
    workers = args.workers if args.workers is not None else int(values.get("workers", "1"))
    out = args.out or values.get("out", "sweep_grid.csv")
    checkpoint = args.checkpoint or values.get("checkpoint")

    spec = SweepSpec(
        omega_range=omega_range, e_range=e_range, metrics=metrics, workers=workers
    )
    params = _params_from(args)
    cfg = _config_from(args)
    grid = run_sweep(spec, params, cfg, checkpoint_path=checkpoint)
    write_grid_csv(grid, out)
    n_err = sum(1 for c in grid.cells if c.status != "ok")
    print(f"wrote {out}: {spec.cell_count} cells, {n_err} failed")
    return 0


def _cmd_contours(args) -> int:
    xs, ys, arrays = grid_from_rows(*load_grid_csv(args.grid))
    boundaries = spike_boundaries(xs, ys, arrays["spike_count"])
    level_lines = levelsets(xs, ys, arrays["l2"], n_levels=args.levels)
    doc = {
        "spike_count_boundaries": polylines_to_json(boundaries),
        "l2_level_sets": polylines_to_json(level_lines),
    }
    text = json.dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.svg:
        lines = level_lines + boundaries
        colors = ["#9ecae1"] * len(level_lines) + ["#d62728"] * len(boundaries)
        render_svg(
            args.svg, lines, "omega", "E", title="spike-count boundaries / L2 levels",
            colors=colors,
            bounds=(float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])),
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhnburst",
        description="Spike-adding analysis toolkit for the periodically forced "
        "FitzHugh-Nagumo system",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the standard protocol and report metrics")
    _add_forcing_flags(p)
    _add_model_flags(p)
    _add_tol_flags(p)
    p.add_argument("--periods", type=int, default=2, help="measurement periods")
    p.add_argument("--burn-in", type=int, default=2, help="burn-in periods")
    p.add_argument("--samples-per-period", type=int, default=2000)
    p.add_argument("--out", help="time-series CSV path (t,x,y,theta)")
    p.add_argument("--metrics-out", help="metrics JSON path")
    p.add_argument("--svg", help="render the theta-x projection to this SVG")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("equilibria", help="folded equilibria as JSON")
    _add_forcing_flags(p)
    _add_model_flags(p)
    p.add_argument("--out", help="also write the JSON document here")
    p.set_defaults(fn=_cmd_equilibria)

    p = sub.add_parser("regions", help="region label and amplitude thresholds")
    _add_forcing_flags(p)
    _add_model_flags(p)
    p.set_defaults(fn=_cmd_regions)

    p = sub.add_parser("manifold", help="saddle manifold series expansion")
    _add_forcing_flags(p)
    _add_model_flags(p)
    p.add_argument("--branch", choices=("stable", "unstable"), required=True)
    p.add_argument("--out", help="sampled (theta,u,x) polyline CSV path")
    p.add_argument("--samples", type=int, default=401)
    p.set_defaults(fn=_cmd_manifold)

    p = sub.add_parser("estimate", help="estimated vs simulated spike count")
    _add_forcing_flags(p)
    _add_model_flags(p)
    _add_tol_flags(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("sweep", help="run an (omega, E) sweep")
    p.add_argument("--spec", help="key = value spec file; flags override")
    p.add_argument("--omega-lo", type=float)
    p.add_argument("--omega-hi", type=float)
    p.add_argument("--omega-step", type=float)
    p.add_argument("--e-lo", type=float)
    p.add_argument("--e-hi", type=float)
    p.add_argument("--e-step", type=float)
    p.add_argument("--metrics")
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.add_argument("--checkpoint")
    _add_model_flags(p)
    _add_tol_flags(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("contours", help="boundary/level-set JSON from a grid CSV")
    p.add_argument("--grid", required=True, help="grid CSV from the sweep command")
    p.add_argument("--levels", type=int, default=24)
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.add_argument("--svg", help="render the (omega, E) diagram to this SVG")
    p.set_defaults(fn=_cmd_contours)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FhnBurstError, ValueError, OSError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

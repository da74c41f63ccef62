"""Batch command-line surface.

Subcommands: simulate, equilibria, regions, manifold, estimate, sweep,
contours.  Exit code 2 for flag errors (argparse), 1 for computation errors
with a machine-readable JSON object on stderr, 0 otherwise.  A sweep whose
worker process dies fails with WorkerDied (exit 1).  SIGTERM ends a sweep
with exit status 143 (128 + SIGTERM) and no traceback, once the records of
its finished cells are in the checkpoint log.  Everything is
deterministic; output files are the only side effects.  A command opens its
output files before it does any work and prints its stdout only once they
are written; when it fails, it removes the files it created and leaves a
file that existed as it was, unless writing that file itself failed.  An
output path that names stdout's own file is written through stdout.  Output
files are binary: the tables arrive as the bytes of `fastpath.format_table`
and `svgplot.svg_document`, and JSON text is encoded as UTF-8.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .burst import (
    BURN_IN_PERIODS,
    MEASURE_PERIODS,
    count_spikes,
    estimate_spike_count,
    l2_norm,  # unused: perfbench's tracer wraps cli.l2_norm (ROADMAP item 1 drops it)
    simulate_standard,
    theta_sequence,
    trajectory_metrics,
)
from .contours import N_LEVELS, levelsets, polylines_to_json, spike_boundaries
from .errors import FhnBurstError
from .fastpath import format_table
from .geometry import classify_region, equilibria_report, fold_thresholds
from .integrator import IntegratorConfig
from .manifolds import VALIDITY_HALF_WIDTH, _eval_offset, solve_expansion
from .model import Forcing, ModelParams, wrap_angles
from .svgplot import svg_document
from .sweep import (
    SweepSpec,
    check_writable,
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
    p.add_argument("--a", type=float, default=ModelParams.a, help="offset constant")
    p.add_argument("--b", type=float, default=ModelParams.b, help="recovery coupling in (0,1)")
    p.add_argument("--eps", type=float, default=ModelParams.eps, help="timescale ratio in (0,1)")


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rel-tol", type=float, default=IntegratorConfig.rel_tol)
    p.add_argument("--abs-tol", type=float, default=IntegratorConfig.abs_tol)


def _add_forcing_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--E", type=float, required=True, help="drive amplitude")
    p.add_argument("--omega", type=float, required=True, help="drive angular frequency")


def _is_stdout(path: str) -> bool:
    """Whether path names the file that fd 1 writes to (say /dev/stdout)."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


@contextlib.contextmanager
def _open_outputs(*paths):
    """Open each output path for binary writing, and yield the handles in
    order (None for a path that is None).  A file that exists is opened
    without truncation and cut to what was written on success, so a call that
    fails before it writes leaves it as it was.  A path that names stdout's
    own file gets a handle on fd 1, opened once the text already printed is
    flushed and closed (fd 1 left open) on exit, so that it receives the
    table and the printed text in order whatever `sys.stdout` is, and is
    never cut or removed.  Two paths that name one file (two names for
    stdout included) raise ValueError.  Every handle is closed on exit;
    when the body or a close fails, the files this call created are
    removed."""
    handles, opened, created = [], [], []
    named = {}   # (st_dev, st_ino) -> the first path that names the file
    done = False
    try:
        for path in paths:
            if path is None:
                handles.append(None)
                continue
            if _is_stdout(path):
                sys.stdout.flush()
                fh = open(1, "wb", closefd=False)
            else:
                try:
                    fh = open(path, "xb")
                    created.append(path)
                except FileExistsError:
                    fh = open(os.open(path, os.O_WRONLY), "wb")
            opened.append(fh)
            handles.append(fh)
            st = os.fstat(fh.fileno())
            key = (st.st_dev, st.st_ino)
            if key in named:
                raise ValueError(f"output paths {named[key]!r} and {path!r} name the same file")
            named[key] = path
        yield handles
        for fh in opened:
            # not stdout, a pipe or a tty
            if fh.raw.closefd and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
            fh.close()
        done = True
    finally:
        if not done:
            for fh in opened:
                with contextlib.suppress(OSError):
                    fh.close()
            for path in created:
                with contextlib.suppress(OSError):
                    os.remove(path)


def _write_csv(fh, header: str, *columns) -> None:
    """Write float columns under a header line, each value as %.17g, with one
    `fastpath.format_table` call for the whole table, to a binary handle."""
    fh.write(header.encode() + b"\n")
    fh.write(format_table(np.column_stack(columns), "%.17g", ",", "\n"))


def _require_positive(value: int, flag: str) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")


def _cmd_simulate(args) -> int:
    _require_positive(args.samples_per_period, "--samples-per-period")
    with _open_outputs(args.out, args.metrics_out, args.svg) as handles:
        text = _simulate(args, *handles)
    print(text)
    return 0


def _simulate(args, csv_fh, metrics_fh, svg_fh) -> str:
    """Simulate, write the requested files, and return the metrics JSON."""
    params = _params_from(args)
    forcing = Forcing(E=args.E, omega=args.omega)
    region = classify_region(params, forcing)   # closed form: it fails before the drive
    traj = simulate_standard(
        params, forcing, _config_from(args),
        burn_in_periods=args.burn_in, measure_periods=args.periods,
    )
    m = trajectory_metrics(params, forcing, traj, args.periods)
    metrics = {
        "omega": forcing.omega, "E": forcing.E,
        "spike_count": m.spike_count, "l2": m.l2,
        "n_theta": len(m.theta_seq),
        "theta_seq": [float(v) for v in wrap_angles(m.theta_seq)],
        "est_count": m.est_count, "region": region,
    }
    text = json.dumps(metrics, indent=2)
    if metrics_fh:
        metrics_fh.write(text.encode())
    if not (csv_fh or svg_fh):
        return text

    # the time series, sampled only for the files that show it
    t0, t1 = traj.t_span
    ts = np.linspace(t0, t1, args.samples_per_period * args.periods + 1)
    states = traj.sample(ts)
    thetas = wrap_angles(forcing.omega * ts)
    if csv_fh:
        _write_csv(csv_fh, "t,x,y,theta", ts, states[:, 0], states[:, 1], thetas)
    if svg_fh:
        # one polyline per forcing period: split where theta wraps back
        wraps = np.flatnonzero(np.diff(thetas) < 0.0) + 1
        lines = np.split(np.column_stack([thetas, states[:, 0]]), wraps)
        svg_fh.write(svg_document(
            lines, "theta", "x",
            title=f"E={forcing.E} omega={forcing.omega} ({m.spike_count} spikes/period)",
            colors=["#1f77b4"] * len(lines),
        ))
    return text


def _cmd_equilibria(args) -> int:
    with _open_outputs(args.out) as (fh,):
        params = _params_from(args)
        forcing = Forcing(E=args.E, omega=args.omega)
        text = json.dumps(equilibria_report(params, forcing), indent=2)
        if fh:
            fh.write(text.encode() + b"\n")
    print(text)
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
    _require_positive(args.samples, "--samples")
    with _open_outputs(args.out) as (fh,):
        params = _params_from(args)
        forcing = Forcing(E=args.E, omega=args.omega)
        exp = solve_expansion(args.branch, params, forcing)
        if fh:
            offsets = np.linspace(-VALIDITY_HALF_WIDTH, VALIDITY_HALF_WIDTH, args.samples)
            # u at the offsets themselves: an offset recovered from its
            # wrapped theta can land one rounding step past pi/2
            thetas = wrap_angles(exp.theta_base + offsets)
            u = _eval_offset(exp.coeffs, offsets)
            _write_csv(fh, "theta,u,x", thetas, u, u - 1.0)
    print(json.dumps(asdict(exp), indent=2))
    return 0


def _cmd_estimate(args) -> int:
    params = _params_from(args)
    forcing = Forcing(E=args.E, omega=args.omega)
    cfg = _config_from(args)
    traj = simulate_standard(params, forcing, cfg)
    simulated = count_spikes(traj, MEASURE_PERIODS)
    estimated = estimate_spike_count(params, forcing, traj, theta_sequence(traj, forcing.omega))
    print(f"estimated={estimated} simulated={simulated}")
    return 0


def _metric_names(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


# the sweep's keys, each a spec-file key and a flag (`_` written `-`):
# key -> (type, default), where ... marks a key the sweep cannot do without
SPEC_KEYS = {
    "omega_lo": (float, ...), "omega_hi": (float, ...), "omega_step": (float, ...),
    "e_lo": (float, ...), "e_hi": (float, ...), "e_step": (float, ...),
    "metrics": (_metric_names, SweepSpec.metrics),
    "workers": (int, SweepSpec.workers),
    "out": (str, "sweep_grid.csv"),
    "checkpoint": (str, None),
}


def _read_spec_file(path: str) -> dict:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad spec line (expected key = value): {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"spec key {key!r} set again on line {lineno} of {path}")
            out[key] = value
    return out


def _sweep_values(args) -> dict:
    """Each of SPEC_KEYS from its flag, else from the spec file, else its default."""
    values = _read_spec_file(args.spec) if args.spec else {}
    unknown = [key for key in values if key not in SPEC_KEYS]
    if unknown:
        raise ValueError(f"unknown spec key(s) {', '.join(map(repr, unknown))} in "
                         f"{args.spec}; known keys: {', '.join(SPEC_KEYS)}")
    resolved = {}
    for key, (cast, default) in SPEC_KEYS.items():
        if getattr(args, key) is not None:
            resolved[key] = getattr(args, key)
        elif key in values:
            resolved[key] = cast(values[key])
        elif default is ...:
            raise ValueError(f"missing sweep parameter {key!r}")
        else:
            resolved[key] = default
    return resolved


@contextlib.contextmanager
def _sigterm_exits():
    """For the block's duration, make SIGTERM raise SystemExit(143), so that
    the `finally` clauses it passes through run; then restore the old
    handler.  Only the main thread can set a handler, so elsewhere it does
    nothing."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def exit_now(signum, frame):
        raise SystemExit(128 + signum)

    old = signal.signal(signal.SIGTERM, exit_now)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, old)


def _cmd_sweep(args) -> int:
    v = _sweep_values(args)
    spec = SweepSpec(
        omega_range=(v["omega_lo"], v["omega_hi"], v["omega_step"]),
        e_range=(v["e_lo"], v["e_hi"], v["e_step"]), metrics=v["metrics"], workers=v["workers"],
    )
    params = _params_from(args)
    cfg = _config_from(args)
    check_writable(v["out"], v["checkpoint"])
    with _sigterm_exits():
        grid = run_sweep(spec, params, cfg, checkpoint_path=v["checkpoint"])
    write_grid_csv(grid, v["out"])
    n_err = sum(1 for c in grid.cells if c.status != "ok")
    print(f"wrote {v['out']}: {spec.cell_count} cells, {n_err} failed")
    return 0


def _cmd_contours(args) -> int:
    _require_positive(args.levels, "--levels")
    with _open_outputs(args.out, args.svg) as (out_fh, svg_fh):
        xs, ys, arrays = grid_from_rows(*load_grid_csv(args.grid))
        boundaries = spike_boundaries(xs, ys, arrays["spike_count"])
        level_lines = levelsets(xs, ys, arrays["l2"], n_levels=args.levels)
        text = json.dumps({
            "spike_count_boundaries": polylines_to_json(boundaries),
            "l2_level_sets": polylines_to_json(level_lines),
        })
        if out_fh:
            out_fh.write(text.encode() + b"\n")
        if svg_fh:
            lines = level_lines + boundaries
            colors = ["#9ecae1"] * len(level_lines) + ["#d62728"] * len(boundaries)
            svg_fh.write(svg_document(
                lines, "omega", "E", title="spike-count boundaries / L2 levels",
                colors=colors,
                bounds=(float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])),
            ))
    if not args.out:
        print(text)
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
    p.add_argument("--periods", type=int, default=MEASURE_PERIODS, help="measurement periods")
    p.add_argument("--burn-in", type=int, default=BURN_IN_PERIODS, help="burn-in periods")
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
    for key, (cast, _) in SPEC_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=cast)
    _add_model_flags(p)
    _add_tol_flags(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("contours", help="boundary/level-set JSON from a grid CSV")
    p.add_argument("--grid", required=True, help="grid CSV from the sweep command")
    p.add_argument("--levels", type=int, default=N_LEVELS)
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.add_argument("--svg", help="render the (omega, E) diagram to this SVG")
    p.set_defaults(fn=_cmd_contours)

    return parser


# one parser per process: building it takes 1.4-2.3 ms, and a process may
# call main many times (argparse keeps no state between parses)
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FhnBurstError, ValueError, OSError, MemoryError) as exc:
        # numpy's private _ArrayMemoryError is reported as the MemoryError it is
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        payload = {"error": {"type": name, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

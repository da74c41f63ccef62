"""The three workloads, each with an untraced and a traced form.

The untraced form repeats rounds of work until the next round would end
past the time budget (always at least one round) and yields the end-to-end
figures.  Its intervals are scaled to a fixed machine speed by calibration
samples taken between operations (see calibration.py); the raw figures are
reported beside them.  The traced form runs one fixed round untraced, then
the same round with spans installed, so its counts repeat exactly and the
difference between the two (scaled) walls is the tracing overhead.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import reference as ref
from calibration import SpeedClock
from metrics import LAYERS, PER_LAYER
from tracing import Installed, Tracer

DRIVE_TRACE_CALLS = 20
BATCH_GAP_S = 1e-3      # progress callbacks closer than this came in one pool batch


@dataclass
class Context:
    work: str           # scratch directory for checkpoints and outputs
    out: str            # result and trace files
    seed: int
    seconds: float
    smoke: bool
    nproc: int
    clock: SpeedClock


class Tally:
    """Operations attempted and failed (raised or mismatched the reference)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) of the samples lie at or above it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def figures(ops: int, scaled_s, raw_s) -> dict:
    """End-to-end figures of a workload from its per-operation latencies.

    scaled_s and raw_s hold the latencies at one worker, scaled and raw.
    Throughput is ops over their sum; a caller whose operations have time
    outside those latencies (a sweep's compaction, the atlas contours)
    replaces it.
    """
    def pct(values, q):
        return percentile([v * 1e3 for v in values], q)

    return {
        "throughput_per_s": ops / sum(scaled_s),
        "latency_p50_ms": pct(scaled_s, 0.5),
        "latency_p90_ms": pct(scaled_s, 0.9),
        "samples": len(scaled_s),
        "extra": {
            "raw_throughput_per_s": ops / sum(raw_s),
            "raw_latency_p50_ms": pct(raw_s, 0.5),
            "raw_latency_p90_ms": pct(raw_s, 0.9),
        },
    }


def _timed_scaled(clock: SpeedClock, fn):
    """Run fn between two calibration samples; returns (result, scaled s)."""
    clock.scale([])
    t0 = time.perf_counter()
    out = fn()
    return out, clock.scale([time.perf_counter() - t0])[0]


def _rounds(ctx: Context, run_round) -> None:
    """Call run_round(r) until another round would overrun ctx.seconds."""
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        run_round(r)
        r += 1
        now = time.perf_counter()
        if ctx.smoke or (now - start) + (now - t0) > ctx.seconds:
            return


# ---------------------------------------------------------------- desk_sweep

def _desk_sample(ctx: Context, rng, rows) -> list[int]:
    return ref.desk_sample(rng, rows, ref.load_desk_knots(), 4 if ctx.smoke else ref.DESK_SAMPLE)


def _prefill(ctx: Context, rows, pending) -> str:
    """A checkpoint of the desk grid holding every cell except `pending`.

    The library writes it (compact_checkpoint, one record per cell in index
    order after a header line); the records of the pending cells are then
    dropped, as if the sweep had stopped before computing them.
    """
    from fhnburst import ModelParams, sweep
    from fhnburst.integrator import IntegratorConfig

    spec, params = ref.desk_spec(), ModelParams()
    grid = sweep.SweepGrid(spec, params)
    _, _, parsed = sweep.load_grid_csv(ref.DESK_CSV)
    grid.cells = [sweep.CellResult(**row) for row in parsed]
    path = os.path.join(ctx.work, "desk_prefill.jsonl")
    sweep.compact_checkpoint(path, sweep.spec_fingerprint(spec, params, IntegratorConfig()), grid)
    drop = {k + 1 for k in pending}
    with open(path, encoding="utf-8") as fh:
        lines = [line for k, line in enumerate(fh) if k not in drop]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return path


def _desk_pass(ctx: Context, prefill: str, workers: int, tag: str,
               progress=None, clock=None) -> dict:
    """Resume the desk sweep from the prefilled checkpoint; export its CSV.

    With a clock, the pass samples it after every cell, outside the cell's
    interval, and scales each cell's latency; use it at one worker only,
    where the sample runs on the core that did the work.
    """
    from fhnburst import sweep

    ck = os.path.join(ctx.work, f"desk_{tag}.jsonl")
    shutil.copyfile(prefill, ck)
    csv = os.path.join(ctx.work, f"desk_{tag}.csv")
    stamps, raw, scaled = [], [], []

    def on_cell(idx, cell):
        now = time.perf_counter()
        stamps.append(now)
        if clock is not None:
            raw.append(now - mark[0])
            scaled.extend(clock.scale(raw[-1:]))
            mark[0] = time.perf_counter()
        if progress:
            progress(idx, cell)

    if clock is not None:
        clock.scale([])
    t0 = time.perf_counter()
    mark = [t0]
    grid = sweep.run_sweep(ref.desk_spec(workers), checkpoint_path=ck, progress=on_cell)
    t1 = time.perf_counter()
    if clock is not None:       # the tail after the last cell: compaction
        scaled.append(clock.scale([t1 - mark[0]])[0])
    sweep.write_grid_csv(grid, csv)
    return {
        "grid": grid, "csv": csv, "t0": t0, "sweep_s": t1 - t0,
        "stamps": stamps, "raw": raw, "scaled": scaled,
        "checkpoint_bytes": os.path.getsize(ck),
    }


def _desk_serial(ctx: Context, prefill: str, progress=None, clock=None) -> dict:
    """The 1-worker pass, then the contours of its grid."""
    from fhnburst import contours

    t0 = time.perf_counter()
    p = _desk_pass(ctx, prefill, 1, "1w", progress, clock)
    p["polylines"] = (
        len(contours.extract_boundaries(p["grid"])) + len(contours.l2_levelsets(p["grid"]))
    )
    p["wall_s"] = time.perf_counter() - t0
    return p


def _check_desk(serial: dict, parallel: dict, rows, pending, tally: Tally) -> None:
    """Computed cells against the reference, whole CSVs against each other."""
    with open(serial["csv"], encoding="utf-8") as fh:
        lines_1w = fh.read().splitlines()[1:]
    with open(parallel["csv"], encoding="utf-8") as fh:
        lines_nw = fh.read().splitlines()[1:]
    for k in pending:
        tally.add(k < len(lines_1w) and ref.check_row(lines_1w[k].split(","), rows[k]))
    # the parallel pass must reproduce the serial CSV byte for byte, and the
    # resumed cells must come back from the checkpoint unchanged
    tally.add(lines_1w == lines_nw)
    tally.add(len(lines_1w) == len(rows) and all(
        ref.check_row(line.split(","), want) for line, want in zip(lines_1w, rows)))
    tally.add(serial["polylines"] > 0)


def _desk_round(ctx: Context, rows, pending, tally: Tally, clock=None) -> tuple[dict, dict]:
    prefill = _prefill(ctx, rows, pending)
    serial = _desk_serial(ctx, prefill, clock=clock)
    parallel = _desk_pass(ctx, prefill, ctx.nproc, "nw")
    _check_desk(serial, parallel, rows, pending, tally)
    return serial, parallel


def _tail_idle_s(parallel: dict, workers: int) -> float:
    """Wall time after the first worker runs out of cells, seen from the parent.

    Results of one pool chunk reach the parent together, so callbacks closer
    than BATCH_GAP_S form one batch.  The last `workers` batches come from
    different workers; the earliest of them marks the first idle worker.
    """
    rel = [s - parallel["t0"] for s in parallel["stamps"]]
    batches = [t for k, t in enumerate(rel) if k == 0 or t - rel[k - 1] > BATCH_GAP_S]
    if workers < 2 or len(batches) < workers:
        return 0.0
    return parallel["sweep_s"] - batches[-workers]


def _warm_up() -> None:
    from fhnburst import ModelParams, burst
    from fhnburst.model import Forcing

    burst.burst_metrics(ModelParams(), Forcing(E=0.47, omega=0.025))


def desk(ctx: Context, tally: Tally) -> dict:
    """End-to-end figures of the desk sweep.

    The bounded figures come from the 1-worker pass.  The nproc-worker pass
    cannot be scaled: a calibration sample taken by this process while the
    pool runs competes with the workers for the cores.  Its rate and the
    parallel efficiency are therefore raw, and the efficiency compares it
    with the raw 1-worker pass of the same cells just before it.
    """
    rows = ref.load_desk_reference()
    rng = random.Random(ctx.seed)
    _warm_up()
    acc = {"raw": [], "scaled": [], "s_1w": 0.0, "s_1w_raw": 0.0, "cells": 0, "s_nw": 0.0}

    def run_round(r):
        serial, parallel = _desk_round(
            ctx, rows, _desk_sample(ctx, rng, rows), tally, ctx.clock)
        acc["raw"] += serial["raw"]
        acc["scaled"] += serial["scaled"][:-1]      # the last one is the tail
        acc["s_1w"] += sum(serial["scaled"])
        acc["s_1w_raw"] += serial["sweep_s"]
        acc["cells"] += len(parallel["stamps"])
        acc["s_nw"] += parallel["sweep_s"]

    _rounds(ctx, run_round)
    res = figures(acc["cells"], acc["scaled"], acc["raw"])
    res["throughput_per_s"] = acc["cells"] / acc["s_1w"]
    res["extra"].update({
        "raw_throughput_per_s": acc["cells"] / acc["s_1w_raw"],
        "sweep_cells_per_s_nw_raw": acc["cells"] / acc["s_nw"],
        "parallel_efficiency": acc["s_1w_raw"] / (ctx.nproc * acc["s_nw"]),
        "workers": ctx.nproc,
    })
    return res


def desk_traced(ctx: Context, tally: Tally) -> dict:
    rows = ref.load_desk_reference()
    pending = _desk_sample(ctx, random.Random(ctx.seed), rows)
    _warm_up()
    prefill = _prefill(ctx, rows, pending)
    base, untraced_s = _timed_scaled(ctx.clock, lambda: _desk_serial(ctx, prefill))
    parallel = _desk_pass(ctx, prefill, ctx.nproc, "nw")
    _check_desk(base, parallel, rows, pending, tally)

    tracer = Tracer()
    cells = []
    last = {}

    def progress(idx, cell):
        snap, now = tracer.snapshot(), time.perf_counter()
        cells.append({
            "omega": cell.omega, "E": cell.E,
            "wall_ms": (now - last["t"]) * 1e3,
            "knots": snap["knots"] - last["snap"]["knots"],
            "dense_eval_points": snap["dense_eval_points"] - last["snap"]["dense_eval_points"],
            "status": cell.status,
        })
        last.update(snap=snap, t=now)

    def traced_pass():
        with Installed(tracer):
            last.update(snap=tracer.snapshot(), t=time.perf_counter())
            return _desk_serial(ctx, prefill, progress)

    traced, traced_s = _timed_scaled(ctx.clock, traced_pass)
    _check_desk(traced, parallel, rows, pending, tally)
    _write_cell_trace(ctx, cells)

    return layer_metrics(
        tracer, ops=len(traced["stamps"]), wall_s=traced["wall_s"],
        overhead=traced_s / untraced_s - 1.0,
        extra={
            "sweep.dispatch_overhead_s": parallel["sweep_s"] * ctx.nproc - base["sweep_s"],
            "sweep.tail_idle_s": _tail_idle_s(parallel, ctx.nproc),
            "sweep.checkpoint_bytes": traced["checkpoint_bytes"],
        },
    )


def _write_cell_trace(ctx: Context, cells) -> None:
    path = os.path.join(ctx.out, f"desk_sweep-seed{ctx.seed}-cells.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("omega,E,wall_ms,knots,dense_eval_points,status\n")
        for c in cells:
            fh.write(
                f"{c['omega']!r},{c['E']!r},{c['wall_ms']:.6f},{c['knots']},"
                f"{c['dense_eval_points']},{c['status']}\n"
            )


# ------------------------------------------------------------ drive_sessions

_DRIVE_FILES = ("drive.csv", "drive.json", "drive.svg")


def _simulate(ctx: Context, omega: str, e_val: str) -> tuple[int, float]:
    """One `fhnburst simulate` call through cli.main; returns (code, seconds)."""
    from fhnburst import cli

    out, metrics_out, svg = (os.path.join(ctx.work, n) for n in _DRIVE_FILES)
    argv = ["simulate", "--E", e_val, "--omega", omega,
            "--out", out, "--metrics-out", metrics_out, "--svg", svg]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, time.perf_counter() - t0


def _check_drive(ctx: Context, code: int, want) -> tuple[bool, int]:
    """The call's outputs against the sweep reference; returns (ok, bytes)."""
    paths = [os.path.join(ctx.work, n) for n in _DRIVE_FILES]
    if code != 0 or want[2] != "ok":
        return False, 0
    try:
        with open(paths[1], encoding="utf-8") as fh:
            got = json.load(fh)
        with open(paths[0], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh)
        with open(paths[2], encoding="utf-8") as fh:
            svg_ok = fh.read().endswith("</svg>\n")
    except (OSError, ValueError):
        return False, 0
    # the sweep records a drive without a first spike as est_count 0
    est = 0 if got["est_count"] is None else got["est_count"]
    ok = (
        got["spike_count"] == int(want[3]) and est == int(want[5])
        and got["region"] == want[6] and ref.close(got["l2"], float(want[4]))
        and rows == 2 * 2000 + 2 and svg_ok
    )
    return ok, sum(os.path.getsize(p) for p in paths)


def _drive_batch(ctx: Context, drives, rows, tally: Tally, raw: list,
                 scaled=None, clock=None) -> int:
    """Simulate each drive (a reference cell index), one call at a time.

    With a clock, a calibration sample follows every call, outside its time,
    and the call's scaled time goes to `scaled`.
    """
    out_bytes = 0
    for k in drives:
        try:
            code, dt = _simulate(ctx, rows[k][0], rows[k][1])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code, dt = None, 0.0
        if clock is not None:
            scaled += clock.scale([dt])
        ok, nbytes = _check_drive(ctx, code, rows[k]) if code is not None else (False, 0)
        raw.append(dt)
        out_bytes += nbytes
        tally.add(ok)
    return out_bytes


def _drive_sample(ctx: Context, rng, rows) -> list[int]:
    drives = ref.desk_sample(rng, rows, ref.load_desk_knots(), 3 if ctx.smoke else ref.DESK_SAMPLE)
    rng.shuffle(drives)
    return drives


def drive(ctx: Context, tally: Tally) -> dict:
    rows = ref.load_desk_reference()
    rng = random.Random(ctx.seed)
    _simulate(ctx, "0.025", "0.47")
    raw: list = []
    scaled: list = []
    ctx.clock.scale([])
    _rounds(ctx, lambda r: _drive_batch(
        ctx, _drive_sample(ctx, rng, rows), rows, tally, raw, scaled, ctx.clock))
    return figures(len(raw), scaled, raw)


def drive_traced(ctx: Context, tally: Tally) -> dict:
    rows = ref.load_desk_reference()
    drives = _drive_sample(ctx, random.Random(ctx.seed), rows)[:DRIVE_TRACE_CALLS]
    _simulate(ctx, "0.025", "0.47")
    untraced: list = []
    ctx.clock.scale([])
    _drive_batch(ctx, drives, rows, tally, [], untraced, ctx.clock)
    tracer = Tracer()
    raw: list = []
    traced: list = []
    with Installed(tracer):
        out_bytes = _drive_batch(ctx, drives, rows, tally, raw, traced, ctx.clock)
    return layer_metrics(
        tracer, ops=len(drives), wall_s=sum(raw), overhead=sum(traced) / sum(untraced) - 1.0,
        extra={"cli.output_bytes": out_bytes / len(drives)},
    )


# ------------------------------------------------------------ singular_atlas

def _atlas_round(ctx: Context, k: int, atlas_ref: dict, tally: Tally,
                 raw: list, scaled: list, clock=None) -> tuple[float, float]:
    """One atlas shift with its contours; returns its (raw, scaled) seconds.

    With a clock, a calibration sample follows every row of points and the
    contour step, outside their times, and scales them.
    """
    from fhnburst import ModelParams

    params = ModelParams()
    variant = ref.ATLAS_VARIANTS[k]
    n = 10 if ctx.smoke else ref.ATLAS_N
    omegas, e_vals = ref.atlas_axes(variant, n)
    got = {}
    wall = wall_scaled = 0.0
    if clock is not None:
        clock.scale([])
    for i, om in enumerate(omegas):
        row = []
        for j, ev in enumerate(e_vals):
            ts = time.perf_counter()
            try:
                got[i, j] = ref.atlas_point(params, om, ev)
            except Exception as exc:    # checked against the reference below
                got[i, j] = exc
            row.append(time.perf_counter() - ts)
        raw += row
        wall += sum(row)
        if clock is not None:
            row = clock.scale(row)
            scaled += row
            wall_scaled += sum(row)
    t0 = time.perf_counter()
    regions = np.array([[_field(got[i, j], 0) for j in range(n)] for i in range(n)])
    phases = np.array([[_field(got[i, j], 2) for j in range(n)] for i in range(n)])
    polylines = ref.atlas_contours(omegas, e_vals, regions, phases)
    contour_s = time.perf_counter() - t0
    wall += contour_s
    if clock is not None:
        wall_scaled += clock.scale([contour_s])[0]

    for (i, j), value in got.items():
        idx = (2 * i + variant[0], 2 * j + variant[1])
        tally.add(ref.check_atlas_point(value, atlas_ref, idx))
    if not ctx.smoke:
        tally.add(tuple(polylines) == tuple(atlas_ref["polylines"][k]))
    return wall, wall_scaled


def _field(value, pos: int) -> float:
    return math.nan if isinstance(value, Exception) else float(value[pos])


def atlas(ctx: Context, tally: Tally) -> dict:
    atlas_ref = ref.load_atlas_reference()
    raw: list = []
    scaled: list = []
    walls: list = []
    shifts: list = []

    def run_round(r):
        k = (ctx.seed + r) % 4
        walls.append(_atlas_round(ctx, k, atlas_ref, tally, raw, scaled, ctx.clock))
        shifts.append(ref.ATLAS_VARIANTS[k])

    _rounds(ctx, run_round)
    res = figures(len(raw), scaled, raw)
    # throughput includes the contour step of every round
    res["throughput_per_s"] = len(raw) / sum(w[1] for w in walls)
    res["extra"]["raw_throughput_per_s"] = len(raw) / sum(w[0] for w in walls)
    res["extra"]["known_defects"] = sum(ref.known_defects(atlas_ref, v) for v in shifts)
    return res


def atlas_traced(ctx: Context, tally: Tally) -> dict:
    atlas_ref = ref.load_atlas_reference()
    k = ctx.seed % 4
    raw: list = []
    _, untraced_s = _atlas_round(ctx, k, atlas_ref, tally, raw, [], ctx.clock)
    tracer = Tracer()
    with Installed(tracer):
        wall, traced_s = _atlas_round(ctx, k, atlas_ref, tally, [], [], ctx.clock)
    return layer_metrics(tracer, ops=len(raw), wall_s=wall,
                         overhead=traced_s / untraced_s - 1.0, extra={})


# ------------------------------------------------------------------ layers

def layer_metrics(tracer: Tracer, ops: int, wall_s: float, overhead: float, extra: dict) -> dict:
    """Every per-layer metric from one traced pass of `ops` operations.

    wall_s is the traced pass's raw wall time; overhead is the scaled traced
    time over the scaled untraced time of the same work, minus one.
    """
    t = tracer
    per = 1.0 / ops
    wall_ms = wall_s * 1e3
    m = {
        "integrator.burn_in_ms": t.total_ms("integrator.burn_in") * per,
        "integrator.measure_ms": t.total_ms("integrator.measure") * per,
        "integrator.knots": t.counts["integrator.knots"] * per,
        "integrator.dense_eval_calls": t.calls["integrator.dense_eval"] * per,
        "integrator.dense_eval_points": t.counts["integrator.dense_eval_points"] * per,
        "integrator.dense_eval_ms": t.total_ms("integrator.dense_eval") * per,
        "burst.lower_returns_ms": t.total_ms("burst.lower_returns") * per,
        "burst.lower_returns_calls": t.calls["burst.lower_returns"] * per,
        "burst.l2_ms": t.total_ms("burst.l2") * per,
        "burst.estimate_self_ms": t.self_ms("burst.estimate") * per,
        "burst.metrics_self_ms": t.self_ms("burst.metrics") * per,
        "manifolds.solve_ms": t.total_ms("manifolds.solve") * per,
        "manifolds.residual_evals": t.counts["manifolds.residual_evals"] * per,
        "manifolds.bound_phase_ms": t.total_ms("manifolds.bound_phase") * per,
        "geometry.classify_ms": t.total_ms("geometry.classify") * per,
        "geometry.equilibria_ms": t.total_ms("geometry.equilibria") * per,
        "sweep.cell_compute_s": t.total_ms("burst.metrics") / 1e3,
        "sweep.dispatch_overhead_s": 0.0,
        "sweep.tail_idle_s": 0.0,
        "sweep.checkpoint_bytes": 0,
        "sweep.csv_write_ms": t.total_ms("sweep.csv_write"),
        "contours.marching_squares_ms": t.total_ms("contours.marching_squares"),
        "contours.polylines": t.counts["contours.polylines"],
        "cli.simulate_self_ms": t.self_ms("cli.main") * per,
        "cli.output_bytes": 0,
    }
    m.update(extra)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = t.layer_self_ms(layer)
    m["trace.unattributed_ms"] = wall_ms - sum(m[f"{layer}.self_ms"] for layer in LAYERS)
    m["trace.wall_ms"] = wall_ms
    m["trace.overhead_pct"] = 100.0 * overhead
    missing = {p.name for p in PER_LAYER} ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metric table and computation disagree: {sorted(missing)}")
    return {"metrics": m, "ops": ops}


RUNNERS = {
    "desk_sweep": (desk, desk_traced),
    "drive_sessions": (drive, drive_traced),
    "singular_atlas": (atlas, atlas_traced),
}

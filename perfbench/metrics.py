"""The benchmark's metric tables: one source for names, units and intent.

BENCHMARK.json lists the same names; ``test_perfbench`` checks the two agree.
Every workload reports every end-to-end metric, so those names are generic;
``ALIASES`` gives the workload-specific name each one stands for.  Per-layer
metrics carry the end-to-end metric they should move, on which workload,
and the workloads on which they must not stay at zero.
"""
from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("desk_sweep", "drive_sessions", "singular_atlas")
DESK, DRIVE, ATLAS = WORKLOADS


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str              # which end-to-end metric it should move, and where
    fires_on: tuple         # workloads on which it must be non-zero


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of several `import fhnburst` timings, each in a fresh interpreter"),
    EndToEnd("throughput_per_s", "1/s", "higher", 0.12,
             "operations completed per second at the workload's concurrency"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.15,
             "median latency of one operation at one worker"),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.2,
             "90th-percentile latency of one operation at one worker"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "peak resident memory of the benchmark process plus its largest child"),
    EndToEnd("pass_ratio", "ratio", "higher", 0.01,
             "1 - fail_ratio: operations that neither raised nor mismatched the reference"),
)

# What each generic end-to-end metric is called on each workload.
ALIASES = {
    DESK: {
        "throughput_per_s": "sweep_cells_per_s_1w",
        "latency_p50_ms": "cell_p50_ms",
        "latency_p90_ms": "cell_p90_ms",
    },
    DRIVE: {
        "throughput_per_s": "simulate_calls_per_s",
        "latency_p50_ms": "simulate_p50_ms",
        "latency_p90_ms": "simulate_p90_ms",
    },
    ATLAS: {
        "throughput_per_s": "atlas_points_per_s",
        "latency_p50_ms": "atlas_point_p50_ms",
        "latency_p90_ms": "atlas_point_p90_ms",
    },
}

_SIM = "throughput_per_s, latency_p50_ms, latency_p90_ms on desk_sweep and drive_sessions"
_ATL = "throughput_per_s on singular_atlas"
_PAR = ("sweep_cells_per_s_nw_raw and parallel_efficiency on desk_sweep "
        "(printed beside the bounded metrics)")
_BOTH = (DESK, DRIVE)

# Per-operation figures ("/op") divide by the workload's operations in the
# traced pass: sweep cells, simulate calls or atlas points.
PER_LAYER = (
    PerLayer("integrator.burn_in_ms", "ms/op", "lower", _SIM, _BOTH),
    PerLayer("integrator.measure_ms", "ms/op", "lower", _SIM, _BOTH),
    PerLayer("integrator.knots", "count/op", "lower", _SIM, _BOTH),
    PerLayer("integrator.dense_eval_calls", "count/op", "lower",
             "latency_p50_ms on desk_sweep and drive_sessions", _BOTH),
    PerLayer("integrator.dense_eval_points", "count/op", "lower",
             "latency_p50_ms on desk_sweep and drive_sessions", _BOTH),
    PerLayer("integrator.dense_eval_ms", "ms/op", "lower",
             "latency_p50_ms on desk_sweep and drive_sessions", _BOTH),
    PerLayer("burst.lower_returns_ms", "ms/op", "lower", _SIM, _BOTH),
    PerLayer("burst.lower_returns_calls", "count/op", "lower", _SIM, _BOTH),
    PerLayer("burst.l2_ms", "ms/op", "lower", _SIM, _BOTH),
    PerLayer("burst.estimate_self_ms", "ms/op", "lower", _SIM, _BOTH),
    PerLayer("burst.metrics_self_ms", "ms/op", "lower",
             "throughput_per_s, latency_p50_ms on desk_sweep", (DESK,)),
    PerLayer("manifolds.solve_ms", "ms/op", "lower",
             _ATL + " (under 1% of desk_sweep)", _BOTH + (ATLAS,)),
    PerLayer("manifolds.residual_evals", "count/op", "lower", _ATL, _BOTH + (ATLAS,)),
    PerLayer("manifolds.bound_phase_ms", "ms/op", "lower", _ATL, _BOTH + (ATLAS,)),
    PerLayer("geometry.classify_ms", "ms/op", "lower", _ATL, _BOTH + (ATLAS,)),
    PerLayer("geometry.equilibria_ms", "ms/op", "lower", _ATL, (ATLAS,)),
    PerLayer("sweep.cell_compute_s", "s", "lower", _PAR, (DESK,)),
    PerLayer("sweep.dispatch_overhead_s", "s", "lower", _PAR, ()),
    PerLayer("sweep.tail_idle_s", "s", "lower", _PAR, ()),
    PerLayer("sweep.checkpoint_bytes", "bytes", "lower",
             "throughput_per_s on desk_sweep (I/O guard)", (DESK,)),
    PerLayer("sweep.csv_write_ms", "ms", "lower",
             "throughput_per_s on desk_sweep (I/O guard)", (DESK,)),
    PerLayer("contours.marching_squares_ms", "ms", "lower", _ATL, (DESK, ATLAS)),
    PerLayer("contours.polylines", "count", "lower", _ATL, (DESK, ATLAS)),
    PerLayer("cli.simulate_self_ms", "ms/op", "lower",
             "latency_p50_ms, latency_p90_ms on drive_sessions", (DRIVE,)),
    PerLayer("cli.output_bytes", "bytes/op", "lower",
             "latency_p50_ms on drive_sessions", (DRIVE,)),
    # Self time per layer over the traced pass; with trace.unattributed_ms
    # they sum to trace.wall_ms.
    PerLayer("integrator.self_ms", "ms", "lower", _SIM, _BOTH),
    PerLayer("burst.self_ms", "ms", "lower", _SIM, _BOTH),
    PerLayer("manifolds.self_ms", "ms", "lower", _ATL, _BOTH + (ATLAS,)),
    PerLayer("geometry.self_ms", "ms", "lower", _ATL, _BOTH + (ATLAS,)),
    PerLayer("sweep.self_ms", "ms", "lower", _PAR, (DESK,)),
    PerLayer("contours.self_ms", "ms", "lower", _ATL, (DESK, ATLAS)),
    PerLayer("cli.self_ms", "ms", "lower",
             "latency_p50_ms on drive_sessions", (DRIVE,)),
    PerLayer("trace.unattributed_ms", "ms", "lower",
             "nothing: benchmark-side work outside every span", WORKLOADS),
    PerLayer("trace.wall_ms", "ms", "lower", "all end-to-end metrics of the workload",
             WORKLOADS),
    PerLayer("trace.overhead_pct", "%", "lower",
             "nothing: traced minus untraced wall time of the same pass", ()),
)

LAYERS = ("integrator", "burst", "manifolds", "geometry", "sweep", "contours", "cli")
COUNT_METRICS = tuple(m.name for m in PER_LAYER if m.unit.split("/")[0] in ("count", "bytes"))


def benchmark_json() -> dict:
    """The BENCHMARK.json document these tables define."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


RUN_SECONDS = 30

WHY = {
    DESK: "the users' main job: sweep the desk (omega, E) region with all four "
          "metrics and a checkpoint at 1 and nproc workers; integrator and burst "
          "do the work",
    DRIVE: "single drives through `fhnburst simulate` in-process, one at a time: "
           "same integrator and burst code as a sweep plus the CLI output path, "
           "no pool or checkpoint",
    ATLAS: "fine (omega, E) atlas of the singular geometry and its contours: no "
           "integrator runs, so geometry, manifolds and contours do the work",
}

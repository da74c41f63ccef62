"""Spans and counts around calls into fhnburst, recorded from the benchmark side.

Each public name is wrapped where the caller looks it up, not only where it
is defined: ``sweep`` binds ``burst_metrics`` at import, ``burst`` binds
``solve_expansion`` and ``theta_at_lower_bound``, and ``cli`` binds the burst
functions, so a wrapper on the defining module alone would record nothing
for those callers.  Spans are kept in memory as per-name totals.  A span's
self time is its duration minus the time of the spans it encloses; the
layer of a span is the prefix of its name.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Accumulates span durations, self times, call counts and counters."""

    def __init__(self):
        self._stack: list[int] = []     # child time of each open span, ns
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def _open(self) -> int:
        self._stack.append(0)
        return time.perf_counter_ns()

    def _close(self, name: str, start: int) -> None:
        dt = time.perf_counter_ns() - start
        child = self._stack.pop()
        self.total_ns[name] += dt
        self.self_ns[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dt

    def span(self, name, fn, after=None):
        """Wrap fn in a span; name may be a callable of the call's kwargs.

        after(result, args, kwargs) runs once the call returns, to add counts.
        """
        def wrapper(*args, **kwargs):
            span_name = name(kwargs) if callable(name) else name
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_name, start)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that each call adds one to counts[name]; no span."""
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        """Cumulative counters, for per-cell deltas."""
        return {
            "knots": self.counts["integrator.knots"],
            "dense_eval_points": self.counts["integrator.dense_eval_points"],
        }

    def total_ms(self, name: str) -> float:
        return self.total_ns[name] / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def layer_self_ms(self, layer: str) -> float:
        return sum(v for k, v in self.self_ns.items() if k.split(".")[0] == layer) / 1e6


def _integrate_name(kwargs) -> str:
    # simulate_standard integrates the burn-in without events, the
    # measurement window with them.
    return "integrator.measure" if kwargs.get("detect_events", True) else "integrator.burn_in"


class Installed:
    """Context manager that wraps the lookup sites and restores them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> Tracer:
        from fhnburst import burst, cli, contours, fastpath, geometry, manifolds, sweep
        from fhnburst.integrator import Trajectory

        tr = self.tracer

        def count_knots(traj, args, kwargs):
            if kwargs.get("detect_events", True):
                tr.counts["integrator.knots"] += int(traj.times.size)

        def count_points(result, args, kwargs):
            tr.counts["integrator.dense_eval_points"] += int(np.size(args[1]))

        def count_polylines(result, args, kwargs):
            tr.counts["contours.polylines"] += len(result)

        # (lookup sites, span name, post-call count hook)
        plan = [
            ([(fastpath, "integrate_forced")], _integrate_name, count_knots),
            ([(Trajectory, "sample"), (Trajectory, "sample_deriv")],
             "integrator.dense_eval", count_points),
            ([(burst, "simulate_standard"), (cli, "simulate_standard")],
             "burst.simulate_standard", None),
            ([(burst, "count_spikes"), (cli, "count_spikes")], "burst.count_spikes", None),
            ([(burst, "theta_sequence"), (cli, "theta_sequence")],
             "burst.theta_sequence", None),
            ([(burst, "lower_return_times")], "burst.lower_returns", None),
            ([(burst, "l2_norm"), (cli, "l2_norm")], "burst.l2", None),
            ([(burst, "estimate_spike_count"), (cli, "estimate_spike_count")],
             "burst.estimate", None),
            ([(burst, "burst_metrics"), (sweep, "burst_metrics")], "burst.metrics", None),
            ([(manifolds, "solve_expansion"), (burst, "solve_expansion"),
              (cli, "solve_expansion")], "manifolds.solve", None),
            ([(manifolds, "theta_at_lower_bound"), (burst, "theta_at_lower_bound")],
             "manifolds.bound_phase", None),
            ([(geometry, "classify_region"), (sweep, "classify_region"),
              (cli, "classify_region")], "geometry.classify", None),
            ([(geometry, "folded_equilibria")], "geometry.equilibria", None),
            ([(sweep, "run_sweep")], "sweep.run", None),
            ([(sweep, "write_grid_csv")], "sweep.csv_write", None),
            ([(contours, "marching_squares")], "contours.marching_squares", count_polylines),
            ([(contours, "extract_boundaries")], "contours.extract_boundaries", None),
            ([(contours, "l2_levelsets")], "contours.l2_levelsets", None),
            ([(cli, "main")], "cli.main", None),
        ]
        for sites, name, after in plan:
            for owner, attr in sites:
                self._set(owner, attr, tr.span(name, getattr(owner, attr), after))
        self._set(manifolds, "b_coefficients",
                  tr.counter("manifolds.residual_evals", manifolds.b_coefficients))
        return tr

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

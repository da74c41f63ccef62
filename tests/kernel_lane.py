"""Drives of the forced kernel that the backend tests share, and the lane
that runs every entry point of a C library build on them.

Run as a script, `python tests/kernel_lane.py LIBRARY` opens the C library
at LIBRARY through `fastpath.Library`, which checks its ABI version, runs
`lane` on it and prints the digest.  The sanitizer test runs it so in a
child interpreter with the sanitizer runtimes preloaded.  This module
imports numpy and fhnburst only, to keep that child's start-up short.
"""
import ctypes
import hashlib
import math
import sys

import numpy as np

from fhnburst import fastpath
from fhnburst.model import ModelParams, unforced_equilibrium

# (omega, E) of the standard protocol's burn-in and measurement runs that
# the backends must agree on
AGREEMENT_DRIVES = [(omega, E) for omega in np.linspace(0.006, 0.06, 6)
                    for E in np.linspace(0.15, 2.4, 4)]

# (x0, y0, t0, max_steps, status) of the measurement run from (x0, y0) over
# [t0, t0 + 300] at E = 0.5, omega = 0.02, and the status it ends with
EDGE_DRIVES = [
    (-1.2, -0.6, 0.0, 50, 2),            # step budget exhausted
    (1e10, 0.0, 0.0, 100_000, 1),        # step size underflow
    (1.0, 1e300, 0.0, 100_000, 3),       # non-finite inside the loop
    (1e150, 0.0, 0.0, 100_000, 3),       # non-finite at the start
    # from t = 8192 on one ulp of t exceeds the 1e-12 bisection
    # tolerance; event location must still stop (a bracket can stall
    # one ulp wide, with no double strictly inside it)
    (-1.2, -0.6, 8200.0, 100_000, 0),
]


def standard_args(params, omega, E, start, measure):
    """The arguments of `integrate_forced` (both backends) but for the last,
    detect_events, for the burn-in run of the standard protocol from start
    over [0, 2T], or with measure for its measurement run over [2T, 4T]."""
    T = 2.0 * math.pi / omega
    t0 = 2.0 * T if measure else 0.0
    return (params.a, params.b, params.eps, E, omega, t0, t0 + 2.0 * T, *start,
            1e-8, 1e-10, T / 64.0, 5_000_000)


def edge_args(params, x0, y0, t0, max_steps):
    """The arguments but for detect_events of an edge-case drive."""
    return (params.a, params.b, params.eps, 0.5, 0.02, t0, t0 + 300.0, x0, y0,
            1e-8, 1e-10, -1.0, max_steps)


def lane(library: fastpath.Library) -> str:
    """Run every entry point of library and return the digest of the results.

    Each agreement and edge-case drive runs as a measurement run and as a
    burn-in run, with its own step budget and with max_steps 5; each knot
    table of two or more rows is sampled, states and derivatives, at random
    sorted times and its two ends; and 100 random tables are formatted with
    each spec, and once more into a buffer one byte shorter than the text,
    which must return -1.
    """
    params = ModelParams()
    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()
    drives = [edge_args(params, *case[:4]) for case in EDGE_DRIVES]
    for omega, E in AGREEMENT_DRIVES:
        burn = standard_args(params, omega, E, unforced_equilibrium(params), False)
        end = tuple(library.integrate_forced(*burn, False)[1][-1, 1:3])
        drives += [burn, standard_args(params, omega, E, end, True)]
    for args in drives:
        for max_steps in (args[-1], 5):
            for detect_events in (True, False):
                status, knots, spikes, minima, stats, sq = library.integrate_forced(
                    *args[:-1], max_steps, detect_events)
                digest.update(repr((status, sorted(stats.items()), sq.hex())).encode())
                for arr in (knots, spikes, minima):
                    digest.update(arr.tobytes())
                if len(knots) >= 2:
                    lo, hi = knots[0, 0], knots[-1, 0]
                    ts = np.sort(np.r_[lo, rng.uniform(lo, hi, 64), hi])
                    for deriv in (False, True):
                        digest.update(library.sample_knots(knots, ts, deriv).tobytes())
    for _ in range(100):
        n, k = rng.integers(4, 40, size=2).tolist()
        table = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-12, 13, size=(n, k))
        table.flat[rng.integers(table.size, size=3)] = rng.choice([0.0, -0.0, np.nan, np.inf])
        for spec in ("%.17g", "%.2f"):
            text = library.format_table(table, spec, ",", "\n")
            digest.update(repr(text).encode())
            if text is not None:   # the exact path covers the table
                cap = len(text) - 1
                size = library.cdll.fhn_format_table(
                    table.ctypes.data_as(ctypes.POINTER(ctypes.c_double)), n, k,
                    spec.encode(), b",", b"\n", ctypes.create_string_buffer(cap), cap)
                assert size == -1, (spec, n, k, size)
    return digest.hexdigest()


if __name__ == "__main__":
    print(lane(fastpath.Library(sys.argv[1])))

"""Drives of the forced kernel that the backend tests share, and the lane
that runs every entry point of a C library build on them.

Run as a script, `python tests/kernel_lane.py LIBRARY` opens the C library
at LIBRARY through `fastpath.Library`, which checks its ABI version, runs
`lane` on it and prints the digest.  The sanitizer test runs it so in a
child interpreter with the sanitizer runtimes preloaded.  This module
imports numpy and fhnburst only, to keep that child's start-up short.
"""
import hashlib
import math
import sys

import numpy as np

from fhnburst import _kernel_py, fastpath, manifolds
from fhnburst.model import ModelParams, unforced_equilibrium

# (omega, E) of the standard protocol's burn-in and measurement runs that
# the backends must agree on
AGREEMENT_DRIVES = [(omega, E) for omega in np.linspace(0.006, 0.06, 6)
                    for E in np.linspace(0.15, 2.4, 4)]

# (x0, y0, t0, max_steps, status) of the measurement run from (x0, y0) over
# [t0, t0 + 300] at E = 0.5, omega = 0.02, and the status it ends with
EDGE_DRIVES = [
    (-1.2, -0.6, 0.0, 50, 2),            # step budget exhausted (50 steps of
                                         # at most T/64 = 4.9 cannot cover 300)
    (1e10, 0.0, 0.0, 100_000, 1),        # step size underflow
    (1.0, 1e300, 0.0, 100_000, 3),       # non-finite inside the loop
    (1e150, 0.0, 0.0, 100_000, 3),       # non-finite at the start
    # from t = 8192 on one ulp of t exceeds 1e-12; event location stops
    # where no double lies strictly inside a bracket, one ulp wide here
    (-1.2, -0.6, 8200.0, 100_000, 0),
]


# stable-branch coefficients (a1..a5) for the lower-bound phase at u = -1
BOUND_PHASE_CASES = [
    (2.0, 0.0, 0.0, 0.0, 0.0),          # linear: the root at -0.5
    (1.0e4, 3.0e3, 0.0, 0.0, 0.0),      # past the bound at the first offset
    (0.1, 0.0, 0.0, 0.0, 0.0),          # never reaches the bound
    (math.nan, 1.0, 1.0, 1.0, 1.0),     # NaN compares false: no intersection
    (1.0, math.inf, 0.0, 0.0, 0.0),     # u = -inf at the first offset
    (math.inf, -math.inf, 0.0, 0.0, 0.0),   # inf - inf: NaN everywhere
    (1e308, -1e308, 0.0, 0.0, 0.0),     # a1 + th a2 overflows far from the saddle
    (2.5603478486541107, -0.32797644751340277, 0.8353409929208083,
     0.48813668488897355, 0.7719180282689297),   # region III, E=0.9, omega=0.02
]


def standard_args(params, omega, E, start, measure):
    """The arguments of `integrate_forced` (both backends) but for the last,
    detect_events, for the burn-in run of the standard protocol from start
    over [0, 2T], or with measure for its measurement run over [2T, 4T]."""
    T = 2.0 * math.pi / omega
    t0 = 2.0 * T if measure else 0.0
    return (params.a, params.b, params.eps, E, omega, t0, t0 + 2.0 * T, *start,
            1e-8, 1e-10, 5_000_000)


def edge_args(params, x0, y0, t0, max_steps):
    """The arguments but for detect_events of an edge-case drive."""
    return (params.a, params.b, params.eps, 0.5, 0.02, t0, t0 + 300.0, x0, y0,
            1e-8, 1e-10, max_steps)


def worst_case_tables(rng):
    """(spec, table) pairs whose values all have their spec's longest text:
    %.17g of 10^-16 < -v < 10^-15 with 17 significant digits (23 bytes) and
    %.2f of 10^15 - 1000 < -v < 10^15 (19 bytes), as 4 x 5 tables and as
    one row whose last value, -1234567890123456.8 for %.17g, makes the
    formatter's farthest block copy (see FMT_SLACK in _kernel.c)."""
    tiny = -rng.uniform(1.0, 9.99, 200) * 1e-16
    tiny = tiny[[len("%.17g" % v) == fastpath.FORMAT_WIDTH for v in tiny.tolist()]][:20]
    huge = -(1e15 - rng.uniform(1.0, 1000.0, 20))
    return [("%.17g", tiny.reshape(4, 5)), ("%.17g", np.r_[tiny[:4], -1234567890123456.8][None]),
            ("%.2f", huge.reshape(4, 5)), ("%.2f", huge[None])]


def format_exact(library: fastpath.Library, table, spec, sep, end, cap=None):
    """The bytes `fhn_format_table` writes for a C-contiguous float table into
    a new buffer of exactly cap bytes (by default `fastpath.format_capacity`),
    or None when it returns -1."""
    n, k = table.shape
    spec_b, sep_b, end_b = spec.encode(), sep.encode(), end.encode()
    buf = np.empty(fastpath.format_capacity(n, k, sep_b, end_b) if cap is None else cap, np.uint8)
    size = library.cdll.fhn_format_table(table.ctypes.data, n, k, spec_b, sep_b, end_b,
                                         buf.ctypes.data, buf.size)
    assert size >= -1, size
    return buf[:size].tobytes() if size >= 0 else None


def lane(library: fastpath.Library) -> str:
    """Run every entry point of library and return the digest of the results.

    Each agreement and edge-case drive runs as a measurement run and as a
    burn-in run, with its own step budget and with max_steps 5; each knot
    table of two or more rows is sampled, states and derivatives, at random
    sorted times and its two ends; 100 random tables are formatted with
    each spec, and once more into a buffer one byte shorter than the text,
    which must return -1; and the `worst_case_tables` are formatted with
    one-byte, multi-byte and empty separators.  Every table is formatted
    by `format_exact` into a buffer of exactly its capacity, so a block
    copy past the end is reported.  The lower-bound phase runs on 200
    random coefficient sets and on `BOUND_PHASE_CASES`, on the module's
    scan grid (its last point read by the no-intersection cases), on a
    one-point grid and on an empty one.
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
            text = format_exact(library, table, spec, ",", "\n")
            digest.update(b"refused" if text is None else text)
            if text is not None:   # the exact path covers the table
                short = format_exact(library, table, spec, ",", "\n", len(text) - 1)
                assert short is None, (spec, n, k)
    for spec, table in worst_case_tables(rng):
        for sep, end in ((",", "\n"), (", ", ";\n"), ("", "")):
            text = format_exact(library, table, spec, sep, end)
            assert text == _kernel_py.format_table(table, spec, sep, end), (spec, sep, end)
            digest.update(text)
    grids = (manifolds._SCAN_OFFSETS, manifolds._SCAN_OFFSETS[:1].copy(),
             manifolds._SCAN_OFFSETS[:0])
    coeff_sets = BOUND_PHASE_CASES + [tuple(c) for c in rng.normal(size=(200, 5)) * 3.0]
    for coeffs in coeff_sets:
        for offsets in grids:
            phase = library.bound_phase(coeffs, manifolds.LOWER_BOUND_U, offsets)
            digest.update(b"none" if phase is None else phase.hex().encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(lane(fastpath.Library(sys.argv[1])))

"""Workload inputs and the reference outputs they are checked against.

desk_sweep sweeps the 20x20 desk diagram of the acceptance suite (omega
0.01-0.04, E 0.40-0.55), resuming from a checkpoint that holds all but a
seeded sample of its cells; drive_sessions draws its drives from the same
400 cells.  singular_atlas runs one of four half-step shifts of an
ATLAS_N x ATLAS_N lattice over a wider region, all sub-lattices of one
master lattice.  The seed picks the sample or the shift, so the reference
below covers every seed.

Regenerate the reference files (about two minutes on one core) with

    python3 perfbench/reference.py

from the repository root.  Do so only when a change is meant to alter
results; the checks would otherwise hide it.
"""
from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")

# The desk diagram of the acceptance suite.
DESK_OMEGA = (0.01, 0.04, 0.03 / 19)
DESK_E = (0.40, 0.55, 0.15 / 19)

# The atlas reaches below the saddle-existence threshold (region I, where
# solve_expansion raises NoSaddle) and, at its small-omega edge, into
# region IV, so it crosses all six regions.
ATLAS_OMEGA = (0.006, 0.06)
ATLAS_E = (0.15, 2.4)
ATLAS_N = 80
ATLAS_VARIANTS = ((0, 0), (0, 1), (1, 0), (1, 1))
REGION_CODE = {"boundary": 0, "I": 1, "II": 2, "III": 3, "IV": 4, "V": 5, "VI": 6}
REGION_LEVELS = tuple(k + 0.5 for k in range(1, 6))
PHASE_LEVELS = tuple(2.0 * math.pi * k / 8 for k in range(1, 8))


# ------------------------------------------- desk_sweep and drive_sessions

DESK_CSV = os.path.join(REF_DIR, "desk_20x20.csv")
DESK_KNOTS = os.path.join(REF_DIR, "desk_knots.txt")
DESK_SAMPLE = 100


def desk_spec(workers: int = 1):
    from fhnburst.sweep import SweepSpec

    return SweepSpec(omega_range=DESK_OMEGA, e_range=DESK_E, workers=workers)


def load_desk_reference() -> list[list[str]]:
    """The fields of every reference CSV row, in cell-index order."""
    with open(DESK_CSV, encoding="utf-8") as fh:
        fh.readline()
        return [line.rstrip("\n").split(",") for line in fh]


def load_desk_knots() -> list[int]:
    """Integrator knots of every desk cell, in cell-index order."""
    with open(DESK_KNOTS, encoding="utf-8") as fh:
        return [int(line) for line in fh]


def desk_sample(rng, rows, knots, n: int = DESK_SAMPLE) -> list[int]:
    """A seeded choice of n cell indices with a fixed mix of cell costs.

    A cell's cost follows its spike count and, within a count, its
    integrator knots.  Every sample takes the same share of each
    spike-count class (largest remainders round the shares) and spreads it
    evenly over the class sorted by knots, from a seeded offset; so seeds
    change which cells run but barely move the latency percentiles.
    """
    classes: dict = {}
    for idx, parts in enumerate(rows):
        classes.setdefault(parts[3], []).append(idx)
    keys = sorted(classes)
    exact = {k: n * len(classes[k]) / len(rows) for k in keys}
    take = {k: int(exact[k]) for k in keys}
    for k in sorted(keys, key=lambda k: take[k] - exact[k])[: n - sum(take.values())]:
        take[k] += 1
    picks = []
    for k in keys:
        members = sorted(classes[k], key=lambda i: knots[i])
        step, offset = len(members) / max(take[k], 1), rng.random()
        picks += [members[int((j + offset) * step)] for j in range(take[k])]
    return sorted(picks)


def check_row(parts, ref) -> bool:
    """A sweep CSV row against its reference row.

    omega, E, status, spike_count, est_count and region must be equal; l2
    must agree within 1e-8 relative, the acceptance tolerance.
    """
    if len(parts) != len(ref):
        return False
    for k in (0, 1, 2, 3, 5, 6):
        if parts[k] != ref[k]:
            return False
    return close(float(parts[4]) if parts[4] else None, float(ref[4]) if ref[4] else None)


def close(got, want, rel=1e-8) -> bool:
    """Both missing, or both present and within rel of each other."""
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= rel * abs(want)


# ------------------------------------------------------------ singular_atlas

def master_axis(lo, hi) -> list[float]:
    """The 2 * ATLAS_N nodes of one master-lattice axis."""
    h = (hi - lo) / (2 * ATLAS_N - 1)
    return [lo + h * k for k in range(2 * ATLAS_N)]


def atlas_axes(variant, n=ATLAS_N):
    """Axis values of an atlas shift: master nodes 2*i + offset, i < n."""
    return [master_axis(*rng)[off::2][:n] for rng, off in zip((ATLAS_OMEGA, ATLAS_E), variant)]


def atlas_point(params, omega, e_val):
    """Every singular-geometry answer at one point.

    Returns (region code, equilibria signature, stable-branch bound phase or
    NaN, unstable-branch leading coefficient or NaN).  NoSaddle is a domain
    answer and gives NaN; any other exception propagates.
    """
    from fhnburst import geometry, manifolds
    from fhnburst.errors import NoSaddle
    from fhnburst.model import Forcing

    f = Forcing(E=e_val, omega=omega)
    region = REGION_CODE[geometry.classify_region(params, f)]
    eqs = geometry.folded_equilibria(params, f)
    sig = "".join(eq.side[0] + eq.kind[0] for eq in eqs)
    try:
        phase = manifolds.theta_at_lower_bound(manifolds.solve_expansion("stable", params, f))
    except NoSaddle:
        phase = math.nan
    try:
        a1 = manifolds.solve_expansion("unstable", params, f).coeffs[0]
    except NoSaddle:
        a1 = math.nan
    return region, sig, phase, a1


def atlas_contours(omegas, e_values, regions, phases) -> tuple[int, int]:
    """Polyline counts of the region-label and bound-phase isolines."""
    from fhnburst import contours

    reg = np.where(regions > 0, regions, np.nan).astype(float)
    n_reg = sum(len(contours.marching_squares(omegas, e_values, reg, lv)) for lv in REGION_LEVELS)
    n_ph = sum(len(contours.marching_squares(omegas, e_values, phases, lv)) for lv in PHASE_LEVELS)
    return n_reg, n_ph


def load_atlas_reference() -> dict:
    with np.load(os.path.join(REF_DIR, "atlas.npz")) as z:
        return {k: z[k] for k in z.files}


def check_atlas_point(got, ref, idx) -> bool:
    """Region and equilibria exactly; bound phase and slope within 1e-8.

    got is atlas_point's tuple or the exception it raised.  A point whose
    reference records an exception passes only by raising the same type:
    it is a known defect of the seed code, listed by known_defects().
    """
    if isinstance(got, Exception):
        return type(got).__name__ == ref["error"][idx]
    if ref["error"][idx]:
        return False
    region, sig, phase, a1 = got
    if region != ref["region"][idx] or sig != ref["signature"][idx]:
        return False
    for value, want in ((phase, ref["phase"][idx]), (a1, ref["a1"][idx])):
        if math.isnan(want) != math.isnan(value):
            return False
        if not math.isnan(want) and not close(value, float(want)):
            return False
    return True


def known_defects(ref, variant) -> int:
    """Points of an atlas shift whose reference answer is an exception."""
    return int(np.count_nonzero(ref["error"][variant[0]::2, variant[1]::2]))


# ----------------------------------------------------------------- generate

def _generate() -> None:
    from fhnburst import FhnBurstError, ModelParams
    from fhnburst.sweep import run_sweep, write_grid_csv

    os.makedirs(REF_DIR, exist_ok=True)
    params = ModelParams()
    from tracing import Installed, Tracer

    tracer = Tracer()
    knots = []

    def count(idx, cell):
        knots.append(tracer.counts["integrator.knots"] - sum(knots))

    with Installed(tracer):
        grid = run_sweep(desk_spec(), params, progress=count)
    write_grid_csv(grid, DESK_CSV)
    with open(DESK_KNOTS, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k}\n" for k in knots)
    print("wrote", DESK_CSV, DESK_KNOTS, file=sys.stderr)

    m = 2 * ATLAS_N
    region = np.zeros((m, m), dtype=np.int8)
    signature = np.empty((m, m), dtype="<U8")
    phase = np.empty((m, m))
    a1 = np.empty((m, m))
    error = np.empty((m, m), dtype="<U24")
    omegas, e_vals = master_axis(*ATLAS_OMEGA), master_axis(*ATLAS_E)
    for i, om in enumerate(omegas):
        for j, ev in enumerate(e_vals):
            try:
                region[i, j], signature[i, j], phase[i, j], a1[i, j] = atlas_point(params, om, ev)
            except FhnBurstError as exc:
                phase[i, j] = a1[i, j] = math.nan
                error[i, j] = type(exc).__name__
                print(f"known defect at omega={om!r} E={ev!r}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
    polylines = np.zeros((len(ATLAS_VARIANTS), 2), dtype=np.int64)
    for k, v in enumerate(ATLAS_VARIANTS):
        sl = (slice(v[0], None, 2), slice(v[1], None, 2))
        ax_o, ax_e = atlas_axes(v)
        polylines[k] = atlas_contours(ax_o, ax_e, region[sl], phase[sl])
    np.savez_compressed(
        os.path.join(REF_DIR, "atlas.npz"),
        omega=np.asarray(omegas), E=np.asarray(e_vals),
        region=region, signature=signature, phase=phase, a1=a1, error=error,
        polylines=polylines,
    )
    print("wrote atlas.npz", json.dumps({"polylines": polylines.tolist()}), file=sys.stderr)


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    _generate()

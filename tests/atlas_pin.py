"""Pinned outputs: the singular geometry of an atlas sub-lattice, the desk
sweep's CSV, the files of `fhnburst simulate` and `fhnburst contours`, and
the isolines of seeded synthetic grids, as stored digests.

**Atlas.** The master lattice spans omega 0.006-0.06 and E 0.15-2.4 with
160 nodes on each axis, lo + k (hi - lo) / 159, as perfbench's
singular_atlas workload does; the pin takes every 4th node of each axis.
At each point it records the repr of the region label, the folded
equilibria's sides, kinds and angles, both branch solves (coefficients,
residual, c_const and theta_base) and the stable branch's lower-bound
phase; a call that raises records its error's type and message instead.

**Desk.** The 20 x 20 desk sweep at 1 worker (acceptance criterion 9's
grid): its CSV header, and each CSV row as a point of its omega row.

**Simulate.** The sha256 of stdout and of the `--out`, `--metrics-out` and
`--svg` files of `fhnburst simulate` at three drives, one of them
spike-free.

**Contours.** The sha256 of the `--out` and `--svg` files of `fhnburst
contours` on the desk CSV, and of `polylines_to_json(marching_squares(...))`
on CONTOUR_GRIDS seeded grids: integer values 0-3 with about 15% NaN holes,
at the levels 0.5, 1.0, 1.5 and each grid's median, so that levels tie with
node values, saddle cells occur and holes cut the lines.

**Solves.** At each drive of SOLVE_DRIVES, both branch solves and the
stable branch's lower-bound phase (`solves_pin.json`), and
`equilibria_report` (`equilibria_pin.json`), stored as their values, one
line per drive.

`atlas_pin.json` stores the first four pins for each platform
(`platform.libc_ver()` and `platform.machine()`: libm's last bits may
differ between them).  The atlas and the desk are stored one entry per
omega row: its omega, the sha256 of its points' texts, and an 8-digit
digest of each point's text, which names the point that differs.  The
solve and equilibria pins hold one set of values for every platform.

Regenerate the entries of this platform and both value pins with

    PYTHONPATH=src python3 tests/atlas_pin.py

only when a change is meant to alter these outputs, and name the change.
"""
import contextlib
import hashlib
import io
import itertools
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from fhnburst import cli, geometry, manifolds
from fhnburst.contours import marching_squares, polylines_to_json
from fhnburst.errors import FhnBurstError
from fhnburst.model import Forcing, ModelParams
from fhnburst.sweep import SweepSpec, run_sweep

PIN_PATH = Path(__file__).with_name("atlas_pin.json")
SOLVES_PATH = Path(__file__).with_name("solves_pin.json")
EQUILIBRIA_PATH = Path(__file__).with_name("equilibria_pin.json")
ATLAS_OMEGA = (0.006, 0.06)
ATLAS_E = (0.15, 2.4)
MASTER_N = 160
STRIDE = 4
DESK_OMEGA = (0.01, 0.04, 0.03 / 19)
DESK_E = (0.40, 0.55, 0.15 / 19)
SIMULATE_DRIVES = (("0.55", "0.0149354"), ("0", "0.0149354"), ("0.47", "0.025"))
SIMULATE_FILES = ("--out", "--metrics-out", "--svg")
CONTOUR_FILES = ("--out", "--svg")
CONTOUR_GRIDS = 50
CONTOUR_SEED = 20240
# the pinned-solve drives, by region or case: two atlas master-lattice
# points, one whose stable branch needed a Newton step before the
# substitution's divisor took its closed form ("polished") and one whose
# unstable branch raises NewtonDiverged ("defect"); a stable branch that
# misses the lower bound; a drive with no saddle
SOLVE_DRIVES = {
    "II": Forcing(E=0.482, omega=0.02),           # delta = 0.25
    "III": Forcing(E=0.9, omega=0.02),
    "IV": Forcing(E=2.0, omega=0.004),
    "V": Forcing(E=1.5, omega=0.01),
    "VI": Forcing(E=2.0, omega=0.03),
    "polished": Forcing(E=0.30566037735849055, omega=0.006),
    "defect": Forcing(E=0.27735849056603773, omega=0.02094339622641509),
    "no-intersection": Forcing(E=0.2, omega=0.076),
    "no-saddle": Forcing(E=0.2, omega=0.02),
}


def axis(lo: float, hi: float) -> list[float]:
    """Every STRIDE-th node of one master-lattice axis."""
    h = (hi - lo) / (MASTER_N - 1)
    return [lo + h * k for k in range(0, MASTER_N, STRIDE)]


def platform_key() -> str:
    libc, version = platform.libc_ver()
    return f"{libc or 'unknown-libc'} {version or '?'} {platform.machine() or '?'}"


def _outcome(fn, *args):
    """fn(*args), or the (type name, message) of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _equilibria(params, forcing):
    return [(eq.side, eq.kind, eq.theta) for eq in geometry.folded_equilibria(params, forcing)]


def point_repr(params: ModelParams, omega: float, E: float) -> str:
    forcing = Forcing(E=E, omega=omega)
    parts = [
        omega, E,
        _outcome(geometry.classify_region, params, forcing),
        _outcome(_equilibria, params, forcing),
    ]
    for branch in ("stable", "unstable"):
        exp = _outcome(manifolds.solve_expansion, branch, params, forcing)
        parts.append(exp)
        if branch == "stable" and isinstance(exp, manifolds.ManifoldExpansion):
            parts.append(_outcome(manifolds.theta_at_lower_bound, exp))
    return repr(parts)


def solve_outcome(branch: str, params: ModelParams, forcing: Forcing) -> list:
    """[coeffs, residual, theta_base] of one branch solve, with the bound
    phase appended on the stable branch, or an error's [type name, message],
    in the lists that JSON reads back."""
    try:
        exp = manifolds.solve_expansion(branch, params, forcing)
    except FhnBurstError as exc:
        return [type(exc).__name__, str(exc)]
    outcome = [list(exp.coeffs), exp.residual, exp.theta_base]
    if branch == "stable":
        try:
            outcome.append(manifolds.theta_at_lower_bound(exp))
        except FhnBurstError as exc:
            outcome.append([type(exc).__name__, str(exc)])
    return outcome


def solves_entry(params: ModelParams, forcing: Forcing) -> dict:
    """The drive and its stable and unstable solve_outcome."""
    return {"E": forcing.E, "omega": forcing.omega,
            "stable": solve_outcome("stable", params, forcing),
            "unstable": solve_outcome("unstable", params, forcing)}


def write_by_drive(path: Path, entries: dict) -> None:
    """entries as one JSON object, one line per SOLVE_DRIVES key."""
    lines = ",\n".join(f"{json.dumps(case)}: {json.dumps(entry)}"
                        for case, entry in entries.items())
    path.write_text("{\n" + lines + "\n}\n", encoding="utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def point_digest(text: str) -> str:
    return _sha256(text.encode())[:8]


def row_entry(omega: float, texts: list[str]) -> dict:
    return {
        "omega": omega,
        "sha256": _sha256("\n".join(texts).encode()),
        "points": " ".join(point_digest(t) for t in texts),
    }


def rows(params: ModelParams):
    """(omega, [(E, point repr) for each E]) for each row of the lattice."""
    e_values = axis(*ATLAS_E)
    for omega in axis(*ATLAS_OMEGA):
        yield omega, [(E, point_repr(params, omega, E)) for E in e_values]


def desk_rows(csv_text: str) -> tuple[str, list]:
    """The header of a sweep CSV, and (omega, [(E, CSV row) for each E]) for
    each omega of its grid."""
    header, *lines = csv_text.splitlines()
    fields = [(line.split(",", 2), line) for line in lines]
    return header, [
        (float(omega), [(float(parts[1]), line) for parts, line in group])
        for omega, group in itertools.groupby(fields, key=lambda f: f[0][0])
    ]


def desk_csv(params: ModelParams) -> str:
    """Criterion 9's desk grid at 1 worker, as CSV."""
    spec = SweepSpec(omega_range=DESK_OMEGA, e_range=DESK_E, workers=1)
    return run_sweep(spec, params).to_csv()


def first_difference(got_rows, want_rows) -> str | None:
    """None when each (omega, [(E, text)]) row of got_rows matches its stored
    row entry; else where they first differ, naming the point when it can."""
    got_omegas = [omega for omega, _ in got_rows]
    want_omegas = [row["omega"] for row in want_rows]
    if got_omegas != want_omegas:
        return f"the rows' omegas {got_omegas} are not the pinned {want_omegas}"
    for (omega, points), want in zip(got_rows, want_rows):
        got = row_entry(omega, [text for _, text in points])
        if got == want:
            continue
        for (E, text), old, new in zip(points, want["points"].split(), got["points"].split()):
            if old != new:
                return f"row omega={omega!r} differs first at E={E!r}: now {text}"
        return (f"row omega={omega!r} differs from its pin "
                f"(every point digest matches, so the row hash alone changed)")
    return None


def cli_digests(directory: Path, argv: list[str], files) -> dict:
    """The sha256 of stdout and of each file of `fhnburst argv`, run in this
    process with each flag of files writing its file in directory."""
    paths = [directory / flag.lstrip("-") for flag in files]
    argv = argv + [arg for flag, path in zip(files, paths) for arg in (flag, str(path))]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if cli.main(argv) != 0:
            raise RuntimeError(f"fhnburst {' '.join(argv)} failed")
    digests = {"stdout": _sha256(stdout.getvalue().encode())}
    digests.update((flag, _sha256(path.read_bytes())) for flag, path in zip(files, paths))
    return digests


def simulate_digests(directory: Path, E: str, omega: str) -> dict:
    """cli_digests of `fhnburst simulate` at the drive (E, omega)."""
    return cli_digests(directory, ["simulate", "--E", E, "--omega", omega], SIMULATE_FILES)


def contours_digests(directory: Path, csv_text: str) -> dict:
    """cli_digests of `fhnburst contours` on the grid CSV csv_text."""
    grid = directory / "grid.csv"
    grid.write_text(csv_text)
    return cli_digests(directory, ["contours", "--grid", str(grid)], CONTOUR_FILES)


def synthetic_grids():
    """(xs, ys, values, levels) of CONTOUR_GRIDS seeded grids, 3-13 nodes on
    each axis at uneven spacing."""
    rng = np.random.default_rng(CONTOUR_SEED)
    for _ in range(CONTOUR_GRIDS):
        nx, ny = rng.integers(3, 14, size=2)
        xs = np.cumsum(rng.uniform(0.5, 1.5, nx))
        ys = np.cumsum(rng.uniform(0.5, 1.5, ny))
        values = rng.integers(0, 4, size=(nx, ny)).astype(float)
        values[rng.random((nx, ny)) < 0.15] = np.nan
        median = float(np.median(values[np.isfinite(values)]))
        yield xs, ys, values, (0.5, 1.0, 1.5, median)


def synthetic_contours():
    """[(level, isolines as JSON text) for each level] of each synthetic grid."""
    return [[(level, json.dumps(polylines_to_json(marching_squares(xs, ys, values, level))))
             for level in levels]
            for xs, ys, values, levels in synthetic_grids()]


def synthetic_entries() -> list[str]:
    """One line per synthetic grid: the point_digest of each level's isolines."""
    return [" ".join(point_digest(text) for _, text in grid) for grid in synthetic_contours()]


def first_synthetic_difference(want: list[str]) -> str | None:
    """None when every synthetic grid's isolines match their stored digests;
    else the first grid and level that differ."""
    got = synthetic_contours()
    if len(got) != len(want):
        return f"{len(got)} synthetic grids, {len(want)} pinned"
    for k, (grid, entry) in enumerate(zip(got, want)):
        for (level, text), old in zip(grid, entry.split()):
            if point_digest(text) != old:
                return f"synthetic grid {k} differs first at level {level!r}: now {text}"
    return None


def load() -> dict:
    """The stored pins, by platform key."""
    with open(PIN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["platforms"]


def main() -> None:
    params = ModelParams()
    stored = load() if PIN_PATH.exists() else {}
    csv_text = desk_csv(params)
    header, desk = desk_rows(csv_text)
    with tempfile.TemporaryDirectory() as tmp:
        simulate = [{"E": E, "omega": omega, **simulate_digests(Path(tmp), E, omega)}
                    for E, omega in SIMULATE_DRIVES]
        contours = {"desk": contours_digests(Path(tmp), csv_text),
                    "synthetic": synthetic_entries()}
    stored[platform_key()] = {
        "atlas": [row_entry(omega, [r for _, r in points]) for omega, points in rows(params)],
        "desk": {"header": header,
                 "rows": [row_entry(omega, [r for _, r in points]) for omega, points in desk]},
        "simulate": simulate,
        "contours": contours,
    }
    doc = {"atlas": f"every {STRIDE}th node of the {MASTER_N} x {MASTER_N} atlas master "
                    f"lattice, omega {ATLAS_OMEGA}, E {ATLAS_E}",
           "desk": f"sweep CSV at 1 worker, omega {DESK_OMEGA}, E {DESK_E}",
           "simulate": f"fhnburst simulate {' '.join(SIMULATE_FILES)} at (E, omega) "
                       f"{SIMULATE_DRIVES}",
           "contours": f"fhnburst contours {' '.join(CONTOUR_FILES)} on the desk CSV; "
                       f"isolines of {CONTOUR_GRIDS} synthetic grids (seed {CONTOUR_SEED}) "
                       f"at the levels 0.5, 1.0, 1.5 and the grid's median",
           "platforms": stored}
    with open(PIN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    write_by_drive(SOLVES_PATH, {case: solves_entry(params, forcing)
                                 for case, forcing in SOLVE_DRIVES.items()})
    write_by_drive(EQUILIBRIA_PATH, {case: geometry.equilibria_report(params, forcing)
                                     for case, forcing in SOLVE_DRIVES.items()})
    print(f"wrote {PIN_PATH.name} for {platform_key()}, {SOLVES_PATH.name} "
          f"and {EQUILIBRIA_PATH.name}")


if __name__ == "__main__":
    main()

"""Pinned outputs: the singular geometry of an atlas sub-lattice, the desk
sweep's CSV and the files of `fhnburst simulate`, as stored digests.

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

`atlas_pin.json` stores the three pins for each platform
(`platform.libc_ver()` and `platform.machine()`: libm's last bits may
differ between them).  The atlas and the desk are stored one entry per
omega row: its omega, the sha256 of its points' texts, and an 8-digit
digest of each point's text, which names the point that differs.

Regenerate the entries of this platform with

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

from fhnburst import cli, geometry, manifolds
from fhnburst.model import Forcing, ModelParams
from fhnburst.sweep import SweepSpec, run_sweep

PIN_PATH = Path(__file__).with_name("atlas_pin.json")
ATLAS_OMEGA = (0.006, 0.06)
ATLAS_E = (0.15, 2.4)
MASTER_N = 160
STRIDE = 4
DESK_OMEGA = (0.01, 0.04, 0.03 / 19)
DESK_E = (0.40, 0.55, 0.15 / 19)
SIMULATE_DRIVES = (("0.55", "0.0149354"), ("0", "0.0149354"), ("0.47", "0.025"))
SIMULATE_FILES = ("--out", "--metrics-out", "--svg")


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


def simulate_digests(directory: Path, E: str, omega: str) -> dict:
    """The sha256 of stdout and of each of SIMULATE_FILES of `fhnburst
    simulate` at the drive (E, omega), run in this process with its files in
    directory."""
    paths = [directory / flag.lstrip("-") for flag in SIMULATE_FILES]
    argv = ["simulate", "--E", E, "--omega", omega]
    for flag, path in zip(SIMULATE_FILES, paths):
        argv += [flag, str(path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if cli.main(argv) != 0:
            raise RuntimeError(f"fhnburst {' '.join(argv)} failed")
    digests = {"stdout": _sha256(stdout.getvalue().encode())}
    digests.update((flag, _sha256(path.read_bytes())) for flag, path in zip(SIMULATE_FILES, paths))
    return digests


def load() -> dict:
    """The stored pins, by platform key."""
    with open(PIN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["platforms"]


def main() -> None:
    params = ModelParams()
    stored = load() if PIN_PATH.exists() else {}
    header, desk = desk_rows(desk_csv(params))
    with tempfile.TemporaryDirectory() as tmp:
        simulate = [{"E": E, "omega": omega, **simulate_digests(Path(tmp), E, omega)}
                    for E, omega in SIMULATE_DRIVES]
    stored[platform_key()] = {
        "atlas": [row_entry(omega, [r for _, r in points]) for omega, points in rows(params)],
        "desk": {"header": header,
                 "rows": [row_entry(omega, [r for _, r in points]) for omega, points in desk]},
        "simulate": simulate,
    }
    doc = {"atlas": f"every {STRIDE}th node of the {MASTER_N} x {MASTER_N} atlas master "
                    f"lattice, omega {ATLAS_OMEGA}, E {ATLAS_E}",
           "desk": f"sweep CSV at 1 worker, omega {DESK_OMEGA}, E {DESK_E}",
           "simulate": f"fhnburst simulate {' '.join(SIMULATE_FILES)} at (E, omega) "
                       f"{SIMULATE_DRIVES}",
           "platforms": stored}
    with open(PIN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {PIN_PATH.name} for {platform_key()}")


if __name__ == "__main__":
    main()

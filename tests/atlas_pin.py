"""The singular-geometry pin: every closed-form and series answer on a
40 x 40 sub-lattice of the atlas master lattice, hashed row by row.

The master lattice spans omega 0.006-0.06 and E 0.15-2.4 with 160 nodes on
each axis, lo + k (hi - lo) / 159, as perfbench's singular_atlas workload
does; the pin takes every 4th node of each axis.  At each point it records
the repr of the region label, the folded equilibria's sides, kinds and
angles, both branch solves (coefficients, residual, c_const and theta_base)
and the stable branch's lower-bound phase; a call that raises records its
error's type and message instead.

`atlas_pin.json` stores, for each platform (`platform.libc_ver()` and
`platform.machine()`: libm's last bits may differ between them), one entry
per row of the lattice: its omega, the sha256 of its points' reprs, and an
8-digit digest of each point's repr, which names the point that differs.

Regenerate the entry of this platform with

    PYTHONPATH=src python3 tests/atlas_pin.py

only when a change is meant to alter these outputs, and name the change.
"""
import hashlib
import json
import platform
from pathlib import Path

from fhnburst import geometry, manifolds
from fhnburst.model import Forcing, ModelParams

PIN_PATH = Path(__file__).with_name("atlas_pin.json")
ATLAS_OMEGA = (0.006, 0.06)
ATLAS_E = (0.15, 2.4)
MASTER_N = 160
STRIDE = 4


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


def point_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def row_entry(omega: float, reprs: list[str]) -> dict:
    return {
        "omega": omega,
        "sha256": hashlib.sha256("\n".join(reprs).encode()).hexdigest(),
        "points": " ".join(point_digest(r) for r in reprs),
    }


def rows(params: ModelParams):
    """(omega, [(E, point repr) for each E]) for each row of the lattice."""
    e_values = axis(*ATLAS_E)
    for omega in axis(*ATLAS_OMEGA):
        yield omega, [(E, point_repr(params, omega, E)) for E in e_values]


def load() -> dict:
    """The stored entries, by platform key."""
    with open(PIN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["platforms"]


def main() -> None:
    stored = load() if PIN_PATH.exists() else {}
    stored[platform_key()] = [row_entry(omega, [r for _, r in points])
                              for omega, points in rows(ModelParams())]
    doc = {"lattice": f"every {STRIDE}th node of the {MASTER_N} x {MASTER_N} atlas master "
                      f"lattice, omega {ATLAS_OMEGA}, E {ATLAS_E}",
           "platforms": stored}
    with open(PIN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {PIN_PATH.name} for {platform_key()}")


if __name__ == "__main__":
    main()

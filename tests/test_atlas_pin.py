"""Pinned outputs against their stored digests: the singular geometry of
1,600 atlas points, the desk sweep's CSV, the files of `fhnburst simulate`
at three drives, and the isolines of `fhnburst contours` on the desk CSV
and of seeded synthetic grids.

An output change must update `atlas_pin.json` in the same change (see
`atlas_pin.py`), so a speed-up that claims to keep every bit is checked
here, not by a hash run by hand.  The digests are kept per platform; the
desk CSV is also checked against perfbench's stored reference text, with a
tolerance on l2, on every platform.
"""
from pathlib import Path

import pytest

import atlas_pin

DESK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "desk_20x20.csv"
# relative tolerance on l2 against DESK_REFERENCE, whose l2 fields are stale
# in their last bits (up to 1.64e-14 relative, on 270 rows)
DESK_L2_REL_TOL = 1e-12


def desk_reference_difference(got: str, want: str) -> str | None:
    """The first difference of the desk CSV text got from the reference text
    want, naming its (omega, E) and field, or None: every field but l2 must
    be equal as text, and l2 within DESK_L2_REL_TOL relative."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if got_lines[0] != want_lines[0]:
        return f"header {got_lines[0]!r} != {want_lines[0]!r}"
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines) - 1} rows != {len(want_lines) - 1}"
    names = want_lines[0].split(",")
    for got_line, want_line in zip(got_lines[1:], want_lines[1:]):
        got_row, want_row = got_line.split(","), want_line.split(",")
        cell = f"(omega, E) = ({want_row[0]}, {want_row[1]})"
        if len(got_row) != len(want_row):
            return f"{cell}: {got_line!r} != {want_line!r}"
        for name, g, w in zip(names, got_row, want_row):
            same = g == w
            if name == "l2" and g and w:
                same = abs(float(g) - float(w)) <= DESK_L2_REL_TOL * abs(float(w))
            if not same:
                return f"{cell}: {name} {g!r} != {w!r}"
    return None


def _pinned(section: str):
    stored = atlas_pin.load()
    key = atlas_pin.platform_key()
    if key not in stored:
        pytest.skip(f"no pins for platform {key!r}; pinned: {sorted(stored)}")
    return stored[key][section]


def test_atlas_lattice_matches_the_pin(params):
    want = _pinned("atlas")
    difference = atlas_pin.first_difference(list(atlas_pin.rows(params)), want)
    assert difference is None, f"atlas {difference}"


def test_desk_csv_matches_the_pin(desk_grids):
    want = _pinned("desk")
    header, rows = atlas_pin.desk_rows(desk_grids[0].to_csv())
    assert header == want["header"]
    difference = atlas_pin.first_difference(rows, want["rows"])
    assert difference is None, f"desk CSV {difference}"


def test_desk_csv_matches_the_stored_reference(desk_grids):
    # no skip: this check holds on every platform, where the digests cannot
    want = DESK_REFERENCE.read_text(encoding="utf-8")
    difference = desk_reference_difference(desk_grids[0].to_csv(), want)
    assert difference is None, f"desk CSV against {DESK_REFERENCE.name}: {difference}"


def test_desk_reference_check_names_the_first_edit():
    want = DESK_REFERENCE.read_text(encoding="utf-8")
    lines = want.splitlines(keepends=True)
    row = lines[7].split(",")
    omega, E, _, count, l2 = row[:5]

    def edited(field: int, value: str) -> str:
        fields = list(row)
        fields[field] = value
        return "".join(lines[:7] + [",".join(fields)] + lines[8:])

    assert desk_reference_difference(want, want) is None
    assert desk_reference_difference(edited(3, str(int(count) + 1)), want) == (
        f"(omega, E) = ({omega}, {E}): spike_count '{int(count) + 1}' != '{count}'")
    near, far = (repr(float(l2) * (1.0 + rel)) for rel in (1e-13, 1e-11))
    assert desk_reference_difference(edited(4, near), want) is None
    assert desk_reference_difference(edited(4, far), want) == (
        f"(omega, E) = ({omega}, {E}): l2 '{far}' != '{l2}'")


@pytest.mark.parametrize("E, omega", atlas_pin.SIMULATE_DRIVES)
def test_simulate_files_match_the_pin(tmp_path, E, omega):
    want = next(d for d in _pinned("simulate") if (d["E"], d["omega"]) == (E, omega))
    got = atlas_pin.simulate_digests(tmp_path, E, omega)
    differ = [name for name, digest in got.items() if digest != want[name]]
    assert not differ, f"simulate --E {E} --omega {omega}: {', '.join(differ)} differ from the pin"


def test_contours_match_the_pin(tmp_path, desk_grids):
    want = _pinned("contours")
    got = atlas_pin.contours_digests(tmp_path, desk_grids[0].to_csv())
    differ = [flag for flag, digest in got.items() if digest != want["desk"][flag]]
    assert not differ, f"contours on the desk CSV: {', '.join(differ)} differ from the pin"
    difference = atlas_pin.first_synthetic_difference(want["synthetic"])
    assert difference is None, difference

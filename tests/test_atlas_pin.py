"""Pinned outputs against their stored digests: the singular geometry of
1,600 atlas points, the desk sweep's CSV, and the files of `fhnburst
simulate` at three drives.

An output change must update `atlas_pin.json` in the same change (see
`atlas_pin.py`), so a speed-up that claims to keep every bit is checked
here, not by a hash run by hand.
"""
import pytest

import atlas_pin


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


@pytest.mark.parametrize("E, omega", atlas_pin.SIMULATE_DRIVES)
def test_simulate_files_match_the_pin(tmp_path, E, omega):
    want = next(d for d in _pinned("simulate") if (d["E"], d["omega"]) == (E, omega))
    got = atlas_pin.simulate_digests(tmp_path, E, omega)
    differ = [name for name, digest in got.items() if digest != want[name]]
    assert not differ, f"simulate --E {E} --omega {omega}: {', '.join(differ)} differ from the pin"

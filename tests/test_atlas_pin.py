"""The singular geometry of 1,600 atlas points against its stored pin.

An output change must update `atlas_pin.json` in the same change (see
`atlas_pin.py`), so a speed-up that claims to keep every bit is checked
here, not by a hash run by hand.
"""
import pytest

import atlas_pin


def test_atlas_lattice_matches_the_pin(params):
    stored = atlas_pin.load()
    key = atlas_pin.platform_key()
    if key not in stored:
        pytest.skip(f"no atlas pin for platform {key!r}; pinned: {sorted(stored)}")
    want_rows = stored[key]
    got_rows = list(atlas_pin.rows(params))
    assert [omega for omega, _ in got_rows] == [row["omega"] for row in want_rows]
    for (omega, points), want in zip(got_rows, want_rows):
        got = atlas_pin.row_entry(omega, [r for _, r in points])
        if got == want:
            continue
        for (E, text), old, new in zip(points, want["points"].split(), got["points"].split()):
            if old != new:
                pytest.fail(f"atlas row omega={omega!r} differs first at E={E!r}: now {text}")
        pytest.fail(f"atlas row omega={omega!r} differs from its pin "
                    f"(every point digest matches, so the row hash alone changed)")

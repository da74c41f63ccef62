"""The C dense output (`fhn_sample` in _kernel.c) against its twin
`_kernel_py.sample_knots`: the same states and time derivatives, bit for
bit, through `Trajectory.sample` and `sample_deriv` on random planar knot
tables."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fhnburst import _kernel_py, fastpath
from fhnburst.burst import simulate_standard, theta_sequence
from fhnburst.integrator import KNOT_WIDTH, Trajectory
from fhnburst.model import Forcing

VALUES = st.floats(-1e3, 1e3)


@st.composite
def knot_tables(draw):
    """An n x KNOT_WIDTH knot table with strictly increasing times, and
    sorted sample times: knot times, both endpoints and the endpoints
    +-1e-12, points inside, with duplicates, or none."""
    n = draw(st.integers(2, 9), label="n")
    t0 = draw(st.floats(-1e4, 1e4), label="t0")
    steps = draw(st.lists(st.floats(1e-6, 1e3), min_size=n - 1, max_size=n - 1))
    times = t0 + np.cumsum([0.0, *steps])
    assume((np.diff(times) > 0.0).all())
    width = KNOT_WIDTH - 1
    rest = draw(st.lists(VALUES, min_size=width * n, max_size=width * n))
    table = np.column_stack([times, np.reshape(rest, (n, width))])
    lo, hi = times[0], times[-1]
    pool = [*times, lo - 1e-12, lo + 1e-12, hi - 1e-12, hi + 1e-12]
    inside = st.floats(lo, hi)
    ts = draw(st.lists(st.one_of(st.sampled_from(pool), inside), max_size=24), label="ts")
    return table, np.sort(np.array(ts, dtype=float))


def _sample_with(monkeypatch, backend, traj, ts):
    monkeypatch.setattr(fastpath, "_IMPL", backend)
    return traj.sample(ts), traj.sample_deriv(ts)


@given(case=knot_tables())
@settings(max_examples=150, deadline=None)
def test_matches_twin(c_library, case):
    table, ts = case
    traj = Trajectory(table)
    with pytest.MonkeyPatch.context() as mp:
        got = _sample_with(mp, c_library, traj, ts)
        want = _sample_with(mp, _kernel_py, traj, ts)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (ts.size, 2)
        assert g.tobytes() == w.tobytes()


def test_overflow_matches_twin_without_warning(c_library):
    # steps of 1e200 (a drive at omega of about 1e-198) overflow h*h; the C
    # library gives inf or nan without a signal, and so does the twin
    # (a RuntimeWarning fails the test)
    table = np.random.default_rng(8).normal(size=(4, KNOT_WIDTH))
    table[:, 0] = np.arange(4) * 1e200
    traj = Trajectory(table)
    ts = np.linspace(0.0, 3e200, 7)
    with pytest.MonkeyPatch.context() as mp:
        got = _sample_with(mp, c_library, traj, ts)
        want = _sample_with(mp, _kernel_py, traj, ts)
    assert not np.isfinite(got[0]).all()
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


def test_empty_and_knot_times(c_library):
    # the C path at the knots returns the stored states bit for bit
    rng = np.random.default_rng(7)
    table = rng.normal(size=(5, 7))
    table[:, 0] = np.cumsum(rng.uniform(0.1, 2.0, 5))
    traj = Trajectory(table)
    with pytest.MonkeyPatch.context() as mp:
        empty = _sample_with(mp, c_library, traj, [])
        at_knots = _sample_with(mp, c_library, traj, traj.times)
    assert [arr.shape for arr in empty] == [(0, 2), (0, 2)]
    assert np.array_equal(at_knots[0], traj.states)
    assert np.allclose(at_knots[1], traj.derivs, rtol=1e-12, atol=1e-12)


def test_compiled_backend_samples_through_fhn_sample(c_library, params, monkeypatch):
    if fastpath.active_backend() == "compiled":
        library = fastpath._IMPL              # the library opened at import
        assert isinstance(library, fastpath.Library)
    else:                      # built into a temporary directory by the fixture
        library = c_library
        monkeypatch.setattr(fastpath, "_IMPL", library)
    calls = []
    fhn_sample = library.cdll.fhn_sample
    monkeypatch.setattr(library.cdll, "fhn_sample",
                        lambda *args: calls.append(args[3:5]) or fhn_sample(*args))
    traj = simulate_standard(params, Forcing(E=0.55, omega=0.0149354))
    assert theta_sequence(traj, 0.0149354).size == 6
    t0, t1 = traj.t_span
    states = traj.sample(np.linspace(t0, t1, 4001))
    traj.sample_deriv([t0, t1])
    assert calls == [(traj.minima.size, False), (4001, False), (2, True)]
    assert states.tobytes() == _kernel_py.sample_knots(
        traj.knots, np.linspace(t0, t1, 4001), False).tobytes()


def test_library_refuses_a_table_it_cannot_read(c_library):
    # fhn_sample reads rows of KNOT_WIDTH and at least two knots: other
    # shapes are refused before a pointer is passed
    table = np.random.default_rng(5).normal(size=(4, KNOT_WIDTH))
    table[:, 0] = np.arange(4.0)
    for bad in (table[:, :5], table[:1], table[0]):
        with pytest.raises(ValueError, match="knot table"):
            c_library.sample_knots(bad, np.array([0.5]), False)

import math
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhnburst import _kernel_py, fastpath
from fhnburst.errors import (
    IntegrationError,
    MaxStepsExceeded,
    NonFiniteState,
    OutOfRange,
)
from fhnburst.fastpath import active_backend, integrate_forced
from fhnburst.integrator import IntegratorConfig, Trajectory, integrate
from fhnburst.model import Forcing, unforced_equilibrium

BURST3 = Forcing(E=0.55, omega=0.0149354)


def _assert_same_run(got, want):
    """Two kernel results (status, knot table, spike times, minimum times,
    step counters, integral of x^2 + y^2) are equal, bit for bit."""
    assert len(got) == len(want) == 6
    assert got[0] == want[0]
    assert got[1].shape == want[1].shape and np.array_equal(got[1], want[1])
    for times_got, times_want in zip(got[2:4], want[2:4]):
        assert times_got.dtype == times_want.dtype == float
        assert times_got.shape == times_want.shape
        assert times_got.tobytes() == times_want.tobytes()
    assert got[4] == want[4]
    assert float(got[5]).hex() == float(want[5]).hex()


def _set(table, row, col, value):
    table[row, col] = value
    return table


# ways to spoil a valid 6 x 7 knot table of a planar system
BAD_TABLES = {
    "3-4-nan": lambda table: _set(table, 3, 4, math.nan),     # a non-finite derivative
    "3-0-2.0": lambda table: _set(table, 3, 0, 2.0),          # a repeated knot time
    "one-curvature-missing": lambda table: table[:, :6],
    "no-curvatures": lambda table: table[:, :5],
    "times-only": lambda table: table[:, :1],
    "one-row": lambda table: table[0],                        # no knot axis
    "stacked": lambda table: table[None],
}


def _linear_problem():
    rhs = lambda t, y: -y
    jac = lambda t, y: np.array([[-1.0]])
    rhs_t = lambda t, y: np.zeros(1)
    return rhs, jac, rhs_t


class TestConfig:
    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.rel_tol == 1e-8 and cfg.abs_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [dict(rel_tol=1e-1), dict(rel_tol=1e-8, abs_tol=1e-6), dict(abs_tol=0.0),
         dict(max_step=0.0), dict(max_step=-1.0),
         dict(max_steps=1e6), dict(max_steps=0), dict(max_steps=-3)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_numpy_integer_max_steps(self):
        assert IntegratorConfig(max_steps=np.int64(7)).max_steps == 7


class TestLinearProblem:
    def test_endpoint(self):
        rhs, jac, rhs_t = _linear_problem()
        traj = integrate(rhs, jac, [1.0], (0.0, 1.0), IntegratorConfig(), rhs_t=rhs_t)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_sample_at_knots_exact(self):
        rhs, jac, rhs_t = _linear_problem()
        traj = integrate(rhs, jac, [1.0], (0.0, 1.0), rhs_t=rhs_t)
        got = traj.sample(traj.times)
        assert np.array_equal(got, traj.states)

    def test_sample_midpoints(self):
        rhs, jac, rhs_t = _linear_problem()
        traj = integrate(rhs, jac, [1.0], (0.0, 1.0), rhs_t=rhs_t)
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        err = np.abs(traj.sample(mids)[:, 0] - np.exp(-mids))
        assert err.max() < 1e-7

    def test_refined_sampling_stable(self):
        # re-evaluating an integral metric on a finer sampling barely moves it
        rhs, jac, rhs_t = _linear_problem()
        traj = integrate(rhs, jac, [1.0], (0.0, 1.0), rhs_t=rhs_t)

        def quad(n):
            mids = (np.arange(n) + 0.5) / n
            return math.sqrt(np.mean(traj.sample(mids)[:, 0] ** 2))

        assert abs(quad(20000) - quad(40000)) < 1e-8

    def test_convergence_order_fixed_step(self):
        rhs, jac, rhs_t = _linear_problem()
        errs = []
        hs = [0.1, 0.05, 0.025]
        for h in hs:
            cfg = IntegratorConfig(rel_tol=9e-3, abs_tol=9e-3, max_step=h)
            traj = integrate(rhs, jac, [1.0], (0.0, 1.0), cfg, rhs_t=rhs_t)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 3.5 < slope < 4.5

    def test_error_scales_with_tolerance(self):
        rhs, jac, rhs_t = _linear_problem()
        errs = []
        for rt in (1e-5, 1e-7, 1e-9):
            cfg = IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-2)
            traj = integrate(rhs, jac, [1.0], (0.0, 1.0), cfg, rhs_t=rhs_t)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        assert errs[0] > errs[1] > errs[2]

    def test_determinism(self):
        rhs, jac, rhs_t = _linear_problem()
        t1 = integrate(rhs, jac, [1.0], (0.0, 1.0), rhs_t=rhs_t)
        t2 = integrate(rhs, jac, [1.0], (0.0, 1.0), rhs_t=rhs_t)
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.states, t2.states)


class TestDenseOutput:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_quintic_reproduced_exactly(self, data):
        # dense output is a two-point quintic Hermite: any quintic is exact
        coeffs = [
            data.draw(st.floats(-2.0, 2.0), label=f"c{k}") for k in range(6)
        ]
        poly = np.polynomial.Polynomial(coeffs)
        d1 = poly.deriv(1)
        d2 = poly.deriv(2)
        knots = np.array([0.0, 0.35, 0.8, 1.4])
        traj = Trajectory(np.column_stack([knots, poly(knots), d1(knots), d2(knots)]))
        ts = data.draw(
            st.lists(st.floats(0.0, 1.4), min_size=1, max_size=8), label="ts"
        )
        got = traj.sample(ts)[:, 0]
        assert np.allclose(got, poly(np.asarray(ts)), atol=1e-10)

    def test_sample_deriv(self):
        rhs, jac, rhs_t = _linear_problem()
        traj = integrate(rhs, jac, [1.0], (0.0, 1.0), rhs_t=rhs_t)
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        got = traj.sample_deriv(mids)[:, 0]
        assert np.allclose(got, -np.exp(-mids), atol=1e-6)

    def test_out_of_range(self):
        rhs, jac, rhs_t = _linear_problem()
        traj = integrate(rhs, jac, [1.0], (0.0, 1.0), rhs_t=rhs_t)
        with pytest.raises(OutOfRange):
            traj.sample([1.5])
        with pytest.raises(OutOfRange):
            traj.sample([-0.2])
        with pytest.raises(OutOfRange):
            traj.sample_deriv([1.5])

    def test_one_knot_trajectory_refuses_sampling(self, params):
        # a burn-in run keeps only its end state: one knot, so no interval
        # to interpolate on
        traj = integrate_forced(
            params, Forcing(E=0.5, omega=0.02), (-1.2, -0.6), (0.0, 10.0),
            detect_events=False,
        )
        assert traj.times.size == 1
        with pytest.raises(OutOfRange, match="two knots"):
            traj.sample([10.0])
        with pytest.raises(OutOfRange, match="two knots"):
            traj.sample_deriv([10.0])


class TestFailureModes:
    def test_non_finite_rhs(self):
        rhs = lambda t, y: np.array([float("nan")])
        jac = lambda t, y: np.array([[0.0]])
        with pytest.raises(NonFiniteState):
            integrate(rhs, jac, [1.0], (0.0, 1.0), rhs_t=lambda t, y: np.zeros(1))

    def test_blowup_aborts_with_partial(self):
        rhs = lambda t, y: y * y
        jac = lambda t, y: np.array([[2.0 * y[0]]])
        rhs_t = lambda t, y: np.zeros(1)
        with pytest.raises(IntegrationError) as info:
            integrate(rhs, jac, [1.0], (0.0, 2.0), rhs_t=rhs_t)
        partial = info.value.trajectory
        assert partial is not None
        assert np.all(np.isfinite(partial.states))
        assert partial.times[-1] < 2.0   # stopped before the blowup time t = 1

    def test_max_steps(self):
        rhs, jac, rhs_t = _linear_problem()
        cfg = IntegratorConfig(max_steps=5)
        with pytest.raises(MaxStepsExceeded):
            integrate(rhs, jac, [1.0], (0.0, 1.0), cfg, rhs_t=rhs_t)

    def test_bad_span(self):
        rhs, jac, rhs_t = _linear_problem()
        with pytest.raises(ValueError):
            integrate(rhs, jac, [1.0], (1.0, 0.0), rhs_t=rhs_t)


class TestForcedSystemRuns:
    def test_burst_drive_completes(self, params):
        # four drive periods of the reference three-spike burst
        x0, y0 = unforced_equilibrium(params)
        T = BURST3.period
        traj = integrate_forced(
            params, BURST3, (x0, y0), (0.0, 4.0 * T),
            IntegratorConfig(max_step=T / 64.0),
        )
        assert traj.times[-1] == pytest.approx(4.0 * T, abs=1e-9)
        assert np.all(np.isfinite(traj.states))

    def test_tolerance_refinement(self, params):
        x0, y0 = unforced_equilibrium(params)
        T = BURST3.period

        def endpoint(rt, at):
            cfg = IntegratorConfig(rel_tol=rt, abs_tol=at, max_step=T / 64.0)
            return integrate_forced(
                params, BURST3, (x0, y0), (0.0, 4.0 * T), cfg, detect_events=False
            ).states[-1, 0]

        assert abs(endpoint(1e-8, 1e-10) - endpoint(5e-9, 5e-11)) < 1e-6

    def test_backends_agree(self, params, c_kernel):
        # the C kernel must reproduce the pure twin bit for bit: burn-in and
        # measurement runs of the standard protocol over a 6 x 4 drive grid
        x0, y0 = unforced_equilibrium(params)
        n_spikes = n_minima = n_rejecting = 0
        for omega in np.linspace(0.006, 0.06, 6):
            for E in np.linspace(0.15, 2.4, 4):
                T = 2.0 * math.pi / omega
                common = (params.a, params.b, params.eps, E, omega)
                tols = (1e-8, 1e-10, T / 64.0, 5_000_000)
                burn = (*common, 0.0, 2.0 * T, x0, y0, *tols, False)
                want = _kernel_py.integrate_forced(*burn)
                _assert_same_run(c_kernel(*burn), want)
                xb, yb = want[1][-1, 1:3]             # state after the burn-in
                meas = (*common, 2.0 * T, 4.0 * T, xb, yb, *tols, True)
                want = _kernel_py.integrate_forced(*meas)
                assert want[0] == 0
                assert want[4]["n_accept"] == len(want[1]) - 1
                assert want[5] > 0.0                 # the integral was summed
                _assert_same_run(c_kernel(*meas), want)
                n_spikes += len(want[2])
                n_minima += len(want[3])
                n_rejecting += want[4]["n_reject"] > 0
        assert n_spikes > 0                       # spike times were compared
        assert n_minima > 0                       # minimum times were compared
        assert n_rejecting > 0                    # the reject counter was exercised

    @pytest.mark.parametrize(
        "x0, y0, t0, max_steps, status",
        [
            (-1.2, -0.6, 0.0, 50, 2),            # step budget exhausted
            (1e10, 0.0, 0.0, 100_000, 1),        # step size underflow
            (1.0, 1e300, 0.0, 100_000, 3),       # non-finite inside the loop
            (1e150, 0.0, 0.0, 100_000, 3),       # non-finite at the start
            # from t = 8192 on one ulp of t exceeds the 1e-12 bisection
            # tolerance; event location must still stop (a bracket can stall
            # one ulp wide, with no double strictly inside it)
            (-1.2, -0.6, 8200.0, 100_000, 0),
        ],
    )
    def test_backends_agree_edge_cases(self, params, c_kernel, x0, y0, t0, max_steps, status):
        args = (params.a, params.b, params.eps, 0.5, 0.02, t0, t0 + 300.0, x0, y0,
                1e-8, 1e-10, -1.0, max_steps, True)
        want = _kernel_py.integrate_forced(*args)
        assert want[0] == status
        assert status != 0 or (len(want[2]) > 0 and len(want[3]) > 0)
        steps = np.diff(want[1][:, 0])
        assert want[4]["n_accept"] == steps.size
        assert want[4]["h_min"] == (steps.min() if steps.size else math.inf)
        if status == 3 and len(want[1]):          # went non-finite inside the loop
            assert want[4]["n_nonfinite_retry"] > 0
        _assert_same_run(c_kernel(*args), want)

    def test_step_counters(self, params):
        # the counters reach Trajectory.meta and do not depend on what the
        # run records
        traj = integrate_forced(params, BURST3, (-1.2, -0.6), (0.0, BURST3.period))
        stats = traj.meta["stats"]
        assert stats["n_accept"] == len(traj.times) - 1
        burn = integrate_forced(params, BURST3, (-1.2, -0.6), (0.0, BURST3.period),
                                detect_events=False)
        assert burn.meta["stats"] == stats
        assert burn.minima.shape == (0,) and burn.spikes.shape == (0,)

    def test_knot_table_kept_in_place(self, params):
        # the trajectory's columns are views of the one knot table
        traj = integrate_forced(params, BURST3, (-1.2, -0.6), (0.0, BURST3.period))
        table = traj.times.base
        assert table is not None and table.shape == (traj.times.size, _kernel_py.KNOT_WIDTH)
        assert all(arr.base is table for arr in (traj.states, traj.derivs, traj.curvatures))

    @pytest.mark.parametrize("spoil", list(BAD_TABLES.values()), ids=list(BAD_TABLES))
    def test_knot_table_checked(self, spoil):
        table = np.random.default_rng(3).normal(size=(6, _kernel_py.KNOT_WIDTH))
        table[:, 0] = np.arange(6.0)
        assert Trajectory(table).times.size == 6
        with pytest.raises(ValueError):
            Trajectory(spoil(table))

    def test_stale_library_refused(self, kernel_library, monkeypatch):
        fastpath.Library(kernel_library)           # the current ABI loads
        monkeypatch.setattr(fastpath, "KERNEL_ABI", fastpath.KERNEL_ABI + 1)
        with pytest.raises(ImportError, match="kernel ABI"):
            fastpath.Library(kernel_library)

    def test_abi_version_matches_source(self):
        # a version bump made in only one of the two files fails without a compiler
        source = Path(fastpath.__file__).with_name("_kernel.c").read_text(encoding="utf-8")
        (version,) = re.findall(r"^#define FHN_ABI_VERSION (\d+)$", source, re.M)
        assert int(version) == fastpath.KERNEL_ABI

    def test_entry_points_match_source(self):
        # each C entry point takes as many parameters as fastpath declares,
        # and fastpath declares every one: checked without a compiler
        source = Path(fastpath.__file__).with_name("_kernel.c").read_text(encoding="utf-8")
        defined = dict(re.findall(r"^(?:int|long|void) (fhn_\w+)\(([^)]*)\)\s*\{", source, re.M))
        declared = {name: argtypes for name, _, argtypes in fastpath.ENTRY_POINTS}
        assert defined.keys() == declared.keys()
        for name, params in defined.items():
            n_params = 0 if params.strip() == "void" else params.count(",") + 1
            assert n_params == len(declared[name]), name

    def test_c_library_compiles_without_warnings(self, c_compiler):
        # the flags of setup.py plus a warnings gate: a new warning fails here
        source = Path(fastpath.__file__).with_name("_kernel.c")
        proc = subprocess.run(
            [c_compiler, "-std=c99", "-ffp-contract=off", "-Wall", "-Wextra", "-Wpedantic",
             "-Wshadow", "-Wstrict-prototypes", "-Wcast-qual", "-Wvla", "-Wdouble-promotion",
             "-Wundef", "-Werror", "-fsyntax-only", str(source)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_generic_path_matches_kernel(self, params):
        # reference numpy stepper vs specialized kernel on one period
        from fhnburst.model import make_forced_callables

        T = BURST3.period
        x0, y0 = unforced_equilibrium(params)
        rhs, jac, rhs_t = make_forced_callables(params, BURST3)
        cfg = IntegratorConfig(max_step=T / 64.0)
        ref = integrate(rhs, jac, [x0, y0], (0.0, T), cfg, rhs_t=rhs_t)
        fast = integrate_forced(params, BURST3, (x0, y0), (0.0, T), cfg)
        assert fast.states[-1, 0] == pytest.approx(ref.states[-1, 0], abs=1e-7)
        assert fast.states[-1, 1] == pytest.approx(ref.states[-1, 1], abs=1e-7)

    def test_backend_name(self):
        assert active_backend() in ("compiled", "pure")

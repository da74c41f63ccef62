import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from child_env import child_env
from fhnburst import _kernel_py, fastpath
from fhnburst.errors import (
    IntegrationError,
    MaxStepsExceeded,
    NonFiniteState,
    OutOfRange,
    StepSizeUnderflow,
)
from fhnburst.fastpath import active_backend, integrate_forced
from fhnburst.integrator import KNOT_WIDTH, IntegratorConfig, Trajectory
from fhnburst.model import Forcing, StateXY, rhs_forced, unforced_equilibrium
from kernel_lane import AGREEMENT_DRIVES, EDGE_DRIVES, edge_args, lane, standard_args

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


def _exp_decay():
    """A hand-built knot table of x = y = exp(-t): 21 knots on [0, 1] with
    the exact states and first and second derivatives."""
    t = np.linspace(0.0, 1.0, 21)
    y = np.exp(-t)
    return Trajectory(np.column_stack([t, y, y, -y, -y, y, y]))


class TestConfig:
    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.rel_tol == 1e-8 and cfg.abs_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [dict(rel_tol=1e-1), dict(rel_tol=1e-8, abs_tol=1e-6), dict(abs_tol=0.0),
         dict(rel_tol=1e-2), dict(abs_tol=math.nan),
         dict(max_steps=1e6), dict(max_steps=0), dict(max_steps=-3)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_numpy_integer_max_steps(self):
        assert IntegratorConfig(max_steps=np.int64(7)).max_steps == 7


class TestLinearProblem:
    def test_sample_at_knots_exact(self):
        traj = _exp_decay()
        got = traj.sample(traj.times)
        assert np.array_equal(got, traj.states)

    def test_sample_midpoints(self):
        traj = _exp_decay()
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        err = np.abs(traj.sample(mids)[:, 0] - np.exp(-mids))
        assert err.max() < 1e-7

    def test_refined_sampling_stable(self):
        # re-evaluating an integral metric on a finer sampling barely moves it
        traj = _exp_decay()

        def quad(n):
            mids = (np.arange(n) + 0.5) / n
            return math.sqrt(np.mean(traj.sample(mids)[:, 0] ** 2))

        assert abs(quad(20000) - quad(40000)) < 1e-8


class TestDenseOutput:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_quintic_reproduced_exactly(self, data):
        # dense output is a two-point quintic Hermite: any quintic is exact,
        # in x and in y
        polys = [np.polynomial.Polynomial([
            data.draw(st.floats(-2.0, 2.0), label=f"{name}{k}") for k in range(6)
        ]) for name in "xy"]
        knots = np.array([0.0, 0.35, 0.8, 1.4])
        columns = [poly.deriv(m)(knots) for m in range(3) for poly in polys]
        traj = Trajectory(np.column_stack([knots, *columns]))
        ts = sorted(data.draw(
            st.lists(st.floats(0.0, 1.4), min_size=1, max_size=8), label="ts"
        ))
        got = traj.sample(ts)
        want = np.column_stack([poly(np.asarray(ts)) for poly in polys])
        assert np.allclose(got, want, atol=1e-10)

    def test_sample_deriv(self):
        traj = _exp_decay()
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        got = traj.sample_deriv(mids)[:, 0]
        assert np.allclose(got, -np.exp(-mids), atol=1e-6)

    def test_unsorted_times_refused(self):
        traj = _exp_decay()
        with pytest.raises(ValueError, match="sorted"):
            traj.sample([0.5, 0.25])
        with pytest.raises(ValueError, match="sorted"):
            traj.sample_deriv([0.5, 0.25])
        assert traj.sample([0.25, 0.25, 0.5]).shape == (3, 2)   # ties count as sorted

    def test_out_of_range(self):
        traj = _exp_decay()
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


class TestForcedSystemRuns:
    def test_burst_drive_completes(self, params):
        # four drive periods of the reference three-spike burst
        x0, y0 = unforced_equilibrium(params)
        T = BURST3.period
        traj = integrate_forced(params, BURST3, (x0, y0), (0.0, 4.0 * T))
        assert traj.times[-1] == pytest.approx(4.0 * T, abs=1e-9)
        assert np.all(np.isfinite(traj.states))

    def test_tolerance_refinement(self, params):
        x0, y0 = unforced_equilibrium(params)
        T = BURST3.period

        def endpoint(rt, at):
            cfg = IntegratorConfig(rel_tol=rt, abs_tol=at)
            return integrate_forced(
                params, BURST3, (x0, y0), (0.0, 4.0 * T), cfg, detect_events=False
            ).states[-1, 0]

        assert abs(endpoint(1e-8, 1e-10) - endpoint(5e-9, 5e-11)) < 1e-6

    def test_backends_agree(self, params, c_kernel):
        # the C kernel must reproduce the pure twin bit for bit: burn-in and
        # measurement runs of the standard protocol over a 6 x 4 drive grid
        start = unforced_equilibrium(params)
        n_spikes = n_minima = n_rejecting = 0
        for omega, E in AGREEMENT_DRIVES:
            burn = (*standard_args(params, omega, E, start, False), False)
            want = _kernel_py.integrate_forced(*burn)
            _assert_same_run(c_kernel(*burn), want)
            end = want[1][-1, 1:3]                    # state after the burn-in
            meas = (*standard_args(params, omega, E, end, True), True)
            want = _kernel_py.integrate_forced(*meas)
            assert want[0] == 0
            assert want[4]["n_accept"] == len(want[1]) - 1
            assert want[5] > 0.0                     # the integral was summed
            _assert_same_run(c_kernel(*meas), want)
            n_spikes += len(want[2])
            n_minima += len(want[3])
            n_rejecting += want[4]["n_reject"] > 0
        assert n_spikes > 0                       # spike times were compared
        assert n_minima > 0                       # minimum times were compared
        assert n_rejecting > 0                    # the reject counter was exercised

    @pytest.mark.parametrize("x0, y0, t0, max_steps, status", EDGE_DRIVES)
    def test_backends_agree_edge_cases(self, params, c_kernel, x0, y0, t0, max_steps, status):
        args = (*edge_args(params, x0, y0, t0, max_steps), True)
        want = _kernel_py.integrate_forced(*args)
        assert want[0] == status
        assert status != 0 or (len(want[2]) > 0 and len(want[3]) > 0)
        steps = np.diff(want[1][:, 0])
        assert want[4]["n_accept"] == steps.size
        assert want[4]["h_min"] == (steps.min() if steps.size else math.inf)
        if status == 3 and len(want[1]):          # went non-finite inside the loop
            assert want[4]["n_nonfinite_retry"] > 0
        _assert_same_run(c_kernel(*args), want)

    @given(E=st.floats(0.0, 2.5), omega=st.floats(0.005, 0.08),
           x0=st.floats(-2.5, 2.5), y0=st.floats(-1.0, 1.5),
           start=st.floats(0.0, 2.0), span=st.floats(1e-3, 0.25),
           rel_tol=st.floats(-10.0, -3.0).map(lambda p: 10.0 ** p),
           abs_tol=st.floats(-12.0, -4.0).map(lambda p: 10.0 ** p),
           max_steps=st.integers(1, 400), detect_events=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_backends_agree_on_random_drives(self, params, c_kernel, E, omega, x0, y0, start,
                                             span, rel_tol, abs_tol, max_steps, detect_events):
        # short random drives: start and span are fractions of the period,
        # and max_steps keeps the twin cheap
        T = 2.0 * math.pi / omega
        t0 = start * T
        args = (params.a, params.b, params.eps, E, omega, t0, t0 + span * T, x0, y0,
                rel_tol, abs_tol, max_steps, detect_events)
        _assert_same_run(c_kernel(*args), _kernel_py.integrate_forced(*args))

    def test_kernel_caps_its_own_steps(self, params, c_library, monkeypatch):
        # with no drive the controller would grow the step to a large part
        # of the span; the kernel itself holds every step to T/64
        drive = Forcing(E=0.0, omega=BURST3.omega)
        T = drive.period
        x0, y0 = unforced_equilibrium(params)
        for backend in (c_library, _kernel_py):
            monkeypatch.setattr(fastpath, "_IMPL", backend)
            traj = integrate_forced(params, drive, (x0, y0), (0.0, 2.0 * T), IntegratorConfig())
            largest = float(np.diff(traj.times).max())
            assert 0.99 * (T / 64.0) <= largest <= (1.0 + 1e-12) * (T / 64.0), backend

    @pytest.mark.parametrize("detect_events", [True, False], ids=["measure", "burn-in"])
    def test_failure_statuses_raise_typed_errors(self, params, c_library, monkeypatch,
                                                 detect_events):
        # each failure status of the kernel becomes its error, with the same
        # type, message and partial trajectory on both backends
        cases = [
            ((-1.2, -0.6), (0.0, BURST3.period), IntegratorConfig(max_steps=5)),
            ((math.nan, 0.0), (0.0, BURST3.period), None),
            ((-1.2, -0.6), (1e6, 1e6 + 1e-9), None),
        ]
        raised = {}
        for name, backend in {"compiled": c_library, "pure": _kernel_py}.items():
            monkeypatch.setattr(fastpath, "_IMPL", backend)
            raised[name] = []
            for y0, t_span, cfg in cases:
                with pytest.raises(IntegrationError) as info:
                    integrate_forced(params, BURST3, y0, t_span, cfg, detect_events)
                partial = info.value.trajectory
                raised[name].append((type(info.value), str(info.value),
                                     None if partial is None else partial.knots.tolist()))
        assert raised["compiled"] == raised["pure"]
        steps, nonfinite, underflow = raised["pure"]
        assert steps[0] is MaxStepsExceeded
        assert re.fullmatch(r"exceeded 5 steps at t=0\.1008\d+", steps[1])
        assert (len(steps[2]) == 5) if detect_events else steps[2] is None
        assert nonfinite == (NonFiniteState, "state became non-finite near t=0.0", None)
        assert underflow == (StepSizeUnderflow, "step size underflow at t=1000000.0", None)

    def test_step_counters(self, params):
        # the counters reach Trajectory.stats and do not depend on what the
        # run records
        traj = integrate_forced(params, BURST3, (-1.2, -0.6), (0.0, BURST3.period))
        stats = traj.stats
        assert stats["n_accept"] == len(traj.times) - 1
        burn = integrate_forced(params, BURST3, (-1.2, -0.6), (0.0, BURST3.period),
                                detect_events=False)
        assert burn.stats == stats
        assert burn.minima.shape == (0,) and burn.spikes.shape == (0,)

    def test_knot_table_kept_in_place(self, params):
        # the trajectory's columns are views of the one knot table
        traj = integrate_forced(params, BURST3, (-1.2, -0.6), (0.0, BURST3.period))
        table = traj.times.base
        assert table is not None and table.shape == (traj.times.size, KNOT_WIDTH)
        assert all(arr.base is table for arr in (traj.states, traj.derivs, traj.curvatures))

    @pytest.mark.parametrize("spoil", list(BAD_TABLES.values()), ids=list(BAD_TABLES))
    def test_knot_table_checked(self, spoil):
        table = np.random.default_rng(3).normal(size=(6, KNOT_WIDTH))
        table[:, 0] = np.arange(6.0)
        assert Trajectory(table).times.size == 6
        with pytest.raises(ValueError):
            Trajectory(spoil(table))

    def test_report_header_names_the_backend(self, request):
        # the run's header says which backend the tests measure
        lines = request.config.hook.pytest_report_header(
            config=request.config, start_path=request.config.rootpath)
        want = f"fhnburst backend: {active_backend()} (KERNEL_ABI {fastpath.KERNEL_ABI})"
        assert want in lines

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

    def test_c_library_clean_under_sanitizers(self, c_compiler, c_library, tmp_path):
        # the lane in a child interpreter with AddressSanitizer and
        # UndefinedBehaviorSanitizer preloaded: a memory error or undefined
        # behaviour aborts the child, and its results are the plain build's
        sanitize = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
        (tmp_path / "probe.c").write_text("int main(void) { return 0; }\n")
        runtimes = [subprocess.run([c_compiler, f"-print-file-name={name}"], capture_output=True,
                                   text=True).stdout.strip() for name in ("libasan.so", "libubsan.so")]
        probe = subprocess.run([c_compiler, *sanitize, "-o", str(tmp_path / "probe"),
                                str(tmp_path / "probe.c")], capture_output=True)
        if probe.returncode or not all(os.path.isfile(path) for path in runtimes):
            pytest.skip("the C compiler cannot link the sanitizer runtimes")
        source = Path(fastpath.__file__).with_name("_kernel.c")
        library = tmp_path / "_kernel_sanitized.so"
        build = subprocess.run(
            [c_compiler, "-std=c99", "-ffp-contract=off", "-Wall", "-Wextra", "-Wpedantic",
             "-Werror", *sanitize, "-shared", "-fPIC", "-o", str(library), str(source)],
            capture_output=True, text=True,
        )
        assert build.returncode == 0, build.stderr
        env = child_env(LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0",
                        OPENBLAS_NUM_THREADS="1")
        lane_script = Path(__file__).with_name("kernel_lane.py")
        child = subprocess.run([sys.executable, str(lane_script), str(library)], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr[-4000:]
        assert child.stdout.strip() == lane(c_library)

    def test_generic_path_matches_kernel(self, params):
        # the kernel's end state after one period against SciPy's explicit
        # DOP853, which shares no stage table and no controller with it
        from scipy.integrate import solve_ivp

        T = BURST3.period
        x0, y0 = unforced_equilibrium(params)
        ref = solve_ivp(lambda t, y: rhs_forced(StateXY(y[0], y[1], t), params, BURST3),
                        (0.0, T), [x0, y0], method="DOP853", rtol=1e-12, atol=1e-14)
        assert ref.success, ref.message
        fast = integrate_forced(params, BURST3, (x0, y0), (0.0, T))
        assert fast.states[-1, 0] == pytest.approx(ref.y[0, -1], abs=1e-7)
        assert fast.states[-1, 1] == pytest.approx(ref.y[1, -1], abs=1e-7)

    def test_backend_name(self):
        assert active_backend() in ("compiled", "pure")

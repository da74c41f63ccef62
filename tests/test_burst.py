import math

import numpy as np
import pytest

from fhnburst import _kernel_py, burst, fastpath
from fhnburst.burst import (
    CanardClass,
    DEFAULT_F_BURST,
    burst_metrics,
    classify_canard,
    count_spikes,
    estimate_from_phases,
    estimate_spike_count,
    first_return_phase,
    l2_norm,
    lower_return_times,
    simulate_standard,
    theta_sequence,
    trajectory_metrics,
)
from fhnburst.cli import main
from fhnburst.errors import NewtonDiverged, NoFirstSpike, NoPassage
from fhnburst.geometry import folded_equilibria
from fhnburst.integrator import (
    HERMITE_GRAM_DEN,
    HERMITE_GRAM_INT,
    IntegratorConfig,
    Trajectory,
    _hermite_weights,
)
from fhnburst.model import Forcing, TWO_PI, wrap_angles

BURST3 = Forcing(E=0.55, omega=0.0149354)
E_TRANS = 0.482
HERMITE_GRAM = np.array(HERMITE_GRAM_INT) / HERMITE_GRAM_DEN


def _analytic_trajectory(fn, dfn, d2fn, t0, t1, n=2001, spikes=(), minima=()):
    """Trajectory built from exact (vector) callables for quadrature tests."""
    ts = np.linspace(t0, t1, n)
    states = np.array([fn(t) for t in ts])
    derivs = np.array([dfn(t) for t in ts])
    curvs = np.array([d2fn(t) for t in ts])
    return Trajectory(np.column_stack([ts, states, derivs, curvs]), spikes, minima)


def _midpoint_l2(traj, a, b, n=40000):
    """Normalized L2 norm over [a, b] by an n-point midpoint rule on the
    dense output."""
    s = traj.sample(a + (np.arange(n) + 0.5) * ((b - a) / n))
    return math.sqrt(float(np.mean(s[:, 0] ** 2 + s[:, 1] ** 2)))


# BURST3 and four drives with two to six returns in the window
RETURN_DRIVES = [
    (BURST3.E, BURST3.omega), (0.55, 0.0149), (0.45, 0.02), (0.42, 0.035), (0.5, 0.01),
]


def _scalar_lower_returns(trajectory, depth=burst.LOWER_RETURN_DEPTH):
    """Reference: one bracket at a time, one dense evaluation per bisection
    step.  Returns the return times and the number of brackets."""
    times = trajectory.times
    fx = trajectory.derivs[:, 0]
    out = []
    brackets = 0
    for i in range(len(times) - 1):
        if not (fx[i] < 0.0 <= fx[i + 1]):
            continue
        brackets += 1
        lo, hi = times[i], times[i + 1]
        for _ in range(80):
            if hi - lo <= 1e-12:
                break
            mid = 0.5 * (lo + hi)
            if trajectory.sample_deriv([mid])[0, 0] < 0.0:
                lo = mid
            else:
                hi = mid
        t_min = 0.5 * (lo + hi)
        if trajectory.sample([t_min])[0, 0] <= depth:
            out.append(t_min)
    return np.asarray(out, dtype=float), brackets


def _reference_l2_norm(trajectory, T):
    """Reference: the Gram form on a stacked (n, 2, 6) coefficient array,
    one interval at a time in a batched matmul."""
    t0, t1 = trajectory.t_span
    h = np.diff(trajectory.times)[:, None]
    x, f, d = trajectory.states, trajectory.derivs, trajectory.curvatures
    c = np.stack(
        [x[:-1], h * f[:-1], h * h * d[:-1], x[1:], h * f[1:], h * h * d[1:]], axis=2
    )
    per_interval = np.einsum("nki,nki->n", c @ HERMITE_GRAM, c)
    return math.sqrt(float(h[:, 0] @ per_interval) / (t1 - t0))


# desk drives (E, omega): BURST3, the return drives and two with no spike
L2_DRIVES = RETURN_DRIVES + [(0.40, 0.01), (0.43, 0.01)]
QUIET_L2_DRIVES = L2_DRIVES[-2:]


@pytest.fixture(scope="module")
def burst3_traj(params):
    return simulate_standard(params, BURST3)


class TestSimulateStandard:
    def test_three_spikes_per_period(self, params, burst3_traj):
        assert count_spikes(burst3_traj, 2) == 3

    def test_measurement_window(self, params, burst3_traj):
        T = BURST3.period
        t0, t1 = burst3_traj.t_span
        assert t0 == pytest.approx(2.0 * T, abs=1e-9)
        assert t1 == pytest.approx(4.0 * T, abs=1e-9)

    def test_spike_events(self, params, burst3_traj):
        # the spikes are the upward crossings of x = 1 and nothing else
        times = burst3_traj.spikes
        assert times.shape == (6,)
        assert np.all(np.diff(times) > 0.0)
        assert np.allclose(burst3_traj.sample(times)[:, 0], 1.0, rtol=0.0, atol=1e-9)
        # and they are the kernel's spike array, passed through unchanged
        T = BURST3.period
        x0, y0 = burst3_traj.states[0]                # state after the burn-in
        run = _kernel_py.integrate_forced(
            params.a, params.b, params.eps, BURST3.E, BURST3.omega,
            2.0 * T, 4.0 * T, x0, y0, 1e-8, 1e-10, 5_000_000, True,
        )
        assert np.array_equal(times, run[2])

    def test_quiet_drive_no_spikes(self, params):
        traj = simulate_standard(params, Forcing(E=0.0, omega=BURST3.omega))
        assert count_spikes(traj, 2) == 0
        assert len(theta_sequence(traj, BURST3.omega)) == 0

    def test_burn_in_extension_stable(self, params):
        base = simulate_standard(params, BURST3, burn_in_periods=2)
        longer = simulate_standard(params, BURST3, burn_in_periods=4)
        assert count_spikes(base, 2) == count_spikes(longer, 2)

    @pytest.mark.parametrize("burn_in, measure", [(-1, 2), (2, 0), (0, -1)])
    def test_rejects_negative_burn_in_or_empty_window(self, params, burn_in, measure):
        with pytest.raises(ValueError, match="periods"):
            simulate_standard(
                params, BURST3, burn_in_periods=burn_in, measure_periods=measure
            )


class TestCountSpikes:
    def test_synthetic_events(self):
        ts = np.linspace(0.0, 10.0, 11)
        zeros = np.zeros((11, 6))
        traj = Trajectory(np.column_stack([ts, zeros]), [1.0, 2.0, 3.0, 6.0, 7.0])
        assert count_spikes(traj, 2) == 2          # floor(5 / 2)
        assert count_spikes(traj, 1) == 5

    def test_no_events(self):
        ts = np.linspace(0.0, 1.0, 5)
        zeros = np.zeros((5, 6))
        traj = Trajectory(np.column_stack([ts, zeros]))
        assert traj.spikes.dtype == float and traj.spikes.shape == (0,)
        assert traj.minima.dtype == float and traj.minima.shape == (0,)
        assert count_spikes(traj, 2) == 0


class TestL2Norm:
    def test_constant_state(self):
        traj = _analytic_trajectory(
            lambda t: (3.0, 4.0), lambda t: (0.0, 0.0), lambda t: (0.0, 0.0),
            0.0, 2.0 * math.pi,
        )
        assert l2_norm(traj, 2.0 * math.pi) == 5.0

    def test_circular_state(self):
        traj = _analytic_trajectory(
            lambda t: (math.sin(t), math.cos(t)),
            lambda t: (math.cos(t), -math.sin(t)),
            lambda t: (-math.sin(t), -math.cos(t)),
            0.0, 2.0 * math.pi,
        )
        assert l2_norm(traj, 2.0 * math.pi) == pytest.approx(1.0, abs=1e-8)

    def test_quadrature_refinement(self, burst3_traj):
        # the exact integral against an independent midpoint rule, which is
        # spectrally accurate on a periodic integrand
        midpoint = _midpoint_l2(burst3_traj, *burst3_traj.t_span)
        assert abs(l2_norm(burst3_traj, BURST3.period) - midpoint) < 1e-8

    def test_gram_matrix(self):
        # 6-point Gauss-Legendre is exact to degree 11, and each product of
        # two quintic basis functions has degree 10
        nodes, weights = np.polynomial.legendre.leggauss(6)
        basis = np.array(_hermite_weights(0.5 * (nodes + 1.0)))
        gauss = (0.5 * weights * basis) @ basis.T
        assert np.array_equal(HERMITE_GRAM, HERMITE_GRAM.T)
        assert np.max(np.abs(HERMITE_GRAM - gauss)) <= 1e-15

    def test_matches_gauss_on_random_interval(self):
        rng = np.random.default_rng(7)
        t0, t1 = 1.3, 1.3 + 2.7
        traj = Trajectory(np.column_stack([
            [t0, t1], rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
            rng.normal(size=(2, 2)),
        ]))
        nodes, weights = np.polynomial.legendre.leggauss(6)
        s = traj.sample(t0 + 0.5 * (nodes + 1.0) * (t1 - t0))
        gauss = math.sqrt(float(0.5 * weights @ (s[:, 0] ** 2 + s[:, 1] ** 2)))
        assert l2_norm(traj, t1 - t0) == pytest.approx(gauss, rel=1e-14, abs=0.0)

    def test_shift_by_one_period(self, params):
        # sharp invariance needs a well-converged trajectory
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = simulate_standard(params, BURST3, cfg, measure_periods=3)
        T = BURST3.period
        t0 = traj.t_span[0]
        first = _midpoint_l2(traj, t0, t0 + 2 * T)
        assert abs(first - _midpoint_l2(traj, t0 + T, t0 + 3 * T)) < 1e-8

    def test_non_integer_span(self, burst3_traj):
        with pytest.raises(ValueError):
            l2_norm(burst3_traj, BURST3.period * 1.37)

    @pytest.mark.parametrize("E, omega", L2_DRIVES)
    def test_matches_reference_on_desk_drives(self, params, E, omega):
        forcing = Forcing(E=E, omega=omega)
        traj = simulate_standard(params, forcing)
        if (E, omega) in QUIET_L2_DRIVES:
            assert traj.spikes.size == 0
        want = _reference_l2_norm(traj, forcing.period)
        assert l2_norm(traj, forcing.period) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("E, omega", L2_DRIVES)
    def test_kernel_integral_matches_knot_sum(self, params, E, omega):
        # the kernel sums the integral while it stores the knots; the same
        # knots without that sum (the hand-built path) give the same float
        forcing = Forcing(E=E, omega=omega)
        traj = simulate_standard(params, forcing)
        if (E, omega) in QUIET_L2_DRIVES:
            assert traj.spikes.size == 0
        assert traj.sq_integral > 0.0
        rebuilt = Trajectory(traj.knots)
        assert rebuilt.sq_integral is None
        got = l2_norm(rebuilt, forcing.period)
        assert got.hex() == l2_norm(traj, forcing.period).hex()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_random_knots(self, seed):
        # knot spacings over seven decades, so the h and h^2 scalings of the
        # derivative and curvature coefficients both matter
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        h = 10.0 ** rng.uniform(-5.0, 2.0, size=n - 1)
        times = 3.0 + np.concatenate([[0.0], np.cumsum(h)])
        traj = Trajectory(np.column_stack([
            times, rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
            rng.normal(size=(n, 2)),
        ]))
        T = (times[-1] - times[0]) / 3.0
        want = _reference_l2_norm(traj, T)
        assert l2_norm(traj, T) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestThetaSequence:
    def test_three_returns_per_period(self, burst3_traj):
        seq = theta_sequence(burst3_traj, BURST3.omega)
        assert len(seq) == 6            # three per measured period

    def test_strictly_increasing(self, burst3_traj):
        seq = theta_sequence(burst3_traj, BURST3.omega)
        assert np.all(np.diff(seq) > 0.0)

    def test_wrapped_values(self, burst3_traj):
        wrapped = wrap_angles(theta_sequence(burst3_traj, BURST3.omega))
        assert np.all((wrapped >= 0.0) & (wrapped < TWO_PI))
        # the two periods give the same wrapped return phases
        assert np.allclose(wrapped[:3], wrapped[3:], atol=1e-3)

    def test_returns_land_near_lower_bound(self, burst3_traj):
        times = lower_return_times(burst3_traj)
        xs = burst3_traj.sample(times)[:, 0]
        assert np.all(xs < -1.5)
        assert np.all(xs > -2.5)

    @pytest.mark.parametrize("E,omega", RETURN_DRIVES)
    def test_matches_scalar_bisection(self, params, E, omega):
        traj = simulate_standard(params, Forcing(E=E, omega=omega))
        expected, _ = _scalar_lower_returns(traj)
        assert np.array_equal(lower_return_times(traj), expected)

    def test_scalar_oracle_not_vacuous(self, params):
        # every drive brackets a minimum, and the depth cut rejects at least one
        rejected = []
        for E, omega in RETURN_DRIVES:
            traj = simulate_standard(params, Forcing(E=E, omega=omega))
            returns, brackets = _scalar_lower_returns(traj)
            assert brackets >= 1
            rejected.append(brackets - returns.size)
        assert max(rejected) >= 1

    def test_matches_scalar_bisection_past_8192(self, params):
        # one ulp of t exceeds 1e-12 here, so a bracket can stall one ulp
        # wide: the kernel stops there, the oracle runs on to its cap of 80
        # halvings, and both return the same midpoint
        traj = fastpath.integrate_forced(
            params, Forcing(E=0.5, omega=0.02), (-1.2, -0.6), (8200.0, 8500.0)
        )
        expected, brackets = _scalar_lower_returns(traj)
        assert expected.size >= 1 and brackets > expected.size
        assert np.array_equal(lower_return_times(traj), expected)

    def test_generic_integrate_has_no_returns(self, params):
        # only the forced kernel locates minima; its knot table passed alone
        # to Trajectory carries none, even where x has minima below the cut
        T = BURST3.period
        run = fastpath.integrate_forced(params, BURST3, (-1.2, -0.6), (0.0, T))
        traj = Trajectory(run.knots)
        assert _scalar_lower_returns(traj)[0].size >= 1
        out = lower_return_times(traj)
        assert out.dtype == float and out.shape == (0,)

    def test_no_brackets(self):
        traj = _analytic_trajectory(
            lambda t: (t, 0.0), lambda t: (1.0, 0.0), lambda t: (0.0, 0.0), 0.0, 1.0, n=11,
        )
        out = lower_return_times(traj)
        assert out.dtype == float and out.shape == (0,)

    def test_hand_built_minima(self):
        # no kernel made this trajectory: its minima and the drive's omega,
        # passed in, are all the phase sequence needs; the minimum at t = pi
        # (x = -0.4) is above the depth cut, the one at 2*pi (x = -1.6) below
        traj = _analytic_trajectory(
            lambda t: (-math.cos(2.0 * t) - 0.6 * math.cos(t), 0.0),
            lambda t: (2.0 * math.sin(2.0 * t) + 0.6 * math.sin(t), 0.0),
            lambda t: (4.0 * math.cos(2.0 * t) + 0.6 * math.cos(t), 0.0),
            1.0, 7.0, n=601, minima=[math.pi, 2.0 * math.pi],
        )
        returns = lower_return_times(traj)
        assert returns.tolist() == [2.0 * math.pi]
        assert np.array_equal(theta_sequence(traj, 0.025), 0.025 * returns)


class TestClassifyCanard:
    @pytest.mark.parametrize(
        "omega,site,expected",
        [
            (0.02206875, "saddle", "jump_back"),
            (0.0220625, "saddle", "jump_across"),
            (0.02, "saddle", "fold_jump"),
            (0.0236, "node", "jump_back"),
            (0.02506875, "node", "jump_back"),
            (0.025075, "node", "jump_across"),
        ],
    )
    def test_reference_transitions(self, params, omega, site, expected):
        f = Forcing(E=E_TRANS, omega=omega)
        traj = simulate_standard(params, f)
        got = classify_canard(params, f, traj, site)
        assert got == CanardClass(site=site, outcome=expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_jump_outcome_matches_loop(self, seed):
        # a running loop over the samples is the reference; the samples sit
        # on and around the window edges, and the threshold near the dwell
        # at the exit
        lo, hi = -1.0 + burst.CANARD_MARGIN, 1.0 - burst.CANARD_MARGIN

        def loop(xs, dt, threshold):
            entered, dwell = False, 0.0
            for xi in xs:
                if lo < xi < hi:
                    entered = True
                    dwell += dt
                if xi >= 1.0:
                    return "jump_across" if dwell > threshold else "fold_jump"
                if entered and xi <= lo:
                    return "jump_back"
            return None

        rng = np.random.default_rng(seed)
        edges = np.array([-2.0, lo, -0.5, 0.0, hi, 0.99, 1.0, 1.5, math.nan])
        outcomes = set()
        for k in range(500):
            n = int(rng.integers(1, 200))
            xs = rng.choice(edges, n) if k % 2 else rng.uniform(-1.2, 1.02, n)
            dt = rng.uniform(1e-3, 1.0)
            threshold = dt * int(rng.integers(0, n + 1))    # near the dwell
            want = loop(xs, dt, threshold)
            assert burst._jump_outcome(xs, dt, threshold) == want
            outcomes.add(want)
        assert outcomes == {"jump_across", "fold_jump", "jump_back", None}

    def test_bad_site(self, params, burst3_traj):
        with pytest.raises(ValueError):
            classify_canard(params, BURST3, burst3_traj, "focus")

    @pytest.mark.parametrize("site", ["saddle", "node"])
    def test_no_equilibrium_below_existence_threshold(self, params, site):
        # the drive's own equilibria decide: below the saddle-existence
        # threshold it has none, on the left fold or elsewhere
        quiet = Forcing(E=0.1, omega=BURST3.omega)
        assert folded_equilibria(params, quiet) == []
        traj = simulate_standard(params, quiet)
        with pytest.raises(NoPassage, match=f"no left-fold {site} equilibrium"):
            classify_canard(params, quiet, traj, site)

    def test_node_switch_is_single_and_sharp(self, params):
        # along the node segment the outcome flips exactly once; locate the
        # switch by bisection and check consistency on both sides
        lo, hi = 0.0236, 0.02508

        def outcome(omega):
            f = Forcing(E=E_TRANS, omega=omega)
            traj = simulate_standard(params, f)
            return classify_canard(params, f, traj, "node").outcome

        assert outcome(lo) == "jump_back"
        assert outcome(hi) == "jump_across"
        a, b = lo, hi
        while b - a > 1e-7:
            mid = 0.5 * (a + b)
            if outcome(mid) == "jump_back":
                a = mid
            else:
                b = mid
        # single switch: spot-check monotonicity on a coarse scan
        for w in np.linspace(lo, a, 4):
            assert outcome(w) == "jump_back"
        for w in np.linspace(b, hi, 4):
            assert outcome(w) == "jump_across"
        # the switch lies inside the reference bracket
        assert 0.02506875 <= 0.5 * (a + b) <= 0.025075


class TestEstimator:
    def test_formula_direct(self):
        assert estimate_from_phases(1.5, 0.5, 0.02) == 3   # gap 1.0 rad
        assert estimate_from_phases(0.5, 1.5, 0.02) == 1   # non-positive gap
        assert estimate_from_phases(1.0, 1.0, 0.02) == 1

    def test_default_rate(self):
        assert DEFAULT_F_BURST == 27.0

    def test_estimate_matches_simulation(self, params, burst3_traj):
        seq = theta_sequence(burst3_traj, BURST3.omega)
        est = estimate_spike_count(params, BURST3, burst3_traj, seq)
        assert est == count_spikes(burst3_traj, 2) == 3

    def test_no_spike_raises(self, params):
        quiet = Forcing(E=0.0, omega=BURST3.omega)
        traj = simulate_standard(params, quiet)
        seq = theta_sequence(traj, quiet.omega)
        with pytest.raises(NoFirstSpike):
            first_return_phase(traj, seq, quiet.omega)
        with pytest.raises(NoFirstSpike):
            estimate_spike_count(params, quiet, traj, seq)


class TestBurstMetrics:
    def test_three_spike_metrics(self, params):
        m = burst_metrics(params, BURST3)
        assert m.spike_count == 3
        assert m.est_count == 3
        assert len(m.theta_seq) == 6
        assert m.l2 > 0.0

    def test_quiet_drive_metrics(self, params):
        m = burst_metrics(params, Forcing(E=0.0, omega=BURST3.omega))
        assert m.spike_count == 0
        assert m.est_count == 0
        assert m.theta_seq == ()

    def test_estimate_rule(self, params, burst3_traj, monkeypatch):
        assert trajectory_metrics(params, BURST3, burst3_traj) == burst_metrics(params, BURST3)
        m = trajectory_metrics(params, BURST3, burst3_traj, with_estimate=False)
        assert m.est_count is None
        # the estimator is looked up in burst's module: 0 without a first
        # spike, None on another FhnBurstError
        for error, want in ((NoFirstSpike, 0), (NewtonDiverged, None)):
            def failing(*args, error=error):
                raise error("synthetic failure")

            monkeypatch.setattr(burst, "estimate_spike_count", failing)
            assert trajectory_metrics(params, BURST3, burst3_traj).est_count == want

    def test_returns_found_once(self, params, monkeypatch):
        # one scan for lower-bound returns serves both the theta sequence and
        # the estimator, in the library and in the CLI
        calls = []
        scan = burst.lower_return_times

        def counted(traj):
            calls.append(traj)
            return scan(traj)

        monkeypatch.setattr(burst, "lower_return_times", counted)
        burst_metrics(params, BURST3)
        assert len(calls) == 1
        drive = ["--E", "0.55", "--omega", "0.0149354"]
        for command in ("simulate", "estimate"):
            calls.clear()
            assert main([command, *drive]) == 0
            assert len(calls) == 1, command


class TestProtocolStability:
    def test_known_low_omega_miscount(self, params):
        # a known limit, pinned so that a change to it shows: below omega =
        # 0.005 the default rel_tol 1e-8 can settle on a wrong count.  Here
        # both measured periods agree on 3 spikes, and every tighter
        # tolerance gives none (README, "Checked range")
        drive = Forcing(E=0.45, omega=0.004)
        ladder = [burst_metrics(params, drive, IntegratorConfig(rel_tol=tol))
                  for tol in (1e-8, 1e-9, 1e-10)]
        assert [(m.spike_count, m.est_count) for m in ladder] == [(3, 4), (0, 0), (0, 0)]

    def test_known_vanishing_omega_l2(self, params):
        # a known defect, pinned so that a change to it shows: below omega of
        # about 1e-5 the T/64 step cap lets one step span spikes, and a run
        # ends ok with wrong outputs.  A bounded orbit's period-normalised
        # l2 stays near 1.9; here it is 213 (README, "Checked range")
        assert burst_metrics(params, Forcing(E=0.5, omega=1e-8)).l2 > 100

    def test_burn_in_invariance_region_ii_sample(self, params):
        # spike count unchanged when the burn-in doubles, on a random
        # region-II sample; locking between 2- and 4-period counts is also
        # checked but only logged, since locking is not guaranteed
        from fhnburst.geometry import fold_thresholds

        rng = np.random.default_rng(2024)
        mismatches = []
        for _ in range(50):
            d = rng.uniform(0.15, 0.55)
            th = fold_thresholds(params, d)
            e_hi = min(th.e_2star_left, th.e_star_right)
            E = th.e_star_left + rng.uniform(0.2, 0.9) * (e_hi - th.e_star_left)
            f = Forcing(E=E, omega=d * params.eps)
            c2 = count_spikes(simulate_standard(params, f), 2)
            c4 = count_spikes(simulate_standard(params, f, burn_in_periods=4), 2)
            assert c2 == c4
            long_run = simulate_standard(params, f, measure_periods=4)
            if count_spikes(long_run, 4) != c2:
                mismatches.append((f.omega, f.E, c2, count_spikes(long_run, 4)))
        # not asserted: report any period-locking mismatches for inspection
        if mismatches:
            print(f"period-locking mismatches (logged): {mismatches}")

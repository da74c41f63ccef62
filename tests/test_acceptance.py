"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 1 pins the threshold-curve intersection at delta = 0.1094,
the value the node-to-focus threshold pinned at delta = 1 (0.2067) implies.
It also checks that value without the threshold formulas: just below the
right existence curve, the eigenvalues of the desingularized Jacobian at the
left folded node turn from real to complex as delta crosses 0.1094.
"""
import math
import time
from dataclasses import replace

import numpy as np

from fhnburst.burst import (
    classify_canard,
    count_spikes,
    l2_norm,
    simulate_standard,
)
from fhnburst.contours import extract_boundaries, total_cusps
from fhnburst.geometry import (
    classify_region,
    eigen_smalldelta_expansion,
    fold_thresholds,
    fold_thresholds_limit,
    folded_equilibria,
    threshold_intersection_delta,
)
from fhnburst.integrator import IntegratorConfig, Trajectory
from fhnburst.manifolds import (
    closed_form_a1,
    closed_form_a2,
    saddle_eigenvalues,
    solve_expansion,
)
from fhnburst.model import (
    Forcing,
    StateUVTheta,
    StateXY,
    derived_constants,
    jac_autonomous,
    jac_desingularized,
    rhs_autonomous,
    to_shifted,
    unforced_equilibrium,
)
from fhnburst.sweep import run_sweep

BURST3 = Forcing(E=0.55, omega=0.0149354)


def report(number: str, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number}: {status} - {description}{extra}")


def test_criterion_01_threshold_constants(params):
    lim_l, lim_r = fold_thresholds_limit(params)
    th1 = fold_thresholds(params, 1.0)
    checks = {
        "e_star_left_0": (lim_l, 0.2917),
        "e_star_right_0": (lim_r, 1.4583),
        "e_star_left_1": (th1.e_star_left, 0.1822),
        "e_2star_left_1": (th1.e_2star_left, 0.2067),
        "e_star_right_1": (th1.e_star_right, 0.9110),
        "e_2star_right_1": (th1.e_2star_right, 0.9162),
    }
    constants_ok = all(abs(got - want) <= 5e-4 for got, want in checks.values())
    d_pin = 0.1094
    d_star = threshold_intersection_delta(params)
    intersection_ok = abs(d_star - d_pin) <= 5e-4
    # Independent of the threshold formulas: on the right existence curve the
    # left folded node is a node just below the pinned delta, a focus just above,
    # both by its Jacobian eigenvalues and by the kind folded_equilibria reports.
    kinds, reported = {}, {}
    for side, d in (("below", d_pin * (1 - 1e-3)), ("above", d_pin * (1 + 1e-3))):
        f = Forcing(E=fold_thresholds(params, d).e_star_right * (1 - 1e-6),
                    omega=d * params.eps)
        (node,) = [q for q in folded_equilibria(params, f)
                   if q.side == "left" and q.kind != "saddle"]
        lams = np.linalg.eigvals(jac_desingularized(node.u, node.theta, params, f))
        kinds[side] = "focus" if np.any(lams.imag != 0.0) else "node"
        reported[side] = node.kind
    eigen_ok = kinds == reported == {"below": "node", "above": "focus"}
    report(
        "1",
        "threshold constants and curve intersection",
        constants_ok and intersection_ok and eigen_ok,
        f"constants {'ok' if constants_ok else 'BAD'}; "
        f"intersection delta={d_star:.6f} vs pinned {d_pin}; "
        f"left folded node below/above: {kinds['below']}/{kinds['above']}",
    )
    assert constants_ok
    assert intersection_ok, (
        f"threshold-curve intersection computed at delta={d_star:.6f} "
        f"(omega={params.eps * d_star:.6f}); pinned {d_pin} +- 5e-4"
    )
    assert eigen_ok, (
        f"on the right existence curve the left folded node at delta={d_pin} "
        f"-/+ 0.1% should be node/focus; eigenvalues give {kinds}, "
        f"folded_equilibria reports {reported}"
    )


def test_criterion_02_burst_reproduction(params):
    t0 = time.time()
    traj = simulate_standard(params, BURST3)
    count = count_spikes(traj, 2)
    region = classify_region(params, BURST3)
    elapsed = time.time() - t0
    ok = count == 3 and region == "II"
    report("2", "three-spike burst at the reference drive", ok,
           f"count={count}, region={region}, {elapsed:.2f}s")
    assert ok


def test_criterion_03_saddle_transition(params):
    t0 = time.time()
    outcomes = {}
    counts = {}
    for omega in (0.02206875, 0.0220625):
        f = Forcing(E=0.482, omega=omega)
        traj = simulate_standard(params, f)
        outcomes[omega] = classify_canard(params, f, traj, "saddle").outcome
        counts[omega] = count_spikes(traj, 2)
    ok = (
        outcomes[0.02206875] == "jump_back"
        and outcomes[0.0220625] == "jump_across"
        and counts[0.0220625] - counts[0.02206875] == 1
    )
    report("3", "saddle-canard spike adding", ok,
           f"{outcomes}, counts={counts}, {time.time() - t0:.2f}s")
    assert ok


def test_criterion_04_node_transition(params):
    t0 = time.time()
    expected = {0.0236: "jump_back", 0.02506875: "jump_back", 0.025075: "jump_across"}
    got = {}
    for omega in expected:
        f = Forcing(E=0.482, omega=omega)
        traj = simulate_standard(params, f)
        got[omega] = classify_canard(params, f, traj, "node").outcome
    ok = got == expected
    report("4", "node-canard spike adding", ok, f"{got}, {time.time() - t0:.2f}s")
    assert ok


def test_criterion_05_series_closed_forms(params):
    t0 = time.time()
    worst = 0.0
    for d in np.linspace(0.2, 0.6, 10):
        th = fold_thresholds(params, d)
        e_hi = min(th.e_2star_left, th.e_star_right)
        for frac in np.linspace(0.15, 0.85, 10):
            f = Forcing(E=th.e_star_left + frac * (e_hi - th.e_star_left),
                        omega=d * params.eps)
            lam_s, lam_u = saddle_eigenvalues(params, f)
            dc = derived_constants(params, f)
            for branch, lam in (("stable", lam_s), ("unstable", lam_u)):
                exp = solve_expansion(branch, params, f)
                worst = max(worst, abs(exp.coeffs[0] - closed_form_a1(lam, d)))
                worst = max(
                    worst,
                    abs(exp.coeffs[1]
                        - closed_form_a2(lam, d, exp.c_const, dc.mu, params.b)),
                )
    ok = worst <= 1e-10
    report("5", "series coefficients match closed forms on a 10x10 grid", ok,
           f"worst |diff|={worst:.2e}, {time.time() - t0:.2f}s")
    assert ok


def test_criterion_06_eigenstructure(params):
    t0 = time.time()
    rng = np.random.default_rng(123)
    n_points = 0
    worst_res = 0.0
    worst_tr = 0.0
    while n_points < 100:
        d = rng.uniform(0.08, 1.1)
        th = fold_thresholds(params, d)
        E = th.e_star_right * rng.uniform(1.02, 1.8)
        f = Forcing(E=E, omega=d * params.eps)
        if classify_region(params, f) not in ("IV", "V", "VI"):
            continue
        n_points += 1
        eqs = folded_equilibria(params, f)
        assert len(eqs) == 4
        for e in eqs:
            J = jac_desingularized(e.u, e.theta, params, f)
            worst_tr = max(worst_tr, abs(np.trace(J) + 1.0))
            for lam, vec in zip(e.eigenvalues, e.eigenvectors):
                v = np.array(vec, dtype=complex)
                worst_res = max(worst_res, float(np.linalg.norm(J @ v - lam * v)))
    ok = worst_res <= 1e-12 and worst_tr <= 1e-12
    report("6", "eigenpair residuals and unit-negative trace at 100 points", ok,
           f"max residual={worst_res:.2e}, max |tr+1|={worst_tr:.2e}, "
           f"{time.time() - t0:.2f}s")
    assert ok


def test_criterion_07_smalldelta_expansion(params):
    deltas = [0.001, 0.002, 0.005]
    diffs = []
    for d in deltas:
        f = Forcing(E=0.6, omega=d * params.eps)
        _, lam2 = saddle_eigenvalues(params, f)
        approx = eigen_smalldelta_expansion(params, 0.6, d)[1]
        diffs.append(abs(lam2 - approx))
    slope = float(np.polyfit(np.log(deltas), np.log(diffs), 1)[0])
    ok = abs(slope - 3.0) <= 0.3
    report("7", "small-delta eigenvalue expansion is cubic-order accurate", ok,
           f"slope={slope:.3f}, diffs={['%.2e' % v for v in diffs]}")
    assert ok


def test_criterion_08_formulation_equivalence(params):
    t0 = time.time()
    T = BURST3.period
    x0, y0 = unforced_equilibrium(params)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=T / 64.0)

    from fhnburst.fastpath import integrate_forced

    planar = integrate_forced(params, BURST3, (x0, y0), (0.0, T), cfg)
    s0 = to_shifted(StateXY(x=x0, y=y0, t=0.0), params, BURST3)
    # the shifted system by SciPy's LSODA, which shares no stage table and
    # no controller with the kernel
    from scipy.integrate import solve_ivp

    shifted = solve_ivp(
        lambda t, w: rhs_autonomous(StateUVTheta(*w), params, BURST3),
        (0.0, T), [s0.u, s0.v, s0.theta], method="LSODA", rtol=1e-11, atol=1e-13,
        jac=lambda t, w: jac_autonomous(StateUVTheta(*w), params, BURST3),
        dense_output=True, max_step=T / 64.0,
    )
    assert shifted.success, shifted.message
    ts = np.linspace(0.0, T, 4001)
    x_planar = planar.sample(ts)[:, 0]
    x_shifted = shifted.sol(ts)[0] - 1.0
    max_diff = float(np.max(np.abs(x_planar - x_shifted)))
    ok = max_diff <= 1e-6
    report("8", "planar and shifted formulations agree", ok,
           f"max |dx|={max_diff:.2e}, {time.time() - t0:.2f}s")
    assert ok


def test_criterion_09_desk_diagram(params, desk_grids):
    grid1, grid4, (seconds1, seconds4) = desk_grids
    csv_equal = grid1.to_csv() == grid4.to_csv()

    boundaries = extract_boundaries(grid1)
    n_cusps = total_cusps(
        boundaries,
        float(grid1.omegas[-1] - grid1.omegas[0]),
        float(grid1.e_values[-1] - grid1.e_values[0]),
    )

    slice_counts = []
    for e_val in (0.40, 0.45, 0.50, 0.55):
        f = Forcing(E=e_val, omega=0.02)
        slice_counts.append(count_spikes(simulate_standard(params, f), 2))
    nondecreasing = all(b >= a for a, b in zip(slice_counts, slice_counts[1:]))

    ok = csv_equal and n_cusps >= 1 and nondecreasing
    report(
        "9", "desk-scale diagram: determinism, cusps, amplitude trend", ok,
        f"csv_equal={csv_equal}, cusps={n_cusps}, counts@omega=0.02={slice_counts}, "
        f"sweep times {seconds1:.0f}s/1w {seconds4:.0f}s/4w",
    )
    assert ok


def test_criterion_10_estimator_proximity(desk_grids):
    grid1 = desk_grids[0]
    counts = grid1.value_array("spike_count")
    est = grid1.value_array("est_count")
    omegas = grid1.omegas
    mask = np.isfinite(counts) & np.isfinite(est) & (omegas[:, None] > 0.008)
    agree = np.abs(est[mask] - counts[mask]) <= 1.0
    frac = float(agree.mean())
    ok = frac >= 0.90
    report("10", "phase-distance estimate within one spike of simulation", ok,
           f"{frac * 100:.1f}% of {int(mask.sum())} cells")
    assert ok


def test_criterion_11_l2_oracles(params):
    t0 = time.time()
    ts = np.linspace(0.0, 2.0 * math.pi, 2001)
    const = Trajectory(np.column_stack([
        ts, np.tile([3.0, 4.0], (len(ts), 1)), np.zeros((len(ts), 2)),
        np.zeros((len(ts), 2)),
    ]))
    exact_five = l2_norm(const, 2.0 * math.pi) == 5.0

    circle = Trajectory(np.column_stack([
        ts, np.sin(ts), np.cos(ts), np.cos(ts), -np.sin(ts), -np.sin(ts), -np.cos(ts),
    ]))
    unit = abs(l2_norm(circle, 2.0 * math.pi) - 1.0) <= 1e-8

    # the exact integral against an independent 40,000-point midpoint rule
    traj = simulate_standard(params, BURST3)
    t0, t1 = traj.t_span
    n = 40000
    s = traj.sample(t0 + (np.arange(n) + 0.5) * ((t1 - t0) / n))
    midpoint = math.sqrt(float(np.mean(s[:, 0] ** 2 + s[:, 1] ** 2)))
    refinement = abs(l2_norm(traj, BURST3.period) - midpoint)
    stable = refinement < 1e-8

    ok = exact_five and unit and stable
    report("11", "L2 norm oracles and quadrature stability", ok,
           f"const5={exact_five}, unit={unit}, midpoint diff={refinement:.1e}, "
           f"{time.time() - t0:.2f}s")
    assert ok


def test_criterion_12_desk_counts_survive_tighter_tolerance(params, desk_grids):
    grid1 = desk_grids[0]
    t0 = time.time()
    tight = run_sweep(replace(grid1.spec, workers=2), params,
                      IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
    seconds = time.time() - t0
    differ = [(a.omega, a.E) for a, b in zip(grid1.cells, tight.cells)
              if (a.status, a.spike_count, a.est_count) != (b.status, b.spike_count, b.est_count)]
    l2_change = max((abs(b.l2 - a.l2) / a.l2 for a, b in zip(grid1.cells, tight.cells)
                     if a.l2 is not None and b.l2 is not None), default=0.0)
    ok = not differ
    report("12", "desk counts survive rel_tol 1e-10, abs_tol 1e-12", ok,
           f"{len(differ)} of {len(grid1.cells)} cells differ {differ[:3]}, "
           f"largest relative l2 change {l2_change:.1e}, {seconds:.2f}s/2w")
    assert ok

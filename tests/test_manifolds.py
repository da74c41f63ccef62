import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhnburst import _kernel_py, fastpath, manifolds
from fhnburst.errors import (
    DomainError, FhnBurstError, NewtonDiverged, NoIntersection, NoSaddle, OutOfValidity,
)
from fhnburst.geometry import classify_region, equilibria_report, fold_thresholds
from fhnburst.manifolds import (
    NEWTON_TOL,
    VALIDITY_HALF_WIDTH,
    ManifoldExpansion,
    _eval_offset,
    b_coefficients,
    closed_form_a1,
    closed_form_a2,
    eval_manifold,
    saddle_eigenvalues,
    solve_expansion,
    theta_at_lower_bound,
)
from fhnburst.model import (
    TWO_PI, Forcing, ModelParams, derived_constants, mu_constant, wrap_angle,
)

import atlas_pin
from kernel_lane import BOUND_PHASE_CASES
from seriestools import direction_field_ratio, series_b_coefficients

RII_DRIVE = atlas_pin.SOLVE_DRIVES["II"]     # delta = 0.25, region II
# atlas master-lattice points: the stable branch of the first substitutes to
# NEWTON_TOL; the unstable branch of the second (a1 = -0.0078, just above the
# saddle-existence threshold) misses it, absolute and relative
POLISHED_DRIVE = atlas_pin.SOLVE_DRIVES["polished"]
DEFECT_DRIVE = atlas_pin.SOLVE_DRIVES["defect"]
# below the atlas box: the stable branch substitutes to an absolute residual
# of 1.4e-12, which the relative tolerance accepts
POLISH_DRIVE = Forcing(E=1.9771186440677968, omega=0.004559322033898305)
# a drive in the atlas box where r_delta**2 and r_delta * r_delta differ by an ulp
ULP_DRIVE = Forcing(E=0.4188679245283019, omega=0.015849056603773587)


def _region_ii_grid(params, n=10):
    """n x n (E, delta) points strictly inside region II."""
    points = []
    for d in np.linspace(0.2, 0.6, n):
        th = fold_thresholds(params, d)
        e_hi = min(th.e_2star_left, th.e_star_right)
        for frac in np.linspace(0.15, 0.85, n):
            E = th.e_star_left + frac * (e_hi - th.e_star_left)
            points.append(Forcing(E=E, omega=d * params.eps))
    return points


class TestBCoefficients:
    def test_first_coefficient_formula(self, params):
        a = (1.7, 0.3, -0.2, 0.05, 0.01)
        delta, r_delta = 0.31, 0.5
        mu = mu_constant(params)
        C = math.sqrt(r_delta**2 - mu**2)
        b0 = b_coefficients(a, delta, r_delta, mu, params.b)[0]
        assert b0 == pytest.approx((a[0] + C) / (2.0 * a[0] * delta), rel=1e-14)

    def test_degenerate_amplitude_case(self, params):
        # C = 0 (r_delta = mu): b0 = 1 and b1 = (1 - 2b + mu)/2 at a = e1
        mu = mu_constant(params)
        b0, b1, *_ = b_coefficients((1.0, 0.0, 0.0, 0.0, 0.0), 0.5, mu, mu, params.b)
        assert b0 == pytest.approx(1.0, abs=1e-15)
        assert b1 == pytest.approx((1.0 - 2.0 * params.b + mu) / 2.0, abs=1e-15)

    def test_b0_depends_only_on_a1(self, params):
        mu = mu_constant(params)
        base = b_coefficients((1.3, 0.0, 0.0, 0.0, 0.0), 0.4, 0.45, mu, params.b)[0]
        perturbed = b_coefficients((1.3, 9.0, -3.0, 2.0, 7.0), 0.4, 0.45, mu, params.b)[0]
        assert perturbed == base

    def test_zero_a1(self, params):
        with pytest.raises(ZeroDivisionError):
            b_coefficients((0.0, 1.0, 0.0, 0.0, 0.0), 0.3, 0.5, 0.2, params.b)

    @given(
        a1=st.floats(0.2, 4.0),
        a2=st.floats(-2.0, 2.0),
        a3=st.floats(-2.0, 2.0),
        a4=st.floats(-2.0, 2.0),
        a5=st.floats(-2.0, 2.0),
        delta=st.floats(0.05, 1.0),
        excess=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_series_oracle(self, a1, a2, a3, a4, a5, delta, excess):
        # closed forms agree with plain truncated power-series division
        params = ModelParams()
        mu = mu_constant(params)
        r_delta = mu + excess
        a = (a1, a2, a3, a4, a5)
        got = b_coefficients(a, delta, r_delta, mu, params.b)
        want = series_b_coefficients(a, delta, r_delta, mu, params.b)
        scale = max(1.0, max(abs(v) for v in want))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * scale


class TestSolveExpansion:
    def test_converges_quickly(self, params):
        exp = solve_expansion("stable", params, RII_DRIVE)
        assert exp.residual <= 1e-12

    @pytest.mark.parametrize("branch", ["stable", "unstable"])
    def test_a1_closed_form(self, params, branch):
        lam_s, lam_u = saddle_eigenvalues(params, RII_DRIVE)
        lam = lam_s if branch == "stable" else lam_u
        exp = solve_expansion(branch, params, RII_DRIVE)
        delta = RII_DRIVE.delta(params)
        assert exp.coeffs[0] == pytest.approx(closed_form_a1(lam, delta), abs=1e-10)

    @pytest.mark.parametrize("branch", ["stable", "unstable"])
    def test_a2_closed_form(self, params, branch):
        lam_s, lam_u = saddle_eigenvalues(params, RII_DRIVE)
        lam = lam_s if branch == "stable" else lam_u
        dc = derived_constants(params, RII_DRIVE)
        exp = solve_expansion(branch, params, RII_DRIVE)
        delta = RII_DRIVE.delta(params)
        want = closed_form_a2(lam, delta, exp.c_const, dc.mu, params.b)
        assert exp.coeffs[1] == pytest.approx(want, abs=1e-10)

    def test_no_saddle_below_threshold(self, params):
        with pytest.raises(NoSaddle):
            solve_expansion("stable", params, Forcing(E=0.1, omega=0.08))

    def test_series_leaving_the_float_range(self, params):
        # at omega 2.25e-36 no power of a1 overflows, but the products of
        # the b_k do, without a signal, and inf - inf leaves NaN coefficients
        with pytest.raises(DomainError, match="leaves the float range"):
            solve_expansion("stable", params, Forcing(E=0.3, omega=2.25e-36))

    def test_bad_branch(self, params):
        with pytest.raises(ValueError):
            solve_expansion("center", params, RII_DRIVE)

    def test_fixed_point_self_consistency(self, params):
        # re-deriving the series coefficients from the solved expansion via
        # the independent oracle reproduces k*a_k
        for branch in ("stable", "unstable"):
            exp = solve_expansion(branch, params, RII_DRIVE)
            dc = derived_constants(params, RII_DRIVE)
            bs = series_b_coefficients(
                exp.coeffs, RII_DRIVE.delta(params), dc.r_delta, dc.mu, params.b
            )
            for k in range(5):
                assert (k + 1.0) * exp.coeffs[k] == pytest.approx(bs[k], abs=1e-10)

    def test_c_const_is_the_solves_amplitude(self, params):
        # c_const is the C that the b_k of the solve were evaluated with
        dc = derived_constants(params, ULP_DRIVE)
        assert dc.r_delta**2 != dc.r_delta * dc.r_delta
        exp = solve_expansion("stable", params, ULP_DRIVE)
        want = math.sqrt(dc.r_delta * dc.r_delta - dc.mu * dc.mu)
        assert exp.c_const == want == 0.2544209008351267

    def test_serialization(self, params):
        exp = solve_expansion("stable", params, RII_DRIVE)
        d = asdict(exp)
        assert d["branch"] == "stable"
        assert len(d["coeffs"]) == 5
        assert d["residual"] <= 1e-12


class TestEvalManifold:
    def test_passes_through_saddle(self, params):
        exp = solve_expansion("stable", params, RII_DRIVE)
        assert eval_manifold(exp, exp.theta_base) == 0.0

    def test_slope_is_a1(self, params):
        exp = solve_expansion("stable", params, RII_DRIVE)
        h = 1e-7
        slope = (
            eval_manifold(exp, exp.theta_base + h)
            - eval_manifold(exp, exp.theta_base - h)
        ) / (2.0 * h)
        assert slope == pytest.approx(exp.coeffs[0], rel=1e-6)

    def test_validity_window(self, params):
        exp = solve_expansion("stable", params, RII_DRIVE)
        with pytest.raises(OutOfValidity):
            eval_manifold(exp, exp.theta_base + 0.6 * math.pi)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta(self, params, theta):
        exp = solve_expansion("stable", params, RII_DRIVE)
        with pytest.raises(DomainError, match="theta"):
            eval_manifold(exp, theta)

    def test_wrapped_window_edges_evaluate(self, params):
        # theta_base -/+ pi/2, wrapped, may recover an offset half an ulp of
        # 2 pi past pi/2; the edges evaluate there, a phase 1e-9 further raises
        rng = np.random.default_rng(7)
        edges = 0
        for _ in range(2000):
            branch = ("stable", "unstable")[rng.integers(2)]
            forcing = Forcing(E=rng.uniform(0.3, 2.4), omega=rng.uniform(0.006, 0.06))
            try:
                exp = solve_expansion(branch, params, forcing)
            except FhnBurstError:
                continue
            for side in (-1.0, 1.0):
                edge = side * VALIDITY_HALF_WIDTH
                theta = wrap_angle(exp.theta_base + edge)
                th_hat = math.remainder(theta - exp.theta_base, TWO_PI)
                assert eval_manifold(exp, theta) == _eval_offset(exp.coeffs, th_hat)
                with pytest.raises(OutOfValidity):
                    eval_manifold(exp, wrap_angle(exp.theta_base + edge + side * 1e-9))
                edges += 1
        assert edges > 3000

    def test_direction_field_residual_order(self, params):
        # truncation residual of the quintic decays like the fifth power
        exp = solve_expansion("stable", params, RII_DRIVE)
        dc = derived_constants(params, RII_DRIVE)
        delta = RII_DRIVE.delta(params)
        a1, a2, a3, a4, a5 = exp.coeffs

        def residual(th):
            u = eval_manifold(exp, exp.theta_base + th)
            du = a1 + 2 * a2 * th + 3 * a3 * th**2 + 4 * a4 * th**3 + 5 * a5 * th**4
            return abs(
                du - direction_field_ratio(th, u, delta, dc.r_delta, dc.mu, params.b)
            )

        r_20, r_10, r_05 = residual(0.2), residual(0.1), residual(0.05)
        assert 8.0 < r_20 / r_10 < 130.0
        assert 8.0 < r_10 / r_05 < 130.0
        # and the residual is tiny near the saddle
        assert residual(0.01) < 1e-9


class TestLowerBoundIntersection:
    def test_linear_case(self, params):
        exp = ManifoldExpansion(
            branch="stable", theta_base=2.0, coeffs=(2.0, 0.0, 0.0, 0.0, 0.0),
            c_const=0.0, residual=0.0,
        )
        theta = theta_at_lower_bound(exp)
        assert theta == pytest.approx(2.0 - 0.5, abs=1e-12)

    def test_precedes_saddle(self, params):
        exp = solve_expansion("stable", params, RII_DRIVE)
        theta = theta_at_lower_bound(exp)
        assert theta < exp.theta_base

    def test_root_residual(self, params):
        exp = solve_expansion("stable", params, RII_DRIVE)
        theta = theta_at_lower_bound(exp)
        assert eval_manifold(exp, theta) == pytest.approx(-1.0, abs=1e-12)

    def test_no_intersection(self):
        flat = ManifoldExpansion(
            branch="stable", theta_base=1.0, coeffs=(0.1, 0.0, 0.0, 0.0, 0.0),
            c_const=0.0, residual=0.0,
        )
        with pytest.raises(NoIntersection):
            theta_at_lower_bound(flat)

    def test_wrong_branch(self, params):
        exp = solve_expansion("unstable", params, RII_DRIVE)
        with pytest.raises(ValueError):
            theta_at_lower_bound(exp)


def _scalar_theta_at_lower_bound(expansion, u_target=-1.0):
    """The scalar scan `theta_at_lower_bound` replaced: one Horner call per
    scan point, stopping at the first sign change, then halving the bracket
    until no double lies strictly inside it."""
    if expansion.branch != "stable":
        raise ValueError("the lower-bound intersection is defined for the stable branch")
    coeffs = expansion.coeffs
    n_scan = 4001
    prev_th = 0.0
    prev_g = -u_target
    bracket = None
    for i in range(1, n_scan + 1):
        th = -VALIDITY_HALF_WIDTH * i / n_scan
        g = _eval_offset(coeffs, th) - u_target
        if (g <= 0.0) != (prev_g <= 0.0):
            bracket = (th, prev_th)
            break
        prev_th, prev_g = th, g
    if bracket is None:
        raise NoIntersection("no sign change")
    lo, hi = bracket
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return wrap_angle(expansion.theta_base + mid)
        if _eval_offset(coeffs, mid) - u_target <= 0.0:
            lo = mid
        else:
            hi = mid


def _outcome(fn, expansion):
    try:
        return fn(expansion)
    except FhnBurstError as exc:
        return type(exc)


class TestLowerBoundScanMatchesScalar:
    def test_lattice_regions_ii_to_vi(self, params):
        regions, deep, outcomes = set(), 0, []
        for omega in np.linspace(0.004, 0.076, 10):
            for E in np.linspace(0.2, 1.6, 12):
                forcing = Forcing(E=float(E), omega=float(omega))
                try:
                    exp = solve_expansion("stable", params, forcing)
                except FhnBurstError:
                    continue
                regions.add(classify_region(params, forcing))
                got = _outcome(theta_at_lower_bound, exp)
                assert got == _outcome(_scalar_theta_at_lower_bound, exp), forcing
                outcomes.append(got)
                if isinstance(got, float):
                    offset = math.remainder(got - exp.theta_base, TWO_PI)
                    deep += offset < -VALIDITY_HALF_WIDTH * 1000 / 4001
        assert {"II", "III", "IV", "V", "VI"} <= regions
        assert NoIntersection in outcomes
        # some brackets lie past scan index 1,000
        assert deep > 0

    @pytest.mark.parametrize("coeffs, root", [
        ((1.0e4, 3.0e3, 0.0, 0.0, 0.0), -1.0e-4),      # past the bound at the first scan point
        ((4.0, 3.0, 0.0, 0.0, 0.0), -1.0 / 3.0),       # two crossings: the one nearer the saddle
        ((0.1, 0.0, 0.0, 0.0, 0.0), NoIntersection),   # never reaches the bound
    ], ids=["first-scan-point", "two-crossings", "no-crossing"])
    def test_synthetic_expansions(self, coeffs, root):
        exp = ManifoldExpansion(
            branch="stable", theta_base=0.3, coeffs=coeffs, c_const=0.0, residual=0.0,
        )
        got = _outcome(theta_at_lower_bound, exp)
        assert got == _outcome(_scalar_theta_at_lower_bound, exp)
        if root is NoIntersection:
            assert got is NoIntersection
        else:
            offset = math.remainder(got - exp.theta_base, TWO_PI)
            assert offset == pytest.approx(root, rel=1e-3)


def _twin_bound_phase(coeffs, bound=manifolds.LOWER_BOUND_U, offsets=None):
    """`_kernel_py.bound_phase` on the module's scan grid (by default); like
    C, it is silent on inf - inf and on an overflow (a warning fails)."""
    return _kernel_py.bound_phase(
        coeffs, bound, manifolds._SCAN_OFFSETS if offsets is None else offsets)


def _random_coefficients(rng, n):
    """n coefficient 5-tuples: normal values over six decades, with a5 = 0,
    NaN, +-inf or -0.0 put in at random places."""
    special = [0.0, -0.0, math.nan, math.inf, -math.inf]
    cases = []
    for _ in range(n):
        coeffs = rng.normal(size=5) * 10.0 ** rng.integers(-2, 4, size=5)
        kind = rng.integers(4)
        if kind == 1:
            coeffs[4] = 0.0
        elif kind == 2:
            coeffs[rng.integers(5)] = special[rng.integers(len(special))]
        cases.append(tuple(coeffs.tolist()))
    return cases


class TestBoundPhaseBackends:
    """`fhn_bound_phase` of the C library from `kernel_library` (built when
    it is not loaded, so these never compare the twin with itself) against
    its twin `_kernel_py.bound_phase`, with ==."""

    def test_random_coefficients(self, c_library):
        grid = manifolds._SCAN_OFFSETS
        linear, first, flat, nan = BOUND_PHASE_CASES[:4]
        seen = {"root": 0, "first": 0, "none": 0}
        for coeffs in BOUND_PHASE_CASES + _random_coefficients(np.random.default_rng(25), 3000):
            for bound in (manifolds.LOWER_BOUND_U, -0.25, -40.0):
                got = c_library.bound_phase(coeffs, bound, grid)
                assert got == _twin_bound_phase(coeffs, bound), (coeffs, bound)
                if got is None:
                    seen["none"] += 1
                else:
                    seen["first" if got >= grid[0] else "root"] += 1
        assert c_library.bound_phase(linear, -1.0, grid) == -0.5
        assert c_library.bound_phase(first, -1.0, grid) >= grid[0]
        assert c_library.bound_phase(flat, -1.0, grid) is None
        assert c_library.bound_phase(nan, -1.0, grid) is None
        assert min(seen.values()) > 50, seen

    def test_bound_touched_at_an_offset(self, c_library):
        # u = th + a2 th^2 has its minimum at offset 100 and the bound is u
        # there, to the bit: g = 0 ends the scan at that offset, and no
        # later offset lies below the bound
        grid = manifolds._SCAN_OFFSETS
        th = float(grid[100])
        coeffs = (1.0, -0.5 / th, 0.0, 0.0, 0.0)
        bound = _eval_offset(coeffs, th)
        got = c_library.bound_phase(coeffs, bound, grid)
        assert got == _twin_bound_phase(coeffs, bound)
        assert grid[100] <= got < grid[99]

    def test_other_grids(self, c_library):
        # a grid's address is kept until another grid comes: a view, a
        # strided slice and a short copy each get their own results, and an
        # empty grid gives no intersection
        grid = manifolds._SCAN_OFFSETS
        coeffs = BOUND_PHASE_CASES[-1]
        for offsets in (grid, grid[::3], grid[:100].copy(), grid[:917], grid, grid[::-1][:5],
                        grid[:0]):
            got = c_library.bound_phase(coeffs, manifolds.LOWER_BOUND_U, offsets)
            assert got == _twin_bound_phase(coeffs, offsets=offsets), offsets.size

    @given(omega=st.floats(0.004, 0.08), E=st.floats(0.15, 2.6))
    @example(omega=0.076, E=0.2)                  # no intersection
    @example(omega=POLISHED_DRIVE.omega, E=POLISHED_DRIVE.E)
    @settings(max_examples=300, deadline=None)
    def test_stable_solves(self, c_library, omega, E):
        # the bound phase of a stable solve is the same on both backends, and
        # so is theta_at_lower_bound, its result or its error
        try:
            exp = solve_expansion("stable", ModelParams(), Forcing(E=E, omega=omega))
        except FhnBurstError:
            return
        got = c_library.bound_phase(exp.coeffs, manifolds.LOWER_BOUND_U,
                                    manifolds._SCAN_OFFSETS)
        assert got == _twin_bound_phase(exp.coeffs)
        outcomes = []
        for backend in (c_library, _kernel_py):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fastpath, "_IMPL", backend)
                outcomes.append(_outcome(theta_at_lower_bound, exp))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is NoIntersection) == (got is None)


def _substitution_parts(branch, params, forcing):
    """(a1, q, bs) of one branch: its closed-form a1, the divisor term
    q = C/(2 a1^2 delta) and b_coefficients on its drive constants."""
    dc = derived_constants(params, forcing)
    delta = forcing.delta(params)
    lam_s, lam_u = saddle_eigenvalues(params, forcing)
    a1 = closed_form_a1(lam_s if branch == "stable" else lam_u, delta)
    q = manifolds._amplitude_const(dc.r_delta, dc.mu) / (2.0 * a1**2 * delta)

    def bs(a):
        return b_coefficients(a, delta, dc.r_delta, dc.mu, params.b)

    return a1, q, bs


def _full_b_substitution(branch, params, forcing):
    """Forward substitution that evaluates all five b's at a_k = 0 and
    divides b_(k-1) by k + q: the coefficients, their worst residual, and
    whether every equation k holds to NEWTON_TOL max(1, (k + q)|a_k|)."""
    a1, q, bs = _substitution_parts(branch, params, forcing)
    a = np.array([a1, 0.0, 0.0, 0.0, 0.0])
    for k in range(2, 6):
        a[k - 1] = bs(a)[k - 1] / (k + q)
    b_all = bs(a)
    res = np.abs([k * a[k - 1] - b_all[k - 1] for k in range(1, 6)])
    holds = all(res[k - 1] <= NEWTON_TOL * max(1.0, (k + q) * abs(a[k - 1]))
                for k in range(1, 6))
    return tuple(float(v) for v in a), float(np.max(res)), holds


def _spoil_b(monkeypatch, k, spoil):
    """Make the module-global b_coefficients, which the residual check
    reads, return spoil(b_(k-1)) for its b_(k-1)."""
    original = manifolds.b_coefficients

    def spoiled(*args):
        bs = list(original(*args))
        bs[k - 1] = spoil(bs[k - 1])
        return tuple(bs)

    monkeypatch.setattr(manifolds, "b_coefficients", spoiled)


class TestForwardSubstitution:
    @given(
        omega=st.floats(0.006, 0.06),
        E=st.floats(0.15, 2.4),
        branch=st.sampled_from(["stable", "unstable"]),
    )
    @example(omega=POLISHED_DRIVE.omega, E=POLISHED_DRIVE.E, branch="stable")
    @example(omega=DEFECT_DRIVE.omega, E=DEFECT_DRIVE.E, branch="unstable")
    @example(omega=0.06, E=0.15, branch="stable")
    @settings(max_examples=150, deadline=None)
    def test_per_equation_substitution_keeps_every_bit(self, omega, E, branch):
        # the atlas box, both branches: the solve's substitution gives the
        # full-b substitution's coefficients and worst residual with ==, and
        # where they miss the tolerance rule (or raise) the solve raises the
        # same; the rule is written here in its scaled form alone
        params = ModelParams()
        forcing = Forcing(E=E, omega=omega)
        try:
            coeffs, residual, holds = _full_b_substitution(branch, params, forcing)
        except Exception as exc:
            with pytest.raises(type(exc)):
                solve_expansion(branch, params, forcing)
            return
        if not holds:
            with pytest.raises(NewtonDiverged):
                solve_expansion(branch, params, forcing)
            return
        exp = solve_expansion(branch, params, forcing)
        assert exp.coeffs == coeffs
        assert exp.residual == residual

    @given(
        omega=st.floats(0.006, 0.06),
        E=st.floats(0.15, 2.4),
        branch=st.sampled_from(["stable", "unstable"]),
    )
    @example(omega=POLISHED_DRIVE.omega, E=POLISHED_DRIVE.E, branch="stable")
    @example(omega=DEFECT_DRIVE.omega, E=DEFECT_DRIVE.E, branch="unstable")
    @settings(max_examples=150, deadline=None)
    def test_each_equation_has_the_closed_form_divisor(self, omega, E, branch):
        # b_(k-1) is affine in a_k with slope -q in each of the four
        # equations the solve divides by k + q: an edit to one b polynomial
        # that breaks the shared divisor fails here
        params = ModelParams()
        forcing = Forcing(E=E, omega=omega)
        try:
            _, q, bs = _substitution_parts(branch, params, forcing)
        except NoSaddle:
            return
        a = list(_full_b_substitution(branch, params, forcing)[0])
        for k in range(2, 6):
            a[k - 1] = 0.0
            at_0 = bs(a)[k - 1]
            a[k - 1] = 1.0
            slope = bs(a)[k - 1] - at_0
            assert abs(slope + q) <= 1e-9 * q, (k, slope, q)

    def test_substitution_alone_on_region_ii_grid(self, params):
        for f in _region_ii_grid(params, 10):
            for branch in ("stable", "unstable"):
                assert solve_expansion(branch, params, f).residual <= 1e-12

    def test_relative_tolerance_accepts_rounding_at_small_omega(self, params):
        # POLISH_DRIVE's stable branch passes with the substitution's own
        # coefficients, though its absolute residual is above NEWTON_TOL
        coeffs, residual, _ = _full_b_substitution("stable", params, POLISH_DRIVE)
        exp = solve_expansion("stable", params, POLISH_DRIVE)
        assert exp.coeffs == coeffs
        assert exp.residual == residual > NEWTON_TOL

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("factor", [1e3, 1e-3])
    def test_relative_tolerance_is_not_vacuous(self, params, monkeypatch, k, factor):
        # at POLISH_DRIVE, b_(k-1) moved by 1e3 times equation k's tolerance
        # NEWTON_TOL max(1, (k + q)|a_k|) fails the check, by 1e-3 times passes
        a = solve_expansion("stable", params, POLISH_DRIVE).coeffs
        q = _substitution_parts("stable", params, POLISH_DRIVE)[1]
        tol = NEWTON_TOL * max(1.0, (k + q) * abs(a[k - 1]))
        _spoil_b(monkeypatch, k, lambda b: b + factor * tol)
        if factor > 1.0:
            with pytest.raises(NewtonDiverged):
                solve_expansion("stable", params, POLISH_DRIVE)
        else:
            assert solve_expansion("stable", params, POLISH_DRIVE).coeffs == a

    def test_low_omega_lattice_passes_with_one_b_call(self, params, monkeypatch):
        # every stable saddle solve of a 20 x 20 lattice below the atlas box
        # passes, and each solve, the defect's too, makes one call of the
        # module-global b_coefficients, which perfbench counts
        calls = []
        original = manifolds.b_coefficients

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(manifolds, "b_coefficients", counted)
        solved = 0
        for omega in np.linspace(0.001, 0.006, 20):
            for E in np.linspace(0.15, 2.6, 20):
                try:
                    solve_expansion("stable", params, Forcing(E=float(E), omega=float(omega)))
                except NoSaddle:
                    continue
                solved += 1
                assert len(calls) == solved, (omega, E)
        assert solved == 360
        with pytest.raises(NewtonDiverged):
            solve_expansion("unstable", params, DEFECT_DRIVE)
        assert len(calls) == 361

    def test_known_defect_still_diverges(self, params):
        # perfbench/reference/atlas.npz records this NewtonDiverged: change
        # this test only together with that file
        with pytest.raises(NewtonDiverged):
            solve_expansion("unstable", params, DEFECT_DRIVE)

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("spoil, error", [
        (lambda b: math.nan, DomainError),
        (lambda b: b + 1e-6, NewtonDiverged),
    ], ids=["nan", "perturbed"])
    def test_float_residual_check_rejects_a_spoiled_coefficient(
        self, params, monkeypatch, spoil, error, k
    ):
        # the residual check reads the module-global b_coefficients; with one
        # of its coefficients spoiled, the solve must not pass, and a
        # non-finite one is a series that left the float range
        _spoil_b(monkeypatch, k + 1, spoil)
        with pytest.raises(error):
            solve_expansion("stable", params, RII_DRIVE)


# Exact solves and equilibria_report at atlas_pin.SOLVE_DRIVES, by region or
# case; `PYTHONPATH=src python3 tests/atlas_pin.py` regenerates both files.
# Regenerate them only when a change means to alter these values.
SOLVES_PIN = json.loads(atlas_pin.SOLVES_PATH.read_text())
EQUILIBRIA_PIN = json.loads(atlas_pin.EQUILIBRIA_PATH.read_text())


class TestPinnedSolves:
    @pytest.mark.parametrize("case", atlas_pin.SOLVE_DRIVES)
    def test_exact_values(self, params, case):
        forcing = atlas_pin.SOLVE_DRIVES[case]
        if case in {"II", "III", "IV", "V", "VI"}:
            assert classify_region(params, forcing) == case
        assert atlas_pin.solves_entry(params, forcing) == SOLVES_PIN[case]

    @pytest.mark.parametrize("case", atlas_pin.SOLVE_DRIVES)
    def test_equilibria_report(self, params, case):
        forcing = atlas_pin.SOLVE_DRIVES[case]
        assert equilibria_report(params, forcing) == EQUILIBRIA_PIN[case]


class TestRegionTwoGrid:
    def test_closed_forms_across_grid(self, params):
        # both branches on a 10 x 10 region-II grid
        delta_of = lambda f: f.delta(params)
        for f in _region_ii_grid(params, 10):
            lam_s, lam_u = saddle_eigenvalues(params, f)
            dc = derived_constants(params, f)
            for branch, lam in (("stable", lam_s), ("unstable", lam_u)):
                exp = solve_expansion(branch, params, f)
                d = delta_of(f)
                assert abs(exp.coeffs[0] - closed_form_a1(lam, d)) <= 1e-10
                assert abs(
                    exp.coeffs[1] - closed_form_a2(lam, d, exp.c_const, dc.mu, params.b)
                ) <= 1e-10

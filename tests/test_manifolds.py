import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhnburst import _kernel_py, fastpath, manifolds
from fhnburst.errors import (
    FhnBurstError, NewtonDiverged, NoIntersection, NoSaddle, OutOfValidity,
)
from fhnburst.geometry import classify_region, fold_thresholds
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

from kernel_lane import BOUND_PHASE_CASES
from seriestools import direction_field_ratio, series_b_coefficients

RII_DRIVE = Forcing(E=0.482, omega=0.02)    # delta = 0.25, region II
# atlas master-lattice points: forward substitution leaves a residual of
# 2.4e-12 on the stable branch of the first, which one Newton step polishes;
# on the unstable branch of the second (a1 = -0.0078, just above the
# saddle-existence threshold) no iteration reaches NEWTON_TOL
POLISHED_DRIVE = Forcing(E=0.30566037735849055, omega=0.006)
DEFECT_DRIVE = Forcing(E=0.27735849056603773, omega=0.02094339622641509)
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
    def test_converges_quickly(self, params, monkeypatch):
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 20)
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
    """`_kernel_py.bound_phase` on the module's scan grid (by default); numpy
    warns where C is silent (inf - inf, an overflow), so warnings are off."""
    with np.errstate(all="ignore"):
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
        # strided slice and a short copy each get their own results
        grid = manifolds._SCAN_OFFSETS
        coeffs = BOUND_PHASE_CASES[-1]
        for offsets in (grid, grid[::3], grid[:100].copy(), grid[:917], grid, grid[::-1][:5]):
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


def _full_b_substitution(branch, params, forcing):
    """Forward substitution that evaluates all five b's at a_k = 0 and at
    a_k = 1 and keeps b_(k-1): the coefficients and their worst residual."""
    dc = derived_constants(params, forcing)
    delta = forcing.delta(params)
    lam_s, lam_u = saddle_eigenvalues(params, forcing)
    lam = lam_s if branch == "stable" else lam_u

    def bs(a):
        return b_coefficients(a, delta, dc.r_delta, dc.mu, params.b)

    a = np.array([closed_form_a1(lam, delta), 0.0, 0.0, 0.0, 0.0])
    for k in range(2, 6):
        p = bs(a)[k - 1]
        a[k - 1] = 1.0
        q = bs(a)[k - 1] - p
        a[k - 1] = p / (k - q)
    b_all = bs(a)
    res = np.array([(k + 1.0) * a[k] - b_all[k] for k in range(5)])
    return tuple(float(v) for v in a), float(np.max(np.abs(res)))


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
        # full-b substitution's coefficients with ==, and where that alone
        # misses NEWTON_TOL (or raises) the unpolished solve raises the same
        # (a function-scoped monkeypatch fixture trips hypothesis's health check)
        params = ModelParams()
        forcing = Forcing(E=E, omega=omega)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(manifolds, "NEWTON_MAX_ITER", 0)
            try:
                coeffs, residual = _full_b_substitution(branch, params, forcing)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    solve_expansion(branch, params, forcing)
                return
            if residual > NEWTON_TOL:
                with pytest.raises(NewtonDiverged):
                    solve_expansion(branch, params, forcing)
                return
            exp = solve_expansion(branch, params, forcing)
        assert exp.coeffs == coeffs
        assert exp.residual == residual

    def test_substitution_alone_on_region_ii_grid(self, params, monkeypatch):
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 0)
        for f in _region_ii_grid(params, 10):
            for branch in ("stable", "unstable"):
                assert solve_expansion(branch, params, f).residual <= 1e-12

    def test_polish_needed_at_small_omega(self, params):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(manifolds, "NEWTON_MAX_ITER", 0)
            with pytest.raises(NewtonDiverged):
                solve_expansion("stable", params, POLISHED_DRIVE)
        assert solve_expansion("stable", params, POLISHED_DRIVE).residual <= 1e-12

    def test_known_defect_still_diverges(self, params):
        # perfbench/reference/atlas.npz records this NewtonDiverged: change
        # this test only together with that file
        with pytest.raises(NewtonDiverged):
            solve_expansion("unstable", params, DEFECT_DRIVE)

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("spoil", [
        lambda b: math.nan,
        lambda b: b + 1e-6,
    ], ids=["nan", "perturbed"])
    def test_float_residual_check_rejects_a_spoiled_coefficient(
        self, params, monkeypatch, spoil, k
    ):
        # the residual check reads the module-global b_coefficients; with one
        # of its coefficients spoiled, the unpolished solve must not pass
        original = manifolds.b_coefficients

        def spoiled(*args):
            bs = list(original(*args))
            bs[k] = spoil(bs[k])
            return tuple(bs)

        monkeypatch.setattr(manifolds, "b_coefficients", spoiled)
        monkeypatch.setattr(manifolds, "NEWTON_MAX_ITER", 0)
        with pytest.raises(NewtonDiverged):
            solve_expansion("stable", params, RII_DRIVE)


def _solve_outcome(branch, params, forcing):
    """(coeffs, residual, theta_base) of one branch solve, its bound phase
    on the stable branch, or an error's (type name, message)."""
    try:
        exp = solve_expansion(branch, params, forcing)
    except FhnBurstError as exc:
        return type(exc).__name__, str(exc)
    if branch == "unstable":
        return exp.coeffs, exp.residual, exp.theta_base
    try:
        phase = theta_at_lower_bound(exp)
    except FhnBurstError as exc:
        phase = type(exc).__name__, str(exc)
    return exp.coeffs, exp.residual, exp.theta_base, phase


# Exact solves, by region or case: the drive, the stable branch's
# (coeffs, residual, theta_base, bound phase) and the unstable branch's
# (coeffs, residual, theta_base), or an error's (type name, message).
PINNED_SOLVES = {
    "II": (RII_DRIVE, (
        (2.2882488966939025, -0.4427093610466513, 0.6282355523681519,
         0.2217329337587688, 0.36108285462412426),
        2.220446049250313e-16, 2.2229557508013302, 1.831289058731091,
    ), (
        (-0.2882488966939025, -0.03086434197692304, 0.05017684818194427,
         -0.01124325775984577, 0.0009320337594346746),
        2.220446049250313e-16, 2.2229557508013302,
    )),
    "III": (Forcing(E=0.9, omega=0.02), (
        (2.5603478486541107, -0.32797644751340277, 0.8353409929208083,
         0.48813668488897355, 0.7719180282689297),
        4.440892098500626e-16, 2.5242275750494683, 2.1641220264921843,
    ), (
        (-0.5603478486541107, 0.0969893266030977, 0.027572194957739497,
         -0.012238255747804842, 0.0052020353497034665),
        4.440892098500626e-16, 2.5242275750494683,
    )),
    "IV": (Forcing(E=2.0, omega=0.004), (
        (11.392222070962003, -12.319246816782057, 75.4698474589151,
         121.30384765334725, 1004.9586516898457),
        5.684341886080802e-14, 2.9331056465447127, 2.8549534069706737,
    ), (
        (-1.3922220709620037, 1.1066671918537305, -1.0696201910732084,
         1.184368798489853, -1.2020394662166947),
        5.329070518200751e-15, 2.9331056465447127,
    )),
    "V": (Forcing(E=1.5, omega=0.01), (
        (4.961037762905999, -1.5842091424516762, 6.106063685808633,
         6.1757315336433285, 19.30961339441177),
        1.4210854715202004e-13, 2.793280651154216, 2.6095253320925433,
    ), (
        (-0.9610377629059994, 0.4260625717858336, -0.16612512758071518,
         0.09632436321417213, -0.0470262202554673),
        3.3306690738754696e-16, 2.793280651154216,
    )),
    "VI": (Forcing(E=2.0, omega=0.03), (
        (2.3339678455015602, 0.12384505147558121, 0.6039670613526029,
         0.5440611978710437, 0.7213966879491293),
        8.881784197001252e-16, 2.5708232267121875, 2.149090506338035,
    ), (
        (-1.0006345121682267, 0.326030060465297, -0.07323911926934734,
         0.041715062489992426, -0.023633359243739223),
        2.220446049250313e-16, 2.5708232267121875,
    )),
    "polished": (POLISHED_DRIVE, (
        (6.742454812817774, -6.520381660703288, 16.544384620277235,
         5.129539250271662, 52.08104781391304),
        3.410605131648481e-13, 1.7947127379302663, 1.667250655562099,
    ), (
        (-0.0757881461511086, -0.10834391068561115, 0.028443728020245793,
         0.013363167097899838, -0.007116434080948554),
        3.1377678233468487e-14, 1.7947127379302663,
    )),
    "defect": (DEFECT_DRIVE, (
        (1.9177244977762173, -0.48656860169334626, 0.4146154982639133,
         0.05360080028716115, 0.11688551732304918),
        2.220446049250313e-16, 1.2881547044226274, 0.8378664103099013,
    ), ("NewtonDiverged", "no convergence in 100 iterations (residual 5.206e-12)")),
    "no-intersection": (Forcing(E=0.2, omega=0.076), (
        (0.6009202654996486, 0.01398958390477232, 0.013644839882206466,
         0.0006780916317250983, 0.0009106086270421333),
        8.673617379884035e-19, 1.0499164432727617,
        ("NoIntersection",
         "stable branch does not reach the lower bound inside the validity window"),
    ), (
        (-0.0746044760259643, -0.07845632872270315, 0.03109284111744584,
         -0.006162953060656371, 0.003465435988914431),
        1.214306433183765e-16, 1.0499164432727617,
    )),
    "no-saddle": (Forcing(E=0.2, omega=0.02),
                  ("NoSaddle", "no folded saddle: E=0.2 <= existence threshold 0.27839"),
                  ("NoSaddle", "no folded saddle: E=0.2 <= existence threshold 0.27839")),
}


class TestPinnedSolves:
    @pytest.mark.parametrize("case", PINNED_SOLVES)
    def test_exact_values(self, params, case):
        forcing, stable, unstable = PINNED_SOLVES[case]
        if case in {"II", "III", "IV", "V", "VI"}:
            assert classify_region(params, forcing) == case
        assert _solve_outcome("stable", params, forcing) == stable
        assert _solve_outcome("unstable", params, forcing) == unstable


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

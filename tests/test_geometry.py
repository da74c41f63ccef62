import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fhnburst.errors import DomainError, SaddleNodeBoundary
from fhnburst.geometry import (
    REGIONS,
    classify_manifold_point,
    classify_region,
    delayed_hopf_points,
    eigen_expansion_lambda,
    eigen_smalldelta_expansion,
    equilibria_report,
    equilibrium_to_dict,
    fold_thresholds,
    fold_thresholds_limit,
    folded_equilibria,
    supercritical_manifold_point,
    threshold_intersection_delta,
)
from fhnburst.model import (
    Forcing,
    ModelParams,
    TWO_PI,
    cubic_F,
    cubic_G,
    jac_desingularized,
    jac_slow_layer,
    mu_constant,
    rhs_desingularized,
    unforced_equilibrium,
)

BURST3 = Forcing(E=0.55, omega=0.0149354)


class TestManifoldClassification:
    @pytest.mark.parametrize(
        "u,label",
        [(-0.5, "attracting_minus"), (1.0, "repelling"), (2.0, "fold_plus"),
         (0.0, "fold_minus"), (3.0, "attracting_plus"), (1e-13, "fold_minus")],
    )
    def test_labels(self, u, label):
        assert classify_manifold_point(u) == label

    def test_non_finite(self):
        with pytest.raises(ValueError):
            classify_manifold_point(float("nan"))


class TestThresholds:
    def test_reference_constants(self, params):
        lim_l, lim_r = fold_thresholds_limit(params)
        assert lim_l == pytest.approx(0.2917, abs=5e-4)
        assert lim_r == pytest.approx(1.4583, abs=5e-4)
        assert lim_l == pytest.approx(params.a + 2.0 / 3.0 - 1.0 / params.b, abs=1e-12)
        th1 = fold_thresholds(params, 1.0)
        assert th1.e_star_left == pytest.approx(0.1822, abs=5e-4)
        assert th1.e_2star_left == pytest.approx(0.2067, abs=5e-4)
        assert th1.e_star_right == pytest.approx(0.9110, abs=5e-4)
        assert th1.e_2star_right == pytest.approx(0.9162, abs=5e-4)

    def test_monotone_in_delta(self, params):
        deltas = [1.0, 0.5, 0.25, 0.1, 0.05]
        values = [fold_thresholds(params, d).e_star_left for d in deltas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_ordering(self, params):
        for d in (0.05, 0.2, 0.7, 1.0):
            th = fold_thresholds(params, d)
            assert 0.0 < th.e_star_left < th.e_star_right
            assert th.e_star_left < th.e_2star_left
            assert th.e_star_right < th.e_2star_right

    def test_intersection_solves_equality(self, params):
        # at the returned delta the node-to-focus curve meets the right
        # existence curve; both sides evaluated independently
        d_star = threshold_intersection_delta(params)
        th = fold_thresholds(params, d_star)
        assert th.e_2star_left == pytest.approx(th.e_star_right, abs=1e-12)
        # and strictly ordered on either side
        below = fold_thresholds(params, d_star * 0.9)
        above = fold_thresholds(params, d_star * 1.1)
        assert below.e_2star_left > below.e_star_right
        assert above.e_2star_left < above.e_star_right

    def test_bad_delta(self, params):
        with pytest.raises(ValueError):
            fold_thresholds(params, 0.0)

    def test_underflowing_delta(self, params):
        # 64 delta^2 is zero below delta ~ 2e-163; just above, bump is inf
        for delta in (5e-324 / params.eps, 1e-300, 1.9e-163):
            with pytest.raises(DomainError, match="underflows to zero"):
                fold_thresholds(params, delta)
            with pytest.raises(DomainError, match="underflows to zero"):
                classify_region(params, Forcing(E=0.5, omega=delta * params.eps))
        assert fold_thresholds(params, 2e-163).e_2star_left == math.inf


def _region_iv_vi_points(params, n, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        d = rng.uniform(0.08, 1.1)
        th = fold_thresholds(params, d)
        E = th.e_star_right * rng.uniform(1.02, 1.8)
        f = Forcing(E=E, omega=d * params.eps)
        if classify_region(params, f) in ("IV", "V", "VI"):
            out.append(f)
    return out


class TestFoldedEquilibria:
    def test_region_one_empty(self, params):
        assert folded_equilibria(params, Forcing(E=0.1, omega=0.08)) == []

    def test_three_spike_drive_pair(self, params):
        eqs = folded_equilibria(params, BURST3)
        assert len(eqs) == 2
        kinds = sorted(e.kind for e in eqs)
        assert kinds == ["node", "saddle"]
        for e in eqs:
            assert e.side == "left"
            assert e.u == 0.0 and e.v == 0.0
            assert 0.0 <= e.theta < TWO_PI

    def test_rhs_zero_at_equilibria(self, params):
        for f in (BURST3, Forcing(E=0.482, omega=0.02), Forcing(E=1.3, omega=0.05)):
            for e in folded_equilibria(params, f):
                du, dth = rhs_desingularized(e.u, e.theta, params, f)
                assert abs(du) < 1e-12 and abs(dth) < 1e-12

    def test_trace_minus_one(self, params):
        for f in _region_iv_vi_points(params, 10):
            for e in folded_equilibria(params, f):
                J = jac_desingularized(e.u, e.theta, params, f)
                assert np.trace(J) == pytest.approx(-1.0, abs=1e-12)

    def test_eigen_residuals(self, params):
        for f in _region_iv_vi_points(params, 10):
            eqs = folded_equilibria(params, f)
            assert len(eqs) == 4
            for e in eqs:
                J = jac_desingularized(e.u, e.theta, params, f)
                for lam, vec in zip(e.eigenvalues, e.eigenvectors):
                    v = np.array(vec, dtype=complex)
                    res = np.linalg.norm(J @ v - lam * v)
                    assert res <= 1e-12

    def test_theta_ranges(self, params):
        # angular windows of the four equilibria
        for f in _region_iv_vi_points(params, 12, seed=11):
            for e in folded_equilibria(params, f):
                th = e.theta
                if e.side == "left" and e.kind == "saddle":
                    assert 0.0 < th < math.pi
                elif e.side == "left":
                    assert th < math.pi / 2.0 or th > 1.5 * math.pi
                elif e.side == "right" and e.kind == "saddle":
                    assert th < math.pi / 2.0 or th > 1.5 * math.pi
                else:
                    assert 0.0 < th < math.pi

    def test_kind_matches_discriminant(self, params):
        for f in _region_iv_vi_points(params, 10, seed=3):
            for e in folded_equilibria(params, f):
                J = jac_desingularized(e.u, e.theta, params, f)
                det = float(np.linalg.det(J))
                disc = 1.0 - 4.0 * det
                if e.kind == "saddle":
                    assert det < 0.0
                    lam1, lam2 = e.eigenvalues
                    assert (lam1 * lam2).real < 0.0
                elif e.kind == "node":
                    assert det > 0.0 and disc > 0.0
                    assert all(l.imag == 0.0 and l.real < 0.0 for l in e.eigenvalues)
                else:
                    assert det > 0.0 and disc < 0.0
                    assert all(l.real == pytest.approx(-0.5) for l in e.eigenvalues)

    def test_saddle_node_boundary(self, params):
        th = fold_thresholds(params, 0.25)
        with pytest.raises(SaddleNodeBoundary):
            folded_equilibria(params, Forcing(E=th.e_star_left, omega=0.25 * params.eps))


class TestRegions:
    def test_three_spike_drive_region(self, params):
        assert classify_region(params, BURST3) == "II"

    def test_low_amplitude_region_one(self, params):
        for d in (0.05, 0.2, 0.5, 1.0):
            assert classify_region(params, Forcing(E=0.1, omega=d * params.eps)) == "I"

    def test_boundary_label(self, params):
        th = fold_thresholds(params, 0.3)
        f = Forcing(E=th.e_star_left, omega=0.3 * params.eps)
        assert classify_region(params, f) == "boundary"

    @given(
        d=st.floats(0.05, 1.2),
        E=st.floats(0.01, 2.5),
    )
    @settings(max_examples=120, deadline=None)
    def test_region_consistent_with_count(self, d, E):
        params = ModelParams()
        f = Forcing(E=E, omega=d * params.eps)
        region = classify_region(params, f)
        assume(region != "boundary")
        n = len(folded_equilibria(params, f))
        expected = {"I": 0, "II": 2, "III": 2, "IV": 4, "V": 4, "VI": 4}[region]
        assert n == expected

    def test_all_regions_reachable(self, params):
        seen = set()
        for d in np.linspace(0.05, 1.15, 40):
            th = fold_thresholds(params, d)
            for E in np.linspace(0.05, 1.25 * th.e_2star_right, 60):
                seen.add(classify_region(params, Forcing(E=E, omega=d * params.eps)))
        assert {"I", "II", "III", "IV", "V", "VI"} <= seen <= set(REGIONS)


class TestSmallDeltaExpansion:
    def test_lambda_constant(self, params):
        assert eigen_expansion_lambda(params, 0.6) == pytest.approx(0.35, abs=2.5e-3)

    def test_zero_delta_limits(self, params):
        s1, s2, n1, n2 = eigen_smalldelta_expansion(params, 0.6, 0.0)
        assert (s1, s2, n1, n2) == (-1.0, 0.0, -1.0, 0.0)

    def test_cubic_remainder(self, params):
        # expansion error shrinks like the cube of delta
        from fhnburst.manifolds import saddle_eigenvalues

        delta = 0.002
        f = Forcing(E=0.6, omega=delta * params.eps)
        _, lam2 = saddle_eigenvalues(params, f)
        approx = eigen_smalldelta_expansion(params, 0.6, delta)[1]
        assert abs(lam2 - approx) < 10.0 * delta**3

    def test_domain_error(self, params):
        with pytest.raises(DomainError):
            eigen_smalldelta_expansion(params, 0.2, 0.01)   # E b < mu


class TestSupercritical:
    def test_zero_amplitude_matches_rest_state(self, params):
        # with no drive the balance point is the drive-free equilibrium
        u, v = supercritical_manifold_point(1.0, params, 0.0)
        x_eq, _ = unforced_equilibrium(params)
        assert u == pytest.approx(x_eq + 1.0, abs=1e-9)
        assert v == pytest.approx(cubic_F(u), abs=1e-15)

    def test_zero_amplitude_oracle(self, params):
        # independent bisection on G
        lo, hi = -2.0, 2.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if cubic_G(mid, params) > 0.0:
                hi = mid
            else:
                lo = mid
        u_oracle = 0.5 * (lo + hi)
        u, _ = supercritical_manifold_point(0.0, params, 0.0)
        assert u == pytest.approx(u_oracle, abs=1e-12)

    def test_crosses_left_fold_at_equilibrium_angle(self, params):
        E = 0.5
        mu = mu_constant(params)
        theta0 = math.asin(mu / (E * params.b))
        u, _ = supercritical_manifold_point(theta0, params, E)
        assert abs(u) < 1e-12

    def test_residuals(self, params):
        rng = np.random.default_rng(42)
        for theta0 in rng.uniform(0.0, TWO_PI, size=100):
            u, v = supercritical_manifold_point(theta0, params, 0.55)
            target = 0.55 * params.b * math.sin(theta0)
            assert abs(cubic_G(u, params) - target) <= 1e-12
            assert abs(v - cubic_F(u)) <= 1e-12

    def test_large_amplitude_doubles_the_bracket(self, params):
        # at E = 50 the root leaves the first bracket [-4, 4] on both sides
        us = []
        for theta0 in np.linspace(0.0, TWO_PI, 41):
            u, v = supercritical_manifold_point(theta0, params, 50.0)
            target = 50.0 * params.b * math.sin(theta0)
            assert abs(cubic_G(u, params) - target) <= 1e-12
            assert v == cubic_F(u)
            us.append(u)
        assert min(us) < -4.0 and max(us) > 4.0


    @pytest.mark.parametrize("theta0, E", [
        (math.nan, 0.55), (1.0, math.nan), (math.inf, 0.55), (-math.inf, 0.55),
        (1.0, math.inf),
    ], ids=["theta0-nan", "E-nan", "theta0-inf", "theta0-minus-inf", "E-inf"])
    def test_non_finite_input_refused(self, params, theta0, E):
        # NaN compares false, so the bracket would never move and the
        # bisection would settle at its upper end; sin(inf) is a math error
        with pytest.raises(DomainError, match="finite"):
            supercritical_manifold_point(theta0, params, E)


class TestDelayedHopf:
    def test_default_values(self, params):
        u_minus, u_plus = delayed_hopf_points(params)
        s = math.sqrt(1.0 - params.eps * params.b)
        assert u_minus == pytest.approx(1.0 - s, abs=1e-15)
        assert u_plus == pytest.approx(1.0 + s, abs=1e-15)
        # in the original frame: x = u - 1 = +-sqrt(0.936)
        assert u_plus - 1.0 == pytest.approx(math.sqrt(0.936), abs=1e-12)

    def test_trace_zero(self, params):
        for u in delayed_hopf_points(params):
            assert abs(np.trace(jac_slow_layer(u, params))) < 1e-12

    def test_small_eps_limit(self):
        p = ModelParams(eps=1e-9)
        u_minus, u_plus = delayed_hopf_points(p)
        assert u_minus == pytest.approx(0.0, abs=1e-9)
        assert u_plus == pytest.approx(2.0, abs=1e-9)


class TestSerialization:
    def test_equilibria_report_round_trip(self, params):
        doc = equilibria_report(params, BURST3)
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["region"] == "II"
        assert len(back["equilibria"]) == 2
        eq = back["equilibria"][0]
        assert set(eq) == {"side", "kind", "u", "v", "theta", "eigenvalues", "eigenvectors"}
        for lam in eq["eigenvalues"]:
            assert len(lam) == 2

    def test_focus_positive_imag_first(self, params):
        f = Forcing(E=0.482, omega=0.04)     # region III: left focus
        eqs = folded_equilibria(params, f)
        focus = [e for e in eqs if e.kind == "focus"]
        assert focus
        d = equilibrium_to_dict(focus[0])
        assert d["eigenvalues"][0][1] > 0.0 > d["eigenvalues"][1][1]

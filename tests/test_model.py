import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhnburst.errors import DomainError
from fhnburst.model import (
    Forcing,
    ModelParams,
    StateUVTheta,
    StateXY,
    TWO_PI,
    cubic_F,
    cubic_G,
    cubic_G_prime,
    derived_constants,
    from_shifted,
    jac_autonomous,
    jac_forced,
    jac_slow_layer,
    rhs_autonomous,
    rhs_desingularized,
    rhs_forced,
    rhs_slow_layer,
    to_shifted,
    unforced_equilibrium,
    wrap_angle,
    wrap_angles,
)

BURST3 = Forcing(E=0.55, omega=0.0149354)


class TestParams:
    def test_defaults(self):
        p = ModelParams()
        assert (p.a, p.b, p.eps) == (0.875, 0.8, 0.08)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(a=-1.0), dict(a=0.0), dict(b=0.0), dict(b=1.0), dict(b=1.5),
         dict(eps=0.0), dict(eps=1.0)],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(E=-0.1, omega=1.0), dict(E=1.0, omega=0.0),
                                        dict(E=1.0, omega=-2.0)])
    def test_invalid_forcing(self, kwargs):
        with pytest.raises(ValueError):
            Forcing(**kwargs)


class TestDerivedConstants:
    def test_mu_reference_value(self, params):
        dc = derived_constants(params, BURST3)
        assert dc.mu == pytest.approx(0.233, abs=5e-4)
        assert dc.mu == pytest.approx(params.b * (params.a + 2.0 / 3.0) - 1.0, abs=1e-15)

    def test_zero_amplitude(self, params):
        dc = derived_constants(params, Forcing(E=0.0, omega=0.3))
        assert dc.r_delta == 0.0

    def test_phase_lag_limit(self, params):
        # phi tends to pi/2 from below as delta -> 0
        dc = derived_constants(params, Forcing(E=1.0, omega=1e-9 * params.eps))
        assert abs(dc.phi_delta - math.pi / 2.0) < 1e-8
        dc2 = derived_constants(params, Forcing(E=1.0, omega=1.0 * params.eps))
        assert 0.0 < dc2.phi_delta < math.pi / 2.0


class TestCubicFunctions:
    def test_upper_fold_value(self):
        assert cubic_F(2.0) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_left_knee(self, params):
        assert cubic_F(0.0) == 0.0
        assert cubic_G(0.0, params) == pytest.approx(
            derived_constants(params, BURST3).mu, abs=1e-15
        )

    def test_g_at_two(self, params):
        # direct evaluation: mu + 2 - 0.8*(4/3)
        assert cubic_G(2.0, params) == pytest.approx(1.1666666666666667, abs=1e-12)

    @given(
        u=st.floats(-10.0, 10.0),
        b=st.floats(0.01, 0.99),
    )
    def test_g_strictly_increasing(self, u, b):
        p = ModelParams(a=0.875, b=b, eps=0.08)
        assert cubic_G_prime(u, p) > 0.0


class TestTransforms:
    def test_left_knee_maps_to_origin(self, params):
        t = 1.3
        y_knee = -params.a - 2.0 / 3.0 + BURST3.E * math.sin(BURST3.omega * t)
        s = to_shifted(StateXY(x=-1.0, y=y_knee, t=t), params, BURST3)
        assert abs(s.u) < 1e-14 and abs(s.v) < 1e-14

    @given(
        x=st.floats(-5.0, 5.0),
        y=st.floats(-5.0, 5.0),
        frac=st.floats(0.0, 0.999),
    )
    @settings(max_examples=60)
    def test_round_trip(self, x, y, frac):
        params = ModelParams()
        t = frac * BURST3.period
        s = StateXY(x=x, y=y, t=t)
        back = from_shifted(to_shifted(s, params, BURST3), params, BURST3, t_ref=t)
        assert back.x == pytest.approx(x, abs=1e-14)
        assert back.y == pytest.approx(y, abs=2e-14)
        assert back.t == pytest.approx(t, abs=1e-9)

    def test_theta_wrapped(self, params):
        s = to_shifted(StateXY(x=0.0, y=0.0, t=100 * BURST3.period + 1.0), params, BURST3)
        assert 0.0 <= s.theta < TWO_PI


def _fd_jacobian(fn, y, h=1e-6):
    y = np.asarray(y, dtype=float)
    n = len(y)
    f0 = np.asarray(fn(y))
    J = np.empty((len(f0), n))
    for j in range(n):
        yp = y.copy()
        ym = y.copy()
        yp[j] += h
        ym[j] -= h
        J[:, j] = (np.asarray(fn(yp)) - np.asarray(fn(ym))) / (2.0 * h)
    return J


class TestForcedField:
    def test_rest_state_near_reference_point(self, params):
        # the rounded reference rest point nearly zeroes the drive-free field
        quiet = Forcing(E=0.0, omega=BURST3.omega)
        dx, dy = rhs_forced(StateXY(x=-1.1994, y=-1.4993, t=0.0), params, quiet)
        assert abs(dx) < 1e-3 and abs(dy) < 1e-3

    def test_unforced_equilibrium_exact(self, params):
        x, y = unforced_equilibrium(params)
        assert x == pytest.approx(-1.1994, abs=5e-5)
        assert y == pytest.approx(-1.4993, abs=5e-5)
        dx, dy = rhs_forced(StateXY(x=x, y=y, t=0.0), params, Forcing(E=0.0, omega=1.0))
        assert abs(dx) < 1e-12 and abs(dy) < 1e-12

    def test_unforced_equilibrium_converges_or_raises(self):
        # a = 1e20 reaches the rest state in 100 Newton steps, to these bits;
        # a = 1e28 and 1e32 need more, and raise instead of returning a wrong x
        x, y = unforced_equilibrium(ModelParams(a=1e20))
        assert (x, y) == (-6694329.500821658, -8367911.876027073)
        assert abs(x - x**3 / 3.0 - x / 0.8 - 1e20) <= 1e-15 * abs(x) ** 3 / 3.0
        for a in (1e28, 1e32):
            with pytest.raises(DomainError, match="Newton iteration does not converge"):
                unforced_equilibrium(ModelParams(a=a))

    def test_sin_zero_at_t0(self, params):
        s = StateXY(x=0.3, y=-0.7, t=0.0)
        with_drive = rhs_forced(s, params, Forcing(E=0.9, omega=0.02))
        without = rhs_forced(s, params, Forcing(E=0.0, omega=0.02))
        assert with_drive == without

    @pytest.mark.parametrize("seed", range(5))
    def test_jacobian_matches_finite_differences(self, params, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        t = rng.uniform(0.0, 100.0)

        def fn(v):
            return rhs_forced(StateXY(x=v[0], y=v[1], t=t), params, BURST3)

        J = jac_forced(StateXY(x=x, y=y, t=t), params, BURST3)
        assert np.allclose(J, _fd_jacobian(fn, [x, y]), atol=1e-6)


class TestAutonomousField:
    def test_phase_speed_constant(self, params):
        s = StateUVTheta(u=0.4, v=-0.2, theta=1.0)
        assert rhs_autonomous(s, params, BURST3)[2] == BURST3.omega

    def test_fold_equilibrium_condition(self, params):
        # dv/dt vanishes at the left-fold saddle angle
        dc = derived_constants(params, BURST3)
        theta_s = dc.phi_delta + math.acos(dc.mu / dc.r_delta)
        s = StateUVTheta(u=0.0, v=0.0, theta=theta_s)
        assert abs(rhs_autonomous(s, params, BURST3)[1]) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_chain_rule_identity(self, params, seed):
        # transformed planar field equals the autonomous field on the shifted state
        rng = np.random.default_rng(100 + seed)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        t = rng.uniform(0.0, 2.0 * BURST3.period)
        s_xy = StateXY(x=x, y=y, t=t)
        s_uv = to_shifted(s_xy, params, BURST3)
        dx, dy = rhs_forced(s_xy, params, BURST3)
        du, dv, dth = rhs_autonomous(s_uv, params, BURST3)
        assert du == pytest.approx(dx, abs=1e-12)
        # dv/dt = dy/dt - E omega cos(omega t)
        assert dv == pytest.approx(
            dy - BURST3.E * BURST3.omega * math.cos(BURST3.omega * t), abs=1e-12
        )
        assert dth == BURST3.omega

    def test_theta_translation_shifts_only_the_drive_term(self, params):
        # moving the phase slice changes dv/dt by exactly the cosine term
        dc = derived_constants(params, BURST3)
        u, v = 0.7, -0.3
        th1, th2 = 0.9, 2.4
        dv1 = rhs_autonomous(StateUVTheta(u=u, v=v, theta=th1), params, BURST3)[1]
        dv2 = rhs_autonomous(StateUVTheta(u=u, v=v, theta=th2), params, BURST3)[1]
        shift = params.eps * dc.r_delta * (
            math.cos(th1 - dc.phi_delta) - math.cos(th2 - dc.phi_delta)
        )
        assert dv2 - dv1 == pytest.approx(shift, abs=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_jacobian_matches_finite_differences(self, params, seed):
        rng = np.random.default_rng(200 + seed)
        u, v = rng.uniform(-1.5, 2.5, size=2)
        th = rng.uniform(0.0, TWO_PI)

        def fn(w):
            return rhs_autonomous(
                StateUVTheta(u=w[0], v=w[1], theta=w[2]), params, BURST3
            )

        J = jac_autonomous(StateUVTheta(u=u, v=v, theta=th), params, BURST3)
        assert np.allclose(J, _fd_jacobian(fn, [u, v, th]), atol=1e-6)


class TestDesingularizedField:
    def test_fold_lines_phase_invariant(self, params):
        for u in (0.0, 2.0):
            assert rhs_desingularized(u, 1.0, params, BURST3)[1] == 0.0

    def test_equilibrium_is_zero(self, params):
        dc = derived_constants(params, BURST3)
        theta_s = dc.phi_delta + math.acos(dc.mu / dc.r_delta)
        du, dth = rhs_desingularized(0.0, theta_s, params, BURST3)
        assert abs(du) < 1e-12 and abs(dth) < 1e-12

    def test_flow_reversed_on_repelling_sheet(self, params):
        for u in (0.3, 1.0, 1.8):
            assert rhs_desingularized(u, 0.5, params, BURST3)[1] < 0.0


class TestSlowLayer:
    def test_determinant_positive(self, params):
        for u in np.linspace(-1.0, 3.0, 41):
            J = jac_slow_layer(u, params)
            assert np.linalg.det(J) > 0.0

    def test_trace_zero_at_delayed_hopf(self, params):
        for sign in (-1.0, 1.0):
            u = 1.0 + sign * math.sqrt(1.0 - params.eps * params.b)
            J = jac_slow_layer(u, params)
            assert abs(np.trace(J)) < 1e-12

    def test_jacobian_matches_finite_differences(self, params):
        theta0 = 0.7

        def fn(w):
            return rhs_slow_layer(w[0], w[1], params, 0.5, theta0)

        J = jac_slow_layer(0.4, params)
        assert np.allclose(J, _fd_jacobian(fn, [0.4, -0.1]), atol=1e-6)


def test_wrap_angle():
    assert wrap_angle(TWO_PI + 0.5) == pytest.approx(0.5, abs=1e-15)
    assert wrap_angle(-0.25) == pytest.approx(TWO_PI - 0.25, abs=1e-15)
    assert 0.0 <= wrap_angle(-12345.678) < TWO_PI


def test_wrap_angles_bitwise():
    # the array wrap of the CLI writers and reports against the scalar rule
    theta = np.concatenate([
        np.linspace(-20.0, 20.0, 4001),
        [0.0, -0.0, TWO_PI, -TWO_PI, 3 * TWO_PI, -1e-300, 1e-300, -np.pi],
    ])
    want = np.array([wrap_angle(v) for v in theta.tolist()])
    assert wrap_angles(theta).tobytes() == want.tobytes()


# th + 2*pi rounds up to 2*pi for these, which lies outside [0, 2*pi)
TINY_NEGATIVE_ANGLES = [-4.4e-16, -1e-17, -1e-300, -5e-324]


@pytest.mark.parametrize("theta", TINY_NEGATIVE_ANGLES)
def test_wrap_angle_tiny_negative_is_zero(theta):
    assert wrap_angle(theta) == 0.0


def test_wrap_angles_tiny_negative_is_zero():
    assert wrap_angles(TINY_NEGATIVE_ANGLES).tolist() == [0.0] * len(TINY_NEGATIVE_ANGLES)
    assert 0.0 < wrap_angles([-4.5e-16])[0] < TWO_PI

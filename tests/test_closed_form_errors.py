"""The closed-form layer's error contract: on any valid model and drive, each
function of `geometry`, `manifolds` and `model` that the package exports
returns or raises an `FhnBurstError`, never a bare math error."""
import inspect
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import fhnburst
from fhnburst import geometry, manifolds, model
from fhnburst.errors import FhnBurstError
from fhnburst.model import Forcing, ModelParams, StateUVTheta, StateXY


def _solve(p, f, branch="stable"):
    return manifolds.solve_expansion(branch, p, f)


def _b_coefficients(p, f):
    dc = model.derived_constants(p, f)
    return manifolds.b_coefficients(_solve(p, f).coeffs, f.delta(p), dc.r_delta, dc.mu, p.b)


# name -> call on (params, forcing, u, theta)
CALLS = {
    "classify_manifold_point": lambda p, f, u, th: geometry.classify_manifold_point(u),
    "classify_region": lambda p, f, u, th: geometry.classify_region(p, f),
    "delayed_hopf_points": lambda p, f, u, th: geometry.delayed_hopf_points(p),
    "eigen_smalldelta_expansion":
        lambda p, f, u, th: geometry.eigen_smalldelta_expansion(p, f.E, f.delta(p)),
    "equilibria_report": lambda p, f, u, th: geometry.equilibria_report(p, f),
    "fold_thresholds": lambda p, f, u, th: geometry.fold_thresholds(p, f.delta(p)),
    "folded_equilibria": lambda p, f, u, th: geometry.folded_equilibria(p, f),
    "supercritical_manifold_point":
        lambda p, f, u, th: geometry.supercritical_manifold_point(th, p, f.E),
    "threshold_intersection_delta":
        lambda p, f, u, th: geometry.threshold_intersection_delta(p),
    "saddle_eigenvalues": lambda p, f, u, th: manifolds.saddle_eigenvalues(p, f),
    "solve_expansion": lambda p, f, u, th: (_solve(p, f), _solve(p, f, "unstable")),
    "b_coefficients": lambda p, f, u, th: _b_coefficients(p, f),
    "eval_manifold": lambda p, f, u, th: manifolds.eval_manifold(_solve(p, f), th),
    "theta_at_lower_bound": lambda p, f, u, th: manifolds.theta_at_lower_bound(_solve(p, f)),
    "cubic_F": lambda p, f, u, th: model.cubic_F(u),
    "cubic_G": lambda p, f, u, th: model.cubic_G(u, p),
    "derived_constants": lambda p, f, u, th: model.derived_constants(p, f),
    "to_shifted": lambda p, f, u, th: model.to_shifted(StateXY(u, -u, th), p, f),
    "from_shifted": lambda p, f, u, th: model.from_shifted(StateUVTheta(u, -u, th), p, f),
    "rhs_forced": lambda p, f, u, th: model.rhs_forced(StateXY(u, -u, th), p, f),
    "rhs_autonomous":
        lambda p, f, u, th: model.rhs_autonomous(StateUVTheta(u, -u, th), p, f),
    "rhs_desingularized": lambda p, f, u, th: model.rhs_desingularized(u, th, p, f),
    "rhs_slow_layer": lambda p, f, u, th: model.rhs_slow_layer(u, -u, p, f.E, th),
    "unforced_equilibrium": lambda p, f, u, th: model.unforced_equilibrium(p),
}


def test_every_export_is_called():
    exported = {name for name, obj in vars(fhnburst).items()
                if inspect.isfunction(obj)
                and obj.__module__ in ("fhnburst.geometry", "fhnburst.manifolds", "fhnburst.model")}
    assert exported <= CALLS.keys()


# half the draws at the default model, as in the studied range
PARAMS = st.one_of(st.just(ModelParams()), st.builds(
    ModelParams, a=st.floats(0.3, 1.5), b=st.floats(0.3, 0.99), eps=st.floats(1e-3, 0.5)))
FORCING = st.builds(Forcing, E=st.floats(0.0, 3.0), omega=st.floats(1e-4, 3.0))


@given(p=PARAMS, f=FORCING, u=st.floats(-3.0, 3.0), th=st.floats(0.0, 2 * math.pi))
@settings(max_examples=150, deadline=None)
def test_returns_or_raises_typed_error(p, f, u, th):
    for name, call in CALLS.items():
        try:
            call(p, f, u, th)
        except FhnBurstError:
            pass
        except Exception as exc:
            raise AssertionError(f"{name} raised {type(exc).__name__}: {exc}") from exc

"""The benchmark's tracer wraps library names where callers look them up
(perfbench/tracing.py); a rename or a dropped import there breaks every
traced benchmark run, so tier-1 checks that each of those names resolves."""
import importlib
from pathlib import Path

from fhnburst import burst, cli, contours, fastpath, geometry, manifolds, sweep
from fhnburst.integrator import Trajectory
from fhnburst.model import Forcing, ModelParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (burst, cli, contours, fastpath, geometry, manifolds, sweep, Trajectory)


def test_tracer_installs_and_restores_every_lookup_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracing.Installed(tracing.Tracer()):
        during = [dict(vars(owner)) for owner in OWNERS]
    after = [dict(vars(owner)) for owner in OWNERS]

    wrapped = [
        (old[name], new[name])
        for old, new in zip(before, during)
        for name in new
        if new[name] is not old.get(name)
    ]
    assert len(wrapped) >= 20
    assert all(wrapper.__wrapped__ is original for original, wrapper in wrapped)
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[name] is old[name] for name in old)


def test_solve_reaches_the_module_global_b_coefficients(monkeypatch):
    # the benchmark counts manifolds.residual_evals by wrapping this name, so
    # a solve must look b_coefficients up in the module at least once
    calls = []
    original = manifolds.b_coefficients

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(manifolds, "b_coefficients", counted)
    manifolds.solve_expansion("stable", ModelParams(), Forcing(E=0.9, omega=0.02))
    assert len(calls) >= 1

"""Every name the benchmark's traced run wraps exists in the package.

bench/layers.py lists, in TARGETS, the (owner, attribute) pairs the traced
run wraps. The tracer records a name it cannot resolve as absent and reports
its metrics as missing, so a rename in sktlab would otherwise turn per-layer
metrics into gaps without any error. A name that sktlab binds before the
wrap is put on, rather than looking it up at call time, would leave its
span at zero calls just as silently. These tests only read bench/.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import sktlab.iteration
from sktlab.grid import Grid, ScalarField, principal_eigenpair
from sktlab.model import ModelParams
from sktlab.regimes import classify_global

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def wrap_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


def resolve(owner, attr):
    """owner.attr, owner a dotted module path optionally ending in a class
    inside the module; None when any part is absent."""
    try:
        target = importlib.import_module(owner)
    except ImportError:
        module, _, name = owner.rpartition(".")
        try:
            target = getattr(importlib.import_module(module), name, None)
        except ImportError:
            return None
    return getattr(target, attr, None)


def unresolved(targets):
    return [
        f"{owner}.{attr}" for _, owner, attr, _ in targets
        if not callable(resolve(owner, attr))
    ]


def test_every_wrap_target_resolves():
    targets = wrap_targets()
    assert targets
    assert all(owner.split(".")[0] == "sktlab" for _, owner, _, _ in targets)
    assert unresolved(targets) == []


def test_missing_target_is_reported(monkeypatch):
    monkeypatch.delattr(sktlab.iteration, "_auto_bracket")
    monkeypatch.delattr(sktlab.iteration._HelmholtzSolver, "solve")
    assert unresolved(wrap_targets()) == [
        "sktlab.iteration._HelmholtzSolver.solve", "sktlab.iteration._auto_bracket",
    ]


def test_solve_parameters_match_the_column_counter():
    # bench/layers.py counts a solve's columns from args[3], its rhs_cols
    # or its rhs_cols keyword; a parameter after guess has a default, so
    # every call passes the right-hand sides in one of those two places
    solve = sktlab.iteration._HelmholtzSolver.solve
    parameters = list(inspect.signature(solve).parameters.values())
    assert [p.name for p in parameters[:5]] == [
        "self", "sig_over_dt", "phi", "rhs_cols", "guess",
    ]
    assert all(p.default is not inspect.Parameter.empty for p in parameters[5:])


@pytest.mark.parametrize("window", [False, True], ids=["automatic", "window"])
def test_traced_names_are_looked_up_at_call_time(monkeypatch, window):
    # counting wrappers put on after import, as the traced run puts its own:
    # simulate calls step_monotone once per attempt that found a bracket, and
    # an automatic run builds its brackets through _auto_bracket on every
    # attempt, where a window run never does
    spans = {
        attr for span, owner, attr, _ in wrap_targets()
        if owner == "sktlab.iteration"
        and span in ("iteration.auto_bracket", "iteration.step_monotone")
    }
    assert {"_auto_bracket", "step_monotone"} <= spans
    calls = dict.fromkeys(("_auto_bracket", "step_monotone"), 0)
    for name in calls:
        def counting(*args, _name=name, _inner=getattr(sktlab.iteration, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(sktlab.iteration, name, counting)

    coefficients = dict(a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0, d1=1.0, d2=1.0)
    grid = Grid.interval(np.pi, 9)
    eig = principal_eigenpair(grid, "principal")
    if window:
        params = ModelParams(alpha1=0.5, alpha2=0.5, **coefficients)
        u0 = (
            ScalarField.from_function(grid, lambda x: 0.2 + 0.1 * np.cos(x)),
            ScalarField.from_function(grid, lambda x: 0.3 + 0.05 * np.cos(2 * x)),
        )
        regime = classify_global(params, eig.lambda0, eig.mode)
        pair = sktlab.iteration.initial_bracket(params, eig, u0, regime)
        cfg, t_end = sktlab.iteration.SolverConfig(dt=1e-3), 0.01
    else:
        # a blow-up whose first attempts rise too fast, so some are redone
        params = ModelParams(alpha1=0.0, alpha2=0.0, **coefficients)
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        pair, cfg, t_end = None, sktlab.iteration.SolverConfig(dt=0.01), 0.03
    result = sktlab.iteration.simulate(params, grid, eig, u0, cfg, t_end, bracket=pair)
    assert result.termination == "completed"
    # every attempt found a bracket: each was accepted or redone for growth
    attempts = len(result.summaries) + result.halvings_used
    assert calls["step_monotone"] == attempts
    if window:
        assert calls["_auto_bracket"] == 0 and result.halvings_used == 0
    else:
        assert result.halvings_used > 0
        assert calls["_auto_bracket"] >= attempts

"""Every name the benchmark's traced run wraps exists in the package.

bench/layers.py lists, in TARGETS, the (owner, attribute) pairs the traced
run wraps. The tracer records a name it cannot resolve as absent and reports
its metrics as missing, so a rename in sktlab would otherwise turn per-layer
metrics into gaps without any error. This test only reads bench/.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import sktlab.iteration

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
    solve = sktlab.iteration._HelmholtzSolver.solve
    assert list(inspect.signature(solve).parameters) == [
        "self", "sig_over_dt", "phi", "rhs_cols", "guess",
    ]

"""A run imports only the scipy modules it uses, checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sktlab

SCRIPT = """
import json, sys
import numpy as np


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import sktlab.cli
seen = {"cli": scipy_modules()}

from sktlab import (
    Grid, ModelParams, ScalarField, SolverConfig, ode_reduce, principal_eigenpair, simulate,
)
params = ModelParams(
    d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.5,
    a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
)
grid = Grid.rectangle(np.pi, np.pi, 9, 9)
eig = principal_eigenpair(grid, "principal")
u0 = (
    ScalarField.from_function(grid, lambda x, y: 0.2 + 0.1 * np.cos(x) * np.cos(y)),
    ScalarField.constant(grid, 0.3),
)
result = simulate(params, grid, eig, u0, SolverConfig(dt=1e-3), 3e-3)
seen["simulate_2d"] = scipy_modules()
seen["steps_2d"] = len(result.summaries)
seen["fallbacks_2d"] = sum(s.fallbacks for s in result.summaries)

grid = Grid.interval(np.pi, 17)
eig = principal_eigenpair(grid, "first_positive")
u0 = (
    ScalarField.from_function(grid, lambda x: 0.2 + 0.1 * np.cos(x)),
    ScalarField.constant(grid, 0.3),
)
result = simulate(params, grid, eig, u0, SolverConfig(dt=1e-3), 5e-3)
seen["simulate_1d"] = scipy_modules()
seen["steps_1d"] = len(result.summaries)

traj = ode_reduce(params, (0.2, 0.3), 1.0, 1e-10)
seen["ode"] = [traj.termination, float(traj.u1[-1]), "scipy.integrate" in sys.modules]
print(json.dumps(seen))
"""

# what scipy loads with any of its subpackages
SCIPY_INIT = {"scipy", "scipy.__config__", "scipy._cyutility", "scipy._distributor_init",
              "scipy._lib", "scipy.version"}


def subpackages(modules):
    return {".".join(m.split(".")[:2]) for m in modules} - SCIPY_INIT


def test_runs_import_only_what_they_use(tmp_path):
    # pytest's `pythonpath` setting does not reach child processes
    src = str(Path(sktlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # the CLI, classification included, loads no scipy at all
    assert seen["cli"] == []
    # a 2D run solves with numpy alone: DCT-I, stencil matvec, no LU fallback
    assert seen["steps_2d"] == 3 and seen["fallbacks_2d"] == 0
    assert seen["simulate_2d"] == []
    # a 1D run loads LAPACK's dgtsv through scipy.linalg, and nothing else
    assert seen["steps_1d"] == 5
    assert subpackages(seen["simulate_1d"]) == {"scipy.linalg"}
    # and ode_reduce still imports its integrator and works
    termination, u1_end, integrate_loaded = seen["ode"]
    assert termination == "completed" and 0.0 < u1_end < 0.2
    assert integrate_loaded

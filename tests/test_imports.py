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

import sktlab.cli
seen = {"cli": sorted(m for m in sys.modules if m.startswith("scipy."))}

from sktlab import (
    Grid, ModelParams, ScalarField, SolverConfig, ode_reduce, principal_eigenpair, simulate,
)
params = ModelParams(
    d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.5,
    a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
)
grid = Grid.interval(np.pi, 17)
eig = principal_eigenpair(grid, "first_positive")
u0 = (
    ScalarField.from_function(grid, lambda x: 0.2 + 0.1 * np.cos(x)),
    ScalarField.constant(grid, 0.3),
)
result = simulate(params, grid, eig, u0, SolverConfig(dt=1e-3), 5e-3)
seen["simulate"] = sorted(m for m in sys.modules if m.startswith("scipy."))
seen["steps"] = len(result.summaries)

traj = ode_reduce(params, (0.2, 0.3), 1.0, 1e-10)
seen["ode"] = [traj.termination, float(traj.u1[-1]), "scipy.integrate" in sys.modules]
print(json.dumps(seen))
"""


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
    # the CLI leaves out the ODE integrator, which only ode_reduce needs
    assert "scipy.integrate" not in seen["cli"]
    # a 1D run leaves out the FFT and sparse LU of the 2D solver
    assert seen["steps"] == 5
    assert "scipy.fft" not in seen["simulate"]
    assert "scipy.sparse.linalg" not in seen["simulate"]
    # and ode_reduce still imports its integrator and works
    termination, u1_end, integrate_loaded = seen["ode"]
    assert termination == "completed" and 0.0 < u1_end < 0.2
    assert integrate_loaded

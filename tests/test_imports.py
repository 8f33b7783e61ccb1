"""A run imports only the scipy modules it uses, checked in a fresh interpreter."""

import importlib.machinery
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


def run_fresh(script, cwd):
    """Run a script in a fresh interpreter that imports sktlab from this
    checkout; return the JSON object its last output line holds."""
    # pytest's `pythonpath` setting does not reach child processes
    src = str(Path(sktlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runs_import_only_what_they_use(tmp_path):
    seen = run_fresh(SCRIPT, tmp_path)
    # the CLI, classification included, loads no scipy at all
    assert seen["cli"] == []
    # a 2D run solves with numpy alone: DCT-I, stencil matvec, no LU fallback
    assert seen["steps_2d"] == 3 and seen["fallbacks_2d"] == 0
    assert seen["simulate_2d"] == []
    # a 1D run loads LAPACK's dgtsv from scipy's compiled wrapper module
    # alone, without scipy's package init
    assert seen["steps_1d"] == 5
    assert seen["simulate_1d"] == ["scipy.linalg._flapack"]
    # and ode_reduce still imports its integrator and works
    termination, u1_end, integrate_loaded = seen["ode"]
    assert termination == "completed" and 0.0 < u1_end < 0.2
    assert integrate_loaded


DGTSV_SCRIPT = """
import json, sys
import numpy as np
from sktlab.iteration import _lapack_dgtsv

loaded = _lapack_dgtsv()
seen = {"before": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}

# a drawn system of k diagonally dominant tridiagonal blocks of n unknowns,
# with zero couplings between the blocks
rng = np.random.default_rng(5)
k, n = 4, 37
dl, du = -rng.uniform(0.0, 1.0, (2, k * n - 1))
dl[n - 1::n] = du[n - 1::n] = 0.0
d = 2.0 + rng.uniform(0.0, 5.0, k * n)
b = rng.uniform(-1.0, 1.0, k * n)


def solve(dgtsv):
    *_, x, info = dgtsv(dl.copy(), d.copy(), du.copy(), b.copy())
    assert info == 0
    return x.tobytes().hex()


first = solve(loaded)
import scipy.linalg
from scipy.linalg.lapack import dgtsv

seen["same"] = solve(dgtsv) == first
# each block alone through scipy's public banded solver
blocks = []
for j in range(k):
    s, off = slice(j * n, (j + 1) * n), slice(j * n, (j + 1) * n - 1)
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = du[off], d[s], dl[off]
    blocks.append(scipy.linalg.solve_banded((1, 1), ab, b[s]))
seen["banded"] = np.concatenate(blocks).tobytes().hex() == first
seen["linalg_works"] = float(scipy.linalg.det(np.eye(3) * 2.0))
print(json.dumps(seen))
"""


def test_dgtsv_loaded_by_file_matches_scipy_linalg(tmp_path):
    # dgtsv loaded from scipy's compiled wrapper module, without scipy's
    # package init, gives the same bytes as scipy.linalg.lapack's dgtsv and
    # as scipy.linalg.solve_banded per block; and `import scipy.linalg`
    # still works after it
    seen = run_fresh(DGTSV_SCRIPT, tmp_path)
    assert seen["before"] == ["scipy.linalg._flapack"]
    assert seen["same"] and seen["banded"]
    assert seen["linalg_works"] == 8.0


def test_dgtsv_falls_back_to_scipy_linalg(monkeypatch):
    # without the wrapper module's file, dgtsv comes from scipy.linalg.lapack
    from scipy.linalg.lapack import dgtsv

    import sktlab.iteration

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    sktlab.iteration._lapack_dgtsv.cache_clear()
    try:
        assert sktlab.iteration._lapack_dgtsv() is dgtsv
    finally:
        sktlab.iteration._lapack_dgtsv.cache_clear()

"""The three benchmark workloads: inputs from a seed, the timed run, checks.

Each workload is one user-visible job on sktlab, driven through the same
calls a user makes (a config file, then the library or the CLI):

  blowup-1d        semilinear 1D blow-up, 33 points, dt=1e-4 to overflow,
                   then `analyze`; nearly all time is per-call overhead.
  certified-2d     quasilinear 65x65 run inside the certified window
                   bracket, 20 steps; nearly all time is the sparse solve.
  cli-simulate-1d  `sktlab simulate` on the README config at nx=513 with a
                   snapshot per step; about 40% of the time is the CSV writer.

Seed 0 is the exact configuration above. Other seeds scale every initial
amplitude by an independent factor within 1 +/- 2e-3, which moves the
numbers but not the regime. This module imports sktlab only inside the
functions that the child process calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

_JITTER = 2e-3
_CHAIN_TOL = 1e-10  # chain violation allowed per unit of bracket scale
_BLOWUP_STEPS_TOL = 10  # overflow within ten base steps of the exact time

CERTIFIED = dict(
    d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.5,
    a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
)
SEMILINEAR = dict(CERTIFIED, alpha1=0.0, alpha2=0.0)


class SetupDone(Exception):
    """Raised at the first step when only set-up is being timed."""


@dataclass
class Context:
    """What the timed run reports back besides its result."""

    setup_only: bool
    t_ready: float | None = None

    def ready(self) -> None:
        self.t_ready = perf_counter()
        if self.setup_only:
            raise SetupDone


@dataclass
class Outcome:
    result: object  # sktlab SimulationResult
    solver: object  # the SolverConfig the run used
    grid: object
    scale: float | None = None  # window bracket ceiling, when one was used
    report: object = None  # BlowupReport, blowup-1d only
    files: dict = field(default_factory=dict)  # artifact name -> path
    exit_code: int | None = None


def _amplitudes(base, seed: int):
    if seed == 0:
        return tuple(base)
    rng = random.Random(seed)
    return tuple(a * (1.0 + _JITTER * rng.uniform(-1.0, 1.0)) for a in base)


def _ini(sections: dict) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in entries.items())
        lines.append("")
    return "\n".join(lines)


def _model(params: dict) -> dict:
    return {k: repr(float(v)) for k, v in params.items()}


# -- timed runs ------------------------------------------------------------


def _run_library(ctx, config_path, *, window: bool, analyze: bool) -> Outcome:
    """Config to result through the public library calls, as a script would.

    Every call goes through a module attribute so that the traced run sees
    it; set-up ends where `simulate` is called.
    """
    from sktlab import blowup, config, grid, iteration, regimes

    cfg = config.load_config(config_path)
    eig = grid.principal_eigenpair(cfg.grid, cfg.lambda0_mode)
    u0 = config.build_initial_fields(cfg.require_initial(), cfg.grid, eig)
    state0 = iteration.SystemState.from_u(cfg.params, 0.0, u0[0], u0[1])
    wa0 = blowup.weighted_average(cfg.grid, eig, cfg.mu1, cfg.mu2, state0)
    regime = regimes.classify_global(cfg.params, eig.lambda0, eig.mode)
    cert = regimes.classify_blowup(cfg.params, eig.lambda0, cfg.mu1, cfg.mu2, wa0.p_hat)
    bracket, scale = None, None
    if window:
        bracket = iteration.initial_bracket(cfg.params, eig, u0, regime)
        upper = bracket[1]
        scale = max(float(upper.u1.values.max()), float(upper.u2.values.max()))
    ctx.ready()
    solver = cfg.require_solver()
    result = iteration.simulate(
        cfg.params, cfg.grid, eig, u0, solver, cfg.require_t_end(), bracket=bracket
    )
    report = blowup.analyze(result, cert, cfg.grid, eig) if analyze else None
    return Outcome(result, solver, cfg.grid, scale=scale, report=report)


def _run_cli(ctx, config_path, out_dir) -> Outcome:
    """`sktlab simulate` through cli.main, capturing the simulation it runs."""
    from sktlab import cli

    captured = {}
    inner = cli.simulate

    def simulate(*args, **kwargs):
        ctx.ready()
        captured["solver"] = args[4]
        captured["grid"] = args[1]
        captured["bracket"] = kwargs.get("bracket")
        captured["result"] = inner(*args, **kwargs)
        return captured["result"]

    cli.simulate = simulate
    try:
        code = cli.main(["simulate", "--config", str(config_path), "--out", str(out_dir)])
    finally:
        cli.simulate = inner
    if "result" not in captured:
        raise RuntimeError(f"sktlab simulate exited {code} before simulating")
    files = {
        "snapshots.csv": os.path.join(out_dir, "snapshots.csv"),
        "run_summary.json": os.path.join(out_dir, "run_summary.json"),
    }
    scale = None
    if captured["bracket"] is not None:
        upper = captured["bracket"][1]
        scale = max(float(upper.u1.values.max()), float(upper.u2.values.max()))
    return Outcome(
        captured["result"], captured["solver"], captured["grid"],
        scale=scale, files=files, exit_code=code,
    )


# -- checks -----------------------------------------------------------------


def _chain_problems(out: Outcome, scale: float) -> list:
    problems = []
    summaries = out.result.summaries
    worst = max((s.worst_violation for s in summaries), default=0.0)
    gap = max((s.gap for s in summaries), default=0.0)
    if worst > _CHAIN_TOL * max(1.0, scale):
        problems.append(f"chain violation {worst:.3e} above {_CHAIN_TOL:.0e}*scale")
    gap_tol = out.solver.inner_tol * (1.0 + scale)
    if gap > gap_tol:
        problems.append(f"bracket gap {gap:.3e} above inner_tol*(1+scale) = {gap_tol:.3e}")
    return problems


def _nonnegative_problems(out: Outcome) -> list:
    states = list(out.result.snapshots)
    if out.result.final_state is not states[-1]:
        states.append(out.result.final_state)
    low = min(min(float(s.u1.values.min()), float(s.u2.values.min())) for s in states)
    return [] if low >= 0.0 else [f"negative density {low!r}"]


def blowup_reference(amplitudes) -> float:
    """Exact overflow time: constant data stays spatially homogeneous."""
    from sktlab.model import ModelParams
    from sktlab.oracle import ode_reduce

    traj = ode_reduce(ModelParams(**SEMILINEAR), amplitudes, 2.0, rtol=1e-12)
    if traj.termination != "diverged":
        raise RuntimeError("ODE reference did not diverge")
    return traj.diverged_time


# -- workloads ----------------------------------------------------------------


class BlowupRun:
    name = "blowup-1d"
    base = (1.2, 0.8)
    min_runs = 1

    def config(self, seed: int) -> str:
        u1, u2 = _amplitudes(self.base, seed)
        return _ini({
            "model": _model(SEMILINEAR),
            "grid": {"dim": 1, "lx": repr(math.pi), "nx": 33},
            "solver": {"dt": 1e-4, "t_end": 2.0, "overflow_cap": 1e8, "snapshot_every": 200},
            "initial": {"kind": "constant", "u1": repr(u1), "u2": repr(u2)},
        })

    def run(self, ctx, config_path) -> Outcome:
        return _run_library(ctx, config_path, window=False, analyze=True)

    def check(self, out: Outcome, seed: int) -> tuple:
        """Problems found, and the relative error of the overflow time."""
        problems = []
        res, rep = out.result, out.report
        if res.termination != "overflowed":
            problems.append(f"termination {res.termination!r}, expected 'overflowed'")
            return problems, None
        if rep.bound_violations != 0:
            problems.append(f"{rep.bound_violations} Riccati bound violations")
        if rep.within_t0_slack is not True:
            problems.append(f"within_t0_slack is {rep.within_t0_slack!r}")
        t_ref = blowup_reference(_amplitudes(self.base, seed))
        err = abs(res.overflow_time - t_ref)
        if err > _BLOWUP_STEPS_TOL * out.solver.dt:
            problems.append(
                f"overflow at {res.overflow_time!r}, exact {t_ref!r}: "
                f"off by more than {_BLOWUP_STEPS_TOL} steps of {out.solver.dt}"
            )
        problems += _nonnegative_problems(out)
        return problems, err / t_ref


class CertifiedRun:
    name = "certified-2d"
    base = (0.2, 0.1, 0.3, 0.05)
    min_runs = 1

    def config(self, seed: int) -> str:
        a, b, c, d = (repr(v) for v in _amplitudes(self.base, seed))
        return _ini({
            "model": _model(CERTIFIED),
            "grid": {"dim": 2, "lx": repr(math.pi), "ly": repr(math.pi), "nx": 65, "ny": 65},
            "solver": {"dt": 1e-3, "t_end": 0.02},
            "initial": {
                "kind": "expression",
                "u1": f"{a} + {b}*cos(x)*cos(y)",
                "u2": f"{c} + {d}*cos(2*x)",
            },
        })

    def run(self, ctx, config_path) -> Outcome:
        return _run_library(ctx, config_path, window=True, analyze=False)

    def check(self, out: Outcome, seed: int) -> tuple:
        res = out.result
        if res.termination != "completed":
            return [f"termination {res.termination!r}, expected 'completed'"], None
        return _chain_problems(out, out.scale) + _nonnegative_problems(out), None


class CliSimulateRun:
    name = "cli-simulate-1d"
    base = (0.2, 0.1, 0.3, 0.05)
    min_runs = 2  # two runs must write byte-identical artifacts

    def config(self, seed: int) -> str:
        a, b, c, d = (repr(v) for v in _amplitudes(self.base, seed))
        return _ini({
            "model": _model(CERTIFIED),
            "grid": {"dim": 1, "lx": repr(math.pi), "nx": 513},
            "solver": {
                "dt": 0.001, "t_end": 0.5, "inner_tol": 1e-10, "max_inner_iters": 500,
                "overflow_cap": 1e8, "snapshot_every": 1, "max_halvings": 20,
            },
            "initial": {
                "kind": "expression",
                "u1": f"{a} + {b}*cos(x)",
                "u2": f"{c} + {d}*cos(2*x)",
            },
            "blowup": {"mu1": 1.0, "mu2": 1.0, "lambda0_mode": "principal"},
            "output": {"directory": "out", "formats": "csv,json"},  # --out overrides
        })

    def run(self, ctx, config_path) -> Outcome:
        return _run_cli(ctx, config_path, os.path.join(os.path.dirname(config_path), "out"))

    def check(self, out: Outcome, seed: int) -> tuple:
        import numpy as np

        if out.exit_code != 0:
            return [f"sktlab simulate exited {out.exit_code}"], None
        problems = []
        with open(out.files["run_summary.json"]) as fh:
            summary = json.load(fh)
        expected = {
            "termination": "completed",
            "steps": len(out.result.summaries),
            "halvings_used": out.result.halvings_used,
            "bracket_mode": "window",
            "lambda0": 0.0,
            "lambda0_mode": "principal",
            "error": None,
        }
        for key, want in expected.items():
            if summary.get(key) != want:
                problems.append(f"run_summary {key} = {summary.get(key)!r}, expected {want!r}")
        scale = out.scale
        worst = summary.get("worst_ordering_violation")
        if worst is None or worst > _CHAIN_TOL * max(1.0, scale):
            problems.append(f"run_summary worst_ordering_violation {worst!r} too large")
        data = np.loadtxt(out.files["snapshots.csv"], delimiter=",", skiprows=1)
        want_rows = (len(out.result.summaries) + 1) * out.grid.npoints
        if data.shape != (want_rows, 6):
            problems.append(f"snapshots.csv holds {data.shape}, expected ({want_rows}, 6)")
        elif not (np.isfinite(data).all() and (data[:, 2:] >= 0.0).all()):
            problems.append("snapshots.csv holds negative or non-finite values")
        return problems + _chain_problems(out, scale), None


WORKLOADS = {w.name: w for w in (BlowupRun(), CertifiedRun(), CliSimulateRun())}


# -- counts ---------------------------------------------------------------------


def counts(out: Outcome) -> dict:
    """Exact work counts that must repeat across runs of one commit."""
    res = out.result
    c = {
        "accepted_steps": len(res.summaries),
        "inner_iterates": sum(s.iterations for s in res.summaries),
        "phi_retries": sum(s.retries for s in res.summaries),
        "halvings": res.halvings_used,
    }
    for name, path in sorted(out.files.items()):
        with open(path, "rb") as fh:
            blob = fh.read()
        c[f"{name}.bytes"] = len(blob)
        c[f"{name}.sha256"] = hashlib.sha256(blob).hexdigest()
        if name.endswith(".csv"):
            c[f"{name}.rows"] = blob.count(b"\n") - 1
    return c

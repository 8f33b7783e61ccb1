"""Command-line front end: classify, simulate, blowup, and sweep.

Exit codes separate process health from science: 0 covers every verdict
(certified or not, overflow or completion), 2 is a malformed config, 3 a
bracket that could not be built, 4 a solver that could not converge. All
artifacts are deterministic byte-for-byte for a given config: floats are
written with repr (shortest exact decimal) in both CSV and JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .blowup import _json_real, analyze, weighted_average
from .config import RunConfig, build_initial_fields, load_config
from .errors import (
    BracketConstructionError,
    ConfigError,
    ConvergenceError,
    NumericalError,
    OrderingViolationError,
)
from .grid import Grid, principal_eigenpair
from .iteration import SystemState, initial_bracket, simulate
from .model import _PARAM_KEYS
from .regimes import (
    SCHEMA_VERSION,
    classify_blowup,
    classify_global,
    search_multipliers,
    t0_estimate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BRACKET = 3
EXIT_SOLVER = 4

_SWEEP_AXES = _PARAM_KEYS + ("mu1", "mu2")


def _r(value) -> str:
    """Shortest exact decimal for a CSV cell; empty cell for None."""
    return "" if value is None else repr(float(value))


def _b(value) -> str:
    return "" if value is None else ("true" if value else "false")


def _write_json(obj, path) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _data_t0(cert, p_hat0):
    """T0 from a certificate and the measured initial average, if defined."""
    if cert.conditions_hold and cert.threshold is not None and p_hat0 > cert.threshold:
        return t0_estimate(cert, p_hat0)
    return None


class _Run:
    """Shared setup: grid, eigenpair, initial fields, initial average."""

    def __init__(self, cfg: RunConfig, lambda0_mode_override):
        self.cfg = cfg
        self.mode = lambda0_mode_override or cfg.lambda0_mode
        self.eig = principal_eigenpair(cfg.grid, self.mode)
        self.u0 = build_initial_fields(cfg.require_initial(), cfg.grid, self.eig)
        state0 = SystemState.from_u(cfg.params, 0.0, self.u0[0], self.u0[1])
        self.wa0 = weighted_average(cfg.grid, self.eig, cfg.mu1, cfg.mu2, state0)
        self.regime = classify_global(cfg.params, self.eig.lambda0, self.mode)
        self.cert = classify_blowup(
            cfg.params, self.eig.lambda0, cfg.mu1, cfg.mu2, self.wa0.p_hat
        )

    def choose_bracket(self):
        """Window bracket only when confinement is certified and no blow-up is.

        A data-certified blow-up makes any fixed ceiling futile, so those
        runs (and uncertified ones) use the per-step auto bracket.
        """
        if not self.cert.certified and self.regime.certified:
            lower, upper = initial_bracket(
                self.cfg.params, self.eig, self.u0, self.regime
            )
            return (lower, upper), "window"
        return None, "auto"

    def run_simulation(self):
        solver = self.cfg.require_solver()
        t_end = self.cfg.require_t_end()
        bracket, bracket_mode = self.choose_bracket()
        result = simulate(
            self.cfg.params,
            self.cfg.grid,
            self.eig,
            self.u0,
            solver,
            t_end,
            bracket=bracket,
        )
        return result, bracket_mode


def _write_snapshots_csv(path, grid: Grid, snapshots) -> None:
    with open(path, "w", newline="") as fh:
        if grid.dimension == 1:
            fh.write("t,x,u1,u2,h1,h2\n")
            for s in snapshots:
                t = _r(s.t)
                for x, a, b, p, q in zip(
                    grid.xs, s.u1.values, s.u2.values, s.h1.values, s.h2.values
                ):
                    fh.write(f"{t},{_r(x)},{_r(a)},{_r(b)},{_r(p)},{_r(q)}\n")
        else:
            fh.write("t,x,y,u1,u2,h1,h2\n")
            for s in snapshots:
                t = _r(s.t)
                u1, u2, h1, h2 = s.u1.values, s.u2.values, s.h1.values, s.h2.values
                for i, x in enumerate(grid.xs):
                    xr = _r(x)
                    for j, y in enumerate(grid.ys):
                        fh.write(
                            f"{t},{xr},{_r(y)},{_r(u1[i, j])},{_r(u2[i, j])},"
                            f"{_r(h1[i, j])},{_r(h2[i, j])}\n"
                        )


def _run_summary(result, run: _Run, bracket_mode: str) -> dict:
    worst = max((s.worst_violation for s in result.summaries), default=None)
    most_iters = max((s.iterations for s in result.summaries), default=None)
    m1, m2 = result.final_state.sup_norms()
    return {
        "schema_version": SCHEMA_VERSION,
        "termination": result.termination,
        "overflow_time": result.overflow_time,
        "final_time": result.final_state.t,
        "steps": len(result.summaries),
        "worst_ordering_violation": worst,
        "max_inner_iterations": most_iters,
        "halvings_used": result.halvings_used,
        "final_dt": result.final_dt,
        "final_sup_norms": [_json_real(m1), _json_real(m2)],
        "bracket_mode": bracket_mode,
        "lambda0": run.eig.lambda0,
        "lambda0_mode": run.mode,
        "error": None if result.error is None else str(result.error),
    }


def cmd_classify(args, cfg: RunConfig, out_dir: str) -> int:
    run = _Run(cfg, args.lambda0_mode)
    cert_dict = run.cert.as_dict()
    cert_dict["t0"] = _data_t0(run.cert, run.wa0.p_hat)

    searched = None
    if cfg.search_resolution is not None:
        best = search_multipliers(
            cfg.params,
            run.eig.lambda0,
            run.wa0.p_hat1,
            run.wa0.p_hat2,
            cfg.search_resolution,
        )
        searched = best.as_dict()
        searched["t0"] = _data_t0(best, best.p_hat0)

    report = {
        "schema_version": SCHEMA_VERSION,
        "lambda0": run.eig.lambda0,
        "lambda0_mode": run.mode,
        "p_hat0": run.wa0.p_hat,
        "regime": run.regime.as_dict(),
        "blowup_certificate": cert_dict,
        "searched_certificate": searched,
    }
    path = args.regime_report or os.path.join(out_dir, "regime_report.json")
    if args.regime_report or "json" in cfg.formats:
        _write_json(report, path)
        print(f"wrote {path}")
    print(f"regime: {run.regime.verdict}")
    tail = "" if run.cert.failing_condition is None else (
        f" (failing: {run.cert.failing_condition})"
    )
    print(f"blowup: {run.cert.verdict}{tail}")
    return EXIT_OK


def cmd_simulate(args, cfg: RunConfig, out_dir: str) -> int:
    run = _Run(cfg, args.lambda0_mode)
    result, bracket_mode = run.run_simulation()

    if "csv" in cfg.formats:
        path = os.path.join(out_dir, "snapshots.csv")
        _write_snapshots_csv(path, cfg.grid, result.snapshots)
        print(f"wrote {path}")
    if "json" in cfg.formats:
        path = os.path.join(out_dir, "run_summary.json")
        _write_json(_run_summary(result, run, bracket_mode), path)
        print(f"wrote {path}")

    print(f"termination: {result.termination}")
    if result.termination == "overflowed":
        print(f"overflow_time: {_r(result.overflow_time)}")
    if result.termination == "failed":
        print(f"simulation failed: {result.error}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_blowup(args, cfg: RunConfig, out_dir: str) -> int:
    run = _Run(cfg, args.lambda0_mode)
    result, bracket_mode = run.run_simulation()
    report = analyze(result, run.cert, cfg.grid, run.eig)

    if "json" in cfg.formats:
        path = os.path.join(out_dir, "blowup_report.json")
        doc = report.as_dict()
        doc["run_summary"] = _run_summary(result, run, bracket_mode)
        _write_json(doc, path)
        print(f"wrote {path}")
    if "csv" in cfg.formats:
        path = os.path.join(out_dir, "p_hat_trajectory.csv")
        report.write_trajectory_csv(path)
        print(f"wrote {path}")

    print(f"termination: {result.termination}")
    print(f"verdict: {run.cert.verdict}")
    if report.detected_blowup_time is not None:
        print(f"detected_blowup_time: {_r(report.detected_blowup_time)}")
    if result.termination == "failed":
        print(f"simulation failed: {result.error}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _sweep_values(args) -> np.ndarray:
    if args.count < 1:
        raise ConfigError(f"sweep count must be >= 1, got {args.count}")
    if args.scale == "log":
        if args.min <= 0.0 or args.max <= 0.0:
            raise ConfigError(
                f"log-scale sweep needs positive endpoints, got [{args.min}, {args.max}]"
            )
        return np.geomspace(args.min, args.max, args.count)
    return np.linspace(args.min, args.max, args.count)


def cmd_sweep(args, cfg: RunConfig, out_dir: str) -> int:
    key = args.param
    if key not in _SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis {key!r}; choose one of {', '.join(_SWEEP_AXES)}"
        )
    values = _sweep_values(args)
    run = _Run(cfg, args.lambda0_mode)

    rows = []
    for value in values:
        value = float(value)
        params = cfg.params
        mu1, mu2 = cfg.mu1, cfg.mu2
        if key in _PARAM_KEYS:
            try:
                params = params.replace(**{key: value})
            except ValueError as exc:
                raise ConfigError(f"sweep value {value!r} rejected: {exc}") from None
        elif key == "mu1":
            mu1 = value
        else:
            mu2 = value
        if not (mu1 > 0.0 and mu2 > 0.0):
            raise ConfigError(f"sweep value {value!r} rejected: multipliers must be positive")

        regime = classify_global(params, run.eig.lambda0, run.mode)
        p_hat0 = mu1 * run.wa0.p_hat1 + mu2 * run.wa0.p_hat2
        cert = classify_blowup(params, run.eig.lambda0, mu1, mu2, p_hat0)
        branch = next(r for r in cert.conditions if r.name.startswith("c1 + b2"))
        t0 = _data_t0(cert, p_hat0)

        detected = None
        if args.simulate:
            cfg.require_t_end()
            # rebuild with the swept parameters so bracket choice follows
            sub_cfg = dataclasses.replace(cfg, params=params, mu1=mu1, mu2=mu2)
            result, _ = _Run(sub_cfg, args.lambda0_mode).run_simulation()
            detected = result.overflow_time

        rows.append(
            (
                key,
                _r(value),
                regime.verdict,
                cert.verdict,
                cert.condition_branch,
                _b(branch.holds),
                _r(cert.threshold),
                _r(p_hat0),
                _r(t0),
                _r(detected),
            )
        )

    path = os.path.join(out_dir, "sweep.csv")
    if "csv" in cfg.formats:
        with open(path, "w", newline="") as fh:
            fh.write(
                "param,value,regime_verdict,blowup_verdict,condition_branch,"
                "branch_condition_holds,threshold,p_hat0,t0,detected_blowup_time\n"
            )
            for row in rows:
                fh.write(",".join(row) + "\n")
        print(f"wrote {path}")
    print(f"sweep: {len(rows)} rows over {key}")
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "blowup": cmd_blowup,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a run config file")
    common.add_argument("--out", default=None, help="output directory (overrides [output])")
    common.add_argument(
        "--lambda0-mode",
        choices=("principal", "first_positive"),
        default=None,
        help="override the eigenvalue mode from [blowup]",
    )

    parser = argparse.ArgumentParser(
        prog="sktlab",
        description="Certificates, monotone simulation, and blow-up analysis "
        "for a two-species self-diffusion system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="evaluate certificates")
    p.add_argument("--regime-report", default=None, help="explicit report path")

    sub.add_parser("simulate", parents=[common], help="march the monotone scheme")
    sub.add_parser("blowup", parents=[common], help="simulate and grade the blow-up bound")

    p = sub.add_parser("sweep", parents=[common], help="scan one parameter")
    p.add_argument("--param", required=True, help="axis: a model key or mu1/mu2")
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument(
        "--simulate", action="store_true", help="also run a simulation per row"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg.output_dir
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](args, cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BracketConstructionError as exc:
        print(f"bracket construction failed: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except (ConvergenceError, OrderingViolationError, NumericalError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

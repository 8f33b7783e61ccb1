"""Command-line front end: classify, simulate, blowup, and sweep.

Exit codes separate process health from science: 0 covers every verdict
(certified or not, overflow or completion), 2 is a malformed config or an
artifact that could not be written, 3 a bracket that could not be built, 4 a
solver that failed (no convergence, broken ordering, or a failed linear
solve). All artifacts are deterministic byte-for-byte for a given config:
floats are written with repr (shortest exact decimal) in both CSV and JSON.
Each is written to a temp file and renamed into place, so it appears whole
or not at all.

`simulate` keeps its snapshots in a spool, not in memory: one record of
8*(1 + 4*npoints) bytes per kept state in an unlinked temporary file in the
output directory, closed (and so freed) when the command ends. Where os.pread
and os.pwrite are missing it keeps them in a list, as the library does. The
snapshot writer formats contiguous blocks of them in forked processes, one
per CPU the process may use, when there are enough cells to pay for a fork;
its bytes do not depend on the number of blocks. On Python 3.12 and later,
forking a multi-threaded parent (unpinned OpenBLAS threads, say) emits a
DeprecationWarning. The children only read the snapshots, format floats and
write a file; they call no BLAS.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from .blowup import analyze, weighted_average
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
    _t0_or_none,
    classify_blowup,
    classify_global,
    search_multipliers,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BRACKET = 3
EXIT_SOLVER = 4

_SWEEP_AXES = _PARAM_KEYS + ("mu1", "mu2")


def _r(value) -> str:
    """Shortest exact decimal for a CSV cell; empty cell for None."""
    return "" if value is None else repr(float(value))


class _WriteError(Exception):
    """An artifact could not be written."""


@contextlib.contextmanager
def _artifact(path):
    """Write one artifact to the hidden temp path the block is given, beside
    `path`, then rename it to `path` and report it.

    The artifact appears whole or not at all: when the block or the rename
    fails, the temp file is removed, and an OSError becomes a _WriteError
    naming the path. The writer creates the temp file with a plain open, so
    the artifact has the mode open gives.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        try:
            yield tmp
            os.replace(tmp, path)
        finally:
            # after the rename there is nothing left to remove
            with contextlib.suppress(OSError):
                os.remove(tmp)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc.strerror or exc}") from exc
    print(f"wrote {path}")


def _write_json(obj, path) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


class _Run:
    """Shared setup: grid, eigenpair, initial fields, initial averages, and
    the config's certificates."""

    def __init__(self, cfg: RunConfig, lambda0_mode_override):
        self.cfg = cfg
        self.mode = lambda0_mode_override or cfg.lambda0_mode
        self.eig = principal_eigenpair(cfg.grid, self.mode)
        self.u0 = build_initial_fields(cfg.require_initial(), cfg.grid, self.eig)
        try:
            state0 = SystemState.from_u(cfg.params, 0.0, self.u0[0], self.u0[1])
        except ValueError as exc:  # the data's transform overflows
            raise ConfigError(str(exc), section="initial") from None
        self.wa0 = weighted_average(cfg.grid, self.eig, cfg.mu1, cfg.mu2, state0)
        try:
            self.regime, self.cert, self.p_hat0 = self.certificates(cfg.params, cfg.mu1, cfg.mu2)
        except ValueError as exc:  # the multipliers' weighted average overflows
            raise ConfigError(str(exc), section="blowup") from None

    def certificates(self, params, mu1, mu2):
        """(regime, blow-up certificate, p_hat0) for `params` and the
        multipliers, p_hat0 being the data's weighted average under them.
        Raises ValueError when that average overflows, or classify_blowup
        refuses the multipliers."""
        regime = classify_global(params, self.eig.lambda0, self.mode)
        p_hat0 = mu1 * self.wa0.p_hat1 + mu2 * self.wa0.p_hat2
        if not math.isfinite(p_hat0):
            raise ValueError(
                f"the weighted average mu1*p_hat1 + mu2*p_hat2 overflows at mu1 = {mu1!r}, "
                f"mu2 = {mu2!r}"
            )
        return regime, classify_blowup(params, self.eig.lambda0, mu1, mu2, p_hat0), p_hat0

    def run_simulation(self, row=None, snapshots=None):
        """Simulate from the run's fields, with the config's params and
        certificates or a sweep row's (params, regime, cert), keeping the
        states in `snapshots` (simulate's sink; a new list by default).
        Returns the result and the bracket mode.

        The window bracket is used only when confinement is certified and
        no blow-up is. A data-certified blow-up makes any fixed ceiling
        futile, so those runs (and uncertified ones) use the per-step auto
        bracket. A sweep row whose data exceed its window runs in the auto
        bracket too; the config's own run raises BracketConstructionError.
        """
        solver = self.cfg.require_solver()
        t_end = self.cfg.require_t_end()
        params, regime, cert = row or (self.cfg.params, self.regime, self.cert)
        bracket, bracket_mode = None, "auto"
        if not cert.certified and regime.certified:
            try:
                bracket = initial_bracket(params, self.eig, self.u0, regime)
                bracket_mode = "window"
            except BracketConstructionError:
                if row is None:
                    raise
        result = simulate(
            params, self.cfg.grid, self.eig, self.u0, solver, t_end,
            bracket=bracket, snapshots=snapshots,
        )
        return result, bracket_mode


def _reprs(values) -> list:
    """_r of every value of an array, in C order."""
    # tolist() yields Python floats, whose repr is the shortest exact decimal
    return list(map(repr, np.ravel(values).tolist()))


# fewest formatted cells worth a forked writer: a fork costs about 2 ms,
# formatting 64k cells about 50 ms
_BLOCK_CELLS = 1 << 16


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_rows(fh, points, snapshots) -> None:
    """The rows of `snapshots`, one per point, `points` being their
    preformatted coordinate cells."""
    for s in snapshots:
        t = _r(s.t)
        cols = [_reprs(a) for a in (*s.u, *s.h)]
        fh.writelines(
            f"{t},{p},{a},{b},{c},{d}\n" for p, a, b, c, d in zip(points, *cols)
        )


def _write_part(part, points, snapshots) -> None:
    """In a forked child: write one block's rows to `part`, then exit.

    It never returns, so the child cannot unwind into its parent's stack,
    and os._exit skips stdio flushes and atexit handlers, which would
    otherwise run a second time.
    """
    status = 1
    try:
        with open(part, "w", newline="") as fh:
            _write_rows(fh, points, snapshots)
        status = 0
    except BaseException:
        # imported only on failure: the module adds 0.1 MB to peak RSS
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _write_snapshots_csv(path, grid: Grid, snapshots) -> None:
    """snapshots.csv, formatted in contiguous blocks of snapshots on every
    available CPU.

    Blocks after the first are written by forked children into sibling
    temp files, which are appended in order once every child has exited
    cleanly; the rows are the same bytes whatever the number of blocks.
    """
    # the coordinate cells are the same in every snapshot: format them once
    xs = _reprs(grid.xs)
    if grid.dimension == 1:
        header, points = "t,x,u1,u2,h1,h2\n", xs
    else:
        ys = _reprs(grid.ys)
        header, points = "t,x,y,u1,u2,h1,h2\n", [f"{x},{y}" for x in xs for y in ys]
    n = len(snapshots)
    k = 1
    if hasattr(os, "fork"):
        cells = n * 4 * len(points)  # u1, u2, h1 and h2 at every point
        k = max(1, min(_cpu_count(), cells // _BLOCK_CELLS, n))
    blocks = [snapshots[i * n // k:(i + 1) * n // k] for i in range(k)]
    parts = []
    try:
        directory, name = os.path.split(os.fspath(path))
        for _ in blocks[1:]:
            fd, part = tempfile.mkstemp(prefix=f".{name}.", suffix=".part", dir=directory or ".")
            os.close(fd)
            parts.append(part)
        sys.stderr.flush()  # a failing child prints to it
        pids = []
        try:
            for part, block in zip(parts, blocks[1:]):
                pid = os.fork()
                if pid == 0:
                    _write_part(part, points, block)
                pids.append(pid)
            with open(path, "w", newline="") as fh:
                fh.write(header)
                _write_rows(fh, points, blocks[0])
        finally:
            # every child is reaped, also when this process's block failed
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        for i, code in enumerate(codes, 1):
            if code != 0:
                raise ChildProcessError(f"writer of snapshot block {i} exited with status {code}")
        with open(path, "ab") as out:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out)
    finally:
        for part in parts:
            os.remove(part)


def _run_summary(result, run: _Run, bracket_mode: str) -> dict:
    # one pass; `>` keeps the first of equal maxima, as max() does
    worst = most_iters = None
    for s in result.summaries:
        if worst is None or s.worst_violation > worst:
            worst = s.worst_violation
        if most_iters is None or s.iterations > most_iters:
            most_iters = s.iterations
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
        "final_sup_norms": list(result.final_state.sup_norms()),  # finite, as every state is
        "bracket_mode": bracket_mode,
        "lambda0": run.eig.lambda0,
        "lambda0_mode": run.mode,
        "error": None if result.error is None else str(result.error),
    }


def cmd_classify(args, cfg: RunConfig, out_dir: str) -> int:
    run = _Run(cfg, args.lambda0_mode)
    cert_dict = run.cert.as_dict()
    cert_dict["t0"] = _t0_or_none(run.cert, run.p_hat0)

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
        searched["t0"] = _t0_or_none(best, best.p_hat0)

    report = {
        "schema_version": SCHEMA_VERSION,
        "lambda0": run.eig.lambda0,
        "lambda0_mode": run.mode,
        "p_hat0": run.p_hat0,
        "regime": run.regime.as_dict(),
        "blowup_certificate": cert_dict,
        "searched_certificate": searched,
    }
    path = args.regime_report or os.path.join(out_dir, "regime_report.json")
    if args.regime_report or "json" in cfg.formats:
        with _artifact(path) as tmp:
            _write_json(report, tmp)
    print(f"regime: {run.regime.verdict}")
    tail = "" if run.cert.failing_condition is None else (
        f" (failing: {run.cert.failing_condition})"
    )
    print(f"blowup: {run.cert.verdict}{tail}")
    return EXIT_OK


def _snapshot_sink(grid: Grid, directory):
    """The with-block sink that `simulate` keeps states in for snapshots.csv:
    a spool file in `directory` where os.pread and os.pwrite exist, else a
    list."""
    if not hasattr(os, "pwrite"):
        return contextlib.nullcontext([])
    from ._spool import SnapshotSpool  # only this command compiles it

    return SnapshotSpool(grid, directory)


def cmd_simulate(args, cfg: RunConfig, out_dir: str) -> int:
    run = _Run(cfg, args.lambda0_mode)
    if "csv" in cfg.formats:
        # kept states go to a spool beside the artifact: one that cannot be
        # made, or written, is a snapshots.csv that cannot be written
        path = os.path.join(out_dir, "snapshots.csv")
        with _artifact(path) as tmp, _snapshot_sink(cfg.grid, out_dir) as snapshots:
            result, bracket_mode = run.run_simulation(snapshots=snapshots)
            _write_snapshots_csv(tmp, cfg.grid, snapshots)
    else:
        result, bracket_mode = run.run_simulation()
    if "json" in cfg.formats:
        path = os.path.join(out_dir, "run_summary.json")
        with _artifact(path) as tmp:
            _write_json(_run_summary(result, run, bracket_mode), tmp)

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
        with _artifact(path) as tmp:
            _write_json(doc, tmp)
    if "csv" in cfg.formats:
        path = os.path.join(out_dir, "p_hat_trajectory.csv")
        with _artifact(path) as tmp:
            report.write_trajectory_csv(tmp)

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
    if not (math.isfinite(args.min) and math.isfinite(args.max)):
        raise ConfigError(f"sweep endpoints must be finite, got [{args.min}, {args.max}]")
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
    values = _sweep_values(args).tolist()
    run = _Run(cfg, args.lambda0_mode)

    rows = []
    for value in values:
        params, mu = cfg.params, {"mu1": cfg.mu1, "mu2": cfg.mu2}
        try:
            if key in mu:
                mu[key] = value
            else:
                params = params.replace(**{key: value})
            regime, cert, p_hat0 = run.certificates(params, **mu)
            detected = None
            if args.simulate:  # ValueError: the row's transform of the data overflows
                result, _ = run.run_simulation((params, regime, cert))
                detected = result.overflow_time
        except ValueError as exc:
            raise ConfigError(f"sweep value {value!r} rejected: {exc}") from None
        branch = next(r for r in cert.conditions if r.name.startswith("c1 + b2"))

        rows.append(
            (
                key,
                _r(value),
                regime.verdict,
                cert.verdict,
                cert.condition_branch,
                "true" if branch.holds else "false",
                _r(cert.threshold),
                _r(p_hat0),
                _r(_t0_or_none(cert, p_hat0)),
                _r(detected),
            )
        )

    path = os.path.join(out_dir, "sweep.csv")
    if "csv" in cfg.formats:
        with _artifact(path) as tmp, open(tmp, "w", newline="") as fh:
            fh.write(
                "param,value,regime_verdict,blowup_verdict,condition_branch,"
                "branch_condition_holds,threshold,p_hat0,t0,detected_blowup_time\n"
            )
            for row in rows:
                fh.write(",".join(row) + "\n")
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
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from None
        return _COMMANDS[args.command](args, cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _WriteError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except BracketConstructionError as exc:
        print(f"bracket construction failed: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except (ConvergenceError, OrderingViolationError, NumericalError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

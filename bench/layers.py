"""Where the traced run wraps sktlab, and the per-layer metrics it reports.

Each target is a name one module looks up in another at call time, so
wrapping it times exactly the calls that cross that layer boundary. Every
span name has one time metric, and every time metric is self time: the
time inside the layer minus the time spent in the traced layers it calls.
Names ending in `self_s` mark layers where the two differ by more than a
few field constructions. The self times of all spans plus
`trace.unattributed_s` add up to the traced run's `total_s`.
"""

from __future__ import annotations

import os


def _bump(counters, key, n):
    counters[key] = counters.get(key, 0) + n


def _count_solve(counters, args, kwargs, out):
    solver = args[0]
    rhs = args[3] if len(args) > 3 else kwargs["rhs_cols"]
    _bump(counters, "linear_solve.columns", len(rhs))
    # computed, not measured: right-hand sides times grid points
    _bump(counters, "linear_solve.unknowns", len(rhs) * solver.grid.npoints)


def _count_csv(counters, args, kwargs, out):
    path, grid, snapshots = args[:3]
    _bump(counters, "write.bytes", os.path.getsize(path))
    _bump(counters, "write.rows", len(snapshots) * grid.npoints)


def _count_json(counters, args, kwargs, out):
    _bump(counters, "write.bytes", os.path.getsize(args[1]))


_IT, _CLI = "sktlab.iteration", "sktlab.cli"

# (span name, owner, attribute, counter)
TARGETS = (
    ("iteration.simulate", _IT, "simulate", None),
    ("iteration.simulate", _CLI, "simulate", None),
    ("iteration.step_monotone", _IT, "step_monotone", None),
    ("iteration.linear_solve", _IT + "._HelmholtzSolver", "solve", _count_solve),
    ("iteration.auto_bracket", _IT, "_auto_bracket", None),
    ("iteration.auto_bracket", _IT, "_auto_bracket_feasible", None),
    ("iteration.initial_bracket", _IT, "initial_bracket", None),
    ("iteration.initial_bracket", _CLI, "initial_bracket", None),
    ("model.reaction", _IT, "_reaction_raw", None),
    ("model.transform", _IT, "_transform_raw", None),
    ("model.inverse", _IT, "_inverse_raw", None),
    ("grid.lap", _IT, "_lap_array", None),
    ("grid.field", "sktlab.grid.ScalarField", "__post_init__", None),
    ("grid.eigenpair", "sktlab.grid", "principal_eigenpair", None),
    ("grid.eigenpair", _CLI, "principal_eigenpair", None),
    ("config.load", "sktlab.config", "load_config", None),
    ("config.load", _CLI, "load_config", None),
    ("config.initial_fields", "sktlab.config", "build_initial_fields", None),
    ("config.initial_fields", _CLI, "build_initial_fields", None),
    ("regimes.classify", "sktlab.regimes", "classify_global", None),
    ("regimes.classify", "sktlab.regimes", "classify_blowup", None),
    ("regimes.classify", _CLI, "classify_global", None),
    ("regimes.classify", _CLI, "classify_blowup", None),
    ("blowup.analyze", "sktlab.blowup", "analyze", None),
    ("blowup.analyze", _CLI, "analyze", None),
    ("cli.write_snapshots", _CLI, "_write_snapshots_csv", _count_csv),
    ("cli.write_json", _CLI, "_write_json", _count_json),
)

IMPORT_SPAN = "process.import"

# span name -> its time metric
TIME_METRICS = {
    "iteration.simulate": "iteration.simulate.self_s",
    "iteration.step_monotone": "iteration.step_monotone.self_s",
    "iteration.linear_solve": "iteration.linear_solve.s",
    "iteration.auto_bracket": "iteration.auto_bracket.self_s",
    "iteration.initial_bracket": "iteration.initial_bracket.self_s",
    "model.reaction": "model.reaction.s",
    "model.transform": "model.transform.s",
    "model.inverse": "model.inverse.s",
    "grid.lap": "grid.lap.s",
    "grid.field": "grid.field.s",
    "grid.eigenpair": "grid.eigenpair.s",
    "config.load": "config.load.s",
    "config.initial_fields": "config.initial_fields.s",
    "regimes.classify": "regimes.classify.s",
    "blowup.analyze": "blowup.analyze.s",
    "cli.write_snapshots": "cli.write_snapshots.s",
    "cli.write_json": "cli.write_json.s",
    IMPORT_SPAN: "process.import_s",
}

# span name -> its call-count metric
CALL_METRICS = {
    "iteration.linear_solve": "iteration.linear_solve.calls",
    "iteration.step_monotone": "iteration.step_monotone.calls",
    "model.reaction": "model.reaction.calls",
    "model.transform": "model.transform.calls",
    "model.inverse": "model.inverse.calls",
    "grid.lap": "grid.lap.calls",
    "grid.field": "grid.field.calls",
}


# spans whose call durations are kept for percentiles
HISTOGRAMS = {"iteration.step_monotone"}


def install(tracer) -> None:
    for name, owner, attr, count in TARGETS:
        tracer.wrap(name, owner, attr, count, hist=name in HISTOGRAMS)


def exact_counts(tracer) -> dict:
    """Traced work counts that must repeat exactly across runs."""
    return {
        "linear_solve.calls": tracer.calls("iteration.linear_solve"),
        "linear_solve.columns": tracer.counters.get("linear_solve.columns", 0),
        "step_monotone.calls": tracer.calls("iteration.step_monotone"),
    }


def per_layer(tracer, out, total_s: float) -> tuple:
    """({metric: (value, unit)}, [metrics left out because their span is absent]).

    `out` is the workload Outcome; counts that the run result already holds
    (accepted steps, iterates, chain audit) come from it, the rest from the
    tracer.
    """
    metrics = {}
    missing = []

    def put(name, value, unit, needs=()):
        if all(span in tracer.present for span in needs):
            metrics[name] = (value, unit)
        else:
            missing.append(name)

    for span, name in TIME_METRICS.items():
        put(name, tracer.self_s(span), "s", (span,))
    for span, name in CALL_METRICS.items():
        put(name, tracer.calls(span), "count", (span,))

    solve = ("iteration.linear_solve",)
    put("iteration.linear_solve.columns",
        tracer.counters.get("linear_solve.columns", 0), "count", solve)
    put("iteration.linear_solve.unknowns",
        tracer.counters.get("linear_solve.unknowns", 0), "count", solve)
    step = ("iteration.step_monotone",)
    put("iteration.step_monotone.p50_us",
        tracer.percentile_us("iteration.step_monotone", 0.50), "us", step)
    put("iteration.step_monotone.p99_us",
        tracer.percentile_us("iteration.step_monotone", 0.99), "us", step)

    res, cfg = out.result, out.solver
    summaries = res.summaries
    accepted = len(summaries)
    put("iteration.simulate.accepted_steps", accepted, "count")
    # step control from outside: a raised step call is a solver rejection, a
    # returned one that was not accepted (and did not overflow) a growth
    # rejection, and the rest of the halvings were feasibility rejections
    raised = tracer.raised("iteration.step_monotone")
    returned = tracer.calls("iteration.step_monotone") - raised
    growth = returned - accepted - (res.termination == "overflowed")
    put("iteration.simulate.rejected_solver", raised, "count", step)
    put("iteration.simulate.rejected_growth", growth, "count", step)
    put("iteration.simulate.rejected_feasibility",
        res.halvings_used - raised - growth, "count", step)
    floor_dt = cfg.dt / 2**cfg.max_halvings
    put("iteration.simulate.uncontrolled_steps",
        sum(1 for s in summaries if s.dt == floor_dt), "count")
    put("iteration.inner.iterates", sum(s.iterations for s in summaries), "count")
    put("iteration.inner.phi_retries", sum(s.retries for s in summaries), "count")
    put("iteration.chain.worst_violation",
        max((s.worst_violation for s in summaries), default=0.0), "density")
    put("iteration.chain.max_gap", max((s.gap for s in summaries), default=0.0), "density")

    writers = ("cli.write_snapshots", "cli.write_json")
    put("cli.write.bytes", tracer.counters.get("write.bytes", 0), "bytes", writers)
    put("cli.write.rows", tracer.counters.get("write.rows", 0), "count", writers)

    put("trace.unattributed_s", total_s - tracer.root_total_s(), "s")
    return metrics, missing


# every per-layer metric, in report order; trace.overhead_s is added by the
# parent from the untraced and traced totals
NAMES = (
    "iteration.linear_solve.calls", "iteration.linear_solve.s",
    "iteration.linear_solve.columns", "iteration.linear_solve.unknowns",
    "iteration.step_monotone.calls", "iteration.step_monotone.self_s",
    "iteration.step_monotone.p50_us", "iteration.step_monotone.p99_us",
    "iteration.simulate.self_s", "iteration.simulate.accepted_steps",
    "iteration.simulate.rejected_feasibility", "iteration.simulate.rejected_solver",
    "iteration.simulate.rejected_growth", "iteration.simulate.uncontrolled_steps",
    "iteration.inner.iterates", "iteration.inner.phi_retries",
    "iteration.auto_bracket.self_s", "iteration.initial_bracket.self_s",
    "model.reaction.calls", "model.reaction.s",
    "model.transform.calls", "model.transform.s",
    "model.inverse.calls", "model.inverse.s",
    "grid.lap.calls", "grid.lap.s", "grid.field.calls", "grid.field.s",
    "grid.eigenpair.s", "config.load.s", "config.initial_fields.s",
    "process.import_s", "regimes.classify.s", "blowup.analyze.s",
    "cli.write_snapshots.s", "cli.write_json.s", "cli.write.bytes", "cli.write.rows",
    "iteration.chain.worst_violation", "iteration.chain.max_gap",
    "trace.overhead_s", "trace.unattributed_s",
)

"""One benchmark execution in a fresh process; started by run.py.

Imports sktlab from the checkout's `src/`, runs one workload (or only its
set-up), checks the result, and writes a JSON record to `--out`. Times are
measured from `--spawned`, the parent's monotonic clock reading just before
it started this process, so interpreter start-up counts as set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import layers
    import workloads
    from tracer import Tracer

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    import sktlab
    import sktlab.cli  # noqa: F401  (the CLI workload's entry point)

    imported = perf_counter()
    if Path(sktlab.__file__).resolve().parent != src / "sktlab":
        raise SystemExit(f"sktlab imported from {sktlab.__file__}, not from {src}")
    if tracer is not None:
        tracer.add_span(layers.IMPORT_SPAN, imported - start)
        layers.install(tracer)

    workload = workloads.WORKLOADS[args.workload]
    config_path = Path(args.workdir) / "run.conf"
    config_path.write_text(workload.config(args.seed))
    ctx = workloads.Context(setup_only=args.setup_only)
    record = {}
    try:
        out = workload.run(ctx, config_path)
    except workloads.SetupDone:
        out = None
    done = perf_counter()
    record["setup_s"] = ctx.t_ready - args.spawned
    if out is not None:
        record["total_s"] = done - args.spawned
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.unwrap_all()
            metrics, missing = layers.per_layer(tracer, out, record["total_s"])
            record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            record["missing"] = missing + [f"wrap target {t}" for t in tracer.absent]
            record["span_edges"] = tracer.edges()
            record["self_sum_s"] = tracer.all_self_s()
            record["root_sum_s"] = tracer.root_total_s()
        problems, rel_err = workload.check(out, args.seed)
        record["problems"] = problems
        record["blowup_time_rel_err"] = rel_err
        record["counts"] = workloads.counts(out)
        if tracer is not None:
            record["counts"].update(layers.exact_counts(tracer))
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""sktlab benchmark: one workload, one seed, timed or traced.

    python3 bench/run.py --workload blowup-1d --seed 0 --seconds 10 --trace 0

Run from a checkout of the repository: the program under test is imported
from `src/` next to this directory. Every execution is a fresh child process
(bench/child.py) with BLAS and OpenMP pinned to one thread, and children run
one at a time.

--trace 0 times the workload with no tracing. It first starts one set-up-only
child to warm the file cache and bytecode, then several more whose set-up
times it reports the median of, then whole runs until --seconds have passed
(at least one; two for the CLI workload), whose median total time and peak
RSS it reports.

--trace 1 makes one untraced and one traced whole run, and reports the
per-layer metrics of the traced one, plus the tracing overhead as the
difference of their total times.

Every whole run is checked (see workloads.py). Its exact work counts must
equal those of the other runs of this invocation and of earlier invocations
with the same seed on the same source tree; those are kept under
`.bench_run/counts/`. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_run"
SETUP_CHILDREN = 4
RUN_BUDGET_S = 150.0  # start no whole run that could end later than this
DEADLINE_S = 175.0  # a child still running this long after start is killed
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}


class Session:
    """Starts children for one workload and seed, and keeps their records."""

    def __init__(self, workload: str, seed: int):
        self.started = perf_counter()
        self.workload = workload
        self.seed = seed
        self.workdir = STATE / f"work-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.records = []  # every whole run that completed, checked or not
        self.env = dict(os.environ, **{k: "1" for k in THREAD_ENV})

    def child(self, *, setup_only=False, trace=False):
        """Run one child; return its record, or None if it failed."""
        self.attempted += 1
        workdir = self.workdir / str(self.attempted)
        workdir.mkdir(parents=True)
        out = workdir / "record.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--workdir", str(workdir), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        spawned = perf_counter()
        timeout = self.started + DEADLINE_S - spawned
        try:
            proc = subprocess.run(
                cmd + ["--spawned", repr(spawned)],
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(timeout, 1.0), cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"child killed after {max(timeout, 1.0):.0f} s")
        if proc.returncode != 0 or not out.exists():
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            return self._fail(f"child exited {proc.returncode}:\n{tail}")
        record = json.loads(out.read_text())
        shutil.rmtree(workdir)
        if setup_only:
            return record
        self.records.append(record)
        if record["problems"]:
            return self._fail("check failed: " + "; ".join(record["problems"]))
        return record

    def _fail(self, why: str):
        self.failed += 1
        print(f"[{self.workload} seed {self.seed}] run {self.attempted} failed: {why}",
              file=sys.stderr)
        return None

    def check_counts(self) -> None:
        """Every whole run's counts must match each other and earlier runs'."""
        if not self.records:
            return
        path = STATE / "counts" / f"{_tree_digest()}-{self.workload}-{self.seed}.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        for record in self.records:
            if record["problems"]:
                continue
            clash = {
                k: (known[k], v) for k, v in record["counts"].items()
                if k in known and known[k] != v
            }
            if clash:
                self.failed += 1
                print(f"[{self.workload} seed {self.seed}] work counts differ from an "
                      f"earlier run (earlier, now): {clash}", file=sys.stderr)
            else:
                known.update(record["counts"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(known, indent=1, sort_keys=True))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _tree_digest() -> str:
    """Digest of the program and benchmark sources, so counts of other commits never mix."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def timed(session: Session, seconds: int) -> dict:
    session.child(setup_only=True)  # warm-up, not reported
    setups = [session.child(setup_only=True) for _ in range(SETUP_CHILDREN)]
    setups = [r["setup_s"] for r in setups if r is not None]
    start = perf_counter()
    need = workloads.WORKLOADS[session.workload].min_runs
    longest = 0.0
    runs = 0
    while runs < need or perf_counter() - start < seconds:
        if runs and perf_counter() - session.started + 1.5 * longest > RUN_BUDGET_S:
            break
        t = perf_counter()
        session.child()
        longest = max(longest, perf_counter() - t)
        runs += 1
    totals = [r["total_s"] for r in session.records]
    if not totals or not setups:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(totals),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in session.records),
    }


def traced(session: Session) -> dict:
    session.child(setup_only=True)  # warm-up, not reported
    session.child()
    session.child(trace=True)
    if len(session.records) != 2:
        return {}
    plain, record = session.records
    for name in record["missing"]:
        print(f"absent in this tree, not reported: {name}", file=sys.stderr)
    mismatch = abs(record["self_sum_s"] - record["root_sum_s"])
    if mismatch > 1e-6 * max(1.0, record["total_s"]):
        session.failed += 1
        print(f"self times add up to {record['self_sum_s']!r} s but the root spans cover "
              f"{record['root_sum_s']!r} s", file=sys.stderr)
    metrics = {k: m["value"] for k, m in record["layers"].items()}
    metrics["trace.overhead_s"] = record["total_s"] - plain["total_s"]
    _print_split(record)
    return metrics


def _print_split(record: dict) -> None:
    total = record["total_s"]
    print(f"traced total {total:.3f} s; self time by span (parent):")
    for name, parent, calls, _, self_s in record["span_edges"]:
        if self_s >= 0.001 * total:
            print(f"  {100 * self_s / total:5.1f}%  {self_s:9.4f} s  {calls:9d}  "
                  f"{name} ({parent or '-'})")
    un = record["layers"]["trace.unattributed_s"]["value"]
    print(f"  {100 * un / total:5.1f}%  {un:9.4f} s  unattributed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sktlab" / "__init__.py").is_file():
        print(f"no sktlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    session = Session(args.workload, args.seed)
    try:
        values = traced(session) if args.trace else timed(session, args.seconds)
        session.check_counts()
    finally:
        session.close()
    if not values:
        print("no run completed; nothing to report", file=sys.stderr)
        return 1

    for record in session.records:
        err = record["blowup_time_rel_err"]
        tail = "" if err is None else f", blow-up time rel. error {err:.3e}"
        print(f"run: total {record['total_s']:.3f} s, setup {record['setup_s']:.3f} s"
              f"{tail}, counts {json.dumps(record['counts'], sort_keys=True)}")
    if args.trace:
        units = {k: m["unit"] for k, m in session.records[-1]["layers"].items()}
        units["trace.overhead_s"] = "s"
        names = [n for n in layers.NAMES if n in values]
    else:
        units = E2E_UNITS
        names = list(E2E_UNITS)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

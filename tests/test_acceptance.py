"""Acceptance gate: twelve numbered criteria, one printed pass/fail line each.

Each test times its own body and folds the runtime cap into the verdict, so a
regression in speed fails as loudly as a regression in numbers.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sktlab.blowup import analyze, riccati_bound
from sktlab.cli import main
from sktlab.grid import Grid, ScalarField, principal_eigenpair
from sktlab.iteration import SolverConfig, SystemState, initial_bracket, simulate, step_monotone
from sktlab.model import (
    ModelParams,
    growth_constants,
    growth_lower_bound,
    reaction,
    transform_forward,
    transform_inverse,
)
from sktlab.oracle import ode_reduce, riccati_closed_form
from sktlab.regimes import classify_blowup, classify_global, t0_estimate

CERTIFIED = dict(
    d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.5,
    a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
)
SEMILINEAR = dict(CERTIFIED, alpha1=0.0, alpha2=0.0)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_01_transform_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for block in range(1000):
        d = float(rng.uniform(0.1, 10.0))
        alpha = 0.0 if block % 10 == 0 else float(rng.uniform(0.0, 10.0))
        u = rng.uniform(0.0, 1e6, 10)
        back = transform_inverse(d, alpha, transform_forward(d, alpha, u))
        worst = max(worst, float((np.abs(back - u) / (1.0 + u)).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"10000 roundtrips, max scaled error {worst:.2e} (tol 1e-10), {elapsed:.2f}s (cap 1s)")


def test_criterion_02_growth_lower_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    keys = ("d1", "d2", "alpha1", "alpha2", "a1", "a2", "b1", "b2", "c1", "c2")
    checked = 0
    worst = np.inf
    while checked < 20:
        params = ModelParams(**dict(zip(keys, rng.uniform(0.2, 3.0, 10))))
        mu1, mu2 = rng.uniform(0.5, 2.0, 2)
        gc = growth_constants(params, float(mu1), float(mu2))
        if not gc.valid:
            continue
        checked += 1
        u1 = rng.uniform(0.0, 50.0, 1000)
        u2 = rng.uniform(0.0, 50.0, 1000)
        f1, f2 = reaction(params, u1, u2)
        lhs = gc.mu1 * f1 + gc.mu2 * f2
        s = gc.mu1 * u1 + gc.mu2 * u2
        slack = lhs - growth_lower_bound(gc, u1, u2) + 1e-9 * (1.0 + s * s)
        worst = min(worst, float(slack.min()))
    elapsed = time.perf_counter() - start
    ok = worst >= 0.0 and elapsed < 1.0
    _report(2, ok, f"20 valid sets x 1000 points, worst slack {worst:.2e} (>= 0), {elapsed:.2f}s (cap 1s)")


@pytest.fixture(scope="module")
def monotone_run():
    params = ModelParams(**CERTIFIED)
    grid = Grid.interval(np.pi, 65)
    eig = principal_eigenpair(grid, "principal")
    regime = classify_global(params, eig.lambda0, eig.mode)
    u0 = (
        ScalarField.from_function(grid, lambda x: 0.2 + 0.1 * np.cos(x)),
        ScalarField.from_function(grid, lambda x: 0.3 + 0.05 * np.cos(2 * x)),
    )
    bracket = initial_bracket(params, eig, u0, regime)
    cfg = SolverConfig(dt=1e-3)
    state = SystemState.from_u(params, 0.0, *u0)
    start = time.perf_counter()
    steps = []
    for _ in range(100):
        state, trace = step_monotone(state, cfg, params, bracket)
        last = trace.records[-1]
        steps.append(
            {
                "violation": trace.summary.worst_violation,
                "gap": trace.summary.gap,
                "u1": state.u1.values,
                "u2": state.u2.values,
                "v1": last.v1,
                "v2": last.v2,
                "w1": last.w1,
                "w2": last.w2,
            }
        )
    return {"steps": steps, "elapsed": time.perf_counter() - start}


def test_criterion_03_ordered_chain_and_gap(monotone_run):
    steps = monotone_run["steps"]
    elapsed = monotone_run["elapsed"]
    worst_violation = max(s["violation"] for s in steps)
    worst_gap = max(s["gap"] for s in steps)
    ok = len(steps) == 100 and worst_violation <= 1e-10 and worst_gap <= 1e-6 and elapsed < 30.0
    _report(
        3,
        ok,
        f"100 steps n=65, worst chain violation {worst_violation:.2e} (tol 1e-10), "
        f"worst gap {worst_gap:.2e} (tol 1e-6), {elapsed:.2f}s (cap 30s)",
    )


def test_criterion_04_state_pinched_by_final_iterates(monotone_run):
    worst = -np.inf
    for s in monotone_run["steps"]:
        worst = max(
            worst,
            float((s["v1"] - s["u1"]).max()),
            float((s["v2"] - s["u2"]).max()),
            float((s["u1"] - s["w1"]).max()),
            float((s["u2"] - s["w2"]).max()),
        )
    ok = worst <= 1e-10
    _report(4, ok, f"containment excess {worst:.2e} over 100 steps (tol 1e-10)")


def test_criterion_05_matches_ode_reduction_at_first_order():
    start = time.perf_counter()
    params = ModelParams(**CERTIFIED)
    grid = Grid.interval(np.pi, 33)
    eig = principal_eigenpair(grid, "principal")
    regime = classify_global(params, eig.lambda0, eig.mode)
    u0 = (ScalarField.constant(grid, 0.2), ScalarField.constant(grid, 0.3))
    bracket = initial_bracket(params, eig, u0, regime)
    ode = ode_reduce(params, (0.2, 0.3), 1.0, rtol=1e-10, t_eval=[0.0, 1.0])
    ref = (ode.u1[-1], ode.u2[-1])

    def guarded_error(dt):
        result = simulate(params, grid, eig, u0, SolverConfig(dt=dt), 1.0, bracket=bracket)
        assert result.termination == "completed"
        e1 = np.abs(result.final_state.u1.values - ref[0]).max() / (1.0 + abs(ref[0]))
        e2 = np.abs(result.final_state.u2.values - ref[1]).max() / (1.0 + abs(ref[1]))
        return max(float(e1), float(e2))

    err_coarse = guarded_error(1e-3)
    err_fine = guarded_error(5e-4)
    ratio = err_coarse / err_fine
    elapsed = time.perf_counter() - start
    ok = err_coarse <= 1e-4 and 1.7 <= ratio <= 2.3 and elapsed < 30.0
    _report(
        5,
        ok,
        f"error {err_coarse:.3e} at dt=1e-3 (tol 1e-4), halving ratio {ratio:.3f} "
        f"(window [1.7, 2.3]), {elapsed:.2f}s (cap 30s)",
    )


def test_criterion_06_nonnegativity_preserved():
    start = time.perf_counter()
    params = ModelParams(**CERTIFIED)
    grid = Grid.interval(np.pi, 33)
    eig = principal_eigenpair(grid, "principal")
    regime = classify_global(params, eig.lambda0, eig.mode)
    rng = np.random.default_rng(606)
    lowest = np.inf
    for _ in range(20):
        vals1 = rng.uniform(0.0, 0.6, grid.shape)
        vals2 = rng.uniform(0.0, 0.6, grid.shape)
        vals1[rng.random(grid.shape) < 0.1] = 0.0  # exact zeros included
        vals2[rng.random(grid.shape) < 0.1] = 0.0
        u0 = (ScalarField(grid, vals1), ScalarField(grid, vals2))
        bracket = initial_bracket(params, eig, u0, regime)
        result = simulate(params, grid, eig, u0, SolverConfig(dt=5e-3), 0.1, bracket=bracket)
        assert result.termination == "completed"
        for snap in result.snapshots:
            lowest = min(lowest, float(snap.u1.values.min()), float(snap.u2.values.min()))
    elapsed = time.perf_counter() - start
    ok = lowest >= -1e-12 and elapsed < 30.0
    _report(6, ok, f"20 random runs, global minimum {lowest:.2e} (floor -1e-12), {elapsed:.2f}s (cap 30s)")


def test_criterion_07_eigenvalue_accuracy_and_order():
    start = time.perf_counter()
    lam = principal_eigenpair(Grid.interval(np.pi, 257), "first_positive").lambda0
    errors = []
    for n in (33, 65, 129):
        lam_n = principal_eigenpair(Grid.interval(np.pi, n), "first_positive").lambda0
        errors.append(abs(lam_n - 1.0))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = abs(lam - 1.0) <= 1e-3 and min(orders) >= 1.8 and elapsed < 5.0
    _report(
        7,
        ok,
        f"|lambda-1| = {abs(lam - 1.0):.2e} at n=257 (tol 1e-3), convergence orders "
        f"{orders[0]:.2f}/{orders[1]:.2f} (floor 1.8), {elapsed:.2f}s (cap 5s)",
    )


def test_criterion_08_certificate_examples_rederived():
    start = time.perf_counter()
    checks = []

    # point window at the zero eigenvalue
    p = ModelParams(**CERTIFIED)
    r = classify_global(p, 0.0)
    d0 = (-p.c2) * (-p.b1) - p.b2 * p.c1
    n1 = (p.a1 * p.c2 + p.a2 * p.c1) / d0
    n2 = (p.a1 * p.b2 + p.a2 * p.b1) / d0
    checks.append(r.verdict == "certified_global")
    checks.append(d0 == 3.75 and abs(n1 - 2.0 / 3.0) < 1e-15)
    checks.append(r.window[0] == (pytest.approx(n1), pytest.approx(n1)))
    checks.append(r.window[1] == (pytest.approx(n2), pytest.approx(n2)))

    # positive eigenvalue empties the window
    p2 = ModelParams(**dict(CERTIFIED, alpha1=0.1, alpha2=0.1))
    r2 = classify_global(p2, 1.0)
    e1 = 2.0 * 0.1 * 1.0 - p2.b1
    e2 = 2.0 * 0.1 * 1.0 - p2.c2
    det = e2 * e1 - p2.b2 * p2.c1
    lo = (-p2.a1 * e2 + p2.a2 * p2.c1) / det
    hi = (p2.a1 * p2.c2 + p2.a2 * p2.c1) / (p2.c2 * p2.b1 - p2.c1 * p2.b2)
    checks.append(r2.verdict == "not_certified")
    checks.append(abs(det - 2.99) < 1e-12 and lo > hi)
    checks.append(r2.window[0] == (pytest.approx(lo), pytest.approx(hi)))

    # degenerate determinants short-circuit before any division; at a zero
    # eigenvalue both reduce to c2*b1 - c1*b2 = 0, so both records fail
    p3 = ModelParams(**dict(CERTIFIED, b1=1.0, b2=1.0, c1=1.0, c2=1.0))
    r3 = classify_global(p3, 0.0)
    checks.append(r3.verdict == "not_certified" and r3.window is None)
    by_name = {q.name: q for q in r3.inequalities}
    checks.append(not by_name["D > 0"].holds and not by_name["c2*b1 > c1*b2"].holds)
    checks.append(all(
        not by_name[n].holds and by_name[n].lhs is None
        for n in ("N1_lower <= N1_upper", "N2_lower <= N2_upper")
    ))

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    _report(8, ok, f"3 worked examples, {sum(checks)}/{len(checks)} checks, {elapsed:.2f}s (cap 1s)")


def test_criterion_09_blowup_time_and_comparison_solution():
    start = time.perf_counter()
    # tau_bar = 1 and psi_under = 1 need b1 = c2 = 2.5 against the 0.5 cross terms
    p = ModelParams(**dict(SEMILINEAR, b1=2.5, c2=2.5))
    cert = classify_blowup(p, 0.0, 1.0, 1.0, 2.0)
    assert cert.tau_bar == 1.0 and cert.psi_under == 1.0
    t0_err = abs(t0_estimate(cert, 2.0) - math.log(2.0))
    bound_err = abs(riccati_bound(cert, 2.0, 0.0) - 2.0)

    horizon = 0.9 * math.log(2.0)
    ts = np.linspace(0.0, horizon, 50)
    exact = riccati_closed_form(1.0, 1.0, 2.0, ts)
    sol = solve_ivp(
        lambda t, y: -y + y * y, (0.0, horizon), [2.0],
        t_eval=ts, rtol=1e-12, atol=1e-14,
    )
    rk_err = float(np.abs(exact - sol.y[0]).max())
    elapsed = time.perf_counter() - start
    ok = t0_err <= 1e-12 and bound_err <= 1e-14 and rk_err <= 1e-8 and elapsed < 1.0
    _report(
        9,
        ok,
        f"T0 error {t0_err:.1e} (tol 1e-12), initial bound error {bound_err:.1e} "
        f"(tol 1e-14), closed form vs RK {rk_err:.1e} (tol 1e-8), {elapsed:.2f}s (cap 1s)",
    )


def test_criterion_10_certified_blowup_run():
    start = time.perf_counter()
    params = ModelParams(**SEMILINEAR)
    grid = Grid.interval(np.pi, 33)
    eig = principal_eigenpair(grid, "principal")
    u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
    cfg = SolverConfig(dt=1e-4, overflow_cap=1e8, snapshot_every=200)
    result = simulate(params, grid, eig, u0, cfg, 2.0)
    cert = classify_blowup(params, eig.lambda0, 1.0, 1.0, 2.0)
    report = analyze(result, cert, grid, eig)
    elapsed = time.perf_counter() - start

    detected = report.detected_blowup_time
    ok = (
        result.termination == "overflowed"
        and report.p_hat0 == pytest.approx(2.0, rel=1e-12)
        and report.bound_violations == 0
        and detected is not None
        and detected <= 1.1 * math.log(2.0)
        and report.within_t0_slack is True
        and elapsed < 60.0
    )
    _report(
        10,
        ok,
        f"p_hat >= 0.98*bound at all {len(report.rows)} samples, detected "
        f"{detected:.4f} <= 1.1*ln 2 = {1.1 * math.log(2.0):.4f}, {elapsed:.1f}s (cap 60s)",
    )


def test_criterion_11_branch_flip_in_sweep(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "sweep.conf"
    config.write_text(
        "[model]\n"
        + "".join(f"{k} = {v}\n" for k, v in CERTIFIED.items())
        + "\n[grid]\ndim = 1\nlx = 3.141592653589793\nnx = 17\n"
        + "\n[initial]\nkind = constant\nu1 = 0.2\nu2 = 0.3\n"
    )
    out = tmp_path / "out"
    rc = main(
        [
            "sweep", "--config", str(config), "--out", str(out),
            "--param", "c1", "--min", "3.0", "--max", "4.0", "--count", "5",
        ]
    )
    assert rc == 0
    rows = [
        line.split(",")
        for line in (out / "sweep.csv").read_text().splitlines()[1:]
    ]
    flags = [(float(r[1]), r[5]) for r in rows]
    elapsed = time.perf_counter() - start
    flip_exact = all(flag == ("true" if v < 3.5 else "false") for v, flag in flags)
    has_boundary = any(r[1] == "3.5" for r in rows)
    ok = flip_exact and has_boundary and elapsed < 5.0
    _report(
        11,
        ok,
        f"branch condition flips at c1 = 3.5 exactly over {len(rows)} rows, "
        f"{elapsed:.2f}s (cap 5s)",
    )


def test_criterion_12_blowup_command_deterministic(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "blow.conf"
    config.write_text(
        "[model]\n"
        + "".join(f"{k} = {v}\n" for k, v in SEMILINEAR.items())
        + "\n[grid]\ndim = 1\nlx = 3.141592653589793\nnx = 9\n"
        + "\n[solver]\ndt = 0.005\nt_end = 2.0\noverflow_cap = 30.0\nsnapshot_every = 50\n"
        + "\n[initial]\nkind = constant\nu1 = 1.2\nu2 = 0.8\n"
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = main(["blowup", "--config", str(config), "--out", str(out)])
        assert rc == 0
        outputs.append(
            {
                "json": (out / "blowup_report.json").read_bytes(),
                "csv": (out / "p_hat_trajectory.csv").read_bytes(),
            }
        )
    elapsed = time.perf_counter() - start
    same_json = outputs[0]["json"] == outputs[1]["json"]
    same_csv = outputs[0]["csv"] == outputs[1]["csv"]
    doc = json.loads(outputs[0]["json"])
    ok = same_json and same_csv and doc["run_summary"]["termination"] == "overflowed"
    _report(
        12,
        ok,
        f"two runs byte-identical: report {same_json}, trajectory {same_csv}, "
        f"{elapsed:.1f}s",
    )

"""Weighted-average tracking and the comparison bound grading."""

import json
import math
import re

import numpy as np
import pytest

from sktlab.blowup import BlowupReport, analyze, riccati_bound, weighted_average
from sktlab.grid import Grid, ScalarField, principal_eigenpair
from sktlab.iteration import SimulationResult, SystemState
from sktlab.model import ModelParams, growth_constants
from sktlab.regimes import classify_blowup


def blowup_params(**overrides):
    base = dict(
        d1=1.0, d2=1.0, alpha1=0.0, alpha2=0.0,
        a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
    )
    base.update(overrides)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def env():
    params = blowup_params()
    grid = Grid.interval(np.pi, 17)
    eig = principal_eigenpair(grid, "principal")
    cert = classify_blowup(params, eig.lambda0, 1.0, 1.0, 2.0)
    return params, grid, eig, cert


def const_state(params, grid, t, v1, v2):
    return SystemState.from_u_arrays(
        params, grid, t, np.full(grid.shape, v1), np.full(grid.shape, v2)
    )


def completed_result(states):
    return SimulationResult(
        snapshots=list(states), summaries=[], termination="completed",
        final_state=states[-1],
    )


class TestWeightedAverage:
    def test_constants_average_exactly(self, env):
        params, grid, eig, _ = env
        wa = weighted_average(grid, eig, 1.0, 2.0, const_state(params, grid, 0.3, 0.6, 0.4))
        assert wa.t == 0.3
        assert wa.p_hat1 == pytest.approx(0.6, rel=1e-13)
        assert wa.p_hat2 == pytest.approx(0.4, rel=1e-13)
        assert wa.p_hat == pytest.approx(0.6 + 2.0 * 0.4, rel=1e-13)
        assert (wa.mu1, wa.mu2) == (1.0, 2.0)

    def test_combination_matches_parts(self, env):
        params, grid, eig, _ = env
        rng = np.random.default_rng(3)
        vals1 = rng.uniform(0.0, 2.0, grid.shape)
        vals2 = rng.uniform(0.0, 2.0, grid.shape)
        state = SystemState.from_u_arrays(params, grid, 0.0, vals1, vals2)
        wa = weighted_average(grid, eig, 1.5, 0.5, state)
        assert wa.p_hat == pytest.approx(1.5 * wa.p_hat1 + 0.5 * wa.p_hat2, rel=1e-15)

    def test_multipliers_validated(self, env):
        params, grid, eig, _ = env
        state = const_state(params, grid, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            weighted_average(grid, eig, 0.0, 1.0, state)
        with pytest.raises(ValueError, match="positive"):
            weighted_average(grid, eig, 1.0, -2.0, state)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("species", [0, 1])
    def test_one_multiplier_rule(self, env, bad, species):
        # the weighted average and the growth constants refuse the same
        # multipliers with the same message: an infinite one would make
        # p_hat infinite
        params, grid, eig, _ = env
        state = const_state(params, grid, 0.0, 1.0, 1.0)
        mus = [1.0, 1.0]
        mus[species] = bad
        message = re.escape(f"multipliers must be positive and finite, got {mus[0]}, {mus[1]}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            weighted_average(grid, eig, *mus, state)
        with pytest.raises(ValueError, match=f"^{message}$"):
            growth_constants(params, *mus)


class TestRiccatiBound:
    def test_initial_value_exact(self, env):
        *_, cert = env
        assert riccati_bound(cert, 2.0, 0.0) == 2.0

    def test_frozen_oracle(self):
        # tau_bar=1, psi_under=1, p0=2 at t=1/2:
        # exp(-1/2) / (exp(-1/2) - 1/2) = 5.69348449872319
        p = blowup_params(b1=2.5, c2=2.5)
        cert = classify_blowup(p, 0.0, 1.0, 1.0, 2.0)
        assert cert.tau_bar == 1.0 and cert.psi_under == 1.0
        assert riccati_bound(cert, 2.0, 0.5) == pytest.approx(
            5.69348449872319, abs=1e-12
        )

    def test_monotone_increasing_and_divergent(self, env):
        *_, cert = env
        t0 = math.log(3.0)
        ts = np.linspace(0.0, 0.95 * t0, 12)
        vals = [riccati_bound(cert, 2.0, float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert riccati_bound(cert, 2.0, 0.999 * t0) > 50.0

    def test_domain_errors(self, env):
        *_, cert = env
        with pytest.raises(ValueError, match="t must be >= 0"):
            riccati_bound(cert, 2.0, -0.1)
        with pytest.raises(ValueError, match="beyond the blow-up time"):
            riccati_bound(cert, 2.0, math.log(3.0))
        with pytest.raises(ValueError, match="threshold"):
            riccati_bound(cert, 1.0, 0.1)
        bad = classify_blowup(blowup_params(c1=10.0, b2=10.0), 0.0, 1.0, 1.0, 5.0)
        with pytest.raises(ValueError, match="conditions"):
            riccati_bound(bad, 5.0, 0.1)


class TestAnalyze:
    def riccati(self, t):
        # exact comparison solution for tau=1, psi=3/4, p0=2
        return math.exp(-t) / (0.5 - 0.75 * (1.0 - math.exp(-t)))

    def test_exact_riccati_data_never_violates(self, env):
        params, grid, eig, cert = env
        times = [0.0, 0.2, 0.4, 0.8]
        states = [
            const_state(params, grid, t, 0.6 * self.riccati(t), 0.4 * self.riccati(t))
            for t in times
        ]
        report = analyze(completed_result(states), cert, grid, eig)
        assert report.p_hat0 == pytest.approx(2.0, rel=1e-12)
        assert report.t0 == pytest.approx(math.log(3.0), rel=1e-12)
        assert len(report.rows) == 4
        assert report.bound_violations == 0
        assert report.detected_blowup_time is None
        assert report.within_t0_slack is None
        for t, row in zip(times, report.rows):
            assert row.bound == pytest.approx(self.riccati(t), rel=1e-10)
            assert row.p_hat == pytest.approx(self.riccati(t), rel=1e-12)
            assert row.max_sum == pytest.approx(self.riccati(t), rel=1e-15)
            assert not row.violation

    def test_stagnant_data_violates_growing_bound(self, env):
        params, grid, eig, cert = env
        states = [const_state(params, grid, t, 1.2, 0.8) for t in (0.0, 0.2, 0.4)]
        report = analyze(completed_result(states), cert, grid, eig)
        assert not report.rows[0].violation  # bound equals the data at t=0
        assert report.rows[1].violation
        assert report.rows[2].violation
        assert report.bound_violations == 2

    def test_overflow_state_appended_and_graded(self, env):
        params, grid, eig, cert = env
        snaps = [
            const_state(params, grid, 0.0, 1.2, 0.8),
            const_state(params, grid, 0.3, 2.0, 1.0),
        ]
        final = const_state(params, grid, 0.5, 1e9, 1.0)
        result = SimulationResult(
            snapshots=snaps, summaries=[], termination="overflowed",
            final_state=final, overflow_time=0.5,
        )
        report = analyze(result, cert, grid, eig)
        assert len(report.rows) == 3
        assert report.rows[-1].t == 0.5
        assert report.rows[-1].max_sum == pytest.approx(1e9 + 1.0)
        assert report.detected_blowup_time == 0.5
        # detection at 0.5 precedes 1.1 * ln 3
        assert report.within_t0_slack is True

    def test_nonfinite_final_state_serializes_as_null(self, env):
        # a finite final state whose weighted average and u1 + u2 overflow
        params, grid, eig, cert = env
        snaps = [const_state(params, grid, 0.0, 1.2, 0.8)]
        final = const_state(params, grid, 0.2, 1.7e308, 1.7e308)
        result = SimulationResult(
            snapshots=snaps, summaries=[], termination="overflowed",
            final_state=final, overflow_time=0.2,
        )
        with np.errstate(over="ignore"):
            report = analyze(result, cert, grid, eig)
        assert math.isinf(report.rows[-1].p_hat) and math.isinf(report.rows[-1].max_sum)
        last = report.rows[-1]
        assert last.bound is None
        assert not last.violation
        doc = report.as_dict()
        assert doc["rows"][-1]["p_hat"] is None
        assert doc["rows"][-1]["max_u1_plus_u2"] is None
        json.dumps(doc)  # the whole document must stay JSON-clean

    def test_p_hat0_measured_from_data_not_certificate(self, env):
        params, grid, eig, _ = env
        stale = classify_blowup(blowup_params(), 0.0, 1.0, 1.0, 99.0)
        states = [const_state(params, grid, 0.0, 1.2, 0.8)]
        report = analyze(completed_result(states), stale, grid, eig)
        assert report.p_hat0 == pytest.approx(2.0, rel=1e-12)
        assert report.t0 == pytest.approx(math.log(3.0), rel=1e-10)

    def test_below_threshold_leaves_bound_undefined(self, env):
        params, grid, eig, cert = env
        states = [const_state(params, grid, t, 0.5, 0.5) for t in (0.0, 0.3)]
        report = analyze(completed_result(states), cert, grid, eig)
        assert report.t0 is None
        assert all(r.bound is None for r in report.rows)
        assert report.bound_violations == 0
        assert report.within_t0_slack is None

    def test_zero_data(self, env):
        params, grid, eig, cert = env
        states = [const_state(params, grid, 0.0, 0.0, 0.0)]
        report = analyze(completed_result(states), cert, grid, eig)
        assert report.p_hat0 == 0.0
        assert report.t0 is None

    def test_trajectory_csv_layout(self, env, tmp_path):
        params, grid, eig, cert = env
        states = [const_state(params, grid, t, 1.2, 0.8) for t in (0.0, 0.2)]
        snaps = states + [const_state(params, grid, 1.2, 40.0, 1.0)]
        report = analyze(completed_result(snaps), cert, grid, eig)
        path = tmp_path / "traj.csv"
        report.write_trajectory_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,p_hat,riccati_bound,max_u1_plus_u2"
        assert len(lines) == 4
        # the t=1.2 sample sits past t0 = ln 3: empty bound cell
        cells = lines[3].split(",")
        assert cells[0] == "1.2"
        assert cells[2] == ""
        # numeric cells round-trip through repr
        assert float(lines[1].split(",")[1]) == report.rows[0].p_hat

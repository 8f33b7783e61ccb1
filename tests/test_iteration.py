"""Bracket construction, the ordered inner iteration, and the time-stepping driver."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from sktlab.errors import (
    BracketConstructionError,
    ConvergenceError,
    OrderingViolationError,
)
from sktlab.grid import Grid, ScalarField, principal_eigenpair
from sktlab.iteration import (
    SolverConfig,
    _HelmholtzSolver,
    SystemState,
    initial_bracket,
    simulate,
    step_monotone,
)
from sktlab.model import ModelParams, reaction
from sktlab.regimes import classify_global


def certified_params(**overrides):
    base = dict(
        d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.5,
        a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
    )
    base.update(overrides)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def setup():
    params = certified_params()
    grid = Grid.interval(np.pi, 33)
    eig = principal_eigenpair(grid, "principal")
    regime = classify_global(params, eig.lambda0, eig.mode)
    u0 = (
        ScalarField.from_function(grid, lambda x: 0.2 + 0.1 * np.cos(x)),
        ScalarField.from_function(grid, lambda x: 0.3 + 0.05 * np.cos(2 * x)),
    )
    return params, grid, eig, regime, u0


class TestInitialBracket:
    def test_point_window_ceiling_and_scaled_floor(self, setup):
        params, grid, eig, regime, u0 = setup
        lower, upper = initial_bracket(params, eig, u0, regime)
        third2 = 2.0 / 3.0
        assert np.all(upper.u1.values == third2)
        assert np.all(upper.u2.values == third2)
        # floors are rho*phi0 with rho capped at 1e-3 (data min is far larger)
        assert np.all(lower.u1.values == 1e-3)
        assert np.all(lower.u2.values == 1e-3)
        assert lower.t == 0.0 and upper.t == 0.0

    def test_floor_scale_tracks_small_data(self, setup):
        params, grid, eig, regime, _ = setup
        u0 = (
            ScalarField.constant(grid, 1e-4),
            ScalarField.constant(grid, 0.5),
        )
        lower, _ = initial_bracket(params, eig, u0, regime)
        assert np.all(lower.u1.values == 5e-5)
        assert np.all(lower.u2.values == 1e-3)

    def test_zero_touching_data_gets_zero_floor(self, setup):
        params, grid, eig, regime, _ = setup
        vals = np.full(grid.shape, 0.2)
        vals[0] = 0.0
        u0 = (ScalarField(grid, vals), ScalarField.constant(grid, 0.3))
        lower, _ = initial_bracket(params, eig, u0, regime)
        assert np.all(lower.u1.values == 0.0)
        assert np.all(lower.u2.values == 1e-3)

    def test_data_above_ceiling_rejected(self, setup):
        params, grid, eig, regime, _ = setup
        u0 = (ScalarField.constant(grid, 10.0), ScalarField.constant(grid, 0.3))
        with pytest.raises(BracketConstructionError) as exc_info:
            initial_bracket(params, eig, u0, regime)
        assert exc_info.value.inequality == "max(u0_1) <= N1_upper"
        assert "exceeds the admissible ceiling" in str(exc_info.value)

    def test_uncertified_regime_rejected(self, setup):
        params = certified_params(alpha1=0.1, alpha2=0.1)
        grid = Grid.interval(np.pi, 33)
        eig = principal_eigenpair(grid, "first_positive")
        regime = classify_global(params, eig.lambda0, eig.mode)
        assert not regime.certified
        u0 = (ScalarField.constant(grid, 0.2), ScalarField.constant(grid, 0.2))
        with pytest.raises(BracketConstructionError) as exc_info:
            initial_bracket(params, eig, u0, regime)
        assert "not certified_global" in str(exc_info.value)
        assert exc_info.value.inequality == "N1_lower <= N1_upper"

    def test_negative_data_rejected(self, setup):
        params, grid, eig, regime, _ = setup
        vals = np.full(grid.shape, 0.2)
        vals[3] = -0.1
        u0 = (ScalarField(grid, vals), ScalarField.constant(grid, 0.3))
        with pytest.raises(ValueError, match="nonnegative"):
            initial_bracket(params, eig, u0, regime)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig(dt=1e-3)
        assert cfg.inner_tol == 1e-10
        assert cfg.max_inner_iters == 500
        assert cfg.phi1 is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -1.0},
            {"dt": float("nan")},
            {"dt": 1e-3, "phi1": 0.0},
            {"dt": 1e-3, "phi2": -2.0},
            {"dt": 1e-3, "inner_tol": 0.0},
            {"dt": 1e-3, "max_inner_iters": 0},
            {"dt": 1e-3, "overflow_cap": 0.0},
            {"dt": 1e-3, "snapshot_every": 0},
            {"dt": 1e-3, "growth_trigger": 0.0},
            {"dt": 1e-3, "max_halvings": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestStepMonotone:
    def test_chain_gap_and_containment(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        state = SystemState.from_u(params, 0.0, *u0)
        cfg = SolverConfig(dt=1e-3)
        new_state, trace = step_monotone(state, cfg, params, bracket)
        scale = 2.0 / 3.0
        assert trace.worst_violation <= 1e-10 * max(1.0, scale)
        assert trace.gap <= cfg.inner_tol * (1.0 + scale)
        assert new_state.t == pytest.approx(1e-3)
        last = trace.records[-1]
        assert np.array_equal(new_state.u1.values, last.v1)
        assert np.array_equal(new_state.u2.values, last.v2)
        assert np.all(last.v1 <= last.w1 + 1e-10)
        assert np.all(last.v2 <= last.w2 + 1e-10)
        # gap shrinks from the initial bracket width
        assert trace.records[-1].gap < trace.records[0].gap
        assert trace.retries == 0

    def test_sequences_march_monotonically(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        state = SystemState.from_u(params, 0.0, *u0)
        new_state, trace = step_monotone(state, SolverConfig(dt=1e-3), params, bracket)
        tol = 1e-10
        for prev, cur in zip(trace.records, trace.records[1:]):
            assert np.all(cur.v1 >= prev.v1 - tol)
            assert np.all(cur.v2 >= prev.v2 - tol)
            assert np.all(cur.w1 <= prev.w1 + tol)
            assert np.all(cur.w2 <= prev.w2 + tol)

    def test_semilinear_step_is_implicit_euler(self, setup):
        # with alpha = 0 and constant fields the accepted state solves
        # (u+ - u0)/dt = f(u+) up to the inner gap tolerance
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 33)
        eig = principal_eigenpair(grid, "principal")
        regime = classify_global(params, eig.lambda0)
        u0 = (ScalarField.constant(grid, 0.2), ScalarField.constant(grid, 0.3))
        bracket = initial_bracket(params, eig, u0, regime)
        state = SystemState.from_u(params, 0.0, *u0)
        dt = 1e-3
        new_state, _ = step_monotone(state, SolverConfig(dt=dt), params, bracket)
        u1p = new_state.u1.values
        u2p = new_state.u2.values
        assert np.ptp(u1p) < 1e-12 and np.ptp(u2p) < 1e-12
        f1, f2 = reaction(params, u1p, u2p)
        assert np.abs((u1p - 0.2) / dt - f1).max() < 1e-6
        assert np.abs((u2p - 0.3) / dt - f2).max() < 1e-6

    def test_degenerate_bracket_short_circuits(self, setup):
        params, grid, eig, regime, _ = setup
        same = SystemState.from_u_arrays(
            params, grid, 0.0, np.full(grid.shape, 0.5), np.full(grid.shape, 0.4)
        )
        state = SystemState.from_u_arrays(
            params, grid, 0.0, np.full(grid.shape, 0.5), np.full(grid.shape, 0.4)
        )
        new_state, trace = step_monotone(
            state, SolverConfig(dt=1e-3), params, (same, same)
        )
        assert trace.iterations == 1
        assert trace.gap == 0.0
        assert trace.worst_violation == 0.0
        assert np.all(new_state.u1.values == 0.5)
        assert new_state.t == pytest.approx(1e-3)

    def test_state_outside_bracket_rejected(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        state = SystemState.from_u_arrays(
            params, grid, 0.0, np.full(grid.shape, 0.9), np.full(grid.shape, 0.3)
        )
        with pytest.raises(OrderingViolationError, match="leaves the bracket"):
            step_monotone(state, SolverConfig(dt=1e-3), params, bracket)

    def test_infeasible_ceiling_rejected(self, setup):
        # a ceiling the dynamics immediately pierce is not a bound solution:
        # from u1 = 0.6 the species grows (f1 > 0 against the zero floor)
        params, grid, eig, regime, _ = setup
        state = SystemState.from_u_arrays(
            params, grid, 0.0, np.full(grid.shape, 0.6), np.full(grid.shape, 0.1)
        )
        bad = (
            SystemState.from_u_arrays(
                params, grid, 0.0, np.zeros(grid.shape), np.zeros(grid.shape)
            ),
            SystemState.from_u_arrays(
                params, grid, 0.0, np.full(grid.shape, 0.6), np.full(grid.shape, 0.1)
            ),
        )
        with pytest.raises(OrderingViolationError, match="not a discrete bound"):
            step_monotone(state, SolverConfig(dt=1e-3), params, bad)

    def test_phi_override_respected(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        state = SystemState.from_u(params, 0.0, *u0)
        cfg = SolverConfig(dt=1e-3, phi1=50.0, phi2=60.0)
        _, trace = step_monotone(state, cfg, params, bracket)
        assert trace.phi1 == 50.0
        assert trace.phi2 == 60.0


class TestHelmholtzSolver:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        n=st.integers(3, 200),
        length=st.floats(0.5, 10.0),
        ratio=st.floats(1e-3, 1e3),
        phi=st.floats(0.0, 100.0),
        array_diag=st.booleans(),
        columns=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_banded_solve_matches_sparse_lu(
        self, n, length, ratio, phi, array_diag, columns, seed
    ):
        # the banded 1D solve reads the same stencil as neg_laplacian_matrix;
        # the diagonal is drawn relative to the stencil's top eigenvalue
        # 4/h^2, so the condition number stays below about 1e3 (the stepper
        # runs far better conditioned: sig/dt dominates)
        grid = Grid.interval(length, n)
        shift = ratio * 4.0 / grid.hx**2
        rng = np.random.default_rng(seed)
        sig_over_dt = shift * rng.uniform(0.5, 2.0, n) if array_diag else shift
        cols = [rng.standard_normal(n) for _ in range(columns)]
        got = _HelmholtzSolver(grid).solve(sig_over_dt, phi, cols)
        diag = np.broadcast_to(sig_over_dt + phi, (n,))
        lu = splu((grid.neg_laplacian_matrix + sp.diags(diag)).tocsc())
        assert len(got) == columns
        for x, b in zip(got, cols):
            ref = lu.solve(b)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSimulate:
    def test_zero_data_stays_exactly_zero(self, setup):
        params, grid, eig, regime, _ = setup
        u0 = (ScalarField.constant(grid, 0.0), ScalarField.constant(grid, 0.0))
        bracket = initial_bracket(params, eig, u0, regime)
        cfg = SolverConfig(dt=1e-3)
        result = simulate(params, grid, eig, u0, cfg, 1e-2, bracket=bracket)
        assert result.termination == "completed"
        assert np.all(result.final_state.u1.values == 0.0)
        assert np.all(result.final_state.u2.values == 0.0)
        for snap in result.snapshots:
            assert np.all(snap.u1.values == 0.0)
            assert np.all(snap.u2.values == 0.0)

    def test_certified_run_keeps_dt(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        cfg = SolverConfig(dt=1e-3)
        result = simulate(params, grid, eig, u0, cfg, 1e-2, bracket=bracket)
        assert result.termination == "completed"
        assert result.halvings_used == 0
        assert result.final_dt == 1e-3
        assert len(result.summaries) == 10
        # accumulated t makes the final trimmed dt differ by at most an ulp
        assert all(s.dt == pytest.approx(1e-3, rel=1e-12) for s in result.summaries)
        assert result.final_state.t == pytest.approx(1e-2)

    def test_snapshot_cadence(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        cfg = SolverConfig(dt=1e-3, snapshot_every=3)
        result = simulate(params, grid, eig, u0, cfg, 1e-2, bracket=bracket)
        times = [s.t for s in result.snapshots]
        assert times == pytest.approx([0.0, 3e-3, 6e-3, 9e-3, 1e-2])

    def test_final_partial_step_lands_on_t_end(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        cfg = SolverConfig(dt=3e-3)
        result = simulate(params, grid, eig, u0, cfg, 1e-2, bracket=bracket)
        assert result.termination == "completed"
        assert result.final_state.t == pytest.approx(1e-2, abs=1e-12)
        assert len(result.summaries) == 4
        assert result.summaries[-1].dt == pytest.approx(1e-3, rel=1e-9)

    def test_growth_trigger_spends_halvings(self):
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 9)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        cfg = SolverConfig(dt=0.1, max_halvings=3, growth_trigger=1e-3)
        result = simulate(params, grid, eig, u0, cfg, 0.05)
        assert result.termination == "completed"
        assert result.halvings_used == 3
        assert result.final_dt == pytest.approx(0.0125)
        assert all(s.dt <= 0.0125 + 1e-15 for s in result.summaries)
        assert result.final_state.u1.values.max() > 1.2

    def test_overflow_keeps_offending_state_out_of_snapshots(self):
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 9)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        cfg = SolverConfig(dt=0.01, max_halvings=0, overflow_cap=2.0)
        result = simulate(params, grid, eig, u0, cfg, 10.0)
        assert result.termination == "overflowed"
        assert result.error is None
        assert result.overflow_time is not None
        assert result.final_state.t == pytest.approx(result.overflow_time)
        assert result.final_state.u1.values.max() > 2.0
        for snap in result.snapshots:
            assert snap.u1.values.max() <= 2.0
            assert snap.u2.values.max() <= 2.0
        assert result.snapshots[-1].t < result.overflow_time

    def test_unrecoverable_step_failure_is_reported(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        cfg = SolverConfig(dt=1e-3, max_inner_iters=1, max_halvings=0)
        result = simulate(params, grid, eig, u0, cfg, 1e-2, bracket=bracket)
        assert result.termination == "failed"
        assert isinstance(result.error, ConvergenceError)
        assert result.final_state.t == 0.0
        assert len(result.snapshots) == 1
        assert len(result.summaries) == 0

    def test_input_validation(self, setup):
        params, grid, eig, regime, u0 = setup
        cfg = SolverConfig(dt=1e-3)
        with pytest.raises(ValueError, match="t_end"):
            simulate(params, grid, eig, u0, cfg, 0.0)
        other = Grid.interval(np.pi, 17)
        w0 = (ScalarField.constant(other, 0.2), ScalarField.constant(other, 0.2))
        with pytest.raises(ValueError, match="grid"):
            simulate(params, grid, eig, w0, cfg, 1.0)
        vals = np.full(grid.shape, 0.2)
        vals[0] = -1e-9
        bad = (ScalarField(grid, vals), ScalarField.constant(grid, 0.2))
        with pytest.raises(ValueError, match="nonnegative"):
            simulate(params, grid, eig, bad, cfg, 1.0)

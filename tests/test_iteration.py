"""Bracket construction, the ordered inner iteration, and the time-stepping driver."""

import dataclasses
import re
import struct
import tracemalloc
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import sktlab.iteration
from sktlab._digests import StepDigests, pack
from sktlab.errors import (
    BracketConstructionError,
    ConvergenceError,
    NumericalError,
    OrderingViolationError,
)
from sktlab.grid import Grid, ScalarField, _lap_array, _neumann_bands, principal_eigenpair
from sktlab.iteration import (
    _CHAIN_TOL,
    SolverConfig,
    _HelmholtzSolver,
    SystemState,
    TraceSummary,
    _auto_bracket,
    _auto_bracket_feasible,
    _Bracket,
    _Extremes,
    _extrapolate,
    _field_bracket,
    _paired_reactions,
    _param_columns,
    _phi_automatic,
    _violations,
    initial_bracket,
    simulate,
    step_monotone,
)
from sktlab.model import ModelParams, _inverse_raw, _reaction_raw, _transform_raw, reaction
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

    def test_ceiling_raised_to_data_peak(self, setup):
        # a species whose data peak lies between the window's midpoint and
        # its ceiling gets the peak itself as ceiling; the other keeps the
        # midpoint (the test's own window, since the principal windows are
        # single points)
        params, grid, eig, regime, _ = setup
        window = dataclasses.replace(regime, window=((0.2, 1.0), (0.2, 1.0)))
        vals = np.full(grid.shape, 0.5)
        vals[7] = 0.8
        u0 = (ScalarField(grid, vals), ScalarField.constant(grid, 0.35))
        _, upper = initial_bracket(params, eig, u0, window)
        assert upper.u[0].tolist() == [0.8] * grid.nx
        assert upper.u[1].tolist() == [0.6] * grid.nx

    def test_data_above_ceiling_rejected(self, setup):
        params, grid, eig, regime, _ = setup
        u0 = (ScalarField.constant(grid, 10.0), ScalarField.constant(grid, 0.3))
        with pytest.raises(BracketConstructionError) as exc_info:
            initial_bracket(params, eig, u0, regime)
        assert exc_info.value.inequality == "max(u0_1) <= N1_upper"
        assert "exceeds the admissible ceiling" in str(exc_info.value)

    def test_ceiling_whose_transform_overflows_rejected(self, setup):
        # a1 = 1e200 puts the certified point window's ceiling near 5.3e199,
        # whose transform overflows at alpha = 0.5
        _, grid, eig, _, u0 = setup
        params = certified_params(a1=1e200)
        regime = classify_global(params, eig.lambda0, eig.mode)
        assert regime.certified
        with pytest.raises(BracketConstructionError) as exc_info:
            initial_bracket(params, eig, u0, regime)
        assert str(exc_info.value) == (
            "the window's ceiling is out of range: the transform (d + alpha*u)*u "
            "overflows at max |u| = 5.33333e+199"
        )

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

    @pytest.mark.parametrize("species", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_data_rejected(self, setup, value, species):
        # a field is finite when made, but its values can be written to
        # since, and no ceiling or floor comparison would catch NaN
        params, grid, eig, regime, u0 = setup
        bad = [ScalarField(grid, field.values) for field in u0]
        bad[species].values[4] = value
        with pytest.raises(ValueError, match="initial fields must be finite"):
            initial_bracket(params, eig, bad, regime)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig(dt=1e-3)
        assert cfg.inner_tol == 1e-10
        assert cfg.max_inner_iters == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -1.0},
            {"dt": float("nan")},
            {"dt": 1e-3, "inner_tol": float("nan")},
            {"dt": 1e-3, "overflow_cap": -1.0},
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


def owned_size(a):
    """The number of elements in the memory block behind array a."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.size


class TestSystemState:
    def test_stacks_accessors_and_entry_checks(self, setup):
        params, grid, *_ = setup
        u1, u2 = np.linspace(0.0, 1.0, grid.nx), np.full(grid.shape, 0.3)
        state = SystemState.from_u_arrays(params, grid, 0.5, u1, u2)
        assert state.t == 0.5
        assert state.u.shape == state.h.shape == (2,) + grid.shape
        assert np.array_equal(state.u, [u1, u2])
        h1 = _transform_raw(params.d1, params.alpha1, u1)
        h2 = _transform_raw(params.d2, params.alpha2, u2)
        assert np.array_equal(state.h, [h1, h2])
        for field, want in zip((state.u1, state.u2, state.h1, state.h2), (u1, u2, h1, h2)):
            assert isinstance(field, ScalarField) and field.grid is grid
            assert np.array_equal(field.values, want)
        # the accessors hand out copies: the state's stacks stay as built
        state.u1.values[...] = 7.0
        assert np.array_equal(state.u[0], u1)
        assert state.sup_norms() == (1.0, 0.3)
        with pytest.raises(ValueError, match="grid shape"):
            SystemState.from_u_arrays(params, grid, 0.0, u1[:-1], u2[:-1])
        bad = u1.copy()
        bad[2] = np.inf
        with pytest.raises(ValueError, match="field values must be finite"):
            SystemState.from_u_arrays(params, grid, 0.0, bad, u2)

    @pytest.mark.parametrize("u1", [1e200, -1e200])
    def test_transform_overflow_refused(self, setup, u1):
        # finite densities whose transform (d + alpha*u)*u overflows make no
        # state, and numpy warns of nothing on the way
        params, grid, *_ = setup
        field = ScalarField.constant(grid, u1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc_info:
                SystemState.from_u(params, 0.0, field, ScalarField.constant(grid, 1.0))
        assert str(exc_info.value) == (
            "the transform (d + alpha*u)*u overflows at max |u| = 1e+200"
        )

    def test_simulate_builds_no_fields(self, monkeypatch):
        # a 1D auto-bracket run: the step path works on the stacks alone
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 9)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        built = []
        post_init = ScalarField.__post_init__

        def counting(field):
            built.append(field)
            post_init(field)

        monkeypatch.setattr(ScalarField, "__post_init__", counting)
        for t_end in (2e-3, 6e-3):
            result = simulate(params, grid, eig, u0, SolverConfig(dt=1e-4), t_end)
            assert result.termination == "completed"
            assert len(result.summaries) >= round(t_end / 1e-4)
            assert {s.bracket for s in result.summaries} <= {"predicted", "tight", "wide"}
            assert built == []

    @pytest.mark.parametrize("window", [True, False])
    def test_snapshots_own_compact_stacks(self, setup, window):
        # no kept state may view an iterate's (2, 2, *grid) stack
        params, grid, eig, regime, u0 = setup
        if window:
            bracket = initial_bracket(params, eig, u0, regime)
            result = simulate(params, grid, eig, u0, SolverConfig(dt=1e-3), 5e-3, bracket=bracket)
            assert result.termination == "completed"
        else:
            params = certified_params(alpha1=0.0, alpha2=0.0)
            u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
            cfg = SolverConfig(dt=0.01, max_halvings=0, overflow_cap=2.0)
            result = simulate(params, grid, eig, u0, cfg, 10.0)
            assert result.termination == "overflowed"
            assert result.final_state is not result.snapshots[-1]
        states = result.snapshots + [result.final_state]
        assert len(states) >= 6
        for s in states:
            for a in (s.u, s.h):
                assert a.shape == (2,) + grid.shape
                assert owned_size(a) == 2 * grid.npoints


class TestStepMonotone:
    def test_chain_gap_and_containment(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        state = SystemState.from_u(params, 0.0, *u0)
        cfg = SolverConfig(dt=1e-3)
        new_state, trace = step_monotone(state, cfg, params, bracket)
        scale = 2.0 / 3.0
        assert trace.summary.worst_violation <= 1e-10 * max(1.0, scale)
        assert trace.summary.gap <= cfg.inner_tol * (1.0 + scale)
        assert new_state.t == pytest.approx(1e-3)
        last = trace.records[-1]
        assert np.array_equal(new_state.u1.values, last.v1)
        assert np.array_equal(new_state.u2.values, last.v2)
        assert np.all(last.v1 <= last.w1 + 1e-10)
        assert np.all(last.v2 <= last.w2 + 1e-10)
        # gap shrinks from the initial bracket width
        assert trace.records[-1].gap < trace.records[0].gap
        assert trace.summary.retries == 0

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
        # a degenerate bracket is the step solution only when it is a bound
        # solution: the constant (0.5, 0.4) is not one (violations 0.1, 0.18)
        same = SystemState.from_u_arrays(
            params, grid, 0.0, np.full(grid.shape, 0.5), np.full(grid.shape, 0.4)
        )
        with pytest.raises(OrderingViolationError, match="not a discrete bound"):
            step_monotone(same, SolverConfig(dt=1e-3), params, (same, same))

        # the stationary pair (2/3, 2/3) is, to round-off (3.7e-17 and -0.0)
        third2 = 2.0 / 3.0
        same = SystemState.from_u_arrays(
            params, grid, 0.0, np.full(grid.shape, third2), np.full(grid.shape, third2)
        )
        new_state, trace = step_monotone(
            same, SolverConfig(dt=1e-3), params, (same, same)
        )
        assert trace.summary.iterations == 1
        assert trace.summary.gap == 0.0
        assert trace.summary.worst_violation == 0.0
        assert np.all(new_state.u == third2)
        assert new_state.t == pytest.approx(1e-3)
        check_records(trace, ks=[0, 1], gaps=[0.0, 0.0])

        # the automatic bracket of zero data is degenerate too
        zero = SystemState.from_u_arrays(
            params, grid, 0.0, np.zeros(grid.shape), np.zeros(grid.shape)
        )
        wide = constant_bracket(params, zero, 1e-3, 1.0)
        new_state, trace = step_monotone(zero, SolverConfig(dt=1e-3), params, wide)
        assert trace.summary.bracket == "wide" and np.all(new_state.u == 0.0)
        check_records(trace, ks=[0, 1], gaps=[0.0, 0.0])

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

    def test_shift_retries_escalate(self, setup, monkeypatch):
        # a shift too small to keep the chain ordered is multiplied by 8 per
        # retry: 0.1 holds at the second retry, 1e-6 never does
        params, _, _, _, _ = setup
        grid = Grid.interval(np.pi, 17)
        state = SystemState.from_u_arrays(
            params, grid, 0.0, 0.2 + 0.1 * np.cos(grid.xs), 0.3 + 0.05 * np.cos(2 * grid.xs)
        )
        cfg = SolverConfig(dt=1e-3)
        wide = constant_bracket(params, state, cfg.dt, 1.0)
        monkeypatch.setattr(sktlab.iteration, "_phi_automatic", lambda *args: 0.1)
        new_state, trace = step_monotone(state, cfg, params, wide)
        assert trace.summary.retries == 2
        assert trace.summary.phi1 == trace.summary.phi2 == 0.1 * 8.0**2
        check_chain_and_zeros(trace, new_state, state.u, max(wide.box[1]))

        monkeypatch.setattr(sktlab.iteration, "_phi_automatic", lambda *args: 1e-6)
        with pytest.raises(OrderingViolationError, match="after 3 shift escalations"):
            step_monotone(state, cfg, params, wide)

    def test_floor_above_ceiling_refused_before_any_shift(self, monkeypatch):
        # near the unstable nullcline u1 = (1 + u2/2)/2 a floor above its
        # ceiling can pass the discrete-bound test at a long dt: species 1's
        # ceiling 0.4 falls and its floor 0.8 rises against the other's
        # ceiling and floor
        params = certified_params()
        grid = Grid.interval(np.pi, 9)
        state = SystemState.from_u_arrays(
            params, grid, 0.0, 0.65 + 0.05 * np.cos(grid.xs), 0.25 + 0.05 * np.cos(grid.xs)
        )
        dt, floors, ceilings = 10.0, [0.8, 0.0], [0.4, 0.5]
        stacked = stacked_constant_bracket(params, grid, floors, ceilings, "predicted")
        assert _violations(params, grid, dt, state.h[:, None], stacked).max() < 0.0
        # an extrapolated maximum below the extrapolated minimum builds nothing
        assert _auto_bracket(
            params, _param_columns(params, grid), _Extremes.of(state), dt, floors,
            ceilings, "predicted",
        ) is None

        def no_shift(*args):
            raise AssertionError("a shift was worked out")

        monkeypatch.setattr(sktlab.iteration, "_phi_automatic", no_shift)
        with pytest.raises(OrderingViolationError, match="floor lies above its ceiling") as exc:
            step_monotone(state, SolverConfig(dt=dt), params, stacked)
        assert exc.value.iterate == 0 and exc.value.worst_violation == 0.8 - 0.4


def check_records(trace, ks=None, gaps=None):
    """Each record views its own iterate's stack, and a second read of
    trace.records builds equal records. A constant bracket's (2, 2, 1...)
    stack is viewed read-only at the iterates' shape."""
    first, again = trace.records, trace.records
    assert len(first) == len(again) == len(trace.iterates) == trace.summary.iterations + 1
    shape = trace.iterates[-1][0].shape
    for (stack, gap, worst), rec, rec2 in zip(trace.iterates, first, again):
        assert (rec.k, repr(rec.gap), repr(rec.worst_violation)) == (
            rec2.k, repr(rec2.gap), repr(rec2.worst_violation)
        )
        assert (repr(rec.gap), repr(rec.worst_violation)) == (repr(gap), repr(worst))
        full = np.broadcast_to(stack, shape)
        for got, got2, want in zip(
            (rec.v1, rec.v2, rec.w1, rec.w2), (rec2.v1, rec2.v2, rec2.w1, rec2.w2),
            (full[0, 1], full[1, 1], full[0, 0], full[1, 0]),
        ):
            assert np.shares_memory(got, stack) and np.shares_memory(got2, stack)
            assert got.shape == got2.shape == shape[2:]
            assert np.array_equal(got, want) and np.array_equal(got2, want)
            if stack.shape != shape:
                assert not got.flags.writeable
    assert [r.k for r in first] == (ks if ks is not None else list(range(len(first))))
    if gaps is not None:
        assert [r.gap for r in first] == gaps


def constant_bracket(params, state, dt, kappa):
    """simulate's automatic constant bracket for a step of dt from state:
    kappa < 1 the tight one [(1-kappa) min u_i, (1+kappa) max u_i], kappa = 1
    the wide one [+0.0, 2 max u_i]; None when it is not admitted."""
    extremes = lo, hi = _Extremes.of(state)
    ceilings = [(1.0 + kappa) * m for m in hi[:2]]
    if kappa >= 1.0:
        floors, kind = [0.0, 0.0], "wide"
    else:
        floors, kind = [(1.0 - kappa) * m for m in lo[:2]], "tight"
    columns = _param_columns(params, state.grid)
    return _auto_bracket(params, columns, extremes, dt, floors, ceilings, kind)


def bracket_arrays(bracket, grid):
    """The (lower, upper) density arrays of a SystemState pair or a stacked
    bracket, at the grid's shape."""
    if isinstance(bracket, _Bracket):
        u = np.broadcast_to(bracket.u, (2, 2) + grid.shape)
        return [u[0, 1], u[1, 1]], [u[0, 0], u[1, 0]]
    lower, upper = bracket
    return [lower.u1.values, lower.u2.values], [upper.u1.values, upper.u2.values]


class TestPhiAutomatic:
    """The shift covers only a falling own-derivative, -df_i/du_i > 0."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_rising_reaction_needs_only_the_lag(self, alpha):
        # df1/du1 = -a1 + 2 b1 u1 - c1 u2 >= 2.95 on [1, 2] x [0, 0.1]
        params = certified_params(alpha1=alpha)
        hdot = 3.0
        denom = params.d1 + 2.0 * alpha * 1.0
        lag = 0.0 if alpha == 0.0 else 2.0 * alpha * (1.0 / denom) * hdot / denom**2
        assert _phi_automatic(params, 1, 1.0, 2.0, 0.0, 0.1, hdot) == 1.0 + lag

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_falling_reaction_covered_at_its_steepest_corner(self, alpha):
        # df2/du2 = -a2 + 2 c2 u2 - b2 u1 on u2 in [0, 0.5], u1 in [1, 2]: the
        # corners give -1.5, -2.0, 0.5 and 0.0, so the steepest fall is 2.0
        params = certified_params(alpha2=alpha)
        hdot = 3.0
        q_slope = 1.0 / params.d2
        lag = 0.0 if alpha == 0.0 else 2.0 * alpha * q_slope * hdot / params.d2**2
        assert _phi_automatic(params, 2, 0.0, 0.5, 1.0, 2.0, hdot) == 1.0 + 2.0 * q_slope + lag
        # u2 in [0, 2], u1 in [1, 2]: corners -1.5, -2.0, 6.5 and 6.0; the
        # rise of 6.5 is the largest |df2/du2| but needs no cover
        assert _phi_automatic(params, 2, 0.0, 2.0, 1.0, 2.0, hdot) == 1.0 + 2.0 * q_slope + lag


def reference_inner(params, grid, dt, state, bracket, phis, inner_tol, max_iters):
    """The inner iteration as a per-species loop over separate arrays.

    Each species and sequence has its own array and its own linear solve,
    and the reactions are paired by hand. In 1D each solve is
    scipy.linalg.solve_banded on that column alone, a direct solve that
    shares no code with _HelmholtzSolver; in 2D it is a one-column
    _HelmholtzSolver call started from the previous iterate's transform. A
    constant-sigma species' sig/dt is a scalar. Returns the records as (v1,
    v2, w1, w2, gap, worst) tuples, and the accepted (u, h) pairs, or None
    when the chain broke or the gap did not close.
    """
    solver = _HelmholtzSolver(grid)

    def solve(sig_over_dt, phi, rhs, guess):
        if grid.dimension == 1:
            ab = _neumann_bands(grid.nx, grid.hx)
            ab[1] += phi
            ab[1] += sig_over_dt
            return scipy.linalg.solve_banded((1, 1), ab, rhs)
        (x,) = solver.solve(sig_over_dt, phi, [rhs], [guess])
        return x

    ds = (params.d1, params.d2)
    alphas = (params.alpha1, params.alpha2)
    h_n = (state.h1.values, state.h2.values)
    v, w = bracket_arrays(bracket, grid)
    scale = max(w[0].max(), w[1].max())
    chain_tol = 1e-10 * max(1.0, scale)
    gap_tol = inner_tol * (1.0 + scale)
    hv = [_transform_raw(d, a, x) for d, a, x in zip(ds, alphas, v)]
    hw = [_transform_raw(d, a, x) for d, a, x in zip(ds, alphas, w)]
    gap = max(float((w[0] - v[0]).max()), float((w[1] - v[1]).max()))
    worst = float(max((v[0] - w[0]).max(), (v[1] - w[1]).max()))
    records = [(*v, *w, gap, worst)]
    if worst > chain_tol:
        return records, None
    for _ in range(max_iters):
        f_wv = _reaction_raw(params, w[0], v[1])
        f_vw = _reaction_raw(params, v[0], w[1])
        f_hi, f_lo = (f_wv[0], f_vw[1]), (f_vw[0], f_wv[1])
        new_hw, new_hv = [], []
        for i in (0, 1):
            d, a, phi = ds[i], alphas[i], phis[i]
            if a == 0.0:
                sig_w = sig_v = 1.0 / d
            else:
                sig_w, sig_v = 1.0 / (d + 2.0 * a * w[i]), 1.0 / (d + 2.0 * a * v[i])
            rhs_w = sig_w * h_n[i] / dt + f_hi[i] + phi * hw[i]
            rhs_v = sig_v * h_n[i] / dt + f_lo[i] + phi * hv[i]
            new_hw.append(solve(sig_w / dt, phi, rhs_w, hw[i]))
            new_hv.append(solve(sig_v / dt, phi, rhs_v, hv[i]))
        new_v = [_inverse_raw(d, a, h) for d, a, h in zip(ds, alphas, new_hv)]
        new_w = [_inverse_raw(d, a, h) for d, a, h in zip(ds, alphas, new_hw)]
        worst = float(max(
            *((v[i] - new_v[i]).max() for i in (0, 1)),
            *((new_w[i] - w[i]).max() for i in (0, 1)),
            *((new_v[i] - new_w[i]).max() for i in (0, 1)),
        ))
        gap = max(float((new_w[i] - new_v[i]).max()) for i in (0, 1))
        v, w, hv, hw = new_v, new_w, new_hv, new_hw
        records.append((*v, *w, gap, worst))
        if worst > chain_tol:
            return records, None
        if gap <= gap_tol:
            return records, (v, hv)
    return records, None


def random_fields(grid, seed, kinds):
    """Nonnegative data per species: 'zero', 'positive', or 'holes' (exact zeros)."""
    rng = np.random.default_rng(seed)
    fields = []
    for kind in kinds:
        vals = rng.uniform(0.0, 2.0, grid.shape)
        if kind == "zero":
            vals[...] = 0.0
        elif kind == "holes":
            vals[rng.random(grid.shape) < 0.3] = 0.0
        fields.append(vals)
    return fields


# the draws of the stacked-step properties: alpha both zero, both positive or
# mixed; 1D and 2D grids; nonnegative data with holes and zero species
STEP_DRAWS = dict(
    alphas=st.sampled_from(["zero", "positive", "mixed"]),
    alpha=st.floats(0.05, 1.0),
    coeffs=st.lists(st.floats(0.2, 3.0), min_size=8, max_size=8),
    dims=st.one_of(
        st.tuples(st.integers(3, 40)),
        st.tuples(st.integers(3, 12), st.integers(3, 12)),
    ),
    length=st.floats(0.5, 5.0),
    # both species zero is the degenerate bracket, tested on its own
    kinds=st.sampled_from([
        ("positive", "positive"), ("holes", "positive"), ("positive", "holes"),
        ("holes", "holes"), ("zero", "positive"), ("holes", "zero"),
    ]),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-4, 2e-3),
)


def drawn_case(alphas, alpha, coeffs, dims, length, kinds, seed):
    """Parameters, grid, data arrays and state of one STEP_DRAWS example."""
    a1, a2 = {"zero": (0.0, 0.0), "positive": (alpha, 0.5 * alpha),
              "mixed": (0.0, alpha) if seed % 2 else (alpha, 0.0)}[alphas]
    d1, d2, ca1, ca2, b1, b2, c1, c2 = coeffs
    params = ModelParams(
        d1=d1, d2=d2, alpha1=a1, alpha2=a2, a1=ca1, a2=ca2, b1=b1, b2=b2, c1=c1, c2=c2
    )
    if len(dims) == 1:
        grid = Grid.interval(length, dims[0])
    else:
        grid = Grid.rectangle(length, 1.5 * length, *dims)
    u1, u2 = random_fields(grid, seed, kinds)
    state = SystemState.from_u_arrays(params, grid, 0.25, u1, u2)
    return params, grid, (u1, u2), state


def wide_bracket(params, state, dt):
    """The zero-floor bracket at twice the peaks, halving dt as simulate does
    until it is a bound solution; returns (bracket, dt). Its test only
    loosens as dt shrinks, so from a dt it passed at, the bracket is built at
    that same dt."""
    while (bracket := constant_bracket(params, state, dt, 1.0)) is None:
        dt /= 2.0
    return bracket, dt


@pytest.mark.parametrize("alphas", [(0.0, 0.0), (0.5, 0.2)])
def test_wide_ceiling_check_matches_per_species_loop(alphas):
    # the wide bracket's floors hold at any dt, so it is admitted exactly when
    # each ceiling N_i = 2 max u_i satisfies sigma(N)(P(N) - max h_i)/dt >=
    # f_i(N) with the other species at its zero floor
    params = certified_params(alpha1=alphas[0], alpha2=alphas[1])
    grid = Grid.interval(np.pi, 9)
    p = params
    f_plus = (lambda n: n * (-p.a1 + p.b1 * n), lambda n: n * (-p.a2 + p.c2 * n))
    verdicts = set()
    for factor in (0.5, 0.505, 0.55, 0.75, 1.0, 2.0):
        state = SystemState.from_u_arrays(
            params, grid, 0.0, factor * (1.2 + 0.1 * np.cos(grid.xs)),
            np.full(grid.shape, factor * 0.8),
        )
        ceilings = [2.0 * m for m in state.u.max(axis=1).tolist()]
        for dt in (1e-3, 1e-2, 0.1, 1.0):
            want = all(
                1.0 / (d + 2.0 * alpha * n) * ((d + alpha * n) * n - h_max) / dt >= f(n)
                for d, alpha, h_max, f, n in zip(
                    (p.d1, p.d2), (p.alpha1, p.alpha2), state.h.max(axis=1), f_plus, ceilings
                )
            )
            bracket = constant_bracket(params, state, dt, 1.0)
            assert (bracket is not None) is want
            if want:
                assert bracket.kind == "wide" and bracket.box == ([0.0, 0.0], ceilings)
            verdicts.add(want)
    assert verdicts == {True, False}
    # the admission test is the step's own: violations up to the chain
    # tolerance at the bracket's scale, here 2.4
    assert _auto_bracket_feasible([2.4 * _CHAIN_TOL, -1.0], [2.4, 1.6])
    assert not _auto_bracket_feasible([2.5 * _CHAIN_TOL, -1.0], [2.4, 1.6])


def stacked_constant_bracket(params, grid, floors, ceilings, kind):
    """A constant bracket evaluated as whole stacks, the reference for
    _auto_bracket's float-built one."""
    column = (2,) + (1,) * grid.dimension
    u = np.empty((2, 2) + grid.shape)
    u[:, 0] = np.reshape(ceilings, column)
    u[:, 1] = np.reshape(floors, column)
    d, alpha = _param_columns(params, grid)
    return _Bracket(
        u, _transform_raw(d, alpha, u), np.array(_paired_reactions(params, u)), 0.0,
        (floors, ceilings), kind, (d, alpha),
    )


def bracket_data(grid, seed, kind):
    """Nonnegative data of one kind: 'constant', 'zero', 'holes' (exact
    zeros), 'signed' (zeros of both signs) or 'positive'."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 2.0, grid.shape)
    if kind == "constant":
        vals[...] = vals.flat[0]
    elif kind == "zero":
        vals[...] = 0.0
    elif kind == "holes":
        vals[rng.random(grid.shape) < 0.3] = 0.0
    elif kind == "signed":
        vals[rng.random(grid.shape) < 0.5] = -0.0
        vals[rng.random(grid.shape) < 0.3] = 0.0
    return vals


@settings(max_examples=60)
@given(
    alphas=st.sampled_from(["zero", "positive", "mixed"]),
    alpha=st.floats(0.05, 1.0),
    coeffs=st.lists(st.floats(0.2, 3.0), min_size=8, max_size=8),
    dims=st.one_of(
        st.tuples(st.integers(3, 40)), st.tuples(st.integers(3, 12), st.integers(3, 12))
    ),
    kinds=st.tuples(*[st.sampled_from(["constant", "zero", "holes", "signed", "positive"])] * 2),
    kappa=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    seed=st.integers(0, 2**32 - 1),
)
def test_float_built_bracket_matches_stacked(alphas, alpha, coeffs, dims, kinds, kappa, seed):
    # _auto_bracket works out a constant bracket's corners and violations on
    # floats; the same floors and ceilings evaluated as whole stacks must give
    # the same stacks bit for bit, the same violations and the same verdict
    a1, a2 = {"zero": (0.0, 0.0), "positive": (alpha, 0.5 * alpha),
              "mixed": (0.0, alpha) if seed % 2 else (alpha, 0.0)}[alphas]
    d1, d2, ca1, ca2, b1, b2, c1, c2 = coeffs
    params = ModelParams(
        d1=d1, d2=d2, alpha1=a1, alpha2=a2, a1=ca1, a2=ca2, b1=b1, b2=b2, c1=c1, c2=c2
    )
    grid = Grid.interval(2.0, dims[0]) if len(dims) == 1 else Grid.rectangle(2.0, 3.0, *dims)
    state = SystemState.from_u_arrays(
        params, grid, 0.0, bracket_data(grid, seed, kinds[0]),
        bracket_data(grid, seed + 1, kinds[1]),
    )
    flat = state.u.reshape(2, -1)
    lows, highs = flat.min(axis=1).tolist(), flat.max(axis=1).tolist()
    cases = (
        ("tight", kappa, [(1.0 - kappa) * m for m in lows], [(1.0 + kappa) * m for m in highs]),
        ("wide", 1.0, [0.0, 0.0], [2.0 * m for m in highs]),
    )
    for dt in (1e-8, 1e-4, 1e-1, 10.0):
        for kind, k, floors, ceilings in cases:
            ref = stacked_constant_bracket(params, grid, floors, ceilings, kind)
            want = _violations(params, grid, dt, state.h[:, None], ref)
            admitted = float(want.max()) <= _CHAIN_TOL * max(1.0, max(ceilings))
            got = _auto_bracket(
                params, _param_columns(params, grid), _Extremes.of(state), dt, floors,
                ceilings, kind,
            )
            constant = constant_bracket(params, state, dt, k)
            assert (got is not None) is (constant is not None) is admitted
            if got is None:
                continue
            assert got.kind == constant.kind == kind and got.lap_h == 0.0
            # repr also tells a +0.0 floor from -0.0
            assert repr(got.box) == repr(constant.box) == repr((floors, ceilings))
            for built, stacked in ((got.u, ref.u), (got.h, ref.h), (got.f, ref.f)):
                # (2, 2, 1...) stacks that broadcast over the grid
                assert built.shape == (2, 2) + (1,) * grid.dimension
                built = np.broadcast_to(built, stacked.shape)
                assert np.array_equal(built, stacked)
                assert np.array_equal(np.signbit(built), np.signbit(stacked))
            assert len(got.violations) == 2
            assert all(a == b for a, b in zip(got.violations, want.tolist()))


@settings(max_examples=60)
@given(
    dims=st.one_of(
        st.tuples(st.integers(3, 40)), st.tuples(st.integers(3, 12), st.integers(3, 12))
    ),
    kinds=st.tuples(*[st.sampled_from(["constant", "zero", "holes", "signed", "positive"])] * 2),
    kappa=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_automatic_brackets_contain_their_state(dims, kinds, kappa, seed):
    # step_monotone checks containment only for a caller's bracket: an
    # automatic one contains its nonnegative state exactly, no tolerance,
    # its floors at most min u_i and its ceilings at least max u_i
    params = certified_params(alpha2=0.0)
    grid = Grid.interval(2.0, dims[0]) if len(dims) == 1 else Grid.rectangle(2.0, 3.0, *dims)
    state = SystemState.from_u_arrays(
        params, grid, 0.0, bracket_data(grid, seed, kinds[0]),
        bracket_data(grid, seed + 1, kinds[1]),
    )
    lows, highs = state.u.reshape(2, -1).min(axis=1), state.u.reshape(2, -1).max(axis=1)
    checked = set()
    for dt in (1e-12, 1e-4, 1e-1):
        for k in (0.0, 3e-3, kappa, 0.5, 1.0):
            bracket = constant_bracket(params, state, dt, k)
            if bracket is None:
                continue
            checked.add(bracket.kind)
            floors, ceilings = bracket.box
            assert all(f <= m for f, m in zip(floors, lows))
            assert all(c >= m for c, m in zip(ceilings, highs))
            u = np.broadcast_to(bracket.u, (2, 2) + grid.shape)
            assert np.all(u[:, 1] <= state.u) and np.all(state.u <= u[:, 0])
    # at a tiny dt every ceiling above the data is a bound solution
    assert "wide" in checked


def check_chain_and_zeros(trace, new_state, data, scale):
    """Ordered chains, nonnegativity, and all-zero species staying exactly zero."""
    tol = 1e-10 * max(1.0, scale)
    assert trace.summary.worst_violation <= tol
    for prev, cur in zip(trace.records, trace.records[1:]):
        for lo, hi, lo_prev, hi_prev in (
            (cur.v1, cur.w1, prev.v1, prev.w1), (cur.v2, cur.w2, prev.v2, prev.w2)
        ):
            assert np.all(lo_prev <= lo + tol)
            assert np.all(lo <= hi + tol)
            assert np.all(hi <= hi_prev + tol)
    for field, h, u in zip((new_state.u1, new_state.u2), (new_state.h1, new_state.h2), data):
        assert field.values.min() >= 0.0
        if not u.any():
            assert np.all(field.values == 0.0) and np.all(h.values == 0.0)


class TestStackedStepMatchesReference:
    """step_monotone against the per-species loop, bit for bit."""

    @staticmethod
    def check(params, grid, state, bracket, dt):
        """Step from state and compare with the reference loop.

        bracket is a bracket, or a function of dt returning one (or None
        when there is none at that dt). A step that fails is redone at half
        the dt, as simulate does; the iterate cap keeps slowly contracting
        steps (a large shift phi) cheap.
        """
        for _ in range(20):
            cfg = SolverConfig(dt=dt, max_inner_iters=100)
            step_bracket = bracket(dt) if callable(bracket) else bracket
            if step_bracket is not None:
                try:
                    new_state, trace = step_monotone(state, cfg, params, step_bracket)
                    break
                except (ConvergenceError, OrderingViolationError):
                    pass
            dt /= 2.0
        else:
            pytest.fail("no step succeeded in 20 halvings")
        records, accepted = reference_inner(
            params, grid, dt, state, step_bracket, (trace.summary.phi1, trace.summary.phi2),
            cfg.inner_tol, cfg.max_inner_iters,
        )
        assert accepted is not None
        assert len(trace.records) == len(records)
        for k, (rec, ref) in enumerate(zip(trace.records, records)):
            assert rec.k == k
            for got, want in zip((rec.v1, rec.v2, rec.w1, rec.w2), ref[:4]):
                assert np.array_equal(got, want)
            # repr also tells +0.0 from -0.0
            assert repr(rec.gap) == repr(ref[4])
            assert repr(rec.worst_violation) == repr(ref[5])
        check_records(trace)
        (v1, v2), (h1, h2) = accepted
        for got, want in zip(
            (new_state.u1, new_state.u2, new_state.h1, new_state.h2), (v1, v2, h1, h2)
        ):
            assert np.array_equal(got.values, want)
        assert new_state.t == state.t + dt
        assert trace.summary.gap == records[-1][4]
        assert trace.summary.worst_violation == max(r[5] for r in records)
        return new_state, trace, dt

    @settings(max_examples=50)
    @given(**STEP_DRAWS)
    def test_auto_bracket_steps(self, alphas, alpha, coeffs, dims, length, kinds, seed, dt):
        params, grid, (u1, u2), state = drawn_case(alphas, alpha, coeffs, dims, length, kinds, seed)
        _, dt = wide_bracket(params, state, dt)

        def wide(dt):
            # the bracket's violations are measured at the dt it is built for
            return wide_bracket(params, state, dt)[0]

        new_state, trace, _ = self.check(params, grid, state, wide, dt)
        assert trace.summary.bracket == "wide"
        scale = max(2.0 * u1.max(), 2.0 * u2.max())
        check_chain_and_zeros(trace, new_state, (u1, u2), scale)

    @settings(max_examples=50)
    @given(**STEP_DRAWS)
    def test_tight_bracket_steps(self, alphas, alpha, coeffs, dims, length, kinds, seed, dt):
        # the tight constant bracket at simulate's smallest kappa, admitted by
        # its discrete-bound test with dt halved until it passes (simulate
        # would fall back to the wide bracket instead)
        params, grid, (u1, u2), state = drawn_case(alphas, alpha, coeffs, dims, length, kinds, seed)
        _, dt = wide_bracket(params, state, dt)
        kappa = 3.0 * SolverConfig(dt=dt).growth_trigger

        def tight(dt):
            return constant_bracket(params, state, dt, kappa)

        new_state, trace, dt = self.check(params, grid, state, tight, dt)
        assert trace.summary.bracket == "tight"
        scale = (1.0 + kappa) * max(u1.max(), u2.max())
        check_chain_and_zeros(trace, new_state, (u1, u2), scale)

        # the wide bracket at the same dt pinches the same step solution
        wide, wide_dt = wide_bracket(params, state, dt)
        assert wide_dt == dt
        cfg = SolverConfig(dt=dt)
        wide_state, _ = step_monotone(state, cfg, params, wide)
        gap_tol = cfg.inner_tol * (1.0 + max(2.0 * u1.max(), 2.0 * u2.max()))
        for got, want in ((new_state.u1, wide_state.u1), (new_state.u2, wide_state.u2)):
            assert np.abs(got.values - want.values).max() <= gap_tol

    def test_certified_window_step(self, setup):
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        state = SystemState.from_u(params, 0.0, *u0)
        self.check(params, grid, state, bracket, 1e-3)

    def test_solver_reused_across_steps(self, setup):
        # one solver for the run gives the same steps as a fresh one per step
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime)
        cfg = SolverConfig(dt=1e-3)
        solver = _HelmholtzSolver(grid)
        shared = fresh = SystemState.from_u(params, 0.0, *u0)
        for _ in range(3):
            shared, _ = step_monotone(shared, cfg, params, bracket, solver)
            fresh, _ = step_monotone(fresh, cfg, params, bracket)
            assert np.array_equal(shared.u1.values, fresh.u1.values)
            assert np.array_equal(shared.u2.values, fresh.u2.values)
        with pytest.raises(ValueError, match="different grids"):
            step_monotone(shared, cfg, params, bracket, _HelmholtzSolver(Grid.interval(np.pi, 9)))


class TestWindowBracketRuns:
    """simulate in a caller's bracket against step_monotone on the pair."""

    @settings(max_examples=25)
    @given(**STEP_DRAWS, fill=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)))
    def test_simulate_matches_steps_on_the_pair(
        self, alphas, alpha, coeffs, dims, length, kinds, seed, dt, fill
    ):
        params, grid, data, _ = drawn_case(alphas, alpha, coeffs, dims, length, kinds, seed)
        eig = principal_eigenpair(grid, "principal")
        regime = classify_global(params, eig.lambda0, eig.mode)
        assume(regime.certified)
        # data in [0, 2] scaled to peak under the fraction `fill` of each ceiling
        u0 = tuple(
            ScalarField(grid, 0.5 * f * n * u)
            for f, (n, _), u in zip(fill, regime.window, data)
        )
        bracket = initial_bracket(params, eig, u0, regime)
        # no halvings: the first failure ends the run, and only a rising
        # norm moves dt off cfg.dt
        cfg = SolverConfig(dt=dt, max_inner_iters=100, max_halvings=0)
        t_end = 3.0 * dt
        result = simulate(params, grid, eig, u0, cfg, t_end, bracket=bracket)
        assert len(result.snapshots) == len(result.summaries) + 1

        def step(state, step_dt):
            return step_monotone(state, cfg, params, bracket, dt=step_dt)

        # each step of the run, redone from the run's own state in the window:
        # a window step gives the same state bit for bit and the same trace;
        # a predicted one pinches the same step solution, within gap_tol,
        # and stays inside the window
        lower, upper = bracket
        scale = float(upper.u.max())
        gap_tol = cfg.inner_tol * (1.0 + scale)
        chain_tol = 1e-10 * max(1.0, scale)
        for summary, state, snap in zip(
            result.summaries, result.snapshots, result.snapshots[1:]
        ):
            new_state, trace = step(state, summary.dt)
            assert new_state.t == snap.t
            if summary.bracket == "predicted":
                assert np.abs(new_state.u - snap.u).max() <= gap_tol
                assert np.all(lower.u - chain_tol <= snap.u)
                assert np.all(snap.u <= upper.u + chain_tol)
                continue
            assert new_state.u.tobytes() == snap.u.tobytes()
            assert new_state.h.tobytes() == snap.h.tobytes()
            assert trace.summary.bracket == summary.bracket == "window"
            got = (trace.summary.iterations, trace.summary.gap,
                   trace.summary.worst_violation, trace.summary.phi1, trace.summary.phi2,
                   trace.summary.retries, trace.summary.fallbacks)
            want = (summary.iterations, summary.gap, summary.worst_violation,
                    summary.phi1, summary.phi2, summary.retries, summary.fallbacks)
            assert repr(got) == repr(want)
        # the first two steps always run in the window
        assert all(s.bracket == "window" for s in result.summaries[:2])
        assert result.final_state is result.snapshots[-1]
        state = result.final_state
        if result.termination == "failed":
            # the step that ended the run fails the same way on the pair, at
            # the controller's dt, trimmed to land on t_end
            with pytest.raises(type(result.error), match=re.escape(str(result.error))):
                step(state, min(result.final_dt, t_end - state.t))
        else:
            assert result.termination == "completed"
            assert state.t == pytest.approx(t_end, rel=1e-12)
            assert len(result.summaries) == 3 or min(s.dt for s in result.summaries) < dt


def smooth_fields(grid, seed, kinds, constant):
    """Positive data per species, a mean times one plus a cosine mode of the
    domain, or the mean alone when `constant`; a 'zero' species is zero."""
    rng = np.random.default_rng(seed)
    mode = np.cos(rng.integers(1, 3) * np.pi * grid.xs / grid.lx)
    if grid.dimension == 2:
        mode = np.multiply.outer(mode, np.cos(rng.integers(0, 3) * np.pi * grid.ys / grid.ly))
    return [
        np.zeros(grid.shape) if kind == "zero"
        else rng.uniform(0.2, 1.5) * (1.0 + (0.0 if constant else rng.uniform(0.1, 0.5)) * mode)
        for kind in kinds
    ]


def recorded_run(params, grid, u0, cfg, t_end, bracket):
    """simulate with every step_monotone call that returned recorded as
    (state, cfg, bracket, new state, summary, trace), cfg with the dt the
    step was given: simulate asks for the step's summary alone, and trace is
    the IterationTrace of the same step redone through the public path (a
    fresh solver), which must give the same new state, byte for byte, and
    an equal summary."""
    calls = []
    step = sktlab.iteration.step_monotone

    def recording(state, cfg, params, bracket, solver, dt, trace):
        assert trace is False
        new_state, summary = step(state, cfg, params, bracket, solver, dt, trace)
        calls.append((state, dataclasses.replace(cfg, dt=dt), bracket, new_state, summary))
        return new_state, summary

    eig = principal_eigenpair(grid, "principal")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sktlab.iteration, "step_monotone", recording)
        result = simulate(params, grid, eig, u0, cfg, t_end, bracket=bracket)
    traced = []
    for state, step_cfg, step_bracket, new_state, summary in calls:
        assert isinstance(summary, TraceSummary)
        public_state, trace = step_monotone(state, step_cfg, params, step_bracket)
        assert public_state.t == new_state.t
        assert public_state.u.tobytes() == new_state.u.tobytes()
        assert public_state.h.tobytes() == new_state.h.tobytes()
        assert trace.summary == summary
        traced.append((state, step_cfg, step_bracket, new_state, summary, trace))
    return result, traced


def assert_same_digest(kept, returned):
    """A digest simulate kept against the one its step returned: a
    TraceSummary equal field for field, each float by its bytes."""
    assert type(kept) is TraceSummary
    for name, a, b in zip(TraceSummary._fields, kept, returned):
        if isinstance(b, float):
            assert struct.pack("d", a) == struct.pack("d", b), name
        else:
            assert a == b, name


class TestPredictedBrackets:
    """Steps simulate takes in a bracket around the extrapolated next state."""

    @settings(max_examples=60)
    @given(
        **STEP_DRAWS,
        shape=st.sampled_from(["constant", "smooth", "rough"]),
        window=st.booleans(),
        fill=st.floats(0.1, 0.9),
    )
    def test_predicted_steps_match_todays_brackets(
        self, alphas, alpha, coeffs, dims, length, kinds, seed, dt, shape, window, fill
    ):
        # every predicted step keeps its chain ordered and its zeros exact,
        # stays inside a window run's window, and pinches the step solution
        # that today's bracket from the same state gives, within gap_tol.
        # Automatic runs take predicted steps on constant data, as a constant
        # bracket around moving extremes rarely bounds a varying state.
        params, grid, data, _ = drawn_case(alphas, alpha, coeffs, dims, length, kinds, seed)
        if shape != "rough":
            data = smooth_fields(grid, seed, kinds, shape == "constant")
        bracket = None
        if window:
            eig = principal_eigenpair(grid, "principal")
            regime = classify_global(params, eig.lambda0, eig.mode)
            assume(regime.certified)
            # each species peaks at most at the fraction `fill` of its window ceiling
            data = [fill * n * u / max(u.max(), 1.0) for (_, n), u in zip(regime.window, data)]
            bracket = initial_bracket(params, eig, [ScalarField(grid, u) for u in data], regime)
        u0 = tuple(ScalarField(grid, u) for u in data)
        # no halvings: the first failure ends the run, and a rising norm
        # shrinks dt, so predicted brackets also span uneven nodes
        cfg = SolverConfig(dt=dt, max_inner_iters=100, max_halvings=0)
        result, calls = recorded_run(params, grid, u0, cfg, 6.0 * dt, bracket)
        kept = {id(s) for s in result.snapshots}
        for state, step_cfg, step_bracket, new_state, summary, trace in calls:
            if summary.bracket != "predicted" or id(new_state) not in kept:
                continue
            scale = max(step_bracket.box[1])
            check_chain_and_zeros(trace, new_state, data, scale)
            for u, got_u, got_h in zip(data, new_state.u, new_state.h):
                if not u.any():
                    assert not np.signbit(got_u).any() and not np.signbit(got_h).any()
            if window:
                lower, upper = bracket
                # the bracket is clipped to the window, and so is its state
                assert np.all(lower.u <= step_bracket.u[:, 1])
                assert np.all(step_bracket.u[:, 0] <= upper.u)
                tol = 1e-10 * max(1.0, scale)
                assert np.all(lower.u - tol <= new_state.u)
                assert np.all(new_state.u <= upper.u + tol)
                today = bracket
                today_scale = float(upper.u.max())
            else:
                kappa = 3.0 * step_cfg.growth_trigger
                today = constant_bracket(params, state, step_cfg.dt, kappa)
                if today is None:
                    today = constant_bracket(params, state, step_cfg.dt, 1.0)
                today_scale = max(today.box[1])
            ref_cfg = dataclasses.replace(step_cfg, max_inner_iters=500)
            ref_state, _ = step_monotone(state, ref_cfg, params, today)
            gap_tol = step_cfg.inner_tol * (1.0 + max(scale, today_scale))
            assert np.abs(ref_state.u - new_state.u).max() <= gap_tol

    @pytest.mark.parametrize("window", [False, True], ids=["auto", "window"])
    def test_zero_data_stays_positive_zero(self, setup, window):
        # a zero state's predicted bracket is [+0.0, round-off floor]: its
        # floor holds the lower sequence at +0.0
        params, grid, eig, regime, _ = setup
        u0 = (ScalarField.constant(grid, 0.0), ScalarField.constant(grid, 0.0))
        bracket = initial_bracket(params, eig, u0, regime) if window else None
        result = simulate(params, grid, eig, u0, SolverConfig(dt=1e-3), 6e-3, bracket=bracket)
        assert result.termination == "completed"
        assert [s.bracket for s in result.summaries[2:]] == ["predicted"] * 4
        for snap in result.snapshots:
            for a in (snap.u, snap.h):
                assert np.all(a == 0.0) and not np.signbit(a).any()

    def test_rejected_prediction_falls_back_without_halving(self, monkeypatch):
        # species 2 grows and suppresses species 1, whose peak turns over at
        # t = 0.2 and then falls ever faster: the extrapolation lags the turn,
        # overshoots the peak, and its bracket fails the discrete-bound test.
        # The attempt falls back to today's brackets; with no halving budget
        # at all, a fallback that spent one would end the run as failed.
        params = ModelParams(
            d1=1.0, d2=1.0, alpha1=0.0, alpha2=0.0,
            a1=0.5, a2=0.1, b1=1.0, b2=0.1, c1=5.0, c2=50.0,
        )
        grid = Grid.interval(np.pi, 9)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.0), ScalarField.constant(grid, 0.05))
        predicted = []
        build = sktlab.iteration._auto_bracket

        def recording(*args):
            # args[4:] are the floors, the ceilings and the kind
            got = build(*args)
            if args[6] == "predicted":
                predicted.append((args[4], args[5], got))
            return got

        monkeypatch.setattr(sktlab.iteration, "_auto_bracket", recording)
        # a growth trigger of 0.3 keeps every step at dt: no step's norm
        # rises by 0.45 * 0.3, where the controller would start to shrink dt
        cfg = SolverConfig(dt=0.02, max_halvings=0, growth_trigger=0.3)
        result = simulate(params, grid, eig, u0, cfg, 0.3)
        assert {s.dt for s in result.summaries} == {0.02}
        assert result.termination == "completed"
        assert result.halvings_used == 0
        peaks = [float(s.u[0].max()) for s in result.snapshots]
        top = int(np.argmax(peaks))
        assert 0 < top < len(peaks) - 1
        # a prediction is tried from the third step on, one per attempt
        kinds = [s.bracket for s in result.summaries]
        assert len(predicted) == len(kinds) - 2
        rejected = [k for k, (_, _, got) in enumerate(predicted, start=2) if got is None]
        assert rejected
        for k in rejected:
            # step k makes snapshot k + 1, past the turn; on constant data
            # the extrapolated min and max of u1 agree, so species 1's floor
            # and ceiling are centred on the prediction, which overshoots it
            floors, ceilings, _ = predicted[k - 2]
            assert k >= top and 0.5 * (floors[0] + ceilings[0]) > peaks[k + 1]
        for k, kind in enumerate(kinds):
            if k < 2 or k in rejected:
                assert kind in ("tight", "wide")
            else:
                assert kind == "predicted"

    def test_rejected_window_prediction_falls_back_without_halving(self, setup, monkeypatch):
        # a window run's predicted bracket that fails the discrete-bound test
        # falls back to the caller's window, at no cost to the halving budget:
        # with none at all, a fallback that spent one would end the run as
        # failed. The fifth step's prediction is forced to fail
        params, grid, eig, regime, u0 = setup
        pair = initial_bracket(params, eig, u0, regime)
        feasible = sktlab.iteration._auto_bracket_feasible
        verdicts = []

        def failing_fifth(violations, ceilings):
            # called for each predicted bracket, from the third step on
            verdicts.append(feasible(violations, ceilings) and len(verdicts) != 2)
            return verdicts[-1]

        monkeypatch.setattr(sktlab.iteration, "_auto_bracket_feasible", failing_fifth)
        cfg = SolverConfig(dt=1e-3, max_halvings=0)
        result = simulate(params, grid, eig, u0, cfg, 8 * cfg.dt, bracket=pair)
        assert result.termination == "completed" and result.halvings_used == 0
        kinds = [s.bracket for s in result.summaries]
        assert len(verdicts) == len(kinds) - 2 == 6
        assert kinds == ["window"] * 2 + ["predicted"] * 2 + ["window"] + ["predicted"] * 3
        assert {s.dt for s in result.summaries} == {cfg.dt}

    @pytest.mark.parametrize("shape", [(2, 17), (2, 5, 4)], ids=["1d", "2d"])
    @pytest.mark.parametrize(
        "times, degree",
        [((0.0, 0.1, 0.15), 2), ((0.0, 0.1, 0.15), 1), ((0.1, 0.15), 1)],
        ids=["quadratic", "line-3", "line-2"],
    )
    def test_extrapolation_exact_on_polynomial_stacks(self, shape, times, degree):
        # unevenly spaced nodes, as a halved dt leaves them: three nodes give
        # back a quadratic in t and two a line, to round-off, at t = 0.175
        a, b, c = np.random.default_rng(7).uniform(-1.0, 1.0, (3,) + shape)

        def poly(t):
            return a + b * t + (c * t * t if degree == 2 else 0.0)

        values = [poly(t) for t in times]
        kept = [v.copy() for v in values]
        got = _extrapolate(list(times), values, 0.175)
        assert got.shape == shape
        assert np.abs(got - poly(0.175)).max() <= 1e-14
        # the nodes are left as they were
        assert all(np.array_equal(v, k) for v, k in zip(values, kept))

    def test_kept_digest_is_the_steps_own(self):
        # simulate's summaries read back each accepted step's TraceSummary
        # as step_monotone built it, floats bit for bit, stamped with the new
        # state's time and the step's own dt;
        # growth rejections halve dt twice, the controller then picks each
        # step's dt, and the last step is shortened to land on t_end
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 9)
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        cfg = SolverConfig(dt=0.02, max_halvings=2)
        result, calls = recorded_run(params, grid, u0, cfg, 0.1275, None)
        assert result.termination == "completed" and result.halvings_used == 2
        kept = {id(s) for s in result.snapshots[1:]}
        accepted = [call for call in calls if id(call[3]) in kept]
        assert len(accepted) == len(result.summaries) < len(calls)
        for summary, (_, step_cfg, _, new_state, returned, trace) in zip(
            result.summaries, accepted
        ):
            assert_same_digest(summary, returned)
            assert summary.t == new_state.t
            assert summary.dt == step_cfg.dt
            assert summary.iterations == len(trace.iterates) - 1
        dts = {s.dt for s in result.summaries}
        assert cfg.dt not in dts and len(dts) > 2
        assert result.final_state.t == pytest.approx(0.1275, rel=1e-12)


class TestLeanSteps:
    """simulate's own step path against the public one, and its buffer."""

    @pytest.mark.parametrize("case", ["cosine", "constant"])
    def test_automatic_run_matches_public_steps(self, case):
        # every step of an automatic 1D run is redone through the public
        # step_monotone from simulate's state on the bracket simulate picked
        # (recorded_run): the states and summaries simulate keeps are that
        # path's, byte for byte and equal, on varying data at n 65 and on
        # blowup-1d's constant data and dt
        if case == "cosine":
            params = certified_params()
            grid = Grid.interval(np.pi, 65)
            u0 = (
                ScalarField.from_function(grid, lambda x: 0.2 + 0.1 * np.cos(x)),
                ScalarField.from_function(grid, lambda x: 0.3 + 0.05 * np.cos(2 * x)),
            )
            cfg, steps, kinds = SolverConfig(dt=1e-3), 50, {"tight"}
        else:
            params = certified_params(alpha1=0.0, alpha2=0.0)
            grid = Grid.interval(np.pi, 33)
            u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
            cfg, steps, kinds = SolverConfig(dt=1e-4), 300, {"tight", "predicted"}
        result, calls = recorded_run(params, grid, u0, cfg, steps * cfg.dt, None)
        assert result.termination == "completed" and result.halvings_used == 0
        # no attempt was rejected, so each call made the next snapshot
        assert len(calls) == len(result.summaries) == steps
        for summary, snap, (_, _, _, new_state, returned, trace) in zip(
            result.summaries, result.snapshots[1:], calls
        ):
            assert snap is new_state
            assert_same_digest(summary, returned)
            assert trace.summary == summary
        assert {s.bracket for s in result.summaries} == kinds

    @pytest.mark.parametrize("case", ["varying", "zero species", "nan", "inf"])
    def test_fused_rows_match_separate_reductions(self, case):
        # a buffer of a state's u and h, its miss |u - p| and a next
        # prediction, reduced once each way, gives the floats that separate
        # reductions of the state, the miss and the prediction give
        rng = np.random.default_rng(13)
        params = certified_params()
        grid = Grid.interval(np.pi, 17)
        u = rng.uniform(0.0, 2.0, (2,) + grid.shape)
        prediction = u + rng.uniform(-1e-3, 1e-3, u.shape)
        following = rng.uniform(0.0, 2.0, u.shape)
        if case == "zero species":
            u[1] = 0.0
            prediction[1] = -0.0
        elif case != "varying":
            u[0, 5] = float(case)
        d = np.array([[params.d1], [params.d2]])
        alpha = np.array([[params.alpha1], [params.alpha2]])
        # the raw constructor: from_u_arrays refuses a state that is not finite
        state = SystemState(0.0, grid, u, _transform_raw(d, alpha, u))
        rows = np.zeros((8, grid.npoints))
        u_rows, h_rows, miss_rows, predicted = (
            rows[i:i + 2].reshape((2,) + grid.shape) for i in range(0, 8, 2)
        )
        predicted[...] = prediction
        np.copyto(u_rows, state.u)
        np.copyto(h_rows, state.h)
        np.abs(np.subtract(state.u, predicted, out=miss_rows), out=miss_rows)
        predicted[...] = following
        fused = lo, hi = _Extremes.reduce(rows)

        def each(a, reduce):
            return reduce(a.reshape(2, -1), axis=1).tolist()

        # repr tells +0.0 from -0.0 and compares NaN
        assert repr(lo[:4]) == repr(each(state.u, np.min) + each(state.h, np.min))
        assert repr(hi[:4]) == repr(each(state.u, np.max) + each(state.h, np.max))
        assert repr(_Extremes.of(state)) == repr(_Extremes(lo[:4], hi[:4]))
        assert repr(hi[4:6]) == repr(each(np.abs(state.u - prediction), np.max))
        assert repr(lo[6:]) == repr(each(following, np.min))
        assert repr(hi[6:]) == repr(each(following, np.max))
        assert repr(fused.sup_norms()) == repr(state.sup_norms())
        if case == "zero species":
            assert repr(hi[5]) == repr(fused.sup_norms()[1]) == "0.0"

    def test_kept_semilinear_sigma_follows_dt_and_columns(self):
        # a solver keeps a semilinear run's sigma/dt for one columns object
        # and dt; a step on a shared solver equals one on a fresh solver as
        # dt changes and comes back, and for other params
        grid = Grid.interval(np.pi, 17)
        solver = _HelmholtzSolver(grid)
        for d1 in (1.0, 2.5):
            params = certified_params(alpha1=0.0, alpha2=0.0, d1=d1)
            state = SystemState.from_u_arrays(
                params, grid, 0.0, 0.2 + 0.1 * np.cos(grid.xs), np.full(grid.shape, 0.3)
            )
            wide = constant_bracket(params, state, 1e-3, 1.0)
            for dt in (1e-3, 1e-3, 5e-4, 1e-3):
                cfg = SolverConfig(dt=dt)
                shared, _ = step_monotone(state, cfg, params, wide, solver)
                fresh, _ = step_monotone(state, cfg, params, wide)
                assert shared.u.tobytes() == fresh.u.tobytes()
                assert shared.h.tobytes() == fresh.h.tobytes()


def recorded_extremes(mp):
    """Put a step_monotone on mp that keeps, for every call that returns,
    the new state and the _Extremes the step handed over on its solver's
    step context; returns the list it appends them to."""
    kept = []
    step = sktlab.iteration.step_monotone

    def recording(state, cfg, params, bracket, solver, dt, trace):
        new_state, summary = step(state, cfg, params, bracket, solver, dt, trace)
        kept.append((new_state, solver.step_context(params).extremes))
        return new_state, summary

    mp.setattr(sktlab.iteration, "step_monotone", recording)
    return kept


def assert_extremes_of(extremes, state):
    """The extremes a step handed over are _Extremes.of(state), bit for bit:
    repr tells +0.0 from -0.0."""
    assert repr(extremes) == repr(_Extremes.of(state))


class TestHandedExtremes:
    """The new state's extremes, which a step takes from its chain audit and
    simulate's ladders read instead of reducing the state again."""

    @settings(max_examples=30)
    @given(
        **STEP_DRAWS,
        shape=st.sampled_from(["constant", "smooth", "rough"]),
        window=st.booleans(),
    )
    def test_every_accepted_step_hands_over_its_states_extremes(
        self, alphas, alpha, coeffs, dims, length, kinds, seed, dt, shape, window
    ):
        # window and automatic runs in 1D and 2D, on constant, smooth and
        # rough data, zero species among them
        params, grid, data, _ = drawn_case(alphas, alpha, coeffs, dims, length, kinds, seed)
        if shape != "rough":
            data = smooth_fields(grid, seed, kinds, shape == "constant")
        eig = principal_eigenpair(grid, "principal")
        bracket = None
        if window:
            regime = classify_global(params, eig.lambda0, eig.mode)
            assume(regime.certified)
            data = [0.5 * n * u / max(u.max(), 1.0) for (_, n), u in zip(regime.window, data)]
            bracket = initial_bracket(params, eig, [ScalarField(grid, u) for u in data], regime)
        u0 = tuple(ScalarField(grid, u) for u in data)
        # no halvings: the first failure ends the run
        cfg = SolverConfig(dt=dt, max_inner_iters=100, max_halvings=0)
        with pytest.MonkeyPatch.context() as mp:
            kept = recorded_extremes(mp)
            result = simulate(params, grid, eig, u0, cfg, 6.0 * dt, bracket=bracket)
        assert len(kept) >= len(result.summaries)
        for new_state, extremes in kept:
            assert_extremes_of(extremes, new_state)
            for lo, hi, u in zip(extremes.lo, extremes.hi, data):
                if not u.any():
                    assert repr((lo, hi)) == "(0.0, 0.0)"

    def test_zero_data_steps_in_degenerate_brackets(self, setup):
        # zero data's tight bracket is degenerate, every ceiling equal to its
        # floor: the step returns the bracket's floor, whose extremes read +0.0
        params, grid, eig, _, _ = setup
        u0 = (ScalarField.constant(grid, 0.0), ScalarField.constant(grid, 0.0))
        with pytest.MonkeyPatch.context() as mp:
            kept = recorded_extremes(mp)
            result = simulate(params, grid, eig, u0, SolverConfig(dt=1e-3), 2e-3)
        assert [s.bracket for s in result.summaries] == ["tight"] * 2
        assert [s.phi1 for s in result.summaries] == [0.0] * 2
        for new_state, extremes in kept:
            assert_extremes_of(extremes, new_state)
            assert repr(extremes) == repr(_Extremes([0.0] * 4, [0.0] * 4))

    def test_degenerate_field_bracket_and_shift_retries(self, setup, monkeypatch):
        # a degenerate field bracket, both sequences the step solution from
        # varying data, and a step whose shift holds the chain only at its
        # second retry, each on a solver whose step context the test reads
        params, _, _, _, _ = setup
        grid = Grid.interval(np.pi, 17)
        solver = _HelmholtzSolver(grid)
        state = SystemState.from_u_arrays(
            params, grid, 0.0, 0.2 + 0.1 * np.cos(grid.xs), 0.3 + 0.05 * np.cos(2 * grid.xs)
        )
        cfg = SolverConfig(dt=1e-3, inner_tol=1e-13)
        wide = constant_bracket(params, state, cfg.dt, 1.0)
        solution, _ = step_monotone(state, cfg, params, wide)
        same = _field_bracket(
            params, grid, np.stack((solution.u, solution.u), axis=1), "window",
            _param_columns(params, grid),
        )
        new_state, trace = step_monotone(state, cfg, params, same, solver)
        assert trace.summary.iterations == 1 and trace.summary.gap == 0.0
        assert new_state.u.tobytes() == solution.u.tobytes()
        extremes = solver.step_context(params).extremes
        assert extremes.lo != extremes.hi
        assert_extremes_of(extremes, new_state)

        monkeypatch.setattr(sktlab.iteration, "_phi_automatic", lambda *args: 0.1)
        new_state, trace = step_monotone(state, cfg, params, wide, solver)
        assert trace.summary.retries == 2
        assert_extremes_of(solver.step_context(params).extremes, new_state)


class TestStepDigests:
    """The packed records simulate keeps, read back as a Sequence."""

    # one digest per bracket kind, with the floats and ints at their edges
    SUMMARIES = (
        TraceSummary(0.1, 1e-4, 1, 2.5e-13, -0.0, 1.0, 1.0, 0, 0, "window"),
        TraceSummary(1 / 3, 5e-324, 2**32 - 1, 0.0, float("nan"), 2.8, 3.2, 3, 7, "predicted"),
        TraceSummary(0.3, 1e-4, 7, float("inf"), -2.4e-11, 1e300, -1.5, 255, 2**32 - 1, "tight"),
        TraceSummary(0.4, 9.5e-11, 3, 8.3e-11, 1e-10, 0.0, 2.0, 1, 0, "wide"),
    )

    @staticmethod
    def digests(summaries):
        buffer = bytearray()
        for summary in summaries:
            pack(buffer, summary)
        return StepDigests(buffer, TraceSummary)

    def test_reads_back_every_field(self):
        kept = self.digests(self.SUMMARIES)
        assert isinstance(kept, Sequence)
        assert len(kept) == 4
        for i, summary in enumerate(self.SUMMARIES):
            assert_same_digest(kept[i], summary)
            assert_same_digest(kept[i - 4], summary)
        for got, summary in zip(kept, self.SUMMARIES, strict=True):
            assert_same_digest(got, summary)
        assert [s.bracket for s in kept] == ["window", "predicted", "tight", "wide"]
        assert kept[np.int64(-1)].bracket == "wide"

    @pytest.mark.parametrize(
        "index",
        [slice(None), slice(1, 3), slice(None, None, -1), slice(-3, None, 2), slice(5, 9)],
        ids=["all", "middle", "reversed", "negative-start-step-2", "past-the-end"],
    )
    def test_slices_are_lists(self, index):
        got = self.digests(self.SUMMARIES)[index]
        want = list(self.SUMMARIES)[index]
        assert type(got) is list and len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_digest(a, b)

    def test_index_out_of_range(self):
        kept = self.digests(self.SUMMARIES)
        for index in (4, -5, 2**70):
            with pytest.raises(IndexError):
                kept[index]
        with pytest.raises(TypeError):
            kept[1.0]

    def test_empty_run(self):
        kept = self.digests(())
        assert len(kept) == 0 and list(kept) == [] and kept[:] == []
        for index in (0, -1):
            with pytest.raises(IndexError):
                kept[index]

    def test_run_keeps_at_most_80_bytes_a_step(self):
        # blowup-1d's parameters, data and dt, 2,000 accepted steps with no
        # snapshot between the first and the last; about 260 bytes a step
        # when each step's TraceSummary was kept as a tuple
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 33)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        cfg = SolverConfig(dt=1e-4, snapshot_every=10**6)
        # the warm-up loads dgtsv, which is then no part of the count
        simulate(params, grid, eig, u0, cfg, 10 * cfg.dt)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = simulate(params, grid, eig, u0, cfg, 2000 * cfg.dt)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        steps = len(result.summaries)
        assert result.termination == "completed" and steps >= 2000
        assert len(result.snapshots) == 2
        assert retained <= 80 * steps


class TestHelmholtzSolver:
    @settings(max_examples=60)
    @given(
        n=st.integers(3, 200),
        length=st.floats(0.5, 10.0),
        ratios=st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4),
        phis=st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
        fields=st.lists(st.booleans(), min_size=4, max_size=4),
        columns=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_banded_solve_matches_sparse_lu(
        self, n, length, ratios, phis, fields, columns, seed
    ):
        # one block-tridiagonal solve for all columns, each with its own
        # sig/dt, a constant or a field, and its own phi, drawn as (k, n) and
        # (k, 1) arrays. The banded solve reads the same stencil as
        # neg_laplacian_matrix; each diagonal is drawn relative to the
        # stencil's top eigenvalue 4/h^2, so the condition number stays below
        # about 1e3 (the stepper runs far better conditioned: sig/dt dominates)
        grid = Grid.interval(length, n)
        rng = np.random.default_rng(seed)
        phis = np.reshape(phis[:columns], (columns, 1))
        sigs = np.empty((columns, n))
        for sig, ratio, field in zip(sigs, ratios, fields):
            sig[...] = ratio * 4.0 / grid.hx**2 * (rng.uniform(0.5, 2.0, n) if field else 1.0)
        cols = rng.standard_normal((columns, n))
        cold = np.zeros((columns, n))
        got = _HelmholtzSolver(grid).solve(sigs, phis, cols.copy(), cold)
        assert got.shape == (columns, n)
        if not any(fields[:columns]):
            # constant columns passed as a (k, 1) array
            again = _HelmholtzSolver(grid).solve(sigs[:, :1], phis, cols.copy(), cold)
            assert np.array_equal(again, got)
        for x, b, sig, phi in zip(got, cols, sigs, phis):
            # each column is solve_banded on that column alone, bit for bit
            ab = _neumann_bands(n, grid.hx)
            ab[1] += phi
            ab[1] += sig
            assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))
            ref = splu((grid.neg_laplacian_matrix + sp.diags(sig + phi)).tocsc()).solve(b)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=60)
    @given(
        nx=st.integers(3, 40),
        ny=st.integers(3, 40),
        lx=st.floats(0.5, 10.0),
        ly=st.floats(0.5, 10.0),
        ratios=st.lists(st.floats(1e-2, 1e2), min_size=4, max_size=4),
        contrast=st.floats(1.0, 50.0),
        phis=st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
        fields=st.lists(st.booleans(), min_size=4, max_size=4),
        columns=st.integers(1, 4),
        noise=st.one_of(st.none(), st.floats(1e-14, 10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cg_solve_matches_sparse_lu(
        self, nx, ny, lx, ly, ratios, contrast, phis, fields, columns, noise, seed
    ):
        # each column has its own sig/dt, a constant or a field, and its own
        # phi, drawn as (k, *grid) and (k, 1, 1) arrays; every column of one
        # call must equal a one-column call on a fresh solver, a constant
        # column passed as a scalar, guesses and fallbacks included. The
        # diagonal sits relative to the stencil's top eigenvalue, as in the 1D
        # property, and the right-hand sides are scaled by it, so the
        # solutions are of order one; each column starts from zero or, with
        # `noise` set, from its solution plus noise of that relative size
        grid = Grid.rectangle(lx, ly, nx, ny)
        unit = 4.0 / min(grid.hx, grid.hy) ** 2
        rng = np.random.default_rng(seed)
        phis, fields = np.reshape(phis[:columns], (columns, 1, 1)), fields[:columns]
        sigs = np.empty((columns,) + grid.shape)
        for sig, ratio, field in zip(sigs, ratios, fields):
            sig[...] = ratio * unit * (rng.uniform(1.0, contrast, grid.shape) if field else 1.0)
        diags = sigs + phis
        cols = np.array([diag * rng.standard_normal(grid.shape) for diag in diags])
        refs = [
            splu((grid.neg_laplacian_matrix + sp.diags(diag.ravel())).tocsc())
            .solve(b.ravel()).reshape(grid.shape)
            for diag, b in zip(diags, cols)
        ]
        guess = np.zeros(cols.shape)
        if noise is not None:
            guess = np.array([
                ref + noise * np.abs(ref).max() * rng.standard_normal(grid.shape)
                for ref in refs
            ])
        solver = _HelmholtzSolver(grid)
        got = solver.solve(sigs, phis, cols.copy(), guess)
        assert got.shape == cols.shape
        fallbacks = 0
        for x, sig, phi, field, b, x0, ref in zip(got, sigs, phis, fields, cols, guess, refs):
            single = _HelmholtzSolver(grid)
            (one,) = single.solve(sig if field else sig[0, 0].item(), phi.item(), [b], [x0])
            fallbacks += single.fallbacks
            assert np.array_equal(x, one)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert solver.fallbacks == fallbacks

    @staticmethod
    def warm_case(seed=5):
        """A 2D solver, a variable diagonal, a right-hand side and its LU solution."""
        grid = Grid.rectangle(np.pi, 2.0, 17, 9)
        rng = np.random.default_rng(seed)
        sig_over_dt = rng.uniform(50.0, 250.0, grid.shape)
        b = rng.standard_normal(grid.shape)
        diag = (sig_over_dt + 2.0).ravel()
        lu = splu((grid.neg_laplacian_matrix + sp.diags(diag)).tocsc())
        return _HelmholtzSolver(grid), sig_over_dt, b, lu.solve(b.ravel()).reshape(grid.shape)

    def test_exact_guess_accepted_without_iterations(self, monkeypatch):
        monkeypatch.setattr(sktlab.iteration, "_CG_MAX_ITERS", 0)
        solver, sig_over_dt, b, ref = self.warm_case()
        (x,) = solver.solve(sig_over_dt, 2.0, [b], [ref])
        assert solver.fallbacks == 0
        assert np.array_equal(x, ref)

    def test_zero_column_ignores_guess(self):
        solver, sig_over_dt, _, ref = self.warm_case()
        (x,) = solver.solve(sig_over_dt, 2.0, [np.zeros(ref.shape)], [ref])
        assert np.all(x == 0.0) and not np.signbit(x).any()

    def test_useless_guess_is_a_cold_start(self):
        # a NaN guess, or one whose residual exceeds the right-hand side's,
        # gives the bytes of a solve from a zero guess
        solver, sig_over_dt, b, ref = self.warm_case()
        cold = solver.solve(sig_over_dt, 2.0, [b], [np.zeros(ref.shape)]).tobytes()
        # -1e3 * ref leaves the residual 1001 b
        for guess in (np.full(ref.shape, np.nan), -1e3 * ref):
            assert solver.solve(sig_over_dt, 2.0, [b], [guess]).tobytes() == cold
        assert solver.fallbacks == 0

    def test_near_solution_guess_halves_preconditioner_work(self):
        solver, sig_over_dt, b, ref = self.warm_case()
        dct1 = solver._dct1
        calls = []

        # one inverse transform per preconditioner application
        def counted(a, inverse=False):
            if inverse:
                calls.append(1)
            return dct1(a, inverse)

        solver._dct1 = counted
        solver.solve(sig_over_dt, 2.0, [b], [np.zeros(ref.shape)])
        cold = len(calls)
        calls.clear()
        near = ref + 1e-9 * np.random.default_rng(6).standard_normal(ref.shape)
        (x,) = solver.solve(sig_over_dt, 2.0, [b], [near])
        assert cold >= 4 and 2 * len(calls) <= cold
        assert solver.fallbacks == 0
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "grid",
        [Grid.interval(np.pi, 9), Grid.rectangle(np.pi, 2.0, 9, 5)],
        ids=["1d", "2d"],
    )
    def test_step_checks_its_solutions_itself(self, grid, monkeypatch):
        # the solver returns its solutions unchecked, and the step's chain
        # audit raises on a non-finite one
        solve = _HelmholtzSolver.solve

        def poisoned(self, sig_over_dt, phi, rhs_cols, guess):
            out = solve(self, sig_over_dt, phi, rhs_cols, guess)
            out.flat[3] = np.nan
            return out

        params = certified_params()
        state = SystemState.from_u_arrays(
            params, grid, 0.0, np.full(grid.shape, 0.3), np.full(grid.shape, 0.2)
        )
        bracket = constant_bracket(params, state, 1e-3, 3e-3)
        monkeypatch.setattr(_HelmholtzSolver, "solve", poisoned)
        with pytest.raises(NumericalError, match="linear solve produced non-finite values"):
            step_monotone(state, SolverConfig(dt=1e-3), params, bracket)

    def test_failed_1d_solve_is_a_numerical_error(self):
        # a zero main diagonal on an odd number of points is singular, and
        # LAPACK reports it
        solver = _HelmholtzSolver(Grid.interval(np.pi, 9))
        with pytest.raises(NumericalError) as info:
            solver.solve(0.0, -solver._main, np.ones((1, 9)), 0.0)
        assert str(info.value) == "tridiagonal solve failed (LAPACK dgtsv info 9)"

    def test_singular_sparse_lu_is_a_numerical_error(self, monkeypatch):
        # CG misses its bound, and the fallback's factor is exactly singular:
        # a zero diagonal leaves the 45 points' odd-even couplings alone
        grid = Grid.rectangle(np.pi, 2.0, 9, 5)
        solver = _HelmholtzSolver(grid)
        monkeypatch.setattr(solver, "_pcg", lambda *args: None)
        phi = -(2.0 / grid.hx**2 + 2.0 / grid.hy**2)
        with np.errstate(divide="ignore"), pytest.raises(NumericalError) as info:
            solver.solve(0.0, phi, np.ones((1,) + grid.shape), 0.0)
        assert str(info.value) == "sparse LU solve failed: Factor is exactly singular"

    @pytest.mark.parametrize(
        "grid",
        [Grid.interval(np.pi, 9), Grid.rectangle(np.pi, 2.0, 9, 5)],
        ids=["1d", "2d"],
    )
    def test_stack_solved_in_place(self, grid):
        # a C-contiguous stack, or a one-column slice of one, is overwritten
        # with its solutions; a list of columns is left as it was
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((3,) + grid.shape)
        cols = list(stack.copy())
        kept = [c.copy() for c in cols]
        sig = 30.0 + rng.uniform(0.0, 5.0, grid.shape)
        cold = np.zeros(stack.shape)
        want = _HelmholtzSolver(grid).solve(sig, 1.0, cols, cold)
        for got, b in zip(cols, kept):
            assert np.array_equal(got, b)
        solver = _HelmholtzSolver(grid)
        assert solver.solve(sig, 1.0, stack[:2], cold[:2]).base is stack
        assert solver.solve(sig, 1.0, stack[2:], cold[2:]).base is stack
        assert np.array_equal(stack, want)
        lu = splu((grid.neg_laplacian_matrix + sp.diags((sig + 1.0).ravel())).tocsc())
        for x, b in zip(stack, kept):
            ref = lu.solve(b.ravel()).reshape(grid.shape)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_scalar_shift_diagonal_kept_unchanged(self):
        # repeated solves with a scalar shift on one solver give a fresh
        # solver's bytes: no call leaves its diagonal behind for the next
        grid = Grid.interval(np.pi, 17)
        rng = np.random.default_rng(12)
        cols = [rng.standard_normal(grid.shape) for _ in range(2)]
        cold = np.zeros((2,) + grid.shape)
        solver = _HelmholtzSolver(grid)
        first = solver.solve(250.0, 3.0, cols, cold)
        again = solver.solve(250.0, 3.0, cols, cold)
        fresh = _HelmholtzSolver(grid).solve(250.0, 3.0, cols, cold)
        assert np.array_equal(first, again) and np.array_equal(first, fresh)
        # the same shift passed as a field gives the same bytes
        field = solver.solve(np.full(grid.shape, 250.0), 3.0, cols, cold)
        assert np.array_equal(field, first)

    def test_kept_diagonal_follows_the_values(self):
        # a 1D solver kept across calls writes each call's block diagonal
        # from its values: the same values, a changed phi, another column
        # count and the same values as a field each give a fresh solver's
        # bytes, in any order
        grid = Grid.interval(np.pi, 17)
        rng = np.random.default_rng(14)
        cols = rng.standard_normal((4,) + grid.shape)
        cold = np.zeros(cols.shape)
        sig = rng.uniform(200.0, 300.0, (4, 1))
        phi = np.array([[3.0], [3.0], [5.0], [5.0]])
        moved = phi.copy()
        moved[2] = 40.0

        def solve(solver, sig, phi, b):
            return solver.solve(sig, phi, b.copy(), cold[: len(b)]).tobytes()

        kept = _HelmholtzSolver(grid)
        first = solve(_HelmholtzSolver(grid), sig, phi, cols)
        assert solve(kept, sig, phi, cols) == first
        assert solve(kept, sig, phi, cols) == first
        cases = (
            (sig, moved, cols),
            (sig[:3], phi[:3], cols[:3]),
            (np.broadcast_to(sig, cols.shape).copy(), phi, cols),
        )
        for case in cases:
            want = solve(_HelmholtzSolver(grid), *case)
            assert solve(kept, *case) == want
            assert solve(kept, sig, phi, cols) == first
        # the changed phi does change the solution
        assert solve(_HelmholtzSolver(grid), *cases[0]) != first

    def test_2d_diagonal_form_does_not_matter(self):
        # the preconditioner's shift is the grid mean of a column's diagonal,
        # so a constant gives the same bytes as a scalar, as a (k, 1, 1) array
        # and filled over the grid; this value's 65x65 mean rounds up an ulp
        grid = Grid.rectangle(np.pi, np.pi, 65, 65)
        value = 1.0 / 1.3 / 1e-3
        assert np.full(grid.shape, value).mean() != value
        rng = np.random.default_rng(15)
        cols = rng.standard_normal((2,) + grid.shape)
        cold = np.zeros(cols.shape)
        forms = (
            (value, 2.0),
            (np.full((2, 1, 1), value), np.full((2, 1, 1), 2.0)),
            (np.full(grid.shape, value), 2.0),
            (np.full(cols.shape, value), np.full(cols.shape, 2.0)),
        )
        got = [_HelmholtzSolver(grid).solve(s, p, cols.copy(), cold).tobytes() for s, p in forms]
        assert got == [got[0]] * len(forms)

    def test_constant_diagonal_solved_by_one_preconditioner_step(self, monkeypatch):
        # the DCT-I preconditioner is the exact inverse when the diagonal is
        # constant, so one CG iteration meets the residual bound
        monkeypatch.setattr(sktlab.iteration, "_CG_MAX_ITERS", 1)
        grid = Grid.rectangle(np.pi, 2.0, 17, 9)
        b = np.random.default_rng(3).standard_normal(grid.shape)
        solver = _HelmholtzSolver(grid)
        (x,) = solver.solve(40.0, 2.0, [b], [np.zeros(grid.shape)])
        assert solver.fallbacks == 0
        lu = splu((grid.neg_laplacian_matrix + 42.0 * sp.identity(grid.npoints)).tocsc())
        ref = lu.solve(b.ravel()).reshape(grid.shape)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "shape", [(65, 65), (33, 17), (129, 129), (21, 31), (50, 37), (100, 3)]
    )
    def test_dct1_matches_scipy_fft(self, shape):
        # the preconditioner's numpy DCT-I against scipy's, forward and
        # inverse, so a numpy or scipy upgrade that breaks the identity shows
        from scipy.fft import dctn, idctn

        solver = _HelmholtzSolver(Grid.rectangle(np.pi, 2.0, *shape))
        rng = np.random.default_rng(shape[0] * shape[1])
        for _ in range(3):
            a = rng.standard_normal(shape)
            assert np.array_equal(solver._dct1(a), dctn(a, type=1))
            assert np.array_equal(solver._dct1(a, inverse=True), idctn(a, type=1))

    @pytest.mark.parametrize("shape", [(9, 13), (3, 5)])
    def test_stencil_matvec_matches_sparse_matrix(self, shape):
        # CG applies D - lap through the stencil; the sparse matrix the LU
        # fallback and diagnostics use must stay the same operator
        grid = Grid.rectangle(np.pi, 2.0, *shape)
        rng = np.random.default_rng(4)
        diag, v = rng.uniform(1.0, 100.0, shape), rng.standard_normal(shape)
        stencil = diag * v - _lap_array(grid, v)
        sparse = diag * v + (grid.neg_laplacian_matrix @ v.ravel()).reshape(shape)
        scale = np.abs(diag * v).max() + 8.0 / min(grid.hx, grid.hy) ** 2 * np.abs(v).max()
        assert np.abs(stencil - sparse).max() <= 1e-15 * scale

    def test_cg_miss_falls_back_to_sparse_lu(self, monkeypatch):
        monkeypatch.setattr(sktlab.iteration, "_CG_MAX_ITERS", 0)
        grid = Grid.rectangle(np.pi, 2.0, 17, 9)
        rng = np.random.default_rng(7)
        sig_over_dt = rng.uniform(50.0, 100.0, grid.shape)
        cols = [rng.standard_normal(grid.shape) for _ in range(2)]
        solver = _HelmholtzSolver(grid)
        # a zero column is accepted before any iteration, as exact zeros
        zeros = np.zeros(grid.shape)
        got = solver.solve(sig_over_dt, 2.0, cols + [zeros], [zeros] * 3)
        assert solver.fallbacks == 2
        assert np.all(got[2] == 0.0)
        diag = (sig_over_dt + 2.0).ravel()
        lu = splu((grid.neg_laplacian_matrix + sp.diags(diag)).tocsc())
        for x, b in zip(got, cols):
            assert np.array_equal(x, lu.solve(b.ravel()).reshape(grid.shape))


    def test_fallbacks_counted_per_step(self, monkeypatch):
        # with CG capped at zero iterations every nonzero column falls back;
        # a solver reused across steps reports each step's own count
        monkeypatch.setattr(sktlab.iteration, "_CG_MAX_ITERS", 0)
        params = certified_params()
        grid = Grid.rectangle(np.pi, 2.0, 9, 5)
        eig = principal_eigenpair(grid, "principal")
        regime = classify_global(params, eig.lambda0, eig.mode)
        u0 = (ScalarField.constant(grid, 0.2), ScalarField.constant(grid, 0.3))
        bracket = initial_bracket(params, eig, u0, regime)
        cfg = SolverConfig(dt=1e-3)
        state = SystemState.from_u(params, 0.0, *u0)
        solver = _HelmholtzSolver(grid)
        for _ in range(2):
            _, fresh = step_monotone(state, cfg, params, bracket)
            state, trace = step_monotone(state, cfg, params, bracket, solver)
            # quasilinear: one column per species and sequence
            assert trace.summary.fallbacks == fresh.summary.fallbacks == 4 * trace.summary.iterations


class TestRectangle:
    """Quasilinear steps on a 2D grid, in the certified window bracket."""

    @staticmethod
    def run(u2):
        params = certified_params()
        grid = Grid.rectangle(np.pi, 2.0, 17, 9)
        eig = principal_eigenpair(grid, "principal")
        regime = classify_global(params, eig.lambda0, eig.mode)
        u0 = (
            ScalarField.from_function(
                grid, lambda x, y: 0.2 + 0.1 * np.cos(x) * np.cos(np.pi * y / 2.0)
            ),
            ScalarField.from_function(grid, u2),
        )
        bracket = initial_bracket(params, eig, u0, regime)
        scale = max(float(bracket[1].u1.values.max()), float(bracket[1].u2.values.max()))
        cfg = SolverConfig(dt=1e-3)
        return simulate(params, grid, eig, u0, cfg, 5e-3, bracket=bracket), cfg, scale

    def test_chain_gap_and_nonnegativity(self):
        result, cfg, scale = self.run(lambda x, y: 0.3 + 0.05 * np.cos(2.0 * x))
        assert result.termination == "completed"
        assert len(result.summaries) == 5
        for s in result.summaries:
            assert s.worst_violation <= 1e-10 * max(1.0, scale)
            assert s.gap <= cfg.inner_tol * (1.0 + scale)
            assert s.fallbacks == 0
        for snap in result.snapshots:
            assert snap.u1.values.min() >= 0.0
            assert snap.u2.values.min() >= 0.0

    def test_zero_species_stays_exactly_zero(self):
        result, _, _ = self.run(lambda x, y: 0.0 * x)
        assert result.termination == "completed"
        assert result.final_state.u1.values.min() > 0.0
        for snap in result.snapshots:
            assert np.all(snap.u2.values == 0.0)
            assert np.all(snap.h2.values == 0.0)


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
        # the first two steps run in the window, later ones in predicted
        # brackets clipped to it, so every state stays inside the window
        assert all(s.bracket in ("window", "predicted") for s in result.summaries)
        lower, upper = bracket
        for snap in result.snapshots:
            assert np.all(lower.u <= snap.u) and np.all(snap.u <= upper.u)
        # accumulated t makes the final trimmed dt differ by at most an ulp
        assert all(s.dt == pytest.approx(1e-3, rel=1e-12) for s in result.summaries)
        assert result.final_state.t == pytest.approx(1e-2)

    def test_pair_not_containing_u0_raises_before_stepping(self, monkeypatch):
        # a caller's pair is checked once, where it enters: one that does
        # not contain u0 is an input error, raised before the first step
        # rather than spending the halving budget on it
        params = certified_params()
        grid = Grid.interval(np.pi, 17)
        eig = principal_eigenpair(grid, "principal")
        regime = classify_global(params, eig.lambda0, eig.mode)
        inside = (ScalarField.constant(grid, 0.2), ScalarField.constant(grid, 0.3))
        bracket = initial_bracket(params, eig, inside, regime)
        u0 = (ScalarField.constant(grid, 0.9), ScalarField.constant(grid, 0.3))
        steps = []
        step = sktlab.iteration.step_monotone

        def recording(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(sktlab.iteration, "step_monotone", recording)
        with pytest.raises(OrderingViolationError, match=r"u1 leaves the bracket by 2\.333e-01"):
            simulate(params, grid, eig, u0, SolverConfig(dt=1e-3), 1e-2, bracket=bracket)
        assert steps == []

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

    def test_failed_tight_check_falls_back_to_wide_without_halving(self):
        # a fast-growing state and a large dt: the ceiling (1 + kappa) max u1
        # is pierced at once, so the tight bracket fails its check; the wide
        # ceiling 2 max u_i holds at this dt. With no halving budget at all,
        # a fallback that spent one would end the run as failed.
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 9)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        cfg = SolverConfig(dt=0.1, max_halvings=0)
        state = SystemState.from_u(params, 0.0, *u0)
        assert constant_bracket(params, state, cfg.dt, 3.0 * cfg.growth_trigger) is None
        result = simulate(params, grid, eig, u0, cfg, 0.1)
        assert result.termination == "completed"
        assert result.halvings_used == 0
        (summary,) = result.summaries
        assert summary.bracket == "wide"
        assert summary.as_dict()["bracket"] == "wide"
        assert summary.dt == cfg.dt

    def test_infeasible_brackets_spend_the_one_halving_branch(self, monkeypatch):
        # from (1.2, 0.8) at dt 0.5 the tight bracket fails at every dt tried
        # and the wide ceiling at 0.5 and 0.25: those attempts halve dt without
        # a step. At 0.125 the wide step grows too fast and is redone at 0.0625,
        # which spends the last halving; that step grows too fast as well, and
        # is accepted, so the controller shrinks the next dt.
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 9)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        state = SystemState.from_u(params, 0.0, *u0)
        kappa = 3.0 * SolverConfig(dt=0.5).growth_trigger
        for dt in (0.5, 0.25, 0.125, 0.0625):
            assert constant_bracket(params, state, dt, kappa) is None
            assert (constant_bracket(params, state, dt, 1.0) is None) is (dt > 0.2)
        step_dts = []
        step = sktlab.iteration.step_monotone

        def recording(state, cfg, params, bracket, solver, dt, trace):
            step_dts.append(dt)
            return step(state, cfg, params, bracket, solver, dt, trace)

        monkeypatch.setattr(sktlab.iteration, "step_monotone", recording)
        cfg = SolverConfig(dt=0.5, max_halvings=3)
        result = simulate(params, grid, eig, u0, cfg, 0.5)
        assert result.halvings_used == 3
        assert step_dts[:2] == [0.125, 0.0625]
        first, second = result.summaries[:2]
        assert (first.bracket, first.dt) == ("wide", 0.0625)
        assert second.bracket == "tight" and second.dt < 0.0625
        # under the controller the growing state no longer outruns the
        # brackets: the run completes, every step rising by at most about
        # the trigger after the first
        assert result.termination == "completed"
        norms = [float(snap.u.max()) for snap in result.snapshots]
        rises = [(b - a) / a for a, b in zip(norms, norms[1:])]
        assert rises[0] > cfg.growth_trigger and max(rises[1:]) <= 1.2 * cfg.growth_trigger
        # with no budget at all, the first infeasible attempt ends the run
        step_dts.clear()
        result = simulate(params, grid, eig, u0, SolverConfig(dt=0.5, max_halvings=0), 0.5)
        assert result.halvings_used == 0 and len(result.summaries) == 0 and step_dts == []
        assert result.termination == "failed"
        assert isinstance(result.error, ConvergenceError)
        assert "no feasible step ceiling at the minimum dt (5.000e-01)" in str(result.error)

    def test_slow_steps_run_in_tight_brackets(self, setup):
        # a decaying state under the default trigger: every step is admitted
        # in the tight bracket, and a trigger of 1/3 or more makes kappa >= 1,
        # which leaves only the wide one
        params, grid, eig, _, u0 = setup
        result = simulate(params, grid, eig, u0, SolverConfig(dt=1e-3), 5e-3)
        assert [s.bracket for s in result.summaries] == ["tight"] * 5
        assert result.halvings_used == 0
        cfg = SolverConfig(dt=1e-3, growth_trigger=0.4)
        result = simulate(params, grid, eig, u0, cfg, 5e-3)
        assert [s.bracket for s in result.summaries] == ["wide"] * 5

    def test_growth_trigger_spends_halvings(self):
        # the first step, trimmed to t_end = 0.05, rises too fast and is
        # halved three times, which spends the budget; at 0.00625 it still
        # rises too fast, and is accepted, and the controller shrinks each
        # later dt so that no later step rises past the trigger
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 9)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        cfg = SolverConfig(dt=0.1, max_halvings=3, growth_trigger=1e-3)
        result = simulate(params, grid, eig, u0, cfg, 0.05)
        assert result.termination == "completed"
        assert result.halvings_used == 3
        assert result.summaries[0].dt == 0.05 / 8
        assert all(s.dt < 0.9 * 0.05 / 8 for s in result.summaries[1:])
        assert result.final_dt < 0.05 / 8
        norms = [float(snap.u.max()) for snap in result.snapshots]
        rises = [(b - a) / a for a, b in zip(norms, norms[1:])]
        assert rises[0] > cfg.growth_trigger
        assert max(rises[1:]) <= cfg.growth_trigger
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

    @pytest.mark.parametrize("fails, halvings", [(1, 1), (None, 2)], ids=["once", "always"])
    def test_failed_linear_solve_rejects_the_attempt(self, setup, monkeypatch, fails, halvings):
        # a solve that fails is a rejection like the step's other raises: the
        # attempt is redone at half its dt, which then caps dt; with the
        # budget spent the run ends "failed" with its error and snapshots
        params, grid, eig, _, u0 = setup
        solve = _HelmholtzSolver.solve
        calls = []

        def failing(self, *args):
            calls.append(None)
            if fails is None or len(calls) <= fails:
                raise NumericalError("tridiagonal solve failed (LAPACK dgtsv info 1)")
            return solve(self, *args)

        monkeypatch.setattr(_HelmholtzSolver, "solve", failing)
        cfg = SolverConfig(dt=1e-3, max_halvings=2)
        result = simulate(params, grid, eig, u0, cfg, 4e-3)
        assert result.halvings_used == halvings
        if fails is None:
            assert result.termination == "failed"
            assert str(result.error) == "tridiagonal solve failed (LAPACK dgtsv info 1)"
            assert result.final_state.t == 0.0 and len(result.snapshots) == 1
        else:
            assert result.termination == "completed"
            assert [s.dt for s in result.summaries] == [5e-4] * 8

    def test_input_validation(self, setup):
        params, grid, eig, regime, u0 = setup
        cfg = SolverConfig(dt=1e-3)
        with pytest.raises(ValueError, match="t_end"):
            simulate(params, grid, eig, u0, cfg, 0.0)
        other = Grid.interval(np.pi, 17)
        w0 = (ScalarField.constant(other, 0.2), ScalarField.constant(other, 0.2))
        with pytest.raises(ValueError, match="initial fields live on a different grid"):
            simulate(params, grid, eig, w0, cfg, 1.0)
        # _check_initial's message, not the state builder's
        with pytest.raises(ValueError, match="initial fields live on different grids"):
            simulate(params, grid, eig, (u0[0], w0[1]), cfg, 1.0)
        huge = (ScalarField.constant(grid, 1e200), u0[1])
        with pytest.raises(ValueError, match=r"transform \(d \+ alpha\*u\)\*u overflows"):
            simulate(params, grid, eig, huge, cfg, 1.0)
        vals = np.full(grid.shape, 0.2)
        vals[0] = -1e-9
        bad = (ScalarField(grid, vals), ScalarField.constant(grid, 0.2))
        with pytest.raises(ValueError, match="nonnegative"):
            simulate(params, grid, eig, bad, cfg, 1.0)

    @pytest.mark.parametrize("window", [False, True], ids=["auto", "window"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_initial_fields_rejected(self, setup, value, window):
        # a field's values written to after it was made may be non-finite;
        # simulate refuses them up front rather than halving dt to a failed
        # run
        params, grid, eig, regime, u0 = setup
        bracket = initial_bracket(params, eig, u0, regime) if window else None
        bad = (u0[0], ScalarField(grid, u0[1].values))
        bad[1].values[4] = value
        with pytest.raises(ValueError, match="initial fields must be finite"):
            simulate(params, grid, eig, bad, SolverConfig(dt=1e-3), 1e-2, bracket=bracket)


class TestControlledSteps:
    """One controller picks every dt: from the last step's rise, past the
    halving budget, back up to cfg.dt, and down to a floor."""

    def test_fast_blowup_steps_stay_predicted(self):
        # a constant-data blow-up at a growth trigger of 0.012 to a cap of
        # 2e10. Near the cap the state's rate times ulp(t) outgrows the true
        # miss of its prediction, so nodes timed by t itself, rounded to its
        # ulp, missed at random and 9 late steps fell back to tight
        # brackets. Nodes timed by the accepted steps' own dt keep every
        # step from the third on predicted
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 3)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        cfg = SolverConfig(dt=0.01, growth_trigger=0.012, overflow_cap=2e10, snapshot_every=5000)
        result = simulate(params, grid, eig, u0, cfg, 1.0)
        assert result.termination == "overflowed" and result.halvings_used == 0
        kinds = [s.bracket for s in result.summaries]
        assert len(kinds) > 2000 and min(s.dt for s in result.summaries) < 1e-12
        assert kinds[2:] == ["predicted"] * (len(kinds) - 2)

    def test_spike_then_decay_finishes_at_cfg_dt(self):
        # species 1 peaks above its growth threshold a1/b1 = 1 with its mean
        # below it: the reaction lifts the peak for a while, then diffusion
        # wins and the state decays. dt shrinks while the peak rises and
        # grows back once it falls; a run that ended at its smallest dt
        # would take far more steps
        params = ModelParams(
            d1=0.3, d2=1.0, alpha1=0.0, alpha2=0.0, a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
        )
        grid = Grid.interval(np.pi, 17)
        eig = principal_eigenpair(grid, "principal")
        u0 = (
            ScalarField.from_function(grid, lambda x: 0.7 + 0.5 * np.cos(x)),
            ScalarField.constant(grid, 0.0),
        )
        cfg = SolverConfig(dt=0.05, max_halvings=0)
        result = simulate(params, grid, eig, u0, cfg, 8.0)
        assert result.termination == "completed" and result.halvings_used == 0
        peaks = [float(snap.u[0].max()) for snap in result.snapshots]
        top = int(np.argmax(peaks))
        assert 0 < top and peaks[top] > 1.04 * peaks[0] and peaks[-1] < 0.01
        dts = [s.dt for s in result.summaries]
        assert dts[0] == cfg.dt and min(dts[:top]) < 0.3 * cfg.dt
        # the last step is trimmed to land on t_end, and leaves the
        # controller's dt as it was
        assert dts[-2] == result.final_dt == cfg.dt and dts[-1] < cfg.dt
        assert len(dts) < 4.0 * 8.0 / cfg.dt
        assert all(np.all(snap.u[1] == 0.0) for snap in result.snapshots)

    @settings(max_examples=30)
    @given(
        alphas=STEP_DRAWS["alphas"],
        alpha=STEP_DRAWS["alpha"],
        coeffs=STEP_DRAWS["coeffs"],
        dims=st.tuples(st.integers(3, 20)),
        excess=st.floats(0.05, 0.5),
        level2=st.sampled_from([0.0, 0.3, 0.9]),
        overshoot=st.floats(1.1, 1.6),
    )
    def test_predicted_brackets_across_dt_changes(
        self, alphas, alpha, coeffs, dims, excess, level2, overshoot
    ):
        # constant data with species 1 above its growth threshold blow up at
        # the relative rate lam = b1 u1 - a1 - c1 u2, and species 2 under its
        # threshold decays. At cfg.dt = overshoot * growth_trigger / lam the
        # first step rises past the trigger and is halved; at half of it the
        # rise is under 0.9 * trigger, so the controller grows dt again after
        # the step it holds, and then picks a new dt at every step. Predicted
        # brackets on these uneven nodes are admitted, and keep the chain
        # ordered and a zero species exactly zero
        params, grid, _, _ = drawn_case(alphas, alpha, coeffs, dims, 2.0, ("zero", "zero"), 0)
        u2 = level2 * params.a2 / params.c2
        u1 = (1.0 + excess) * (params.a1 + params.c1 * u2) / params.b1
        data = [np.full(grid.shape, u1), np.full(grid.shape, u2)]
        u0 = tuple(ScalarField(grid, u) for u in data)
        lam = params.b1 * u1 - params.a1 - params.c1 * u2
        cfg = SolverConfig(dt=overshoot * 1e-3 / lam, growth_trigger=1e-3)
        result, calls = recorded_run(params, grid, u0, cfg, 8.0 * cfg.dt, None)
        assert result.termination == "completed" and result.halvings_used == 1
        kept = {id(s) for s in result.snapshots}
        accepted = [call for call in calls if id(call[3]) in kept]
        for _, _, step_bracket, new_state, summary, trace in accepted:
            if summary.bracket != "predicted":
                continue
            check_chain_and_zeros(trace, new_state, data, max(step_bracket.box[1]))
        # dt shrank, grew back, and predicted brackets are admitted on most
        # of the nodes that follow
        dts = [s.dt for s in result.summaries]
        assert dts[0] == dts[1] == 0.5 * cfg.dt < dts[2] < cfg.dt
        predicted = [s.bracket == "predicted" for s in result.summaries[2:]]
        assert 2 * sum(predicted) >= len(predicted)

    def test_failed_brackets_cap_dt_for_the_rest_of_the_run(self):
        # from (0.45, 0) at dt 2 no bracket passes at 2 or at 1, and each
        # failure halves dt for the rest of the run, though the norms fall: a
        # bracket or step that failed at a dt may fail there again, and each
        # return would spend a halving. A growth rejection sets no cap (the
        # dt-change property above)
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 9)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 0.45), ScalarField.constant(grid, 0.0))
        result = simulate(params, grid, eig, u0, SolverConfig(dt=2.0), 16.0)
        assert result.termination == "completed" and result.halvings_used == 2
        assert {s.dt for s in result.summaries} == {0.5} and result.final_dt == 0.5
        assert [s.bracket for s in result.summaries[:3]] == ["wide", "tight", "predicted"]

    @pytest.mark.parametrize("iterates, halvings, steps", [(100, 9, 4096), (500, 7, 1024)])
    def test_gap_that_closes_only_at_a_smaller_dt_halves_once(self, iterates, halvings, steps):
        # the wide bracket's gap from this constant state does not close
        # within the iterate cap at dt 2**-6 (with 100 iterates, 2**-8) but
        # does at the next halving. A controller free to grow dt back after
        # the failure would spend a halving at every return: 20 halvings and
        # a failed run with 100 iterates, 17 with 500
        params = ModelParams(
            d1=0.25, d2=1.0, alpha1=1.0, alpha2=0.5, a1=1.0, a2=1.0, b1=0.5, b2=1.0, c1=1.0,
            c2=1.0,
        )
        grid = Grid.interval(2.0, 3)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.5), ScalarField.constant(grid, 0.3))
        cfg = SolverConfig(dt=1.0, max_inner_iters=iterates)
        result = simulate(params, grid, eig, u0, cfg, 8.0)
        assert result.termination == "completed"
        assert result.halvings_used == halvings and len(result.summaries) == steps
        assert result.final_dt == 2.0**-halvings

    def test_budget_spent_keeps_growth_controlled(self):
        # blowup-1d's model with no halving budget: the first step rises past
        # the trigger and is accepted, and from then on the controller keeps
        # every step's rise within the trigger, with dt falling with 1/u,
        # up to the overflow cap
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 9)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        cfg = SolverConfig(dt=0.01, max_halvings=0, overflow_cap=100.0, growth_trigger=0.01)
        result = simulate(params, grid, eig, u0, cfg, 10.0)
        assert result.termination == "overflowed" and result.halvings_used == 0
        norms = [float(snap.u.max()) for snap in result.snapshots]
        rises = [(b - a) / a for a, b in zip(norms, norms[1:])]
        assert rises[0] > cfg.growth_trigger
        assert max(rises[1:]) <= cfg.growth_trigger
        dts = [s.dt for s in result.summaries]
        assert dts[-1] < 0.02 * dts[1] and all(b <= a for a, b in zip(dts[1:], dts[2:]))

    def test_dt_floor_ends_the_run_and_keeps_its_output(self):
        # no overflow cap in reach: the controller shrinks dt with the
        # blow-up until dt falls under about 1e3 ulps of t, where the run
        # ends with termination "dt_floor", no error, and its snapshots
        params = certified_params(alpha1=0.0, alpha2=0.0)
        grid = Grid.interval(np.pi, 5)
        eig = principal_eigenpair(grid, "principal")
        u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
        cfg = SolverConfig(dt=0.01, growth_trigger=0.05, overflow_cap=1e300, snapshot_every=50)
        result = simulate(params, grid, eig, u0, cfg, 2.0)
        assert result.termination == "dt_floor" and result.error is None
        state = result.final_state
        assert result.final_dt < 1e3 * np.finfo(float).eps * max(1.0, state.t) <= 2.0 * result.final_dt
        assert state is result.snapshots[-1] and state.t < 2.0
        assert len(result.snapshots) == len(result.summaries) // 50 + 2
        assert float(state.u.max()) > 1e10 and np.isfinite(state.u).all()

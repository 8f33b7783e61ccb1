"""Time stepping by ordered upper/lower inner iteration on the transformed system.

Each backward-Euler step solves the transformed equations

    sigma_i(u_i) dh_i/dt - lap h_i = f_i(u1, u2),   sigma_i(u) = 1/(d_i + 2*alpha_i*u),

by running two coupled iterate sequences from an ordered bracket: the upper
sequence starts at the bracket ceiling and decreases, the lower starts at the
floor and increases, and they pinch the step solution between them. At inner
iterate k the linear solve for each sequence freezes sigma and the reaction
at the previous iterate,

    (sigma(u^(k-1))/dt) h^(k) - lap h^(k) + phi h^(k)
        = sigma(u^(k-1)) h^n / dt + f(u-mix^(k-1)) + phi h^(k-1),

with the cross-pairing dictated by the reactions being quasimonotone
decreasing: the upper iterate of one species is driven with the other
species' lower iterate, and vice versa. The left-hand matrix is an M-matrix,
so ordered right-hand sides produce ordered solutions; the shift phi is
chosen large enough each step (own-derivative bound plus a lag compensation
for the frozen sigma) that the recorded chains

    v^(k) <= v^(k+1) <= w^(k+1) <= w^(k)

hold to round-off. Convergence is declared when the sup-norm gap between the
sequences drops below inner_tol*(1 + bracket scale); the accepted state is
the final lower iterate, which preserves exact nonnegativity (and exact
zeros) of the data.

The driver `simulate` repeats steps to t_end with a shared dt-halving budget
spent on three triggers: per-step ceiling feasibility in uncertified runs,
inner-iteration failures, and per-step growth beyond growth_trigger (the step
is redone at the halved dt). Overflow of either species past overflow_cap
terminates the run with the offending state preserved separately from the
sub-cap snapshots.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import BracketConstructionError, ConvergenceError, OrderingViolationError
from .grid import Grid, ScalarField, _lap_array, _neumann_bands
from .model import ModelParams, _inverse_raw, _reaction_raw, _transform_raw
from .regimes import RegimeReport

_CHAIN_TOL = 1e-10
_PHI_RETRY_FACTOR = 8.0
_MAX_PHI_RETRIES = 3
_LOWER_SCALE_CAP = 1e-3


@dataclass(frozen=True)
class SystemState:
    """Both species at one time, in density and transformed variables."""

    t: float
    u1: ScalarField
    u2: ScalarField
    h1: ScalarField
    h2: ScalarField

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @classmethod
    def from_u(cls, params: ModelParams, t: float, u1: ScalarField, u2: ScalarField):
        if not u1.grid.compatible(u2.grid):
            raise ValueError("u1 and u2 live on different grids")
        g = u1.grid
        flagged = u1.overflowed or u2.overflowed
        # flagged states may hold inf, whose transform degrades to nan quietly
        with np.errstate(invalid="ignore", over="ignore"):
            h1 = ScalarField(g, _transform_raw(params.d1, params.alpha1, u1.values), flagged)
            h2 = ScalarField(g, _transform_raw(params.d2, params.alpha2, u2.values), flagged)
        return cls(float(t), u1, u2, h1, h2)

    @classmethod
    def from_u_arrays(cls, params, grid, t, u1, u2, overflowed=False):
        return cls.from_u(
            params,
            t,
            ScalarField(grid, u1, overflowed),
            ScalarField(grid, u2, overflowed),
        )

    @classmethod
    def from_h_arrays(cls, params, grid, t, h1, h2, overflowed=False):
        u1 = _inverse_raw(params.d1, params.alpha1, h1)
        u2 = _inverse_raw(params.d2, params.alpha2, h2)
        return cls(
            float(t),
            ScalarField(grid, u1, overflowed),
            ScalarField(grid, u2, overflowed),
            ScalarField(grid, h1, overflowed),
            ScalarField(grid, h2, overflowed),
        )

    def sup_norms(self) -> tuple:
        return (
            float(np.abs(self.u1.values).max()),
            float(np.abs(self.u2.values).max()),
        )


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the inner iteration and the time-stepping driver.

    phi1/phi2 override the per-step automatic shift when set; leaving them
    None lets each step derive a shift from the bracket (recommended).
    """

    dt: float
    phi1: float | None = None
    phi2: float | None = None
    inner_tol: float = 1e-10
    max_inner_iters: int = 500
    overflow_cap: float = 1e8
    snapshot_every: int = 1
    growth_trigger: float = 1e-3
    max_halvings: int = 20

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name in ("phi1", "phi2"):
            v = getattr(self, name)
            if v is not None and not (v > 0.0 and np.isfinite(v)):
                raise ValueError(f"{name} must be positive when set, got {v}")
        if not (self.inner_tol > 0.0):
            raise ValueError(f"inner_tol must be positive, got {self.inner_tol}")
        if self.max_inner_iters < 1:
            raise ValueError(f"max_inner_iters must be >= 1, got {self.max_inner_iters}")
        if not (self.overflow_cap > 0.0):
            raise ValueError(f"overflow_cap must be positive, got {self.overflow_cap}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if not (self.growth_trigger > 0.0):
            raise ValueError(f"growth_trigger must be positive, got {self.growth_trigger}")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be >= 0, got {self.max_halvings}")


@dataclass(frozen=True)
class IterateRecord:
    """One inner iterate: both density sequences and the chain audit.

    The arrays are the iterate's own, not copies; nothing writes to them
    after the record is made. Record 0 holds the bracket's arrays.
    """

    k: int
    v1: np.ndarray
    v2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    gap: float
    worst_violation: float  # signed; positive means the chain broke


@dataclass(frozen=True)
class IterationTrace:
    """Full audit of one accepted step's inner iteration."""

    records: tuple
    state: SystemState
    gap: float
    worst_violation: float
    phi1: float
    phi2: float
    retries: int

    @property
    def iterations(self) -> int:
        return len(self.records) - 1


@dataclass(frozen=True)
class TraceSummary:
    """Per-step digest kept by the driver."""

    t: float
    dt: float
    iterations: int
    gap: float
    worst_violation: float
    phi1: float
    phi2: float
    retries: int

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "dt": self.dt,
            "iterations": self.iterations,
            "gap": self.gap,
            "worst_violation": self.worst_violation,
            "phi1": self.phi1,
            "phi2": self.phi2,
            "retries": self.retries,
        }


@dataclass
class SimulationResult:
    """Everything simulate produced, including how it stopped.

    termination is "completed", "overflowed", or "failed"; on overflow the
    offending above-cap state is final_state while snapshots retain only
    sub-cap states, and on failure the unrecoverable error is kept in
    `error`.
    """

    snapshots: list
    summaries: list
    termination: str
    final_state: SystemState
    overflow_time: float | None = None
    error: Exception | None = None
    halvings_used: int = 0
    final_dt: float | None = None


class _ChainViolation(Exception):
    def __init__(self, worst: float, iterate: int):
        self.worst = worst
        self.iterate = iterate
        super().__init__(f"ordering violation {worst:.3e} at inner iterate {iterate}")


def initial_bracket(params: ModelParams, eig, u0, regime: RegimeReport):
    """Build the certified constant-ceiling / scaled-eigenfunction bracket.

    The ceiling N_i is the midpoint of the admissible window, raised to
    max(u0_i) when the data demands it and the window still permits; the
    floor is rho_i * phi0 with rho_i = min(1e-3, half the pointwise minimum
    of u0_i/phi0), dropped to zero whenever u0_i touches zero or phi0 is not
    strictly positive. Returns (lower, upper) SystemStates at t = 0.
    """
    if not regime.certified:
        failed = next((r.name for r in regime.inequalities if not r.holds), None)
        raise BracketConstructionError(
            f"regime is not certified_global (first failed condition: {failed})",
            inequality=failed,
        )
    (n1_lo, n1_hi), (n2_lo, n2_hi) = regime.window
    u0_1, u0_2 = u0
    grid = u0_1.grid
    if not grid.compatible(u0_2.grid):
        raise ValueError("initial fields live on different grids")
    phi = eig.phi0
    if not grid.compatible(phi.grid):
        raise ValueError("eigenfunction lives on a different grid")

    uppers = []
    for i, (field, lo, hi) in enumerate(
        ((u0_1, n1_lo, n1_hi), (u0_2, n2_lo, n2_hi)), start=1
    ):
        vals = field.values
        if np.any(vals < 0.0):
            raise ValueError(f"u0_{i} must be nonnegative")
        top = float(vals.max())
        n_i = 0.5 * (max(lo, 0.0) + hi)
        if top > n_i:
            if top > hi:
                raise BracketConstructionError(
                    f"max(u0_{i}) = {top:.6g} exceeds the admissible ceiling {hi:.6g}",
                    inequality=f"max(u0_{i}) <= N{i}_upper",
                )
            n_i = top
        uppers.append(n_i)

    lowers = []
    phi_vals = phi.values
    phi_positive = bool(np.all(phi_vals > 0.0))
    for field in (u0_1, u0_2):
        vals = field.values
        if not phi_positive or float(vals.min()) <= 0.0:
            rho = 0.0
        else:
            rho = min(_LOWER_SCALE_CAP, 0.5 * float((vals / phi_vals).min()))
        lowers.append(rho)

    lower = SystemState.from_u_arrays(
        params, grid, 0.0, lowers[0] * phi_vals, lowers[1] * phi_vals
    )
    upper = SystemState.from_u_arrays(
        params,
        grid,
        0.0,
        np.full(grid.shape, uppers[0]),
        np.full(grid.shape, uppers[1]),
    )
    return lower, upper


def _phi_automatic(params, i, m_own, big_own, m_other, big_other, hdot):
    """Shift making the iterate map order-preserving on the bracket box.

    1 + (own-derivative bound over the box corners) * (max slope of the
    inverse transform) + a lag term compensating the frozen sigma; the lag
    vanishes in the semilinear case.
    """
    if i == 1:
        a, own, other, sgn = params.a1, params.b1, params.c1, -1.0
        d, alpha = params.d1, params.alpha1
    else:
        a, own, other, sgn = params.a2, params.c2, params.b2, -1.0
        d, alpha = params.d2, params.alpha2
    corners = []
    for u_own in (m_own, big_own):
        for u_other in (m_other, big_other):
            corners.append(abs(-a + 2.0 * own * u_own + sgn * other * u_other))
    mf = max(corners)
    denom = d + 2.0 * alpha * m_own
    q_slope = 1.0 / denom
    lag = 0.0 if alpha == 0.0 else 2.0 * alpha * q_slope * hdot / denom**2
    return 1.0 + mf * q_slope + lag


def _hdot_scales(params, grid, state, wanted):
    """Safety-factored sup bounds on the transformed variables' time derivatives.

    Only the species flagged in `wanted` get a bound, the others 0.0; all
    bounds share one reaction evaluation.
    """
    if not any(wanted):
        return (0.0, 0.0)
    us = (state.u1.values, state.u2.values)
    hs = (state.h1.values, state.h2.values)
    fs = _reaction_raw(params, *us)
    return tuple(
        1.5 * float(np.abs((d + 2.0 * alpha * u) * (_lap_array(grid, h) + f)).max())
        if want else 0.0
        for want, d, alpha, u, h, f in zip(
            wanted, (params.d1, params.d2), (params.alpha1, params.alpha2), us, hs, fs
        )
    )


class _HelmholtzSolver:
    """Solves (diag(sig/dt) - lap + phi) h = rhs on one grid, batched over columns."""

    def __init__(self, grid: Grid):
        self.grid = grid
        if grid.dimension == 1:
            self._ab = _neumann_bands(grid.nx, grid.hx)
        else:
            self._matrix = grid.neg_laplacian_matrix

    def solve(self, sig_over_dt, phi, rhs_cols):
        """sig_over_dt: scalar or field array; rhs_cols: sequence of field arrays."""
        g = self.grid
        if g.dimension == 1:
            ab = self._ab.copy()
            ab[1] += phi
            ab[1] += sig_over_dt
            x = scipy.linalg.solve_banded((1, 1), ab, np.stack(rhs_cols, axis=-1))
            return [x[:, j] for j in range(x.shape[1])]
        diag = np.broadcast_to(np.asarray(sig_over_dt) + phi, g.shape).ravel()
        lu = splu((self._matrix + sp.diags(diag)).tocsc())
        return [lu.solve(c.ravel()).reshape(g.shape) for c in rhs_cols]


def _sigma(d, alpha, u):
    return 1.0 / (d + 2.0 * alpha * u)


def _paired_reactions(params, v, w):
    """Reactions driving the upper and lower iterates, as (f_hi, f_lo).

    The reactions are quasimonotone decreasing, so each species' upper
    iterate is paired with the other species' lower one, and vice versa.
    """
    f_wv = _reaction_raw(params, w[0], v[1])
    f_vw = _reaction_raw(params, v[0], w[1])
    return (f_wv[0], f_vw[1]), (f_vw[0], f_wv[1])


def step_monotone(state: SystemState, cfg: SolverConfig, params: ModelParams, bracket):
    """Advance one dt from `state` inside `bracket`, returning (state, trace).

    The bracket is a (lower, upper) SystemState pair that must contain the
    state pointwise. Raises OrderingViolationError when the iterate chain
    breaks beyond tolerance even after shift escalation, and ConvergenceError
    when the gap fails to close within max_inner_iters.
    """
    lower, upper = bracket
    grid = state.grid
    if not (grid.compatible(lower.grid) and grid.compatible(upper.grid)):
        raise ValueError("bracket and state live on different grids")
    dt = cfg.dt
    ds = (params.d1, params.d2)
    alphas = (params.alpha1, params.alpha2)
    us = (state.u1.values, state.u2.values)
    h_n = (state.h1.values, state.h2.values)
    v0 = (lower.u1.values, lower.u2.values)
    w0 = (upper.u1.values, upper.u2.values)
    scale = max(w0[0].max(), w0[1].max())
    chain_tol = _CHAIN_TOL * max(1.0, scale)

    for i in (0, 1):
        worst = max(float((v0[i] - us[i]).max()), float((us[i] - w0[i]).max()))
        if worst > chain_tol:
            raise OrderingViolationError(
                f"state u{i + 1} leaves the bracket by {worst:.3e}",
                worst_violation=worst,
                iterate=0,
            )

    # exactly degenerate bracket: the common value is the step solution
    if np.array_equal(v0[0], w0[0]) and np.array_equal(v0[1], w0[1]):
        new_state = SystemState.from_u_arrays(params, grid, state.t + dt, *v0)
        rec0 = IterateRecord(0, *v0, *w0, gap=0.0, worst_violation=0.0)
        rec1 = dataclasses.replace(rec0, k=1)
        trace = IterationTrace(
            records=(rec0, rec1), state=new_state, gap=0.0,
            worst_violation=0.0, phi1=0.0, phi2=0.0, retries=0,
        )
        return new_state, trace

    # one-shot feasibility of the bracket endpoints as discrete bound solutions
    f_hi, f_lo = _paired_reactions(params, v0, w0)
    for i in (0, 1):
        d, alpha = ds[i], alphas[i]
        h_hi = _transform_raw(d, alpha, w0[i])
        up_lhs = _sigma(d, alpha, w0[i]) * (h_hi - h_n[i]) / dt - _lap_array(grid, h_hi)
        worst_up = float((f_hi[i] - up_lhs).max())
        h_lo = _transform_raw(d, alpha, v0[i])
        lo_lhs = _sigma(d, alpha, v0[i]) * (h_lo - h_n[i]) / dt - _lap_array(grid, h_lo)
        worst_lo = float((lo_lhs - f_lo[i]).max())
        worst = max(worst_up, worst_lo)
        if worst > chain_tol:
            raise OrderingViolationError(
                f"bracket bound for species {i + 1} is not a discrete bound solution "
                f"at dt={dt:.3e} (violation {worst:.3e})",
                worst_violation=worst,
                iterate=0,
            )

    cfg_phis = (cfg.phi1, cfg.phi2)
    hdot = _hdot_scales(
        params, grid, state,
        [phi is None and alpha != 0.0 for phi, alpha in zip(cfg_phis, alphas)],
    )
    box = [(float(v0[i].min()), float(w0[i].max())) for i in (0, 1)]
    phi_base = [
        phi if phi is not None
        else _phi_automatic(params, i + 1, *box[i], *box[1 - i], hdot[i])
        for i, phi in enumerate(cfg_phis)
    ]

    solver = _HelmholtzSolver(grid)
    gap_tol = cfg.inner_tol * (1.0 + scale)
    last_exc = None
    for retry in range(_MAX_PHI_RETRIES + 1):
        boost = _PHI_RETRY_FACTOR**retry
        phis = (phi_base[0] * boost, phi_base[1] * boost)
        try:
            records, converged_state, gap = _run_inner(
                params, solver, cfg, dt, h_n, v0, w0, phis, chain_tol, gap_tol, state.t
            )
        except _ChainViolation as exc:
            last_exc = exc
            continue
        trace = IterationTrace(
            records=tuple(records),
            state=converged_state,
            gap=gap,
            worst_violation=max(r.worst_violation for r in records),
            phi1=phis[0],
            phi2=phis[1],
            retries=retry,
        )
        return converged_state, trace
    raise OrderingViolationError(
        f"iterate ordering kept failing after {_MAX_PHI_RETRIES} shift escalations "
        f"(worst violation {last_exc.worst:.3e})",
        worst_violation=last_exc.worst,
        iterate=last_exc.iterate,
    )


def _run_inner(params, solver, cfg, dt, h_n, v, w, phis, chain_tol, gap_tol, t_start):
    """Iterate both sequences of both species from the bracket (v, w).

    Returns (records, accepted state, gap) once the gap is within gap_tol;
    raises _ChainViolation when the chain breaks beyond chain_tol.
    """
    ds = (params.d1, params.d2)
    alphas = (params.alpha1, params.alpha2)
    hv = [_transform_raw(d, alpha, x) for d, alpha, x in zip(ds, alphas, v)]
    hw = [_transform_raw(d, alpha, x) for d, alpha, x in zip(ds, alphas, w)]

    gap = max(float((w[0] - v[0]).max()), float((w[1] - v[1]).max()))
    worst = float(max((v[0] - w[0]).max(), (v[1] - w[1]).max()))
    records = [IterateRecord(0, *v, *w, gap=gap, worst_violation=worst)]
    if worst > chain_tol:
        raise _ChainViolation(worst, 0)

    for k in range(1, cfg.max_inner_iters + 1):
        f_hi, f_lo = _paired_reactions(params, v, w)
        new_hw, new_hv = [], []
        for i in (0, 1):
            d, alpha, phi = ds[i], alphas[i], phis[i]
            if alpha == 0.0:
                sig_w = sig_v = 1.0 / d
            else:
                sig_w, sig_v = _sigma(d, alpha, w[i]), _sigma(d, alpha, v[i])
            rhs_w = sig_w * h_n[i] / dt + f_hi[i] + phi * hw[i]
            rhs_v = sig_v * h_n[i] / dt + f_lo[i] + phi * hv[i]
            if alpha == 0.0:
                # constant sigma: both sequences share one matrix
                hw_i, hv_i = solver.solve(sig_w / dt, phi, (rhs_w, rhs_v))
            else:
                (hw_i,) = solver.solve(sig_w / dt, phi, (rhs_w,))
                (hv_i,) = solver.solve(sig_v / dt, phi, (rhs_v,))
            new_hw.append(hw_i)
            new_hv.append(hv_i)

        new_v = [_inverse_raw(d, alpha, h) for d, alpha, h in zip(ds, alphas, new_hv)]
        new_w = [_inverse_raw(d, alpha, h) for d, alpha, h in zip(ds, alphas, new_hw)]
        worst = float(
            max(
                *((v[i] - new_v[i]).max() for i in (0, 1)),  # lower must not drop
                *((new_w[i] - w[i]).max() for i in (0, 1)),  # upper must not rise
                *((new_v[i] - new_w[i]).max() for i in (0, 1)),
            )
        )
        gap = max(float((new_w[i] - new_v[i]).max()) for i in (0, 1))

        v, w, hv, hw = new_v, new_w, new_hv, new_hw
        records.append(IterateRecord(k, *v, *w, gap=gap, worst_violation=worst))
        if worst > chain_tol:
            raise _ChainViolation(worst, k)
        if gap <= gap_tol:
            state = SystemState.from_h_arrays(params, solver.grid, t_start + dt, *hv)
            return records, state, gap

    raise ConvergenceError(
        f"inner iteration gap {gap:.3e} above tolerance {gap_tol:.3e} "
        f"after {cfg.max_inner_iters} iterates",
        gap=gap,
    )


def _auto_bracket(params, grid, state):
    """Floor zero, ceiling at twice the current per-species peak."""
    n1 = 2.0 * float(state.u1.values.max())
    n2 = 2.0 * float(state.u2.values.max())
    lower = SystemState.from_u_arrays(
        params, grid, state.t, np.zeros(grid.shape), np.zeros(grid.shape)
    )
    upper = SystemState.from_u_arrays(
        params, grid, state.t,
        np.full(grid.shape, n1), np.full(grid.shape, n2),
    )
    return lower, upper


def _auto_bracket_feasible(params, state, upper, dt):
    """Ceiling N must satisfy sigma(N)(P(N) - h^n)/dt >= f_i(N) with the
    competing species dropped (its contribution is nonpositive)."""
    p = params
    for d, alpha, n, h_n, f_plus in (
        (p.d1, p.alpha1, float(upper.u1.values.max()), state.h1.values,
         lambda n1: n1 * (-p.a1 + p.b1 * n1)),
        (p.d2, p.alpha2, float(upper.u2.values.max()), state.h2.values,
         lambda n2: n2 * (-p.a2 + p.c2 * n2)),
    ):
        lhs = _sigma(d, alpha, n) * (_transform_raw(d, alpha, n) - float(h_n.max())) / dt
        if lhs < f_plus(n):
            return False
    return True


def simulate(params, grid, eig, u0, cfg: SolverConfig, t_end: float, bracket=None):
    """March step_monotone from u0 to t_end, or to overflow, or to failure.

    With `bracket` given (a certified (lower, upper) pair) every step reuses
    it; otherwise each step builds a fresh zero-floor bracket with ceiling
    2*max(u_i), halving dt out of the shared budget until the ceiling is a
    discrete bound solution. Unrecoverable step errors end the run with
    termination "failed" rather than raising, so partial output survives.
    """
    if not (t_end > 0.0 and np.isfinite(t_end)):
        raise ValueError(f"t_end must be positive, got {t_end}")
    u0_1, u0_2 = u0
    if not (grid.compatible(u0_1.grid) and grid.compatible(u0_2.grid)):
        raise ValueError("initial fields live on a different grid")
    if np.any(u0_1.values < 0.0) or np.any(u0_2.values < 0.0):
        raise ValueError("initial fields must be nonnegative")

    state = SystemState.from_u(params, 0.0, u0_1, u0_2)
    snapshots = [state]
    summaries = []
    dt = cfg.dt
    halvings = 0
    accepted = 0
    termination = "completed"
    overflow_time = None
    error = None
    final_state = state

    t_guard = 1e-12 * t_end
    while state.t < t_end - t_guard:
        dt_step = min(dt, t_end - state.t)

        if bracket is not None:
            step_bracket = bracket
        else:
            step_bracket = _auto_bracket(params, grid, state)
            while not _auto_bracket_feasible(params, state, step_bracket[1], dt_step):
                if halvings >= cfg.max_halvings:
                    termination = "failed"
                    error = ConvergenceError(
                        "no feasible step ceiling at the minimum dt "
                        f"({dt_step:.3e}); state max "
                        f"{max(state.sup_norms()):.3e}"
                    )
                    break
                dt = dt / 2.0
                halvings += 1
                dt_step = min(dt, t_end - state.t)
            if termination == "failed":
                break

        step_cfg = cfg if dt_step == cfg.dt else dataclasses.replace(cfg, dt=dt_step)
        try:
            new_state, trace = step_monotone(state, step_cfg, params, step_bracket)
        except (ConvergenceError, OrderingViolationError) as exc:
            if halvings < cfg.max_halvings:
                dt = dt / 2.0
                halvings += 1
                continue
            termination = "failed"
            error = exc
            break

        m1, m2 = new_state.sup_norms()
        finite = np.isfinite(m1) and np.isfinite(m2)
        if not finite or m1 > cfg.overflow_cap or m2 > cfg.overflow_cap:
            termination = "overflowed"
            overflow_time = new_state.t
            if finite:
                final_state = new_state
            else:
                final_state = SystemState.from_u_arrays(
                    params, grid, new_state.t,
                    new_state.u1.values, new_state.u2.values, overflowed=True,
                )
            break

        if halvings < cfg.max_halvings:
            p1, p2 = state.sup_norms()
            grew = (p1 > 0.0 and m1 > (1.0 + cfg.growth_trigger) * p1) or (
                p2 > 0.0 and m2 > (1.0 + cfg.growth_trigger) * p2
            )
            if grew:
                dt = dt / 2.0
                halvings += 1
                continue

        state = new_state
        accepted += 1
        summaries.append(
            TraceSummary(
                t=state.t,
                dt=dt_step,
                iterations=trace.iterations,
                gap=trace.gap,
                worst_violation=trace.worst_violation,
                phi1=trace.phi1,
                phi2=trace.phi2,
                retries=trace.retries,
            )
        )
        if accepted % cfg.snapshot_every == 0:
            snapshots.append(state)

    if snapshots[-1] is not state:
        snapshots.append(state)
    if termination != "overflowed":
        final_state = state

    return SimulationResult(
        snapshots=snapshots,
        summaries=summaries,
        termination=termination,
        final_state=final_state,
        overflow_time=overflow_time,
        error=error,
        halvings_used=halvings,
        final_dt=dt,
    )

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
so ordered right-hand sides produce ordered solutions, and the map from
h^(k-1) to the right-hand side is order-preserving once f_i + phi_i h_i is
nondecreasing in h_i. So the shift has to cover only a falling
own-derivative: phi_i is one plus the largest -df_i/du_i over the bracket
box (zero when the reaction only rises there) times the inverse transform's
slope, plus a lag compensation for the frozen sigma (Pao, Numer. Math. 79,
1998). With it the recorded chains

    v^(k) <= v^(k+1) <= w^(k+1) <= w^(k)

hold to round-off. A bracket whose floor lies above its ceiling is refused
before any iterate; when a later iterate breaks the chain, the iteration
starts again from the bracket with the shift multiplied by 8, at most three
times. Convergence is declared when the sup-norm gap between the
sequences drops below inner_tol*(1 + bracket scale); the accepted state is
the final lower iterate, which preserves exact nonnegativity (and exact
zeros) of the data.

A step works on one (species, sequence, *grid) array instead of four
separate ones: sequence 0 is the upper iterate w, sequence 1 the lower v.
Reversing species 2's sequence axis turns (w2, v2) into (v2, w2), which is
exactly the cross-pairing above, so one reaction call on (u[0], u[1, ::-1])
drives all four iterates. The right-hand sides, the transform and its
inverse, the feasibility check and the chain audit are each a few numpy
calls on the whole stack, and every element sees the same floating-point
operations in the same order as a per-species loop would apply, so the
results are bit-identical to one. The step's trace holds its digest, a
TraceSummary, and each iterate's stack with its gap and worst violation,
and builds the records viewing those stacks only when they are read;
simulate's own steps keep no iterates and return the digest alone, which
simulate packs into a 58-byte record (_digests). A bracket reaches the
step in the same stacked form, with its transform, paired reactions and
the transform's Laplacian, built by one of two builders: _field_bracket
from a field stack, for a caller's window and a window run's predicted
bracket, and _auto_bracket on floats for an automatic run's constant
brackets.

An automatic bracket is constant per species, so it is worked out on
Python floats: the transform, paired reactions and sigma at its four
corners, and its discrete-bound violations, with the Laplacian exactly
zero. Each species' ceiling violation is evaluated only at that species'
largest h^n and its floor violation only at the smallest. That is exact,
not an estimate: every rounded operation in the violation
f - (sigma*(h - h^n)/dt - 0.0) is monotone in h^n, so its maximum over the
grid is its value at the extreme h^n, the same float a stacked evaluation
reduces to. An accepted state's extremes of u and h^n, which give its
sup norms for the controller and the overflow test, come from one
reduction of the rows and their negatives (_Extremes.reduce_signed); a
window run reduces only |u| and its prediction miss.
An admitted bracket's stacks are (2, 2, 1...) arrays that broadcast over
the grid, and it reaches the step with its violations measured; the step
takes iterate 0's gap and worst violation from the bracket's floats.

A caller's pair is checked to contain the state where it enters, in
_window_bracket: on each call of step_monotone with a (lower, upper) pair,
and once when simulate starts, which raises on a u0 outside it before any
step. No stacked bracket is checked again. Tight and wide brackets contain
the state by construction: their floors are at most, and their ceilings at
least, the nonnegative state's extremes. A predicted bracket needs no
containment, and a window run's later states need no check: an admitted
pair of discrete lower and upper bound solutions brackets the step
solution whether or not it contains u^n, and a window run's every bracket
lies inside the window.

A SystemState holds the same species axis without the sequence one: a
(2, *grid) density stack u and its transform h, row 0 species 1. A state is
checked (shape, finiteness unless flagged overflowed) where it enters from
outside, in from_u_arrays; the states a step returns are compact copies of
the last lower iterate's u and h rows, whose finiteness the step's chain
audit has already checked. A step reads the state as state.u[:, None] and
state.h[:, None], a sequence axis of one, and never takes it apart into
species.

Each inner iterate makes one linear solve, through _HelmholtzSolver,
built once per simulate run: the four (species, sequence) rows of the
right-hand-side stack are its columns, solved in place, and sig/dt is
passed as the step computes it, a (4, ...) array of sigma at the previous
iterate over dt. A semilinear (alpha = 0) run's sigma is 1/d at every
iterate, so the solver keeps its sig/dt per dt and the step computes the
h^n term once. The right-hand sides and the chain audit are assembled in
the solver's per-run work arrays; each iterate's density stack and
reactions, and in a quasilinear run its sigma, are fresh arrays. In 1D
the call is one LAPACK tridiagonal solve (dgtsv) of the block system of
all 4n unknowns, whose blocks the elimination never couples, so each
column is the one a solve of that column alone gives, and the block
diagonal is written from the values on every call. In 2D
it is conjugate gradients per column, with the matrix applied through the
Laplacian stencil _lap_array, preconditioned by the exact DCT-I solve at
the grid mean of the column's diagonal (the DCT-I is numpy's real FFT of
the even extension, Martucci, IEEE TSP 42, 1994) and started from the
previous iterate's transform of the same column: consecutive iterates
close in on each other, so fewer CG iterations remain. A guess whose
residual is not below the right-hand side's is dropped for the zero
start. The 2D path imports no scipy; 1D loads dgtsv when its first solver
is built, without scipy's package init (_lapack_dgtsv). A solution is
accepted only when its recomputed residual bounds its sup-norm error by
1e-12*max(1, ||h||_inf), a hundredth of the chain tolerance, and a column
that misses falls back to sparse LU and is counted in the step's
`fallbacks`. Zero right-hand sides give exact zeros on both paths.

The time-stepping loop `simulate` repeats steps to t_end. From the third
step on, each attempt first tries a predicted bracket, the predictor half of
a predictor-corrector (Hairer & Wanner, Solving ODEs II, IV.8): the next
state is extrapolated by the quadratic in t through the last three
accepted states, or the line through two before there are three, with
Lagrange weights, so unevenly spaced nodes need nothing special; it is
made for each attempt's dt. Each species gets the half-width e_i =
2 * miss_i, twice the miss of the prediction of the last accepted state,
plus a round-off floor of 1e-12 * max(1, largest sup norm of the state);
no floor goes below zero. The bracket takes the form of the run's other
brackets:

- without a caller's bracket, constant per species: the extremes of u_i
  are extrapolated as floats to p_lo_i and p_hi_i, the miss is the larger
  of |min u_i^n - p_lo_i^n| and |max u_i^n - p_hi_i^n|, and the bracket,
  [max(p_lo_i - e_i, 0), p_hi_i + e_i], is built on floats by
  _auto_bracket, which rejects a floor above its ceiling. For spatially
  constant data these are the extremes of the extrapolated u stack;
- with one, a field stack inside the caller's window: the u stack p is
  extrapolated, the miss is max|u_i^n - p_i^n| over the grid, and with p
  clipped into the window, [max(p - e, floor), min(p + e, N)], floor the
  window's floor (at least zero) and N its ceiling, built by _field_bracket
  and its discrete-bound violations measured once.

simulate tries each attempt's candidates in one order: the predicted
bracket, once a miss is known; when it fails the discrete-bound test, at no
cost to the halving budget, the caller's window, or else a tight constant
bracket [(1-kappa) min u_i, (1+kappa) max u_i], with kappa =
max(3*growth_trigger, 2*g) and g the last accepted step's relative change
of the per-species sup norms, and then the wide bracket [0, 2 max u_i];
when kappa >= 1 only the wide one. The first two steps start at the
window, or tight. The window is stacked once per run and handed to the
step unmeasured, so a step that fails in it raises what step_monotone
raises on the caller's pair. Tight and wide are built by _auto_bracket and
admitted only when they pass the discrete-bound test the step applies to
every bracket. Each step's TraceSummary records which of "predicted",
"window", "tight" and "wide" it ran in.

One controller picks every dt (Hairer, Norsett & Wanner, Solving ODEs I,
II.4): after an accepted step whose largest relative sup-norm rise is r,
the next dt is min(cfg.dt, dt * min(2, 0.9 * growth_trigger / r)), with no
growth on the step after a rejection. An attempt is rejected, and redone
at half its dt, predicted bracket first, for one of three causes: no
bracket passes at its dt, the step raises (the chain breaks after every
shift escalation, or the gap does not close), or r exceeds
growth_trigger. Each rejection spends one of max_halvings. One of the
first two causes also caps every later dt at the halved one, as it would
come back at a larger dt and spend a halving at each return; a growth
rejection leaves the cap where it was. With the budget
spent, a step that rises too fast is accepted and the controller shrinks
the next dt, while the other causes end the run as failed. A predicted or
tight bracket that fails its test costs no halving: the step falls back
to the next one. A dt below about 1e3 ulps of t ends the run as
"dt_floor", and overflow of either species past overflow_cap as
"overflowed", with the offending state preserved separately from the
sub-cap snapshots.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _digests
from .errors import BracketConstructionError, ConvergenceError, OrderingViolationError
from .grid import Grid, ScalarField, _lap_array, _neumann_bands, _neumann_eigenvalues
from .model import ModelParams, _inverse_raw, _reaction_raw, _transform_raw
from .regimes import RegimeReport

_CHAIN_TOL = 1e-10
_PHI_RETRY_FACTOR = 8.0
_MAX_PHI_RETRIES = 3
_LOWER_SCALE_CAP = 1e-3
# 2D solver residuals, per unit of min D * max(1, ||x||_inf): CG stops on its
# updated residual at _CG_STOP, a tenfold margin under the recomputed
# residual's acceptance bound _CG_ACCEPT
_CG_ACCEPT = 1e-12
_CG_STOP = 1e-13
_CG_MAX_ITERS = 100
# a predicted bracket's half-width per species: _PREDICT_FACTOR times the
# miss of the prediction of the last accepted state, plus _PREDICT_FLOOR *
# max(1, largest sup norm) for the round-off of the extrapolation
_PREDICT_FACTOR = 2.0
_PREDICT_FLOOR = 1e-12
# simulate's smallest dt per unit of max(1, t), about a thousand ulps of t
_DT_FLOOR = 1e3 * sys.float_info.epsilon


def _row_field(stack: str, row: int) -> property:
    """A read-only property: one row of a state's stack as a ScalarField copy."""
    return property(lambda s: ScalarField(s.grid, getattr(s, stack)[row], s.overflowed))


@dataclass(frozen=True, eq=False)
class SystemState:
    """Both species at one time, in density and transformed variables.

    u and h are (2, *grid) stacks, species 1 in row 0 and species 2 in row
    1, each its own compact array. Values are finite unless `overflowed`.
    Build states from outside with from_u or from_u_arrays, which check
    them. u1, u2, h1 and h2 are read-only ScalarField copies of the rows,
    for callers that work with fields.
    """

    t: float
    grid: Grid
    u: np.ndarray
    h: np.ndarray
    overflowed: bool = False

    def __init__(self, t, grid, u, h, overflowed=False):
        # the fields at once, where a frozen dataclass's own __init__ sets
        # each through object.__setattr__: a state is made every step
        self.__dict__.update(t=t, grid=grid, u=u, h=h, overflowed=overflowed)

    u1, u2 = _row_field("u", 0), _row_field("u", 1)
    h1, h2 = _row_field("h", 0), _row_field("h", 1)

    @classmethod
    def from_u(cls, params: ModelParams, t: float, u1: ScalarField, u2: ScalarField):
        if not u1.grid.compatible(u2.grid):
            raise ValueError("u1 and u2 live on different grids")
        return cls.from_u_arrays(
            params, u1.grid, t, u1.values, u2.values, u1.overflowed or u2.overflowed
        )

    @classmethod
    def from_u_arrays(cls, params, grid, t, u1, u2, overflowed=False):
        u = np.array((u1, u2), dtype=float)
        if u.shape != (2,) + grid.shape:
            raise ValueError(
                f"field shapes {u.shape[1:]} do not match grid shape {grid.shape}"
            )
        if not overflowed and not np.isfinite(u).all():
            raise ValueError("field values must be finite unless flagged overflowed")
        d, alpha = _param_columns(params, grid)
        # flagged states may hold inf, whose transform degrades to nan quietly
        with np.errstate(invalid="ignore", over="ignore"):
            h = _transform_raw(d[:, 0], alpha[:, 0], u)
        return cls(float(t), grid, u, h, overflowed)

    def sup_norms(self) -> tuple:
        return tuple(np.abs(self.u).reshape(2, -1).max(axis=1).tolist())


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the inner iteration and the time-stepping driver.

    Each step derives its shift phi from its bracket (_phi_automatic), so
    no shift is configured. dt is the largest step simulate takes: its
    controller keeps each step's relative sup-norm rise under
    growth_trigger, and max_halvings is the run's budget of rejected
    attempts, each redone at half its dt (simulate). The int and float
    fields here are also the config file's [solver] keys.
    """

    dt: float
    inner_tol: float = 1e-10
    max_inner_iters: int = 500
    overflow_cap: float = 1e8
    snapshot_every: int = 1
    growth_trigger: float = 1e-3
    max_halvings: int = 20

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
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

    IterationTrace.records builds these when it is read. The arrays are
    views of the iterate's own (species, sequence) stack, not copies;
    nothing writes to the stacks once the iterate is made. Record 0 views
    the bracket's stack: for an automatic bracket, read-only views that
    broadcast its constant (2, 2, 1...) stack over the grid.
    """

    k: int
    v1: np.ndarray
    v2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    gap: float
    worst_violation: float  # signed; positive means the chain broke


class TraceSummary(NamedTuple):
    """One accepted step's digest, built once by step_monotone.

    t is the new state's time and dt the step's, iterations the inner
    iterates after the bracket, gap the last one's, worst_violation the
    largest over all of them, phi1 and phi2 the accepted shift, retries the
    shift escalations before it, fallbacks the 2D columns the linear solver
    handed to sparse LU (retries included), and bracket which one the step
    ran in: "window" (the caller's), "predicted", "tight" or "wide".
    simulate keeps each as a packed 58-byte record, not a ~270-byte tuple.
    """

    t: float
    dt: float
    iterations: int
    gap: float
    worst_violation: float
    phi1: float
    phi2: float
    retries: int
    fallbacks: int
    bracket: str

    def as_dict(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class IterationTrace:
    """Full audit of one accepted step: its digest and its iterates.

    `summary` is the step's TraceSummary. The step keeps each iterate of its
    accepted shift as its (species, sequence, *grid) density stack with its
    gap and worst violation. `records` builds the IterateRecords viewing
    those stacks each time it is read, so a caller that reads only the
    digest, as simulate does, never makes them.
    """

    summary: TraceSummary
    iterates: tuple  # (u stack, gap, worst violation) per iterate, from 0

    @property
    def records(self) -> tuple:
        # a constant bracket's (2, 2, 1...) stack is read at the iterates' shape
        shape = self.iterates[-1][0].shape
        records = []
        for k, (u, gap, worst) in enumerate(self.iterates):
            (w1, v1), (w2, v2) = np.broadcast_to(u, shape)
            records.append(IterateRecord(k, v1, v2, w1, w2, gap, worst))
        return tuple(records)


@dataclass
class SimulationResult:
    """Everything simulate produced, including how it stopped.

    termination is "completed", "overflowed", "dt_floor" or "failed"; on
    overflow the offending above-cap state is final_state while snapshots
    retain only sub-cap states, "dt_floor" says dt fell under round-off in
    t, and on failure the unrecoverable error is kept in `error`.
    halvings_used counts rejected attempts and final_dt is the
    controller's dt for the next step. `snapshots` is the sink simulate
    was given, a list by default. `summaries` holds each accepted step's TraceSummary; from simulate, a
    read-only sequence over packed records (_digests).
    """

    snapshots: Sequence
    summaries: Sequence
    termination: str
    final_state: SystemState
    overflow_time: float | None = None
    error: Exception | None = None
    halvings_used: int = 0
    final_dt: float | None = None


def initial_bracket(params: ModelParams, eig, u0, regime: RegimeReport):
    """Build the certified constant-ceiling / scaled-eigenfunction bracket.

    The ceiling N_i is the midpoint of the admissible window, raised to
    max(u0_i) when the data demands it and the window still permits; the
    floor is rho_i * phi0 with rho_i = min(1e-3, half the pointwise minimum
    of u0_i/phi0), dropped to zero whenever u0_i touches zero or phi0 is not
    strictly positive. Returns (lower, upper) SystemStates at t = 0. Raises
    ValueError on data that are not finite (fields flagged overflowed may
    hold NaN or inf) or not nonnegative.
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
    # fields flagged overflowed may hold NaN or inf, which every comparison
    # below would let through
    if not all(np.isfinite(field.values).all() for field in u0):
        raise ValueError("initial fields must be finite")

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

    1 + (bound on the falling own-derivative, max(0, -df_i/du_i), over the
    box) * (max slope of the inverse transform) + a lag term compensating
    the frozen sigma; the lag vanishes in the semilinear case. df_i/du_i =
    -a + 2 own u_i - other u_j has positive coefficients, so it falls
    furthest at the corner (m_own, big_other), and as every rounded
    operation in it is monotone, that corner's float is the largest over
    the box's four corners.
    """
    a, own, other, d, alpha = params.species[i - 1]
    mf = -(-a + 2.0 * own * m_own - other * big_other)
    denom = d + 2.0 * alpha * m_own
    q_slope = 1.0 / denom
    lag = 0.0 if alpha == 0.0 else 2.0 * alpha * q_slope * hdot / denom**2
    return 1.0 + (mf if mf > 0.0 else 0.0) * q_slope + lag


def _hdot_scales(params, grid, u, h):
    """Safety-factored sup bounds on the transformed variables' time derivatives.

    u and h are (species, *grid) stacks. Only a species with alpha_i != 0,
    whose shift needs the lag term, gets a bound, the others 0.0; all
    bounds share one reaction evaluation and one Laplacian.
    """
    alphas = (params.alpha1, params.alpha2)
    fs = _reaction_raw(params, u[0], u[1])
    laps = _lap_array(grid, h)
    return tuple(
        1.5 * float(np.abs((d + 2.0 * alpha * u[i]) * (laps[i] + fs[i])).max())
        if alpha != 0.0 else 0.0
        for i, (d, alpha) in enumerate(zip((params.d1, params.d2), alphas))
    )


@functools.cache
def _lapack_dgtsv():
    """LAPACK's tridiagonal solver dgtsv, through scipy's f2py wrapper.

    `import scipy.linalg` runs scipy's package init, about 0.3 s, while the
    compiled wrapper module scipy/linalg/_flapack alone loads in
    milliseconds. So that module is loaded from its file, found without
    importing scipy, under its own name, which also puts it in sys.modules,
    where a later `import scipy.linalg` finds and reuses it. Without that
    file, dgtsv comes from scipy.linalg.lapack.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    spec = importlib.util.find_spec("scipy") if module is None else None
    for base in (spec.submodule_search_locations or ()) if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "linalg", "_flapack" + suffix)
            if module is None and os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
    if module is None:
        from scipy.linalg.lapack import dgtsv

        return dgtsv
    return module.dgtsv


class _HelmholtzSolver:
    """Solves (D_j - lap) h_j = rhs_j, D_j = sig_j/dt + phi_j, for columns j on one grid.

    sig_over_dt and phi are arrays, or plain scalars, that broadcast
    against the (k, *grid) stack of right-hand sides: a (k, 1...) array
    gives each column a constant, a (k, *grid) one a field per column, and
    a scalar or a single field serves every column. Column j's diagonal is
    the values sig_j + phi_j take over the grid, and the result depends on
    those values only, not on the form they are passed in.

    1D: one LAPACK dgtsv call on the block-tridiagonal system of all k*n
    unknowns, whose off-diagonals are zero between blocks. Block j's main
    diagonal is (main + phi_j) + sig_j, the operands and the order scipy's
    solve_banded would use on that column alone; elimination never couples
    the blocks, so each column is bit-identical to that solve.

    2D: conjugate gradients per column in the trapezoid-weighted inner
    product, where W(D - lap) is symmetric positive definite, with the
    matrix applied as D*v - _lap_array(v), preconditioned by the exact
    DCT-I solve of (c - lap) at c = the mean of the column's diagonal over
    the grid; with a constant D the first preconditioner application is the
    exact solve. The DCT-I is _dct1, numpy's real FFT of the even extension
    along each axis, and equals scipy.fft.dctn(type=1) bit for bit. A column
    starts from its guess when the guess's residual is smaller in sup norm
    than the column itself, and from zero otherwise, as it would with a zero
    guess. D - lap is a diagonally dominant M-matrix whose Laplacian rows
    sum to zero, so ||(D - lap)^-1||_inf <= 1/min D. A column is accepted
    only when its recomputed residual satisfies

        ||b - (D - lap) x||_inf <= 1e-12 min D max(1, ||x||_inf),

    which bounds its error by 1e-12 max(1, ||x||_inf), far under the chain
    tolerance. A column that misses the bound within _CG_MAX_ITERS iterations
    is solved by sparse LU instead and counted in `fallbacks`; only then is
    scipy.sparse imported. A zero column returns exact zeros, whatever its
    guess. A 1D solver takes LAPACK's dgtsv from _lapack_dgtsv.

    The solver also keeps the inner iteration's work arrays for its grid
    (work_arrays) and a semilinear run's sigma (semilinear_sigma), so a
    solver reused across a run's steps makes them once. Raises ValueError
    when a solve fails or, unless its caller checks that itself, when its
    solution is not finite.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.fallbacks = 0
        self._work = None
        self._sigma = None
        if grid.dimension == 1:
            self._dgtsv = _lapack_dgtsv()
            ab = _neumann_bands(grid.nx, grid.hx)
            self._main = ab[1]
            # one block's off-diagonals, each ending in the zero that
            # separates it from the next block
            self._block = (np.append(ab[2, :-1], 0.0), np.append(ab[0, 1:], 0.0))
            self._blocks = {}
        else:
            nx, ny = grid.shape
            lam_x = _neumann_eigenvalues(nx, grid.hx)
            lam_y = _neumann_eigenvalues(ny, grid.hy)
            self._lam = lam_x[:, None] + lam_y[None, :]
            # the even extensions the DCT-I writes, one per axis, and the
            # inverse's scale, 1/(2(n-1)) on each axis
            self._ext = (np.empty((2 * (nx - 1), ny)), np.empty((nx, 2 * (ny - 1))))
            self._idct_scale = 1.0 / (2 * (nx - 1) * 2 * (ny - 1))

    def solve(self, sig_over_dt, phi, rhs_cols, guess, check_finite=True):
        """Solve for each column of rhs_cols and return the (k, *grid) solutions.

        rhs_cols is a (k, *grid) stack or a sequence of k field arrays. A
        C-contiguous float stack is overwritten with the solutions and
        returned. guess holds a starting point for each column, broadcasting
        against the stack; 2D CG starts from it when its residual beats the
        zero start's, and 1D ignores it. With check_finite false the caller
        checks that the solutions are finite, as step_monotone's chain
        audit does.
        """
        rhs = np.ascontiguousarray(rhs_cols, dtype=float)
        if self.grid.dimension == 1:
            dl, du, d, d_cols = self._block_arrays(len(rhs))
            # block j's diagonal is (main + phi_j) + sig_j, written on every
            # call, so the solve may overwrite it
            np.add(self._main, phi, out=d_cols)
            d_cols += sig_over_dt
            # the C-ordered (k, n) stack is the vector of all k*n unknowns, so
            # it is solved in place: overwrite_d and overwrite_b, by position
            info = self._dgtsv(dl, d, du, rhs.reshape(-1), 0, 1, 0, 1)[4]
            if info != 0:
                raise ValueError(f"tridiagonal solve failed (LAPACK dgtsv info {info})")
        else:
            self._solve_2d(sig_over_dt, phi, rhs, guess)
        if check_finite and not np.isfinite(rhs).all():
            raise ValueError("linear solve produced non-finite values")
        return rhs

    def work_arrays(self):
        """The inner iteration's work arrays on this grid, made on first use,
        and the views it reads them through, as (solved, solved_cols, base,
        term, audit, new_minus_old, v_minus_w, measured, negated).

        solved is two (2, 2, *grid) stacks and solved_cols the same two as
        (4, *grid) columns, the (species, sequence) rows in C order: the
        solves alternate between them, so the previous iterate's transform
        stays readable while the next right-hand side is assembled. base is
        a (2, 2, *grid) stack for the h^n term and term (4, *grid) columns
        for the shift term. audit is (14, npoints) chain audit rows, one grid
        each: the first four are new_minus_old, new - old on the rows (w1,
        v1, w2, v2) as a (2, 2, *grid) stack, the next three v_minus_w,
        v - w on the same flat stack shifted by one row, whose rows 0 and 2
        are species 1's and 2's (row 1, w2 - v1, is not read), and the last
        seven, negated, the negatives of the first seven, measured, so one
        reduction gives each row's largest value and its smallest."""
        if self._work is None:
            shape = self.grid.shape
            work, audit = np.empty((4, 2, 2) + shape), np.empty((14, self.grid.npoints))
            solved = work[:2]
            self._work = (
                solved, solved.reshape((2, 4) + shape), work[3], work[2].reshape((4,) + shape),
                audit, audit[:4].reshape((2, 2) + shape), audit[4:7].reshape(-1), audit[:7],
                audit[7:],
            )
        return self._work

    def semilinear_sigma(self, columns):
        """sigma = 1/d for the (d, alpha) species columns of params with both
        alpha = 0, and the same as (4, 1...) solve columns, kept for the same
        columns object, as a simulate run passes them."""
        kept = self._sigma
        if kept is None or kept[0] is not columns:
            d, alpha = columns
            # 1/(d + 2 alpha u) at alpha = 0 is 1/d for every u the step sees
            sig = _sigma(d, alpha, 0.0)
            cols = np.broadcast_to(sig, (2, 2) + sig.shape[2:]).reshape((4,) + sig.shape[2:])
            kept = self._sigma = (columns, sig, cols)
        return kept[1:]

    def _block_arrays(self, k):
        """The (sub, super) off-diagonals of k blocks, built once per k, a
        vector their main diagonal is written into, and the same vector as
        (k, n) block rows."""
        arrays = self._blocks.get(k)
        if arrays is None:
            bands = tuple(np.tile(band, k)[:-1] for band in self._block)
            d = np.empty(k * self.grid.nx)
            arrays = self._blocks[k] = bands + (d, d.reshape(k, -1))
        return arrays

    def _solve_2d(self, sig, phi, rhs, guess):
        g = self.grid
        sigs, phis, guesses = (np.broadcast_to(a, rhs.shape) for a in (sig, phi, guess))
        for s, p, b, x0 in zip(sigs, phis, rhs, guesses):
            # the column's diagonal filled over the grid, whatever form it was
            # passed in, so the shift is always the mean of its values
            d = s + p
            inv_eig = 1.0 / (float(d.mean()) + self._lam)
            x = self._pcg(d, float(d.min()), inv_eig, b, x0)
            if x is None:
                import scipy.sparse as sp
                from scipy.sparse.linalg import splu

                lhs = g.neg_laplacian_matrix + sp.diags(d.ravel())
                x = splu(lhs.tocsc()).solve(b.ravel()).reshape(g.shape)
                self.fallbacks += 1
            b[...] = x

    def _pcg(self, diag, d_min, inv_eig, b, x0):
        """Preconditioned CG for (diag - lap) x = b, from x0 when its residual
        beats the zero start's and from zero otherwise; None if x misses the bound."""
        g, w = self.grid, self.grid.weights

        def apply(v):
            return diag * v - _lap_array(g, v)

        r = b - apply(x0)
        # `<` is false on a NaN residual and on a zero column, which both
        # take the zero start
        if np.abs(r).max() < np.abs(b).max():
            x = np.array(x0, dtype=float)
        else:
            x, r = np.zeros(g.shape), b.copy()
        p = rz = None
        for _ in range(_CG_MAX_ITERS):
            # `not >` also stops on a NaN residual, which then fails acceptance
            if not np.abs(r).max() > _CG_STOP * d_min * max(1.0, np.abs(x).max()):
                break
            z = self._dct1(self._dct1(r) * inv_eig, inverse=True)
            rz_new = np.vdot(w * r, z)
            p = z if p is None else z + (rz_new / rz) * p
            rz = rz_new
            q = apply(p)
            step = rz / np.vdot(w * p, q)
            x += step * p
            r -= step * q
        residual = b - apply(x)
        if np.abs(residual).max() <= _CG_ACCEPT * d_min * max(1.0, np.abs(x).max()):
            return x
        return None

    def _dct1(self, a, inverse=False):
        """The 2D DCT-I of a grid array, scipy.fft.dctn(a, type=1), or with
        inverse its inverse, idctn(a, type=1), bit for bit.

        Each axis in turn, 0 then 1, is the real part of numpy's rfft of the
        even extension [a, a[-2:0:-1]] along it. The inverse is the same
        transform scaled by 1/(2(nx-1) 2(ny-1)), applied where scipy applies
        it: once, to the first axis's result.
        """
        e0, e1 = self._ext
        nx, ny = a.shape
        e0[:nx] = a
        e0[nx:] = a[-2:0:-1]
        t = np.fft.rfft(e0, axis=0).real
        if inverse:
            t *= self._idct_scale
        e1[:, :ny] = t
        e1[:, ny:] = t[:, -2:0:-1]
        return np.fft.rfft(e1, axis=1).real


def _sigma(d, alpha, u):
    return 1.0 / (d + 2.0 * alpha * u)


def _species_column(grid, first, second):
    """Per-species values shaped to broadcast over a (species, sequence, *grid) stack."""
    return np.array((first, second)).reshape((2, 1) + (1,) * grid.dimension)


def _param_columns(params, grid):
    """The (d, alpha) species columns of params."""
    return (
        _species_column(grid, params.d1, params.d2),
        _species_column(grid, params.alpha1, params.alpha2),
    )


def _sequence_signs(grid):
    """+1 on the upper sequence and -1 on the lower, broadcasting over a stack."""
    return np.array((1.0, -1.0)).reshape((1, 2) + (1,) * grid.dimension)


def _paired_reactions(params, u):
    """Reactions driving the (species, sequence) stack u, as a stack like u.

    The reactions are quasimonotone decreasing, so each species' upper
    iterate is paired with the other species' lower one, and vice versa:
    reversing species 2's sequence axis lines the pairs up, and reversing
    its reaction back returns it in sequence order. The reversed rows are
    copied first, since elementwise work on small arrays runs several
    times faster on contiguous operands.
    """
    f1, f2 = _reaction_raw(params, u[0], u[1, ::-1].copy())
    return np.array((f1, f2[::-1]))


def _inverse_stack(params, d, h):
    """Densities of a (species, ...) stack of transformed values. d is the
    species column of d, needed only when the species share alpha but not
    d; shared parameters are passed as scalars."""
    if params.alpha1 == params.alpha2:
        if params.d1 == params.d2:
            d = params.d1
        return _inverse_raw(d, params.alpha1, h)
    return np.array((
        _inverse_raw(params.d1, params.alpha1, h[0]),
        _inverse_raw(params.d2, params.alpha2, h[1]),
    ))


class _Bracket(NamedTuple):
    """A step's bracket in the stacked form step_monotone works in.

    u is the (species, sequence, *grid) stack of its densities, sequence 0
    the ceiling and 1 the floor; h and f are u's transform and paired
    reactions, which also start the inner iteration, and lap_h is the
    Laplacian of h. box is (floors, ceilings), each species' smallest floor
    and largest ceiling value as floats. kind is "window" for a caller's
    bracket, "predicted" for one around the extrapolated next state, and
    "tight" or "wide" for the others of an automatic run. columns are the
    (d, alpha) species columns of the run's params (_param_columns), which
    simulate builds once per run and hands every step with its bracket.
    violations, when set, are the per-species discrete-bound violations, as
    floats, that simulate already measured for the one step it hands the
    bracket to.

    A window run's brackets are whole arrays from _field_bracket: the
    window, stacked once per run and checked where it enters to contain the
    state (_window_bracket), and predicted ones inside it, built with their
    violations for one step. An automatic run's brackets, predicted ones
    included, are constant per species from _auto_bracket: their stacks are
    (2, 2, 1...) arrays that broadcast over the grid, and their box and
    violations come from the floats they were built from. The step checks
    no _Bracket for containment.
    """

    u: np.ndarray
    h: np.ndarray
    f: np.ndarray
    lap_h: np.ndarray | float
    box: tuple
    kind: str
    columns: tuple
    violations: tuple | None = None


def _field_bracket(params, grid, u, kind, columns):
    """The _Bracket of a (species, sequence, *grid) density stack u, sequence
    0 the ceiling: its transform, paired reactions, the transform's
    Laplacian and its box, with columns the run's _param_columns."""
    h = _transform_raw(*columns, u)
    box = (
        u[:, 1].reshape(2, -1).min(axis=1).tolist(),
        u[:, 0].reshape(2, -1).max(axis=1).tolist(),
    )
    return _Bracket(u, h, _paired_reactions(params, u), _lap_array(grid, h), box, kind, columns)


def _window_bracket(params, state, pair, columns):
    """A caller's (lower, upper) SystemState pair as a stacked "window"
    bracket, checked to contain `state` within the chain tolerance at its
    scale; raises OrderingViolationError when it does not."""
    lower, upper = pair
    grid = state.grid
    if not (grid.compatible(lower.grid) and grid.compatible(upper.grid)):
        raise ValueError("bracket and state live on different grids")
    window = _field_bracket(params, grid, np.stack((upper.u, lower.u), axis=1), "window", columns)
    # the state must lie under the upper and over the lower
    chain_tol = _CHAIN_TOL * max(1.0, *window.box[1])
    outside = (_sequence_signs(grid) * (state.u[:, None] - window.u)).reshape(2, -1).max(axis=1)
    for i in (0, 1):
        worst = float(outside[i])
        if worst > chain_tol:
            raise OrderingViolationError(
                f"state u{i + 1} leaves the bracket by {worst:.3e}",
                worst_violation=worst,
                iterate=0,
            )
    return window


def _violations(params, grid, dt, h_n, bracket):
    """Per-species worst violation of the bracket as discrete bounds at dt.

    With lhs = sigma(u) (h - h^n)/dt - lap h on the bracket's stacks, the
    upper sequence must satisfy lhs >= f and the lower lhs <= f, f its
    paired reactions. The violation is f - lhs on the upper sequence and
    lhs - f on the lower, so a positive value means the bound fails.
    """
    d, alpha = bracket.columns
    resid = np.array(bracket.f)
    resid -= _sigma(d, alpha, bracket.u) * (bracket.h - h_n) / dt - bracket.lap_h
    resid *= _sequence_signs(grid)
    return resid.reshape(2, -1).max(axis=1)


def step_monotone(
    state: SystemState, cfg: SolverConfig, params: ModelParams, bracket, solver=None,
    dt=None, trace=True,
):
    """Advance one step of dt from `state` inside `bracket`, returning (state, trace).

    dt is the step's length, cfg.dt when None; cfg gives the inner
    iteration's tolerance and iterate cap. The bracket is a (lower, upper)
    SystemState pair that must contain the state pointwise, checked on
    every call (_window_bracket); simulate passes stacked brackets
    (_Bracket), which are not checked again: its window was checked when
    the run started, tight and wide ones contain the state by
    construction, and an admitted "predicted" one bounds the step solution
    whether or not it contains the state. `solver` is a _HelmholtzSolver on
    the state's grid to reuse across steps; a fresh one is built when it is
    None.

    The bracket's stacked densities, transform and paired reactions are
    iterate 0, and each later iterate is one linear solve of all four
    (species, sequence) columns. When the chain breaks beyond tolerance the
    iteration starts again from the bracket with the shift multiplied by
    _PHI_RETRY_FACTOR, up to _MAX_PHI_RETRIES times. Raises
    OrderingViolationError when the bracket is not a discrete bound
    solution at dt, when its floor lies above its ceiling, or when the
    chain still breaks after the last escalation, ConvergenceError when the
    gap fails to close within max_inner_iters, and ValueError when a linear
    solve gives a value that is not finite.

    The returned IterationTrace holds the step's TraceSummary, built once
    here with t the new state's time and dt the step's, and its iterates.
    With trace=False, as simulate steps, the step keeps no iterates and
    returns the TraceSummary itself in the trace's place; the step is the
    same, float for float.
    """
    grid = state.grid
    if not isinstance(bracket, _Bracket):
        bracket = _window_bracket(params, state, bracket, _param_columns(params, grid))
    if solver is None:
        solver = _HelmholtzSolver(grid)
    elif solver.grid is not grid and not grid.compatible(solver.grid):
        raise ValueError("solver and state live on different grids")
    if dt is None:
        dt = cfg.dt
    u0 = bracket.u
    h_n = state.h[:, None]
    shape = state.h.shape[1:]
    (v1, v2), (w1, w2) = bracket.box
    # `b if b > a else a` is max(a, b), and `b if b < a else a` min(a, b),
    # float for float, without the call
    scale = w2 if w2 > w1 else w1
    chain_tol = _CHAIN_TOL * (scale if scale > 1.0 else 1.0)

    # iterate 0 is the bracket: its gap, and its worst violation, the
    # floor's largest excess over the ceiling, from the floats of a
    # bracket constant per species
    if u0.shape[2:] == shape:
        gap0 = float((u0[:, 0] - u0[:, 1]).max())
        worst0 = float((u0[:, 1] - u0[:, 0]).max())
    else:
        gap0, gap2, worst0, worst2 = w1 - v1, w2 - v2, v1 - w1, v2 - w2
        gap0 = gap2 if gap2 > gap0 else gap0
        worst0 = worst2 if worst2 > worst0 else worst0

    # one-shot feasibility of the bracket endpoints as discrete bound
    # solutions, unless simulate has just measured it for this step
    infeasible = bracket.violations
    if infeasible is None:
        infeasible = _violations(params, grid, dt, h_n, bracket)
    for i in (0, 1):
        worst = float(infeasible[i])
        if worst > chain_tol:
            raise OrderingViolationError(
                f"bracket bound for species {i + 1} is not a discrete bound solution "
                f"at dt={dt:.3e} (violation {worst:.3e})",
                worst_violation=worst,
                iterate=0,
            )
    # no shift orders a chain that starts broken
    if worst0 > chain_tol:
        raise OrderingViolationError(
            f"bracket floor lies above its ceiling by {worst0:.3e}",
            worst_violation=worst0,
            iterate=0,
        )

    # exactly degenerate bound solution, every ceiling equal to its floor:
    # the common value is the step solution
    if gap0 == 0.0 and worst0 == 0.0:
        stack = (2, 2) + shape
        u0, h0 = np.broadcast_to(u0, stack), np.broadcast_to(bracket.h, stack)
        new_state = SystemState(state.t + dt, grid, u0[:, 1].copy(), h0[:, 1].copy())
        summary = TraceSummary(
            new_state.t, dt, iterations=1, gap=0.0, worst_violation=0.0, phi1=0.0,
            phi2=0.0, retries=0, fallbacks=0, bracket=bracket.kind,
        )
        return new_state, IterationTrace(summary, ((u0, 0.0, 0.0),) * 2) if trace else summary

    # sigma is frozen at the previous iterate, except in a semilinear run
    # (both alpha = 0), where it is 1/d at every iterate: there the h^n term
    # is computed once per step, and the shift needs no lag
    quasilinear = params.alpha1 != 0.0 or params.alpha2 != 0.0
    hdot = _hdot_scales(params, grid, state.u, state.h) if quasilinear else (0.0, 0.0)
    phi_base = (
        _phi_automatic(params, 1, v1, w1, v2, w2, hdot[0]),
        _phi_automatic(params, 2, v2, w2, v1, w1, hdot[1]),
    )

    columns = d, alpha = bracket.columns
    gap_tol = cfg.inner_tol * (1.0 + scale)
    fallbacks = solver.fallbacks
    # the accepted state's compact rows, allocated ahead of the iteration's
    # temporaries: states kept in a list then fill the holes earlier steps'
    # temporaries left, where copies made at the end split the heap between
    # them (3 MB more peak RSS for 501 kept states of 513 points)
    kept_u, kept_h = np.empty((2,) + shape), np.empty((2,) + shape)
    solved, solved_cols, base, term, audit, new_minus_old, v_minus_w, measured, negated = (
        solver.work_arrays()
    )
    npoints = audit.shape[1]
    if not quasilinear:
        sig, sig_cols = solver.semilinear_sigma(columns)
        sig_over_dt = sig_cols / dt
        np.divide(np.multiply(sig, h_n, out=base), dt, out=base)
    for retry in range(_MAX_PHI_RETRIES + 1):
        boost = _PHI_RETRY_FACTOR**retry
        phis = (phi_base[0] * boost, phi_base[1] * boost)
        # one value per solve column, the stack's (species, sequence) rows
        phi = np.array((phis[0], phis[0], phis[1], phis[1])).reshape((4,) + (1,) * len(shape))
        u, f, h = u0, bracket.f, bracket.h.reshape((4,) + bracket.h.shape[2:])
        iterates = [(u0, gap0, worst0)] if trace else None
        worst_all = worst0
        for k in range(1, cfg.max_inner_iters + 1):
            if k > 1:
                f = _paired_reactions(params, u)
            if quasilinear:
                sig = _sigma(d, alpha, u)
                np.divide(np.multiply(sig, h_n, out=base), dt, out=base)
                sig_over_dt = (sig / dt).reshape((4,) + sig.shape[2:])
            rhs, rhs_cols = solved[k % 2], solved_cols[k % 2]
            np.add(base, f, out=rhs)
            rhs_cols += np.multiply(phi, h, out=term)
            # in place: rhs becomes the new transformed stack, whose
            # finiteness the audit below checks
            solver.solve(sig_over_dt, phi, rhs_cols, h, False)
            new_u = _inverse_stack(params, d, rhs)

            # the lower must not drop nor the upper rise, then the lower must
            # stay under the upper, whose excess is the gap. A row's smallest
            # value is minus its negative's largest, up to a zero's sign, and
            # 0.0 + x gives a zero +0.0, as 0.0 - (smallest) would
            flat = new_u.reshape(-1)
            np.subtract(new_u, u, out=new_minus_old)
            np.subtract(flat[npoints:], flat[:-npoints], out=v_minus_w)
            np.negative(measured, out=negated)
            top = np.maximum.reduce(audit, axis=1).tolist()
            # a non-finite transform has a non-finite density, which every
            # row's extremes carry: nan into both, an infinity into one
            if not math.isfinite(sum(top)):
                raise ValueError("linear solve produced non-finite values")
            gap, fall = top[13], top[10]
            gap = 0.0 + (top[11] if top[11] > gap else gap)
            worst = max(top[0], top[2], 0.0 + (top[8] if top[8] > fall else fall), top[4], top[6])

            u, h = new_u, rhs_cols
            if iterates is not None:
                iterates.append((u, gap, worst))
            # `>` keeps the first of equal maxima, as max() over them would
            if worst > worst_all:
                worst_all = worst
            if worst > chain_tol:
                # the chain broke: start again at the next shift
                break
            if gap <= gap_tol:
                np.copyto(kept_u, u[:, 1])
                np.copyto(kept_h, rhs[:, 1])
                summary = TraceSummary(
                    state.t + dt, dt, k, gap, worst_all, phis[0], phis[1], retry,
                    solver.fallbacks - fallbacks, bracket.kind,
                )
                new_state = SystemState(summary.t, grid, kept_u, kept_h)
                if iterates is None:
                    return new_state, summary
                return new_state, IterationTrace(summary, tuple(iterates))
        else:
            raise ConvergenceError(
                f"inner iteration gap {gap:.3e} above tolerance {gap_tol:.3e} "
                f"after {cfg.max_inner_iters} iterates",
                gap=gap,
            )
    raise OrderingViolationError(
        f"iterate ordering kept failing after {_MAX_PHI_RETRIES} shift escalations "
        f"(worst violation {worst:.3e})",
        worst_violation=worst,
        iterate=k,
    )


def _auto_bracket(params, columns, extremes, dt, floors, ceilings, kind):
    """The constant bracket with these per-species floors and ceilings for a
    step of dt from the state whose _Extremes are given, its discrete-bound
    violations measured; None when a floor lies above its ceiling or
    _auto_bracket_feasible rejects the violations. columns are the run's
    _param_columns, whose shape the stacks take. simulate builds its
    predicted, tight and wide brackets of automatic runs here.

    Everything is worked out on Python floats: the transform, the paired
    reactions (each species' ceiling against the other's floor) and each
    violation, the ceiling's at the species' largest h^n and the floor's at
    its smallest, where the grid maximum falls. An admitted bracket's stacks
    are (2, 2, 1...) arrays that broadcast over the grid.
    """
    (w1, w2), (v1, v2) = ceilings, floors
    # an extrapolated maximum below zero, or far below the extrapolated
    # minimum, leaves no ordered bracket
    if v1 > w1 or v2 > w2:
        return None
    # each species' ceiling against the other's floor, as _paired_reactions pairs them
    f1_up, f2_lo = _reaction_raw(params, w1, v2)
    f1_lo, f2_up = _reaction_raw(params, v1, w2)
    lo, hi = extremes
    # each corner's _transform_raw, (d + alpha u) u, and per species the
    # larger of _violations' f - (sigma (h - h^n)/dt - lap h) at the ceiling
    # and its negative at the floor, with lap h = 0, written out on floats
    (_, _, _, d1, a1), (_, _, _, d2, a2) = params.species
    h = [(d1 + a1 * w1) * w1, (d1 + a1 * v1) * v1, (d2 + a2 * w2) * w2, (d2 + a2 * v2) * v2]
    top1 = f1_up - 1.0 / (d1 + 2.0 * a1 * w1) * (h[0] - hi[2]) / dt
    bottom1 = (f1_lo - 1.0 / (d1 + 2.0 * a1 * v1) * (h[1] - lo[2]) / dt) * -1.0
    top2 = f2_up - 1.0 / (d2 + 2.0 * a2 * w2) * (h[2] - hi[3]) / dt
    bottom2 = (f2_lo - 1.0 / (d2 + 2.0 * a2 * v2) * (h[3] - lo[3]) / dt) * -1.0
    violations = [bottom1 if bottom1 > top1 else top1, bottom2 if bottom2 > top2 else top2]
    if not _auto_bracket_feasible(violations, ceilings):
        return None
    # the u, h and f stacks, each in (species, sequence) C order
    stacks = np.array([w1, v1, w2, v2] + h + [f1_up, f1_lo, f2_up, f2_lo])
    stacks = stacks.reshape((3, 2, 2) + columns[0].shape[2:])
    # a constant stack's Laplacian is exactly zero
    return _Bracket(
        stacks[0], stacks[1], stacks[2], 0.0, (floors, ceilings), kind, columns, violations
    )


def _auto_bracket_feasible(violations, ceilings):
    """The step's own admission test: every discrete-bound violation within
    the chain tolerance at the bracket's scale."""
    return max(violations) <= _CHAIN_TOL * max(1.0, *ceilings)


def _lagrange(times, t):
    """The Lagrange weights at t of the nodes at `times`: two nodes give
    the line, three the quadratic, however unevenly spaced."""
    if len(times) == 2:
        t0, t1 = times
        return (t - t1) / (t0 - t1), (t - t0) / (t1 - t0)
    t0, t1, t2 = times
    return (
        (t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2)),
        (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2)),
        (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1)),
    )


def _extrapolate(times, values, t, out=None):
    """The polynomial in t through the (times, values) nodes, evaluated at t.

    values are the nodes' arrays, which are left unchanged, or their float
    sequences, which give a list; an array result is written into `out`
    when it is given. Each value is ((x0 w0 + w1 x1) + w2 x2) with the
    _lagrange weights w, so an array and its floats give the same floats.
    """
    w = _lagrange(times, t)
    if not isinstance(values[0], np.ndarray):
        if len(w) == 2:
            return [x0 * w[0] + w[1] * x1 for x0, x1 in zip(*values)]
        return [x0 * w[0] + w[1] * x1 + w[2] * x2 for x0, x1, x2 in zip(*values)]
    out = np.multiply(values[0], w[0], out=out)
    out += w[1] * values[1]
    if len(values) == 3:
        out += w[2] * values[2]
    return out


class _Extremes(NamedTuple):
    """The smallest and largest value of each row of a (k, npoints) array,
    as two lists of floats, from one reduction each way.

    The rows are a state's u1, u2, h1 and h2, from a state alone (of) or an
    automatic run's per-run buffer in simulate. Each float is what a
    reduction of its row alone gives.
    """

    lo: list
    hi: list

    @classmethod
    def reduce(cls, rows):
        return cls(np.minimum.reduce(rows, axis=1).tolist(),
                   np.maximum.reduce(rows, axis=1).tolist())

    @classmethod
    def reduce_signed(cls, buffer):
        """reduce's floats for the first half of a (2k, npoints) buffer from
        one reduction, as simulate's automatic runs take them: the second
        half is overwritten with the first's negatives, whose largest values
        are minus the smallest; a zero smallest value reads +0.0."""
        k = len(buffer) // 2
        np.negative(buffer[:k], out=buffer[k:])
        top = np.maximum.reduce(buffer, axis=1).tolist()
        return cls([0.0 - x for x in top[k:]], top[:k])

    @classmethod
    def of(cls, state):
        return cls.reduce(np.concatenate((state.u, state.h)).reshape(4, -1))

    def sup_norms(self) -> tuple:
        """SystemState.sup_norms: max |u_i| is max(max u_i, -min u_i) exactly,
        and abs() makes a zero norm +0.0."""
        lo, hi = self
        return abs(max(hi[0], -lo[0])), abs(max(hi[1], -lo[1]))


def simulate(
    params, grid, eig, u0, cfg: SolverConfig, t_end: float, bracket=None, snapshots=None
):
    """March step_monotone from u0 to t_end, or to overflow, or to failure.

    From the third step on, each attempt first tries a predicted bracket
    around the next u stack extrapolated from those of the last three
    accepted states (the module docstring gives its form), and takes it
    when it is a discrete bound solution at the attempt's dt; its summary
    says "predicted". The first two steps, and an attempt whose predicted
    bracket fails, go on at no cost to the halving budget to the run's
    other brackets. With `bracket` given (a certified (lower, upper) pair)
    that is the pair, stacked once and reused, and the predicted brackets
    are clipped to it; it must contain u0, or OrderingViolationError is
    raised before the first step. Otherwise it is the tight constant
    bracket [(1-kappa) min u_i, (1+kappa) max u_i], kappa =
    max(3*growth_trigger, 2*g) with g the last accepted step's relative
    sup-norm change, when it passes the same test; when it does not, or
    when kappa >= 1, the wide zero-floor bracket with ceiling 2*max(u_i),
    under the same test.

    The controller of the module docstring picks each step's dt, with r
    the larger of the two species' relative sup-norm rises (0 when both
    norms fall), so a run whose norms never rise by more than half the
    trigger stays at cfg.dt; a last step cut short to land on t_end leaves
    the controller's dt as it was. A rejection for no passing bracket or a
    raising step caps the controller's dt at the halved one for the rest
    of the run; a growth rejection does not. Once the halving budget is
    spent, growth control stays on; any other rejection then ends the run
    with termination "failed" and the error kept. A dt below _DT_FLOOR *
    max(1, t) ends it with termination "dt_floor". Neither raises, so
    partial output survives. Each accepted step's TraceSummary is packed into
    `summaries`, which reads it back bit for bit.

    `snapshots` is the sink of the kept states: any object with `append`,
    which receives the initial state, every snapshot_every-th accepted one
    and the last, never an overflowed one, and becomes the result's
    `snapshots`. It defaults to a new list; `sktlab simulate` passes a
    spool that keeps them on disk (_spool).

    `eig` is not used; the argument stays because callers pass the
    arguments by position.
    """
    if not (t_end > 0.0 and np.isfinite(t_end)):
        raise ValueError(f"t_end must be positive, got {t_end}")
    state = SystemState.from_u(params, 0.0, *u0)
    if not grid.compatible(state.grid):
        raise ValueError("initial fields live on a different grid")
    # fields flagged overflowed pass from_u with non-finite values
    if not np.isfinite(state.u).all():
        raise ValueError("initial fields must be finite")
    if np.any(state.u < 0.0):
        raise ValueError("initial fields must be nonnegative")
    growth = 0.0
    snapshots = [] if snapshots is None else snapshots
    snapshots.append(state)
    kept = state
    digests = bytearray()
    # ceiling is the largest dt the controller may pick: cfg.dt, lowered
    # to the halved dt by each rejection that is not for growth
    dt, grow, ceiling = cfg.dt, 2.0, cfg.dt
    trigger = cfg.growth_trigger
    halvings = 0
    accepted = 0
    termination = "completed"
    overflow_time = None
    error = None
    final_state = state
    # on the states' own grid, which every step then finds by identity
    solver = _HelmholtzSolver(state.grid)
    columns = _param_columns(params, grid)
    if bracket is not None:
        # checked once to contain u0, and stacked once, with its transform
        # and reactions, for every step
        window = _window_bracket(params, state, bracket, columns)
        top, floor = window.u[:, 0], np.maximum(window.u[:, 1], 0.0)
    # the predictor's nodes, the last three accepted states' times and u
    # stacks, or in an automatic run their extremes of u as floats, and
    # each species' miss of the last accepted prediction
    times, misses = [state.t], None
    extremes = _Extremes.of(state)
    norms = extremes.sup_norms()
    if bracket is None:
        # an accepted state's u and h, with their negatives below them, for
        # one reduction each way (_Extremes)
        rows = np.empty((8, grid.npoints))
        state_rows = rows[:4].reshape((4,) + grid.shape)
        values = [extremes.lo[:2] + extremes.hi[:2]]
    else:
        # an accepted state's |u| and its miss |u - p| against the
        # prediction p it was stepped into, reduced for their largest
        # values, the sup norms and the misses
        checked, stack = np.zeros((4, grid.npoints)), (2,) + grid.shape
        abs_u, miss_rows = checked[:2].reshape(stack), checked[2:].reshape(stack)
        prediction, values = np.empty(stack), [state.u]
    predicted_dt = None

    t_guard = 1e-12 * t_end
    while state.t < t_end - t_guard:
        if dt < _DT_FLOOR * (state.t if state.t > 1.0 else 1.0):
            termination = "dt_floor"
            break
        dt_step = t_end - state.t
        if dt <= dt_step:
            dt_step = dt

        # one attempt: the step, or the reason to redo it at half the dt.
        # The predicted bracket goes first once a miss is known, from the
        # third step on; the others follow at no cost to the halving budget
        rejection = None
        step_bracket = None
        if len(times) > 1 and predicted_dt != dt_step:
            if bracket is None:
                # the extrapolated extremes (min u1, min u2, max u1, max u2)
                prediction = _extrapolate(times, values, state.t + dt_step)
            else:
                _extrapolate(times, values, state.t + dt_step, prediction)
            predicted_dt = dt_step
        if misses is not None:
            n1, n2 = norms
            n1 = n2 if n2 > n1 else n1
            round_off = _PREDICT_FLOOR * (n1 if n1 > 1.0 else 1.0)
            e1 = _PREDICT_FACTOR * misses[0] + round_off
            e2 = _PREDICT_FACTOR * misses[1] + round_off
            if bracket is not None:
                # clipped into the window, so every state stays inside it
                clipped = np.minimum(np.maximum(prediction, floor), top)
                e = np.reshape((e1, e2), (2,) + (1,) * grid.dimension)
                u = np.empty((2, 2) + grid.shape)
                np.minimum(clipped + e, top, out=u[:, 0])
                np.maximum(clipped - e, floor, out=u[:, 1])
                step_bracket = _field_bracket(params, grid, u, "predicted", columns)
                violations = _violations(
                    params, grid, dt_step, state.h[:, None], step_bracket
                ).tolist()
                if _auto_bracket_feasible(violations, step_bracket.box[1]):
                    step_bracket = step_bracket._replace(violations=violations)
                else:
                    step_bracket = None
            else:
                # around each species' extrapolated extremes
                p_lo1, p_lo2, p_hi1, p_hi2 = prediction
                f1, f2 = p_lo1 - e1, p_lo2 - e2
                step_bracket = _auto_bracket(
                    params, columns, extremes, dt_step,
                    [0.0 if 0.0 > f1 else f1, 0.0 if 0.0 > f2 else f2],
                    [p_hi1 + e1, p_hi2 + e2], "predicted",
                )
        if step_bracket is None and bracket is not None:
            # measured by the step, which raises what a caller's pair raises
            step_bracket = window
        elif step_bracket is None:
            kappa = max(3.0 * trigger, 2.0 * growth)
            lo, hi = extremes
            if kappa < 1.0:
                floors = [(1.0 - kappa) * lo[0], (1.0 - kappa) * lo[1]]
                ceilings = [(1.0 + kappa) * hi[0], (1.0 + kappa) * hi[1]]
                step_bracket = _auto_bracket(
                    params, columns, extremes, dt_step, floors, ceilings, "tight"
                )
            if step_bracket is None:
                # the literal +0.0 floor: (1 - kappa) * -0.0 would be -0.0
                ceilings = [2.0 * hi[0], 2.0 * hi[1]]
                step_bracket = _auto_bracket(
                    params, columns, extremes, dt_step, [0.0, 0.0], ceilings, "wide"
                )
            if step_bracket is None:
                rejection = ConvergenceError(
                    f"no feasible step ceiling at the minimum dt ({dt_step:.3e}); "
                    f"state max {max(norms):.3e}"
                )
        if rejection is None:
            try:
                new_state, summary = step_monotone(
                    state, cfg, params, step_bracket, solver, dt_step, False
                )
            except (ConvergenceError, OrderingViolationError) as exc:
                rejection = exc
        if rejection is None:
            if bracket is None:
                np.concatenate((new_state.u, new_state.h), out=state_rows)
                new_extremes = lo, hi = _Extremes.reduce_signed(rows)
                m1, m2 = new_extremes.sup_norms()
                if len(times) > 1:
                    # the miss of the extrapolated extremes
                    miss1 = max(abs(lo[0] - prediction[0]), abs(hi[0] - prediction[2]))
                    miss2 = max(abs(lo[1] - prediction[1]), abs(hi[1] - prediction[3]))
            else:
                # the new state's |u| and its miss, when this attempt had a
                # prediction, for one reduction; max |u_i| is the sup norm
                np.abs(new_state.u, out=abs_u)
                if len(times) > 1:
                    np.abs(np.subtract(new_state.u, prediction, out=miss_rows), out=miss_rows)
                m1, m2, miss1, miss2 = np.maximum.reduce(checked, axis=1).tolist()
            finite = math.isfinite(m1) and math.isfinite(m2)
            if not finite or m1 > cfg.overflow_cap or m2 > cfg.overflow_cap:
                termination = "overflowed"
                overflow_time = new_state.t
                final_state = (
                    new_state if finite else dataclasses.replace(new_state, overflowed=True)
                )
                break
            # each species' relative sup-norm change, and the larger rise
            p1, p2 = norms
            r1 = (m1 - p1) / p1 if p1 > 0.0 else 0.0
            r2 = (m2 - p2) / p2 if p2 > 0.0 else 0.0
            rise = r2 if r2 > r1 else r1
            if rise > trigger and halvings < cfg.max_halvings:
                rejection = "growth"

        if rejection is not None:
            if halvings >= cfg.max_halvings:
                termination = "failed"
                error = rejection
                break
            dt = dt_step / 2.0
            halvings += 1
            grow = 1.0
            if rejection != "growth":
                # no bracket passed, or the step raised: at a larger dt the
                # same cause would come back and spend a halving each time
                ceiling = dt
            continue

        if dt_step == dt:
            # the controller, fed only by steps of its own dt, and kept from
            # growing dt on the step after a rejection
            factor = 0.9 * trigger / rise if rise > 0.0 else 2.0
            dt *= factor if factor < grow else grow
            if dt > ceiling:
                dt = ceiling
        grow = 2.0
        r1, r2 = abs(r1), abs(r2)
        growth = r2 if r2 > r1 else r1
        if len(times) > 1:
            misses = miss1, miss2
        state, norms = new_state, (m1, m2)
        node = state.u if bracket is not None else lo[:2] + hi[:2]
        times, values = times[-2:] + [state.t], values[-2:] + [node]
        predicted_dt = None
        if bracket is None:
            extremes = new_extremes
        accepted += 1
        _digests.pack(digests, summary)
        if accepted % cfg.snapshot_every == 0:
            snapshots.append(state)
            kept = state

    if kept is not state:
        snapshots.append(state)
    if termination != "overflowed":
        final_state = state

    return SimulationResult(
        snapshots=snapshots,
        summaries=_digests.StepDigests(digests, TraceSummary),
        termination=termination,
        final_state=final_state,
        overflow_time=overflow_time,
        error=error,
        halvings_used=halvings,
        final_dt=dt,
    )

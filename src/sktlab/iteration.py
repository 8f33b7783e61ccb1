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
reduces to. An accepted state's extremes of u and h, which give its sup
norms for the controller and the overflow test and an automatic run's
next h^n extremes, come from the step that made it: the chain audit's
rows hold the lower iterate's u and h beside the chain's, so its one
reduction per iterate also measures the state the step accepts, and the
step hands those floats to simulate (_StepContext.extremes). A window
run reduces only the miss of its prediction. An admitted bracket's
stacks are (2, 2, 1...) arrays that broadcast over the grid, and it
reaches the step with its violations measured; the step takes iterate
0's gap and worst violation from the bracket's floats.

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

A SystemState holds the same species axis without the sequence one, and
only finite values. A step reads it as state.u[:, None] and
state.h[:, None], a sequence axis of one, and never takes it apart into
species; the states it returns are compact copies of the last lower
iterate's u and h rows, whose finiteness its chain audit has checked.

Each inner iterate makes one linear solve, through _HelmholtzSolver,
built once per simulate run: the four (species, sequence) rows of the
right-hand-side stack are its columns, solved in place, and sig/dt is
passed as the step computes it, a (4, ...) array of sigma at the previous
iterate over dt. A semilinear (alpha = 0) run's sigma is 1/d at every
iterate, so the step computes its sig/dt and the h^n term once. What a
step works out that is fixed for the whole run, the species columns,
the semilinear sigma, the inverse transform's branch, the shift column
and the work arrays the right-hand sides and the chain audit are
assembled in, is made once per run, in the _StepContext the solver keeps
for the run's params; each iterate's density stack and reactions, and in
a quasilinear run its sigma, are fresh arrays. The solver's docstring
gives its 1D and 2D paths (DCT-I preconditioner:
Martucci, IEEE TSP 42, 1994) and its acceptance bound, an error of at
most 1e-12*max(1, ||h||_inf), a hundredth of the chain tolerance; zero
right-hand sides give exact zeros on both paths. In 2D each column starts
from the previous iterate's transform of the same column: consecutive
iterates close in on each other, so fewer CG iterations remain.

The time-stepping loop `simulate` repeats steps to t_end. Before the first
step it picks the run's bracket ladder once: _WindowLadder with a caller's
bracket, _AutomaticLadder without one. The ladder keeps the predictor's
nodes and gives each attempt its candidate brackets in order; the loop
keeps the attempt, the rejection rule and the controller.

From the third step on, each attempt first tries a predicted bracket, the
predictor half of a predictor-corrector (Hairer & Wanner, Solving ODEs II,
IV.8): the next state is extrapolated by the quadratic in t through the
last three accepted states, or the line through two before there are
three, with Lagrange weights, so unevenly spaced nodes need nothing
special; it is made for each attempt's dt. The nodes keep time by the
steps themselves: as offsets from the newest node, summed from the
accepted steps' own dt, with the prediction made at offset dt. Times
read off t would be rounded to its ulp, and in a fast blow-up the rate
times ulp(t) outgrows the prediction's true miss. Each species gets the
half-width e_i = 2 * miss_i, twice the miss of the prediction of the last
accepted state, plus a round-off floor of 1e-12 * max(1, largest sup norm
of the state); no floor goes below zero. The bracket takes the form of the
run's other brackets:

- in an automatic run, constant per species: the extremes of u_i are
  extrapolated as floats to p_lo_i and p_hi_i, the miss is the larger of
  |min u_i^n - p_lo_i^n| and |max u_i^n - p_hi_i^n|, and the bracket,
  [max(p_lo_i - e_i, 0), p_hi_i + e_i], is built on floats by
  _auto_bracket, which rejects a floor above its ceiling. For spatially
  constant data these are the extremes of the extrapolated u stack;
- in a window run, a field stack inside the caller's window: the u stack p
  is extrapolated, the miss is max|u_i^n - p_i^n| over the grid, and with
  p clipped into the window, [max(p - e, floor), min(p + e, N)], floor the
  window's floor (at least zero) and N its ceiling, built by
  _field_bracket and its discrete-bound violations measured once.

When the predicted bracket fails the discrete-bound test, or before a miss
is known, the attempt goes on, at no cost to the halving budget, to the
caller's window in a window run; in an automatic run to a tight constant
bracket [(1-kappa) min u_i, (1+kappa) max u_i], with kappa =
max(3*growth_trigger, 2*g) and g the last accepted step's relative change
of the per-species sup norms, and then to the wide bracket [0, 2 max u_i];
when kappa >= 1 only to the wide one. The window is stacked once per run
and handed to the step unmeasured, so a step that fails in it raises what
step_monotone raises on the caller's pair. Tight and wide are admitted
only when they pass the discrete-bound test the step applies to every
bracket. Each step's TraceSummary records which of "predicted", "window",
"tight" and "wide" it ran in.

One controller picks every dt (Hairer, Norsett & Wanner, Solving ODEs I,
II.4): after an accepted step whose larger relative sup-norm rise over
the two species is r, the next dt is min(cfg.dt, dt * min(2, 0.9 *
growth_trigger / r)), or twice dt when neither norm rises, so a run whose
norms never rise by more than 0.45 * growth_trigger stays at cfg.dt. It
does not grow dt on the step after a rejection, and a last step cut short
to land on t_end leaves dt as it was. An attempt is rejected, and redone at
half its dt, predicted bracket first, for one of three causes: no bracket
passes at its dt, the step raises (the chain breaks after every shift
escalation, the gap does not close, or a linear solve fails or gives a
value that is not finite), or r exceeds growth_trigger. Each
rejection spends one of max_halvings. One of the first two causes also
caps every later dt at the halved one, as it would come back at a larger
dt and spend a halving at each return; a growth rejection leaves the cap
where it was. With the budget spent, a step that rises too fast is
accepted and the controller shrinks the next dt, while the other causes
end the run as "failed". A dt below about 1e3 ulps of t ends the run as
"dt_floor", and overflow of either species past overflow_cap as
"overflowed", with the offending state preserved separately from the
sub-cap snapshots.
"""

from __future__ import annotations

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
from .errors import (
    BracketConstructionError, ConvergenceError, NumericalError, OrderingViolationError,
)
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
    return property(lambda s: ScalarField(s.grid, getattr(s, stack)[row]))


@dataclass(frozen=True, eq=False)
class SystemState:
    """Both species at one time, in density and transformed variables.

    u and h are (2, *grid) stacks, species 1 in row 0 and species 2 in row
    1, each its own compact array, and every value is finite. Build states
    from outside with from_u or from_u_arrays, which refuse any other; the
    raw constructor checks nothing. u1, u2, h1 and h2 are read-only
    ScalarField copies of the rows, for callers that work with fields.
    """

    t: float
    grid: Grid
    u: np.ndarray
    h: np.ndarray

    def __init__(self, t, grid, u, h):
        # the fields at once, where a frozen dataclass's own __init__ sets
        # each through object.__setattr__: a state is made every step
        self.__dict__.update(t=t, grid=grid, u=u, h=h)

    u1, u2 = _row_field("u", 0), _row_field("u", 1)
    h1, h2 = _row_field("h", 0), _row_field("h", 1)

    @classmethod
    def from_u(cls, params: ModelParams, t: float, u1: ScalarField, u2: ScalarField):
        if not u1.grid.compatible(u2.grid):
            raise ValueError("u1 and u2 live on different grids")
        return cls.from_u_arrays(params, u1.grid, t, u1.values, u2.values)

    @classmethod
    def from_u_arrays(cls, params, grid, t, u1, u2):
        u = np.array((u1, u2), dtype=float)
        if u.shape != (2,) + grid.shape:
            raise ValueError(
                f"field shapes {u.shape[1:]} do not match grid shape {grid.shape}"
            )
        d, alpha = _param_columns(params, grid)
        # d > 0 and alpha >= 0 are finite, so h is finite only where u is;
        # a non-finite h is reported below, not warned of by numpy
        with np.errstate(invalid="ignore", over="ignore"):
            h = _transform_raw(d[:, 0], alpha[:, 0], u)
        if not np.isfinite(h).all():
            raise ValueError(
                "field values must be finite" if not np.isfinite(u).all() else
                f"the transform (d + alpha*u)*u overflows at max |u| = {np.abs(u).max():g}"
            )
        return cls(float(t), grid, u, h)

    def sup_norms(self) -> tuple:
        return tuple(np.abs(self.u).reshape(2, -1).max(axis=1).tolist())


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the inner iteration and the time-stepping driver.

    Each step derives its shift phi from its bracket (_phi_automatic), so
    no shift is configured. dt is the largest step simulate takes,
    growth_trigger the relative sup-norm rise its controller allows a step,
    and max_halvings the run's budget of rejected attempts; the module
    docstring gives the controller. The int and float fields here are also
    the config file's [solver] keys.
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

    termination is "completed", "overflowed", "dt_floor" or "failed". On
    overflow final_state is the offending above-cap state, finite like
    every state, and snapshots keep only sub-cap states; "dt_floor" says
    dt fell under round-off in t; on failure the unrecoverable error is
    kept in `error`. halvings_used counts rejected attempts and final_dt
    is the controller's dt for the next step. `snapshots` is the sink
    simulate was given, a list by default. `summaries` holds each accepted
    step's TraceSummary; from simulate, a read-only sequence over packed
    records (_digests).
    """

    snapshots: Sequence
    summaries: Sequence
    termination: str
    final_state: SystemState
    overflow_time: float | None = None
    error: Exception | None = None
    halvings_used: int = 0
    final_dt: float | None = None


def _check_initial(u0, grid=None) -> None:
    """Raise ValueError unless the initial fields u0 = (u1, u2) lie on one
    grid, and on `grid` when it is given, and are finite and nonnegative.
    A field's values can be written to after it is made, and NaN passes
    every comparison, so finiteness is checked first."""
    if not u0[0].grid.compatible(u0[1].grid):
        raise ValueError("initial fields live on different grids")
    if grid is not None and not grid.compatible(u0[0].grid):
        raise ValueError("initial fields live on a different grid")
    if not all(np.isfinite(field.values).all() for field in u0):
        raise ValueError("initial fields must be finite")
    if any((field.values < 0.0).any() for field in u0):
        raise ValueError("initial fields must be nonnegative")


def initial_bracket(params: ModelParams, eig, u0, regime: RegimeReport):
    """Build the certified constant-ceiling / scaled-eigenfunction bracket.

    The ceiling N_i is the midpoint of the admissible window, raised to
    max(u0_i) when the data demands it and the window still permits; the
    floor is rho_i * phi0 with rho_i = min(1e-3, half the pointwise minimum
    of u0_i/phi0), dropped to zero whenever u0_i touches zero or phi0 is not
    strictly positive. Returns (lower, upper) SystemStates at t = 0. Raises
    ValueError on data that _check_initial refuses, and
    BracketConstructionError where no bracket exists or its ceiling's
    transform overflows.
    """
    if not regime.certified:
        failed = next((r.name for r in regime.inequalities if not r.holds), None)
        raise BracketConstructionError(
            f"regime is not certified_global (first failed condition: {failed})",
            inequality=failed,
        )
    _check_initial(u0)
    grid = u0[0].grid
    if not grid.compatible(eig.phi0.grid):
        raise ValueError("eigenfunction lives on a different grid")
    phi_vals = eig.phi0.values
    phi_positive = bool(np.all(phi_vals > 0.0))

    uppers, lowers = [], []
    for i, (field, (lo, hi)) in enumerate(zip(u0, regime.window), start=1):
        vals = field.values
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
        if not phi_positive or float(vals.min()) <= 0.0:
            lowers.append(0.0)
        else:
            lowers.append(min(_LOWER_SCALE_CAP, 0.5 * float((vals / phi_vals).min())))

    lower = SystemState.from_u_arrays(
        params, grid, 0.0, lowers[0] * phi_vals, lowers[1] * phi_vals
    )
    try:
        upper = SystemState.from_u_arrays(
            params, grid, 0.0, np.full(grid.shape, uppers[0]), np.full(grid.shape, uppers[1])
        )
    except ValueError as exc:  # a finite ceiling whose transform overflows
        raise BracketConstructionError(f"the window's ceiling is out of range: {exc}") from None
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

    The solver also keeps what a step works out once per run, its
    _StepContext (step_context), so a solver reused across a run's steps
    makes it once. Raises NumericalError when LAPACK reports a 1D solve
    failed or a sparse LU factor is singular. Solutions are returned unchecked: step_monotone's
    chain audit checks that they are finite.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.fallbacks = 0
        self._context = None
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

    def solve(self, sig_over_dt, phi, rhs_cols, guess):
        """Solve for each column of rhs_cols and return the (k, *grid) solutions.

        rhs_cols is a (k, *grid) stack or a sequence of k field arrays. A
        C-contiguous float stack is overwritten with the solutions and
        returned. guess holds a starting point for each column, broadcasting
        against the stack; 2D CG starts from it when its residual beats the
        zero start's, and 1D ignores it.
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
                raise NumericalError(f"tridiagonal solve failed (LAPACK dgtsv info {info})")
        else:
            self._solve_2d(sig_over_dt, phi, rhs, guess)
        return rhs

    def step_context(self, params):
        """The _StepContext of params on this grid, kept for the same params
        object, as a simulate run passes it, and made again for another."""
        context = self._context
        if context is None or context.params is not params:
            context = self._context = _StepContext(params, self.grid)
        return context

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
                try:
                    x = splu(lhs.tocsc()).solve(b.ravel()).reshape(g.shape)
                except RuntimeError as exc:  # an exactly singular factor
                    raise NumericalError(f"sparse LU solve failed: {exc}") from None
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


def _inverse_stack(params, shared, h):
    """Densities of a (species, ...) stack of transformed values. shared is
    the (d, alpha) the whole stack takes when the species share alpha
    (_StepContext), and None when each species takes its own."""
    if shared is not None:
        return _inverse_raw(*shared, h)
    return np.array((
        _inverse_raw(params.d1, params.alpha1, h[0]),
        _inverse_raw(params.d2, params.alpha2, h[1]),
    ))


class _StepContext:
    """What step_monotone works out once per run, for one params on one
    grid; a _HelmholtzSolver keeps it (step_context).

    columns are the (d, alpha) species columns of params (_param_columns)
    and quasilinear says whether either alpha is nonzero. A semilinear
    run's sigma is 1/d at every iterate, kept as sigma, a species column,
    and sigma_cols, the same as (4, 1...) solve columns. inverse is
    _inverse_stack's shared (d, alpha): d a scalar when the species also
    share d and their species column when not, and None when they do not
    share alpha. phi is the (4, 1...) shift column, one value per solve
    column, the stack's (species, sequence) rows, written at each shift
    through its flat view phi_values.

    The work arrays: slots holds two (2, 2, *grid) stacks the solves
    alternate between, so the previous iterate's transform stays readable
    while the next right-hand side is assembled, each with its view as
    (4, *grid) columns, the (species, sequence) rows in C order, and its
    lower sequence's rows. base is a (2, 2, *grid) stack for the h^n term
    and term (4, *grid) columns for the shift term. audit is the chain
    audit's 22 rows of npoints each, flat, and audit_starts where each row
    starts. Its first eleven, measured, are new - old on the rows (w1, v1,
    w2, v2), written through new_minus_old as a (2, 2, *grid) stack; v - w
    on the same flat stack shifted by one row, through v_minus_w, whose
    rows are species 1's, w2 - v1 (not read) and species 2's; and the
    lower iterate's u1, u2, h1 and h2, through lower_u and lower_h, each a
    (2, *grid) stack. The last eleven, negated, are their negatives, so one
    reduction gives each row's largest value and its smallest, and with
    them the extremes of the state a converged iterate makes. The rows are
    reduced segment by segment (np.maximum.reduceat), which gives the same
    floats as a reduction along the rows' axis, in about half its time on
    33-point rows.

    extremes are the _Extremes of the state the last step returned, its
    smallest values read +0.0 where they are zero, for simulate's ladder.
    """

    def __init__(self, params, grid):
        self.params = params
        self.columns = d, alpha = _param_columns(params, grid)
        self.quasilinear = params.alpha1 != 0.0 or params.alpha2 != 0.0
        shape = grid.shape
        ones = (1,) * grid.dimension
        if not self.quasilinear:
            # 1/(d + 2 alpha u) at alpha = 0 is 1/d for every u the step sees
            self.sigma = _sigma(d, alpha, 0.0)
            self.sigma_cols = np.broadcast_to(self.sigma, (2, 2) + ones).reshape((4,) + ones)
        self.inverse = None
        if params.alpha1 == params.alpha2:
            self.inverse = (params.d1 if params.d1 == params.d2 else d, params.alpha1)
        self.phi = np.empty((4,) + ones)
        self.phi_values = self.phi.reshape(-1)
        work, audit = np.empty((4, 2, 2) + shape), np.empty((22, grid.npoints))
        solved, solved_cols = work[:2], work[:2].reshape((2, 4) + shape)
        self.slots = tuple((solved[i], solved_cols[i], solved[i][:, 1]) for i in (0, 1))
        self.base, self.term = work[3], work[2].reshape((4,) + shape)
        self.measured, self.negated = audit[:11], audit[11:]
        self.npoints = npoints = grid.npoints
        self.audit, self.audit_starts = audit.reshape(-1), np.arange(0, audit.size, npoints)
        self.new_minus_old = audit[:4].reshape((2, 2) + shape)
        self.v_minus_w = audit[4:7].reshape(-1)
        self.lower_u = audit[7:9].reshape((2,) + shape)
        self.lower_h = audit[9:11].reshape((2,) + shape)
        self.extremes = None


class _Bracket(NamedTuple):
    """A step's bracket in the stacked form step_monotone works in.

    u is the (species, sequence, *grid) stack of its densities, sequence 0
    the ceiling and 1 the floor; h and f are u's transform and paired
    reactions, which also start the inner iteration, and lap_h is the
    Laplacian of h. box is (floors, ceilings), each species' smallest floor
    and largest ceiling value as floats. kind is the TraceSummary's
    bracket: "window", "predicted", "tight" or "wide". columns are the
    (d, alpha) species columns of the run's params (_param_columns), built
    once per run. violations, when set, are the per-species discrete-bound
    violations, as floats, already measured for the one step the bracket is
    handed to. A bracket built by _field_bracket holds whole arrays, and
    one built by _auto_bracket (2, 2, 1...) stacks that broadcast over the
    grid; the module docstring gives which run uses which, and why the step
    checks no _Bracket for containment.
    """

    u: np.ndarray
    h: np.ndarray
    f: np.ndarray
    lap_h: np.ndarray | float
    box: tuple
    kind: str
    columns: tuple
    violations: list | None = None


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
    (_Bracket), which are not checked again (the module docstring gives
    why). `solver` is a _HelmholtzSolver on the state's grid to reuse
    across steps; a fresh one is built when it is None.

    The bracket's stacked densities, transform and paired reactions are
    iterate 0, and each later iterate is one linear solve of all four
    (species, sequence) columns; the module docstring gives the shift
    escalations. Raises OrderingViolationError when the bracket is not a
    discrete bound solution at dt, when its floor lies above its ceiling,
    or when the chain still breaks after the last escalation,
    ConvergenceError when the gap fails to close within max_inner_iters,
    and NumericalError when a linear solve fails or gives a value that is
    not finite.

    The returned IterationTrace holds the step's TraceSummary, built once
    here with t the new state's time and dt the step's, and its iterates.
    With trace=False, as simulate steps, the step keeps no iterates and
    returns the TraceSummary itself in the trace's place; the step is the
    same, float for float. Either way a step that returns leaves the new
    state's _Extremes on the solver's _StepContext, where simulate reads
    them.
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
    if infeasible[0] > chain_tol or infeasible[1] > chain_tol:
        i = 0 if infeasible[0] > chain_tol else 1
        worst = float(infeasible[i])
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
    run = solver.step_context(params)
    if gap0 == 0.0 and worst0 == 0.0:
        stack = (2, 2) + shape
        u0, h0 = np.broadcast_to(u0, stack), np.broadcast_to(bracket.h, stack)
        new_state = SystemState(state.t + dt, grid, u0[:, 1].copy(), h0[:, 1].copy())
        lo, hi = _Extremes.of(new_state)
        run.extremes = _Extremes([0.0 + x for x in lo], hi)
        summary = TraceSummary(
            new_state.t, dt, iterations=1, gap=0.0, worst_violation=0.0, phi1=0.0,
            phi2=0.0, retries=0, fallbacks=0, bracket=bracket.kind,
        )
        return new_state, IterationTrace(summary, ((u0, 0.0, 0.0),) * 2) if trace else summary

    # sigma is frozen at the previous iterate, except in a semilinear run
    # (both alpha = 0), where it is 1/d at every iterate: there the h^n term
    # is computed once per step, and the shift needs no lag
    quasilinear = run.quasilinear
    hdot = _hdot_scales(params, grid, state.u, state.h) if quasilinear else (0.0, 0.0)
    phi_base = (
        _phi_automatic(params, 1, v1, w1, v2, w2, hdot[0]),
        _phi_automatic(params, 2, v2, w2, v1, w1, hdot[1]),
    )

    d, alpha = run.columns
    gap_tol = cfg.inner_tol * (1.0 + scale)
    fallbacks = solver.fallbacks
    # the accepted state's compact rows, allocated ahead of the iteration's
    # temporaries: states kept in a list then fill the holes earlier steps'
    # temporaries left, where copies made at the end split the heap between
    # them (3 MB more peak RSS for 501 kept states of 513 points)
    kept_u, kept_h = np.empty((2,) + shape), np.empty((2,) + shape)
    slots, base, term, new_minus_old = run.slots, run.base, run.term, run.new_minus_old
    audit, audit_starts, v_minus_w = run.audit, run.audit_starts, run.v_minus_w
    lower_u, lower_h, phi, inverse = run.lower_u, run.lower_h, run.phi, run.inverse
    npoints = run.npoints
    if not quasilinear:
        sig_over_dt = run.sigma_cols / dt
        np.divide(np.multiply(run.sigma, h_n, out=base), dt, out=base)
    h_bracket = bracket.h.reshape((4,) + bracket.h.shape[2:])
    for retry in range(_MAX_PHI_RETRIES + 1):
        boost = _PHI_RETRY_FACTOR**retry
        phis = (phi_base[0] * boost, phi_base[1] * boost)
        run.phi_values[:] = (phis[0], phis[0], phis[1], phis[1])
        u, f, h = u0, bracket.f, h_bracket
        iterates = [(u0, gap0, worst0)] if trace else None
        worst_all = worst0
        for k in range(1, cfg.max_inner_iters + 1):
            if k > 1:
                f = _paired_reactions(params, u)
            if quasilinear:
                sig = _sigma(d, alpha, u)
                np.divide(np.multiply(sig, h_n, out=base), dt, out=base)
                sig_over_dt = (sig / dt).reshape((4,) + sig.shape[2:])
            rhs, rhs_cols, rhs_lower = slots[k % 2]
            np.add(base, f, out=rhs)
            rhs_cols += np.multiply(phi, h, out=term)
            # in place: rhs becomes the new transformed stack, whose
            # finiteness the audit below checks
            solver.solve(sig_over_dt, phi, rhs_cols, h)
            new_u = _inverse_stack(params, inverse, rhs)

            # the lower must not drop nor the upper rise, then the lower must
            # stay under the upper, whose excess is the gap; the lower
            # iterate's rows give the extremes of the state it would make. A
            # row's smallest value is minus its negative's largest, up to a
            # zero's sign, and 0.0 + x or 0.0 - x gives a zero +0.0
            flat = new_u.reshape(-1)
            np.subtract(new_u, u, out=new_minus_old)
            np.subtract(flat[npoints:], flat[:-npoints], out=v_minus_w)
            np.copyto(lower_u, new_u[:, 1])
            np.copyto(lower_h, rhs_lower)
            np.negative(run.measured, out=run.negated)
            top = np.maximum.reduceat(audit, audit_starts).tolist()
            # a non-finite transform has a non-finite density, which every
            # row's extremes carry: nan into both, an infinity into one
            if not math.isfinite(sum(top)):
                raise NumericalError("linear solve produced non-finite values")
            (w1_rise, _, w2_rise, _, v1_over, _, v2_over, u1_max, u2_max, h1_max, h2_max,
             _, v1_fall, _, v2_fall, gap1, _, gap2, u1_neg, u2_neg, h1_neg, h2_neg) = top
            gap = 0.0 + (gap1 if gap1 > gap2 else gap2)
            fall = 0.0 + (v1_fall if v1_fall > v2_fall else v2_fall)
            worst = max(w1_rise, w2_rise, fall, v1_over, v2_over)

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
                np.copyto(kept_u, lower_u)
                np.copyto(kept_h, lower_h)
                run.extremes = _Extremes(
                    [0.0 - u1_neg, 0.0 - u2_neg, 0.0 - h1_neg, 0.0 - h2_neg],
                    [u1_max, u2_max, h1_max, h2_max],
                )
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
    _param_columns, whose shape the stacks take. An automatic run builds
    its predicted, tight and wide brackets here, on Python floats, as the
    module docstring gives.
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
    h_w1, h_v1 = (d1 + a1 * w1) * w1, (d1 + a1 * v1) * v1
    h_w2, h_v2 = (d2 + a2 * w2) * w2, (d2 + a2 * v2) * v2
    top1 = f1_up - 1.0 / (d1 + 2.0 * a1 * w1) * (h_w1 - hi[2]) / dt
    bottom1 = (f1_lo - 1.0 / (d1 + 2.0 * a1 * v1) * (h_v1 - lo[2]) / dt) * -1.0
    top2 = f2_up - 1.0 / (d2 + 2.0 * a2 * w2) * (h_w2 - hi[3]) / dt
    bottom2 = (f2_lo - 1.0 / (d2 + 2.0 * a2 * v2) * (h_v2 - lo[3]) / dt) * -1.0
    violations = [bottom1 if bottom1 > top1 else top1, bottom2 if bottom2 > top2 else top2]
    if not _auto_bracket_feasible(violations, ceilings):
        return None
    # the u, h and f stacks, each in (species, sequence) C order
    u, h, f = np.array(
        (w1, v1, w2, v2, h_w1, h_v1, h_w2, h_v2, f1_up, f1_lo, f2_up, f2_lo)
    ).reshape((3, 2, 2) + columns[0].shape[2:])
    # a constant stack's Laplacian is exactly zero
    return _Bracket(u, h, f, 0.0, (floors, ceilings), kind, columns, violations)


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
    """The polynomial in t through the (times, values) nodes' arrays,
    evaluated at t, and written into `out` when it is given; the nodes are
    left unchanged. Each value is ((x0 w0 + w1 x1) + w2 x2) with the
    _lagrange weights w, the order _AutomaticLadder keeps on floats, so an
    array and its floats give the same floats.
    """
    w = _lagrange(times, t)
    out = np.multiply(values[0], w[0], out=out)
    out += w[1] * values[1]
    if len(values) == 3:
        out += w[2] * values[2]
    return out


class _Extremes(NamedTuple):
    """The smallest and largest value of each row of a (k, npoints) array,
    as two lists of floats, from one reduction each way.

    The rows are a state's u1, u2, h1 and h2: from a state alone (of), or
    from the chain audit of the step that made it (_StepContext.extremes),
    which reads a zero smallest value as +0.0. Each float is what a
    reduction of its row alone gives.
    """

    lo: list
    hi: list

    @classmethod
    def reduce(cls, rows):
        return cls(np.minimum.reduce(rows, axis=1).tolist(),
                   np.maximum.reduce(rows, axis=1).tolist())

    @classmethod
    def of(cls, state):
        return cls.reduce(np.concatenate((state.u, state.h)).reshape(4, -1))

    def sup_norms(self) -> tuple:
        """SystemState.sup_norms: max |u_i| is max(max u_i, -min u_i) exactly,
        and abs() makes a zero norm +0.0."""
        lo, hi = self
        return abs(max(hi[0], -lo[0])), abs(max(hi[1], -lo[1]))


class _Ladder:
    """One simulate run's predictor and candidate brackets, picked once per
    run: _WindowLadder with a caller's window, _AutomaticLadder without
    one. The module docstring gives each kind's predictor and candidate
    order.

    Each kind's bracket(state, dt, norms, growth) returns the attempt's
    first admitted _Bracket for a step of dt from state, predicting the
    state at state.t + dt from the second step on; norms are the state's
    sup norms and growth the last accepted step's relative changes of them.
    An automatic run raises ConvergenceError when no bracket passes, and a
    window run ends at the window, which the step measures. measure(state,
    extremes) returns a stepped state's sup norms, from the _Extremes its
    step handed over, and keeps its miss of the prediction and its node;
    advance(dt) makes the state measured last, which simulate accepted
    after a step of dt, the newest node. half_widths(norms) gives each
    species' e_i around the prediction.
    """

    def __init__(self, params, grid, state):
        self.params, self.grid, self.columns = params, grid, _param_columns(params, grid)
        # the last three accepted states' times as offsets from the newest,
        # the miss of the last accepted prediction, and the miss of the
        # state measured last
        self.times, self.misses, self.miss = [0.0], None, None

    def half_widths(self, norms):
        # `b if b > a else a` is max(a, b), float for float, without the call
        n1, n2 = norms
        n1 = n2 if n2 > n1 else n1
        round_off = _PREDICT_FLOOR * (n1 if n1 > 1.0 else 1.0)
        return (
            _PREDICT_FACTOR * self.misses[0] + round_off,
            _PREDICT_FACTOR * self.misses[1] + round_off,
        )

    def advance(self, dt):
        # offsets from the newest node, at 0, summed from the accepted
        # steps' own dt: t itself is rounded to its ulp, which the rate of a
        # fast state turns into a miss far above the step's change
        self.misses = self.miss
        times = self.times
        self.times = [times[-2] - dt, -dt, 0.0] if len(times) > 1 else [-dt, 0.0]
        self.values = self.values[-2:] + [self.node]


class _WindowLadder(_Ladder):
    """A run in a caller's window: u-stack nodes, and candidates the
    predicted bracket, a field stack clipped into the window, then the
    window."""

    def __init__(self, params, grid, state, pair):
        super().__init__(params, grid, state)
        # checked once to contain the state, and stacked once, with its
        # transform and reactions, for every step
        self.window = window = _window_bracket(params, state, pair, self.columns)
        self.top, self.floor = window.u[:, 0], np.maximum(window.u[:, 1], 0.0)
        self.prediction, self.values = np.empty((2,) + grid.shape), [state.u]

    def bracket(self, state, dt, norms, growth):
        if len(self.times) > 1:
            _extrapolate(self.times, self.values, dt, self.prediction)
        if self.misses is not None:
            # clipped into the window, so every state stays inside it
            clipped = np.minimum(np.maximum(self.prediction, self.floor), self.top)
            e = np.reshape(self.half_widths(norms), (2,) + (1,) * self.grid.dimension)
            u = np.empty((2, 2) + self.grid.shape)
            np.minimum(clipped + e, self.top, out=u[:, 0])
            np.maximum(clipped - e, self.floor, out=u[:, 1])
            predicted = _field_bracket(self.params, self.grid, u, "predicted", self.columns)
            violations = _violations(
                self.params, self.grid, dt, state.h[:, None], predicted
            ).tolist()
            if _auto_bracket_feasible(violations, predicted.box[1]):
                return predicted._replace(violations=violations)
        # measured by the step, which raises what a caller's pair raises
        return self.window

    def measure(self, state, extremes):
        if len(self.times) > 1:
            self.miss = np.abs(state.u - self.prediction).reshape(2, -1).max(axis=1).tolist()
        self.node = state.u
        return extremes.sup_norms()


class _AutomaticLadder(_Ladder):
    """A run without a window: float nodes, the extremes (min u1, min u2,
    max u1, max u2), and candidates constant per species from
    _auto_bracket, the predicted bracket, then tight, then wide."""

    def __init__(self, params, grid, state, trigger):
        super().__init__(params, grid, state)
        self.trigger = trigger
        self.extremes = lo, hi = _Extremes.of(state)
        self.values = [lo[:2] + hi[:2]]

    def bracket(self, state, dt, norms, growth):
        if len(self.times) > 1:
            # _extrapolate's sums, on floats
            w = _lagrange(self.times, dt)
            if len(w) == 2:
                self.prediction = [x0 * w[0] + w[1] * x1 for x0, x1 in zip(*self.values)]
            else:
                self.prediction = [
                    x0 * w[0] + w[1] * x1 + w[2] * x2 for x0, x1, x2 in zip(*self.values)
                ]
        lo, hi = extremes = self.extremes
        if self.misses is not None:
            e1, e2 = self.half_widths(norms)
            p_lo1, p_lo2, p_hi1, p_hi2 = self.prediction
            f1, f2 = p_lo1 - e1, p_lo2 - e2
            bracket = _auto_bracket(
                self.params, self.columns, extremes, dt,
                [0.0 if 0.0 > f1 else f1, 0.0 if 0.0 > f2 else f2], [p_hi1 + e1, p_hi2 + e2],
                "predicted",
            )
            if bracket is not None:
                return bracket
        kappa = max(3.0 * self.trigger, 2.0 * max(abs(growth[0]), abs(growth[1])))
        if kappa < 1.0:
            bracket = _auto_bracket(
                self.params, self.columns, extremes, dt,
                [(1.0 - kappa) * lo[0], (1.0 - kappa) * lo[1]],
                [(1.0 + kappa) * hi[0], (1.0 + kappa) * hi[1]], "tight",
            )
            if bracket is not None:
                return bracket
        # the literal +0.0 floor: (1 - kappa) * -0.0 would be -0.0
        bracket = _auto_bracket(
            self.params, self.columns, extremes, dt, [0.0, 0.0], [2.0 * hi[0], 2.0 * hi[1]],
            "wide",
        )
        if bracket is None:
            raise ConvergenceError(
                f"no feasible step ceiling at the minimum dt ({dt:.3e}); "
                f"state max {max(norms):.3e}"
            )
        return bracket

    def measure(self, state, extremes):
        self.measured = lo, hi = extremes
        if len(self.times) > 1:
            p = self.prediction
            self.miss = (
                max(abs(lo[0] - p[0]), abs(hi[0] - p[2])),
                max(abs(lo[1] - p[1]), abs(hi[1] - p[3])),
            )
        self.node = lo[:2] + hi[:2]
        return extremes.sup_norms()

    def advance(self, dt):
        super().advance(dt)
        self.extremes = self.measured


def simulate(
    params, grid, eig, u0, cfg: SolverConfig, t_end: float, bracket=None, snapshots=None
):
    """March step_monotone from u0 to t_end, or to overflow, or to failure.

    The module docstring gives the brackets each attempt tries, the
    predictor and the step-size controller. With `bracket`, a certified
    (lower, upper) pair, the run stays inside that window, which must
    contain u0, or OrderingViolationError is raised before the first step;
    without it the run's brackets are constant per species. Initial data
    that _check_initial refuses, or whose transform overflows, raise
    ValueError before any step. A failed run ends with termination
    "failed" and its error kept, and a dt under round-off in t with
    "dt_floor"; neither raises, so partial output survives. Each accepted
    step's TraceSummary is packed into `summaries`, which reads it back
    bit for bit.

    `snapshots` is the sink of the kept states: any object with `append`,
    which receives the initial state, every snapshot_every-th accepted one
    and the last, never one past overflow_cap, and becomes the result's
    `snapshots`. It defaults to a new list; `sktlab simulate` passes a
    spool that keeps them on disk (_spool).

    `eig` is not used; the argument stays because callers pass the
    arguments by position.
    """
    if not (t_end > 0.0 and np.isfinite(t_end)):
        raise ValueError(f"t_end must be positive, got {t_end}")
    _check_initial(u0, grid)
    state = SystemState.from_u_arrays(params, u0[0].grid, 0.0, u0[0].values, u0[1].values)
    growth = (0.0, 0.0)
    snapshots = [] if snapshots is None else snapshots
    snapshots.append(state)
    digests = bytearray()
    # ceiling is the largest dt the controller may pick: cfg.dt, lowered
    # to the halved dt by each rejection that is not for growth
    dt, grow, ceiling = cfg.dt, 2.0, cfg.dt
    halvings = accepted = 0
    termination = "completed"
    overflow_time = error = None
    # on the states' own grid, which every step then finds by identity, and
    # with the step context every step of the run shares
    solver = _HelmholtzSolver(state.grid)
    run = solver.step_context(params)
    if bracket is None:
        ladder = _AutomaticLadder(params, grid, state, cfg.growth_trigger)
    else:
        ladder = _WindowLadder(params, grid, state, bracket)
    norms = state.sup_norms()

    t_guard = 1e-12 * t_end
    while state.t < t_end - t_guard:
        if dt < _DT_FLOOR * (state.t if state.t > 1.0 else 1.0):
            termination = "dt_floor"
            break
        dt_step = t_end - state.t
        if dt <= dt_step:
            dt_step = dt

        # one attempt: the step, or the reason to redo it at half the dt. No
        # local keeps the bracket, whose arrays go with the step's frame
        try:
            new_state, summary = step_monotone(
                state, cfg, params, ladder.bracket(state, dt_step, norms, growth), solver,
                dt_step, False,
            )
        except (ConvergenceError, OrderingViolationError, NumericalError) as exc:
            rejection = exc
        else:
            # a returned state is finite: its step's chain audit checked it
            m1, m2 = ladder.measure(new_state, run.extremes)
            if m1 > cfg.overflow_cap or m2 > cfg.overflow_cap:
                termination = "overflowed"
                overflow_time = new_state.t
                break
            # each species' relative sup-norm change, and the larger rise
            p1, p2 = norms
            r1 = (m1 - p1) / p1 if p1 > 0.0 else 0.0
            r2 = (m2 - p2) / p2 if p2 > 0.0 else 0.0
            rise = r2 if r2 > r1 else r1
            rejection = (
                "growth" if rise > cfg.growth_trigger and halvings < cfg.max_halvings else None
            )

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
            factor = 0.9 * cfg.growth_trigger / rise if rise > 0.0 else 2.0
            dt *= factor if factor < grow else grow
            if dt > ceiling:
                dt = ceiling
        grow = 2.0
        growth = r1, r2
        state, norms = new_state, (m1, m2)
        ladder.advance(dt_step)
        accepted += 1
        _digests.pack(digests, summary)
        if accepted % cfg.snapshot_every == 0:
            snapshots.append(state)

    # the last state, unless it was kept as a snapshot or no step was taken
    if accepted % cfg.snapshot_every:
        snapshots.append(state)

    return SimulationResult(
        snapshots=snapshots,
        summaries=_digests.StepDigests(digests, TraceSummary),
        termination=termination,
        # the state past the cap, or the last accepted one
        final_state=new_state if termination == "overflowed" else state,
        overflow_time=overflow_time,
        error=error,
        halvings_used=halvings,
        final_dt=dt,
    )

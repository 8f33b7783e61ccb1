"""Uniform interval/rectangle grids, the zero-flux Laplacian, and its low modes.

Grids are vertex-centered: n points per axis including both endpoints, spacing
L/(n-1). The discrete Laplacian uses second-order central differences with
mirror ghost points enforcing the zero-flux (homogeneous Neumann) boundary
condition, so constants lie in its kernel and every row sums to zero. The
trapezoidal quadrature pairs with it: the operator is self-adjoint in the
weighted inner product and discretely flux-free, sum_w(lap f) = 0.

The 1D stencil is built once, by _neumann_bands, in the banded layout that
both the sparse matrix and the banded solver read.

principal_eigenpair exposes the two smallest modes of -lap: the principal
eigenvalue 0 with constant eigenfunction, and the first positive eigenvalue
(analytic target (pi/L)^2 on an interval) in closed form, since cosines
diagonalise the folded stencil on each axis.

Grids and fields are immutable after construction; all operations allocate
fresh outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True, eq=False)
class Grid:
    """Vertex-centered uniform grid on [0, lx] (1D) or [0, lx] x [0, ly] (2D)."""

    dimension: int
    lx: float
    nx: int
    ly: float | None = None
    ny: int | None = None

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        object.__setattr__(self, "lx", float(self.lx))
        object.__setattr__(self, "nx", int(self.nx))
        if not (np.isfinite(self.lx) and self.lx > 0.0):
            raise ValueError(f"lx must be positive, got {self.lx}")
        if self.nx < 3:
            raise ValueError(f"nx must be >= 3, got {self.nx}")
        if self.dimension == 1:
            if self.ly is not None or self.ny is not None:
                raise ValueError("ly/ny are meaningless on a 1D grid")
        else:
            if self.ly is None or self.ny is None:
                raise ValueError("2D grid requires ly and ny")
            object.__setattr__(self, "ly", float(self.ly))
            object.__setattr__(self, "ny", int(self.ny))
            if not (np.isfinite(self.ly) and self.ly > 0.0):
                raise ValueError(f"ly must be positive, got {self.ly}")
            if self.ny < 3:
                raise ValueError(f"ny must be >= 3, got {self.ny}")

    @classmethod
    def interval(cls, lx: float, nx: int) -> "Grid":
        return cls(dimension=1, lx=lx, nx=nx)

    @classmethod
    def rectangle(cls, lx: float, ly: float, nx: int, ny: int) -> "Grid":
        return cls(dimension=2, lx=lx, nx=nx, ly=ly, ny=ny)

    @property
    def hx(self) -> float:
        return self.lx / (self.nx - 1)

    @property
    def hy(self) -> float:
        if self.dimension == 1:
            raise AttributeError("hy undefined on a 1D grid")
        return self.ly / (self.ny - 1)

    @property
    def shape(self) -> tuple:
        return (self.nx,) if self.dimension == 1 else (self.nx, self.ny)

    @property
    def npoints(self) -> int:
        return self.nx if self.dimension == 1 else self.nx * self.ny

    @property
    def measure(self) -> float:
        """|Omega|, exact."""
        return self.lx if self.dimension == 1 else self.lx * self.ly

    @cached_property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, self.lx, self.nx)

    @cached_property
    def ys(self) -> np.ndarray:
        if self.dimension == 1:
            raise AttributeError("ys undefined on a 1D grid")
        return np.linspace(0.0, self.ly, self.ny)

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights, shaped like fields on this grid."""
        wx = np.full(self.nx, self.hx)
        wx[0] = wx[-1] = 0.5 * self.hx
        if self.dimension == 1:
            return wx
        wy = np.full(self.ny, self.hy)
        wy[0] = wy[-1] = 0.5 * self.hy
        return np.outer(wx, wy)

    @cached_property
    def neg_laplacian_matrix(self) -> sp.csc_matrix:
        """-lap as a sparse matrix acting on C-order raveled field values.

        Positive semidefinite in the quadrature inner product; the constant
        vector spans its kernel.
        """
        mx = _neg_lap_1d(self.nx, self.hx)
        if self.dimension == 1:
            return mx.tocsc()
        my = _neg_lap_1d(self.ny, self.hy)
        ix = sp.identity(self.nx, format="csr")
        iy = sp.identity(self.ny, format="csr")
        return (sp.kron(mx, iy) + sp.kron(ix, my)).tocsc()

    def compatible(self, other: "Grid") -> bool:
        if self is other:
            return True
        return (
            self.dimension == other.dimension
            and self.lx == other.lx
            and self.nx == other.nx
            and self.ly == other.ly
            and self.ny == other.ny
        )


def _neumann_bands(n: int, h: float) -> np.ndarray:
    """1D zero-flux -d2/dx2 on n points as (upper, main, lower) bands.

    Column j holds A[j-1, j], A[j, j], A[j+1, j]: the layout of LAPACK banded
    solvers and of scipy's dia_matrix with offsets (1, 0, -1). The two corner
    slots outside the matrix are zero.
    """
    inv_h2 = 1.0 / (h * h)
    ab = np.full((3, n), -inv_h2)
    ab[1] = 2.0 * inv_h2
    ab[0, 0] = ab[2, -1] = 0.0
    # mirror ghosts fold the one-sided neighbor back with doubled coupling
    ab[0, 1] = ab[2, -2] = -2.0 * inv_h2
    return ab


def _neg_lap_1d(n: int, h: float) -> sp.dia_matrix:
    return sp.dia_matrix((_neumann_bands(n, h), (1, 0, -1)), shape=(n, n))


def _lap_axis(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    inv_h2 = 1.0 / (h * h)
    out[1:-1] = (a[:-2] - 2.0 * a[1:-1] + a[2:]) * inv_h2
    out[0] = 2.0 * (a[1] - a[0]) * inv_h2
    out[-1] = 2.0 * (a[-2] - a[-1]) * inv_h2
    return np.moveaxis(out, 0, axis)


def _lap_array(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Discrete zero-flux Laplacian of raw values; solver hot path."""
    out = _lap_axis(a, grid.hx, 0)
    if grid.dimension == 2:
        out += _lap_axis(a, grid.hy, 1)
    return out


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per grid point; finite everywhere unless overflowed."""

    grid: Grid
    values: np.ndarray
    overflowed: bool = False

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not self.overflowed and not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite unless flagged overflowed")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Sample fn(x) (1D) or fn(x, y) (2D) at the grid points."""
        if grid.dimension == 1:
            vals = np.asarray(fn(grid.xs), dtype=float)
        else:
            xx, yy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
            vals = np.asarray(fn(xx, yy), dtype=float)
        return cls(grid, np.broadcast_to(vals, grid.shape))

    def write_csv(self, path) -> None:
        """Dump point coordinates and values, one grid point per row."""
        g = self.grid
        # repr(float(v)) gives the shortest exact decimal; numpy scalars
        # must be unwrapped first or their repr carries the type name
        with open(path, "w", newline="") as fh:
            if g.dimension == 1:
                fh.write("x,value\n")
                for x, v in zip(g.xs, self.values):
                    fh.write(f"{float(x)!r},{float(v)!r}\n")
            else:
                fh.write("x,y,value\n")
                for i, x in enumerate(g.xs):
                    for j, y in enumerate(g.ys):
                        fh.write(f"{float(x)!r},{float(y)!r},{float(self.values[i, j])!r}\n")


def _require_same_grid(grid: Grid, *fields: ScalarField) -> None:
    for f in fields:
        if not grid.compatible(f.grid):
            raise ValueError("field does not live on the given grid")


def neumann_laplacian(grid: Grid, field: ScalarField) -> ScalarField:
    """Apply the discrete zero-flux Laplacian to a field."""
    _require_same_grid(grid, field)
    return ScalarField(grid, _lap_array(grid, field.values))


def weighted_integral(grid: Grid, weight: ScalarField, field: ScalarField) -> float:
    """Trapezoidal quadrature of weight*field over the domain."""
    _require_same_grid(grid, weight, field)
    return float(np.sum(grid.weights * weight.values * field.values))


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue of -lap with its max-normalized eigenfunction."""

    lambda0: float
    phi0: ScalarField
    mode: str


def principal_eigenpair(grid: Grid, mode: str) -> EigenPair:
    """Lowest modes of the zero-flux -lap on the grid.

    mode "principal" is the exact kernel pair (0, constant 1). mode
    "first_positive" is the smallest positive eigenvalue, in closed form:
    along an axis with n points and spacing h, cos(pi*j/(n-1)) is an exact
    eigenvector of the folded stencil with eigenvalue
    (2 - 2cos(pi/(n-1)))/h^2, and -lap separates by axis. lambda0 is the
    smaller axis value and phi0 that axis's cosine; when both axes give
    exactly the same value the eigenspace is two-dimensional and phi0 is
    (cos x + cos y)/2. phi0 peaks at +1 at the origin.
    """
    if mode == "principal":
        return EigenPair(0.0, ScalarField.constant(grid, 1.0), mode)
    if mode != "first_positive":
        raise ValueError(f"unknown eigen mode {mode!r}")

    axes = [(grid.nx, grid.hx)]
    if grid.dimension == 2:
        axes.append((grid.ny, grid.hy))
    # 4 sin^2(t/2) is the cancellation-free form of 2 - 2cos(t)
    lams = [4.0 * math.sin(0.5 * math.pi / (n - 1)) ** 2 / (h * h) for n, h in axes]
    lam = min(lams)
    modes = [np.cos(np.pi * np.arange(n) / (n - 1)) for n, _ in axes]
    if grid.dimension == 2:
        modes = [modes[0][:, None], modes[1][None, :]]
    picked = [m for m, lam_axis in zip(modes, lams) if lam_axis == lam]
    phi = np.broadcast_to(sum(picked) / len(picked), grid.shape)
    return EigenPair(lam, ScalarField(grid, phi), mode)

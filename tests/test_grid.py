"""Grids, quadrature, the zero-flux Laplacian, and its lowest eigenpairs."""

import numpy as np
import pytest

from sktlab.grid import (
    Grid,
    ScalarField,
    neumann_laplacian,
    principal_eigenpair,
    weighted_integral,
)


@pytest.fixture
def line():
    return Grid.interval(np.pi, 65)


@pytest.fixture
def rect():
    return Grid.rectangle(np.pi, 2.0, 17, 9)


class TestGrid:
    def test_spacing_and_shape(self, line, rect):
        assert line.hx == pytest.approx(np.pi / 64)
        assert line.shape == (65,)
        assert rect.shape == (17, 9)
        assert rect.hy == pytest.approx(2.0 / 8)
        assert rect.npoints == 17 * 9

    def test_vertex_centered_endpoints(self, line):
        assert line.xs[0] == 0.0
        assert line.xs[-1] == pytest.approx(np.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid.interval(np.pi, 2)
        with pytest.raises(ValueError):
            Grid.interval(-1.0, 9)
        with pytest.raises(ValueError):
            Grid(dimension=1, lx=1.0, nx=9, ly=1.0)
        with pytest.raises(ValueError):
            Grid(dimension=2, lx=1.0, nx=9)

    def test_weights_sum_to_measure(self, line, rect):
        assert float(line.weights.sum()) == pytest.approx(np.pi, rel=1e-14)
        assert float(rect.weights.sum()) == pytest.approx(2.0 * np.pi, rel=1e-14)

    def test_trapezoid_exact_for_linear(self, line):
        f = ScalarField(line, 2.0 * line.xs + 1.0)
        w = ScalarField.constant(line, 1.0)
        exact = np.pi**2 + np.pi
        assert weighted_integral(line, w, f) == pytest.approx(exact, rel=1e-14)

    def test_compatible(self, line):
        assert line.compatible(Grid.interval(np.pi, 65))
        assert not line.compatible(Grid.interval(np.pi, 33))


class TestLaplacian:
    def test_constant_in_kernel(self, line, rect):
        for g in (line, rect):
            f = ScalarField.constant(g, 3.7)
            lap = neumann_laplacian(g, f)
            assert np.allclose(lap.values, 0.0, atol=1e-13)

    def test_matrix_rows_sum_to_zero(self, line, rect):
        # zero row sums encode the mirror-ghost fold of the zero-flux edge
        for g in (line, rect):
            m = g.neg_laplacian_matrix
            assert np.allclose(np.asarray(m.sum(axis=1)).ravel(), 0.0, atol=1e-12)

    def test_matrix_matches_stencil_apply(self, line):
        rng = np.random.default_rng(3)
        f = ScalarField(line, rng.standard_normal(line.shape))
        via_matrix = -(line.neg_laplacian_matrix @ f.values)
        via_stencil = neumann_laplacian(line, f).values
        assert np.allclose(via_matrix, via_stencil, atol=1e-12)

    def test_matrix_matches_stencil_apply_2d(self, rect):
        rng = np.random.default_rng(4)
        f = ScalarField(rect, rng.standard_normal(rect.shape))
        via_matrix = -(rect.neg_laplacian_matrix @ f.values.ravel()).reshape(rect.shape)
        via_stencil = neumann_laplacian(rect, f).values
        assert np.allclose(via_matrix, via_stencil, atol=1e-12)

    def test_cosine_is_discrete_eigenvector(self, line):
        # cos(k*pi*j/(n-1)) is an exact eigenvector of the folded stencil
        # with eigenvalue (4/h^2) sin^2(k*pi / (2(n-1)))
        n = line.nx
        for k in (1, 2, 5):
            j = np.arange(n)
            v = np.cos(k * np.pi * j / (n - 1))
            lam = 4.0 / line.hx**2 * np.sin(k * np.pi / (2 * (n - 1))) ** 2
            resid = line.neg_laplacian_matrix @ v - lam * v
            assert np.abs(resid).max() < 1e-10 * max(1.0, lam)


class TestScalarField:
    def test_shape_checked(self, line):
        with pytest.raises(ValueError):
            ScalarField(line, np.zeros(7))

    def test_nonfinite_rejected_unless_flagged(self, line):
        vals = np.zeros(line.shape)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            ScalarField(line, vals)
        flagged = ScalarField(line, vals, overflowed=True)
        assert flagged.overflowed

    def test_values_are_copied(self, line):
        src = np.zeros(line.shape)
        f = ScalarField(line, src)
        src[0] = 99.0
        assert f.values[0] == 0.0

    def test_from_function_2d(self, rect):
        f = ScalarField.from_function(rect, lambda x, y: x + 10.0 * y)
        assert f.values[3, 2] == pytest.approx(rect.xs[3] + 10.0 * rect.ys[2])

    def test_csv_roundtrip_format(self, line, tmp_path):
        f = ScalarField.from_function(line, lambda x: np.sin(x))
        path = tmp_path / "field.csv"
        f.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 1 + line.nx
        x0, v0 = lines[1].split(",")
        assert float(x0) == 0.0 and float(v0) == 0.0
        # repr round-trips exactly
        x5, v5 = lines[6].split(",")
        assert float(v5) == f.values[5]


class TestEigenpair:
    def test_principal_mode_exact(self, line):
        eig = principal_eigenpair(line, "principal")
        assert eig.lambda0 == 0.0
        assert np.all(eig.phi0.values == 1.0)
        assert eig.mode == "principal"

    def test_first_positive_matches_discrete_formula(self):
        for n in (33, 65):
            line = Grid.interval(np.pi, n)
            eig = principal_eigenpair(line, "first_positive")
            lam_exact = 4.0 / line.hx**2 * np.sin(np.pi / (2 * (n - 1))) ** 2
            assert eig.lambda0 == pytest.approx(lam_exact, rel=1e-8)
            # eigenfunction is the k=1 cosine, +1 at the origin
            j = np.arange(n)
            ref = np.cos(np.pi * j / (n - 1))
            assert np.allclose(eig.phi0.values, ref, atol=1e-7)
            assert eig.phi0.values.max() == pytest.approx(1.0, abs=1e-12)

    def test_first_positive_2d_smaller_side_selected(self):
        # the smallest positive eigenvalue comes from the axis with the
        # smaller discrete k=1 value: the longer side (pi against 1), or on a
        # square the coarser axis
        for lx, ly, nx, ny in (
            (np.pi, 1.0, 33, 17), (np.pi, np.pi, 65, 33), (np.pi, np.pi, 33, 31)
        ):
            g = Grid.rectangle(lx, ly, nx, ny)
            eig = principal_eigenpair(g, "first_positive")
            lam_exact = min(
                4.0 / h**2 * np.sin(np.pi / (2 * (n - 1))) ** 2
                for n, h in ((g.nx, g.hx), (g.ny, g.hy))
            )
            assert eig.lambda0 == pytest.approx(lam_exact, rel=1e-7)

    def test_continuum_convergence_second_order(self):
        # discrete lambda -> (pi/L)^2 = 1 with O(h^2) error on L = pi
        errs = []
        for n in (33, 65, 129):
            eig = principal_eigenpair(Grid.interval(np.pi, n), "first_positive")
            errs.append(abs(eig.lambda0 - 1.0))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 > 1.8 and order2 > 1.8

    def test_unknown_mode_rejected(self, line):
        with pytest.raises(ValueError):
            principal_eigenpair(line, "second_positive")

    def test_orthogonal_to_constants_in_quadrature(self, line):
        eig = principal_eigenpair(line, "first_positive")
        mass = float((line.weights * eig.phi0.values).sum())
        assert abs(mass) < 1e-9

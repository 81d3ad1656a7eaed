"""Tests for bordered systems, sparse tools, GMRES, Jacobian checking."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConvergenceError
from repro.linalg import (
    BorderedSystem,
    DirectLinearSolver,
    GmresLinearSolver,
    block_diagonal_expand,
    finite_difference_jacobian,
    jacobian_error,
    kron_diffmat,
)
from repro.spectral import fourier_differentiation_matrix


class TestBorderedSystem:
    def test_solution_matches_dense(self, rng):
        n, k = 6, 2
        core = rng.normal(size=(n, n)) + 5 * np.eye(n)
        cols = rng.normal(size=(n, k))
        rows = rng.normal(size=(k, n))
        corner = rng.normal(size=(k, k)) + 3 * np.eye(k)
        system = BorderedSystem(sp.csr_matrix(core), cols, rows, corner)
        rhs = rng.normal(size=n + k)
        solution = system.solve(rhs)
        full = np.block([[core, cols], [rows, corner]])
        np.testing.assert_allclose(solution, np.linalg.solve(full, rhs), atol=1e-9)

    def test_single_border(self, rng):
        n = 4
        core = np.eye(n) * 2.0
        col = rng.normal(size=(n, 1))
        row = rng.normal(size=(1, n))
        system = BorderedSystem(core, col, row, [[1.0]])
        assert system.size == n + 1
        rhs = np.ones(n + 1)
        solution = system.solve(rhs)
        full = np.block([[core, col], [row, np.array([[1.0]])]])
        np.testing.assert_allclose(solution, np.linalg.solve(full, rhs), atol=1e-10)

    def test_rejects_wrong_rhs_length(self):
        system = BorderedSystem(np.eye(3), np.ones((3, 1)), np.ones((1, 3)), [[1.0]])
        with pytest.raises(ValueError, match="length"):
            system.solve(np.ones(3))

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            BorderedSystem(np.eye(3), np.ones((2, 1)), np.ones((1, 3)), [[1.0]])


class TestSparseTools:
    def test_block_diagonal_expand_structure(self):
        blocks = [np.full((2, 2), fill) for fill in (1.0, 2.0, 3.0)]
        result = block_diagonal_expand(blocks).toarray()
        assert result.shape == (6, 6)
        np.testing.assert_allclose(result[2:4, 2:4], 2.0)
        np.testing.assert_allclose(result[0:2, 2:4], 0.0)

    def test_block_diagonal_rejects_empty(self):
        with pytest.raises(ValueError):
            block_diagonal_expand([])

    def test_block_diagonal_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            block_diagonal_expand([np.eye(2), np.eye(3)])

    def test_kron_point_ordering_applies_diffmat_per_variable(self):
        num, n_vars = 5, 2
        diffmat = fourier_differentiation_matrix(num, 1.0)
        big = kron_diffmat(diffmat, n_vars, ordering="point")
        grid = np.arange(num) / num
        # Build point-major stacked [x0(t_j), x1(t_j)] with distinct signals.
        x0 = np.sin(2 * np.pi * grid)
        x1 = np.cos(2 * np.pi * grid)
        stacked = np.empty(num * n_vars)
        stacked[0::2] = x0
        stacked[1::2] = x1
        result = big @ stacked
        np.testing.assert_allclose(result[0::2], diffmat @ x0, atol=1e-10)
        np.testing.assert_allclose(result[1::2], diffmat @ x1, atol=1e-10)

    def test_kron_variable_ordering(self):
        num, n_vars = 5, 3
        diffmat = fourier_differentiation_matrix(num, 1.0)
        big = kron_diffmat(diffmat, n_vars, ordering="variable")
        assert big.shape == (num * n_vars, num * n_vars)
        x = np.random.default_rng(0).normal(size=num)
        stacked = np.concatenate([x, 2 * x, 3 * x])
        result = big @ stacked
        np.testing.assert_allclose(result[:num], diffmat @ x, atol=1e-10)

    def test_kron_rejects_unknown_ordering(self):
        with pytest.raises(ValueError, match="ordering"):
            kron_diffmat(np.eye(3), 2, ordering="bogus")

    def test_kron_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            kron_diffmat(np.ones((2, 3)), 2)


class TestLinearSolvers:
    def test_direct_solver_dense_and_sparse(self, rng):
        a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        rhs = rng.normal(size=5)
        solver = DirectLinearSolver()
        np.testing.assert_allclose(
            solver(a, rhs), np.linalg.solve(a, rhs), atol=1e-10
        )
        np.testing.assert_allclose(
            solver(sp.csr_matrix(a), rhs), np.linalg.solve(a, rhs), atol=1e-10
        )

    def test_gmres_matches_direct(self, rng):
        a = rng.normal(size=(30, 30)) + 10 * np.eye(30)
        rhs = rng.normal(size=30)
        gmres = GmresLinearSolver(rtol=1e-12)
        np.testing.assert_allclose(
            gmres(sp.csr_matrix(a), rhs), np.linalg.solve(a, rhs), atol=1e-6
        )

    def test_gmres_without_ilu(self, rng):
        a = rng.normal(size=(10, 10)) + 8 * np.eye(10)
        rhs = rng.normal(size=10)
        gmres = GmresLinearSolver(rtol=1e-12, preconditioner=None)
        np.testing.assert_allclose(
            gmres(sp.csr_matrix(a), rhs), np.linalg.solve(a, rhs), atol=1e-6
        )

    def test_gmres_raises_on_stagnation(self):
        # Extremely ill-conditioned without preconditioner and 1 iteration.
        a = sp.diags(np.geomspace(1e-12, 1.0, 40)).tocsr()
        gmres = GmresLinearSolver(
            rtol=1e-14, maxiter=1, restart=2, preconditioner=None
        )
        with pytest.raises(ConvergenceError):
            gmres(a, np.ones(40))


class TestJacobianCheck:
    def test_finite_difference_matches_analytic(self):
        def func(x):
            return np.array([x[0] ** 2 + x[1], np.sin(x[1])])

        x = np.array([1.2, 0.7])
        numeric = finite_difference_jacobian(func, x)
        analytic = np.array([[2 * 1.2, 1.0], [0.0, np.cos(0.7)]])
        assert jacobian_error(analytic, numeric) < 1e-6

    def test_jacobian_error_zero_for_equal(self):
        a = np.eye(3)
        assert jacobian_error(a, a.copy()) == 0.0

    def test_jacobian_error_accepts_sparse(self):
        a = np.eye(3)
        assert jacobian_error(sp.csr_matrix(a), a) == 0.0

    def test_jacobian_error_shape_mismatch(self):
        with pytest.raises(ValueError):
            jacobian_error(np.eye(2), np.eye(3))

    @given(st.integers(min_value=1, max_value=5))
    def test_linear_function_exact(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        numeric = finite_difference_jacobian(lambda x: a @ x, np.zeros(n))
        assert jacobian_error(a, numeric) < 1e-7

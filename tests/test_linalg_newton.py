"""Tests for the Newton kernel."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConvergenceError, SingularJacobianError
from repro.linalg import NewtonOptions, newton_solve
from repro.linalg.lu_cache import BlockFactorization, ReusableLUSolver
from repro.linalg.newton import StaleJacobianNewton, update_is_small
from repro.transient.ensemble import _EnsembleChord


def quadratic_residual(x):
    return np.array([x[0] ** 2 - 4.0, x[1] - 1.0])


def quadratic_jacobian(x):
    return np.array([[2.0 * x[0], 0.0], [0.0, 1.0]])


class TestNewtonBasics:
    def test_converges_to_root(self):
        result = newton_solve(quadratic_residual, quadratic_jacobian, [3.0, 0.0])
        assert result.converged
        np.testing.assert_allclose(result.x, [2.0, 1.0], atol=1e-8)

    def test_quadratic_convergence_rate(self):
        result = newton_solve(quadratic_residual, quadratic_jacobian, [3.0, 0.0])
        history = result.residual_history
        # Quadratic convergence: few iterations from a good start.
        assert result.iterations <= 8
        assert history[-1] < 1e-9

    def test_accepts_exact_initial_guess(self):
        result = newton_solve(quadratic_residual, quadratic_jacobian, [2.0, 1.0])
        assert result.converged
        assert result.iterations == 0

    def test_linear_system_single_step(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        result = newton_solve(lambda x: a @ x - rhs, lambda x: a, [0.0, 0.0])
        np.testing.assert_allclose(result.x, np.linalg.solve(a, rhs), atol=1e-10)
        assert result.iterations <= 2

    def test_sparse_jacobian_supported(self):
        result = newton_solve(
            quadratic_residual,
            lambda x: sp.csr_matrix(quadratic_jacobian(x)),
            [3.0, 0.0],
        )
        assert result.converged

    def test_residual_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            newton_solve(lambda x: np.zeros(3), lambda x: np.eye(3), [1.0, 2.0])


class TestNewtonDamping:
    def test_line_search_rescues_overshoot(self):
        # atan has a tiny basin for full Newton; damping fixes it.
        result = newton_solve(
            lambda x: np.array([np.arctan(x[0])]),
            lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]),
            [3.0],
        )
        assert result.converged
        np.testing.assert_allclose(result.x, [0.0], atol=1e-8)

    def test_exhausted_line_search_reuses_smallest_trial(self):
        # A residual whose norm never decreases exhausts the line search;
        # the solver must keep the smallest trial it already evaluated
        # instead of spending another evaluation on a further-halved step.
        halvings = 3
        evaluations = []

        def residual(x):
            evaluations.append(float(x[0]))
            return np.array([2.0])  # constant norm: every trial rejected

        options = NewtonOptions(
            max_step_halvings=halvings, max_iterations=1,
            raise_on_failure=False,
        )
        result = newton_solve(residual, lambda x: np.array([[1.0]]), [0.0],
                              options=options)
        assert not result.converged
        # 1 initial evaluation + exactly (halvings + 1) trials, no extra.
        assert len(evaluations) == 1 + halvings + 1
        # dx = -2, so the trials are -2, -1, -0.5, -0.25; the accepted
        # iterate is the smallest step actually evaluated.
        assert evaluations[1:] == [-2.0, -1.0, -0.5, -0.25]
        np.testing.assert_allclose(result.x, [-0.25])

    def test_no_damping_diverges_on_atan(self):
        options = NewtonOptions(
            max_step_halvings=0, max_iterations=8, raise_on_failure=False
        )

        def jacobian(x):
            with np.errstate(over="ignore"):
                return np.array([[1.0 / (1.0 + min(x[0] ** 2, 1e300))]])

        # Without damping the iterates alternate with growing magnitude and
        # either stall (not converged) or blow the Jacobian up (singular).
        try:
            result = newton_solve(
                lambda x: np.array([np.arctan(x[0])]),
                jacobian,
                [3.0],
                options=options,
            )
        except SingularJacobianError:
            return
        assert not result.converged


class TestNewtonFailures:
    @staticmethod
    def _rootless():
        """exp(x) + 1 has no root and a never-singular Jacobian."""
        residual = lambda x: np.array([np.exp(x[0]) + 1.0])  # noqa: E731
        jacobian = lambda x: np.array([[np.exp(x[0])]])  # noqa: E731
        return residual, jacobian

    def test_raises_on_stall_by_default(self):
        residual, jacobian = self._rootless()
        with pytest.raises(ConvergenceError):
            newton_solve(
                residual, jacobian, [0.0],
                options=NewtonOptions(max_iterations=3, rtol=1e-14),
            )

    def test_reports_instead_when_configured(self):
        residual, jacobian = self._rootless()
        options = NewtonOptions(
            max_iterations=3, rtol=1e-14, raise_on_failure=False
        )
        result = newton_solve(residual, jacobian, [0.0], options=options)
        assert not result.converged
        assert result.iterations == 3

    def test_singular_jacobian_raises(self):
        with pytest.raises((SingularJacobianError, ConvergenceError)):
            newton_solve(
                lambda x: np.array([x[0] + 1.0]),
                lambda x: np.array([[0.0]]),
                [1.0],
                options=NewtonOptions(max_iterations=5),
            )

    def test_convergence_error_carries_diagnostics(self):
        residual, jacobian = self._rootless()
        try:
            newton_solve(
                residual, jacobian, [0.0],
                options=NewtonOptions(max_iterations=3, rtol=1e-14),
            )
        except ConvergenceError as exc:
            assert exc.iterations == 3
            assert exc.residual_norm is not None
        else:  # pragma: no cover
            pytest.fail("expected ConvergenceError")


class TestNewtonCustomLinearSolver:
    def test_custom_solver_is_used(self):
        calls = []

        def solver(jac, rhs):
            calls.append(1)
            return np.linalg.solve(np.asarray(jac), rhs)

        result = newton_solve(
            quadratic_residual, quadratic_jacobian, [3.0, 0.0],
            linear_solver=solver,
        )
        assert result.converged
        assert len(calls) >= 1


class TestUpdateIsSmall:
    """The one Newton update test (every driver and the C chord call it)."""

    def test_one_verdict_per_row(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [100.0, 0.0]])
        update = np.array([[1e-10, 1e-10], [1e-3, 0.0], [5e-8, 5e-10]])
        np.testing.assert_array_equal(
            update_is_small(update, x, 1e-9), [True, False, True]
        )
        verdict = update_is_small(update[1], x[1], 1e-9)
        assert np.ndim(verdict) == 0 and not verdict
        assert update_is_small(update[0], x[0], 1e-9)

    def test_scale_floors_at_one(self):
        """Today's contract, stated on purpose: an unknown far below unit
        scale is judged against 1, not against its own size."""
        x = np.array([3e-8])
        assert update_is_small(np.array([5e-10]), x, 1e-9)
        assert not update_is_small(np.array([2e-9]), x, 1e-9)
        # Above unit scale the test is relative.
        assert update_is_small(np.array([5e-9]), np.array([10.0]), 1e-9)
        assert not update_is_small(np.array([2e-8]), np.array([10.0]), 1e-9)


class TestNonFiniteJacobian:
    """A NaN Jacobian fails as a singular one on every Newton driver.

    The sizes cross each dense LAPACK threshold: ``FrozenFactorization``
    factorises with LU from 17 unknowns, ``ReusableLUSolver`` from 33 and
    ``BlockFactorization`` per block from 65.  Below them the inverse, the
    direct solve and the batched LU already failed as singular; above them
    scipy's finiteness check used to raise ``ValueError``, which skipped
    the recovery ladder and the march's failure context.
    """

    SIZES = (20, 40, 70)

    @staticmethod
    def residual(x):
        return x - 1.0

    @staticmethod
    def jacobian(x):
        return np.full((x.shape[-1],) * 2, np.nan)

    @pytest.mark.parametrize("n", SIZES)
    def test_newton_solve_default_solver(self, n):
        with pytest.raises(SingularJacobianError):
            newton_solve(self.residual, self.jacobian, np.zeros(n))

    @pytest.mark.parametrize("n", SIZES)
    def test_newton_solve_reusable_lu(self, n):
        with pytest.raises(SingularJacobianError):
            newton_solve(
                self.residual, self.jacobian, np.zeros(n),
                linear_solver=ReusableLUSolver(),
            )

    @pytest.mark.parametrize("n", SIZES)
    def test_chord_newton(self, n):
        chord = StaleJacobianNewton()
        with pytest.raises(SingularJacobianError):
            chord.solve(self.residual, self.jacobian, np.zeros(n))
        assert not chord._have

    @pytest.mark.parametrize("n", SIZES)
    def test_ensemble_chord(self, n):
        def stacked(states):
            return np.full((states.shape[0], n, n), np.nan)

        with pytest.raises(np.linalg.LinAlgError):
            BlockFactorization().factor(stacked(np.zeros((2, n))))
        chord = _EnsembleChord(NewtonOptions(), contraction=0.1)
        with pytest.raises(SingularJacobianError):
            chord.solve(self.residual, stacked, np.zeros((2, n)))

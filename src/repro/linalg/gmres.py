"""Iterative linear solvers for large collocation and transient systems.

The paper notes that "the use of iterative linear techniques [Saa96] enables
large systems to be handled efficiently".  :class:`GmresLinearSolver` is the
one restarted-GMRES call site, used two ways:

* **Matrix-free.**  Handed a :class:`scipy.sparse.linalg.LinearOperator`,
  it runs GMRES on the operator with the operator's own ``preconditioner``.
  Forced harmonic balance and the bi-periodic MPDE do this by default from
  :data:`repro.linalg.spectral.MATRIX_FREE_MIN_COUPLING` point-coupling
  nonzeros on: the Jacobian is an FFT product preconditioned by the
  Jacobian averaged along one grid axis (:mod:`repro.linalg.spectral`),
  nothing of size ``N²`` is assembled or factorised unless GMRES misses its
  budget, and each Newton step is solved inexactly: the route's
  :class:`~repro.linalg.spectral.SpectralNewtonSolver` sets :attr:`rtol`
  per step by Eisenstat–Walker forcing.
* **Assembled.**  Handed a matrix, it preconditions with a complete sparse
  LU, rebuilt per call or, for Newton sequences whose matrix drifts
  slowly, *frozen* across calls (``linear_solver="gmres"`` and the
  ``"gmres"`` recovery rung, which keep exact solves at the default
  ``rtol``).  Smaller collocation systems solve fastest by direct LU
  (:class:`repro.linalg.lu_cache.ReusableLUSolver`, the default).

:class:`GmresLinearSolver` implements the ``(matrix, rhs) -> solution``
callable protocol expected by :func:`repro.linalg.newton.newton_solve`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import ConvergenceError


class GmresLinearSolver:
    """Restarted GMRES with complete-LU preconditioning.

    A :class:`~scipy.sparse.linalg.LinearOperator` is solved matrix-free
    with its own ``preconditioner`` attribute (none if it has no such
    attribute); ``preconditioner`` and ``freeze`` below apply to assembled
    matrices.  ``stats["krylov_iterations"]`` counts GMRES inner
    iterations and ``stats["factorizations"]`` the LU preconditioners
    built.

    With ``freeze=True`` the complete sparse LU of the first matrix is kept
    across calls: on the matrix it was built from GMRES converges in one
    iteration (the preconditioned operator is the identity), and as the
    Newton sequence drifts the frozen factors stay an excellent
    preconditioner while the system is still solved *exactly* for the
    current matrix — full Newton accuracy at roughly one factorisation per
    many iterations.  Call :meth:`invalidate` when the matrix changes
    abruptly (the transient engine does so on step-size changes); a
    convergence failure automatically refreshes the frozen factors and
    retries once before raising.

    Parameters
    ----------
    rtol:
        Relative residual tolerance passed to scipy's GMRES: the true
        residual ``‖b - A x‖₂`` must fall to ``rtol ‖b‖₂``.
    restart:
        Krylov subspace size between restarts.
    maxiter:
        Maximum number of outer iterations.
    preconditioner:
        ``"lu"`` (default) or ``None`` (unpreconditioned).
    freeze:
        Keep the preconditioner factors across calls; the factors are
        rebuilt on shape change, on :meth:`invalidate`, or after a
        convergence failure.
    """

    def __init__(self, rtol=1e-10, restart=60, maxiter=200,
                 preconditioner="lu", freeze=False):
        self.rtol = float(rtol)
        self.restart = int(restart)
        self.maxiter = int(maxiter)
        if preconditioner not in (None, "lu"):
            raise ValueError(
                f"preconditioner must be None or 'lu', got {preconditioner!r}"
            )
        self.preconditioner = preconditioner
        self.freeze = bool(freeze)
        self._frozen_operator = None
        self._frozen_shape = None
        self.stats = {"factorizations": 0, "solves": 0, "refreshes": 0,
                      "krylov_iterations": 0}

    def invalidate(self):
        """Drop any frozen preconditioner factors."""
        self._frozen_operator = None
        self._frozen_shape = None

    def _build_preconditioner(self, matrix):
        if self.preconditioner is None:
            return None
        try:
            factors = spla.splu(matrix)
        except RuntimeError:
            # Structurally singular factorisation: fall back to
            # unpreconditioned GMRES rather than failing the whole Newton
            # iteration.
            return None
        self.stats["factorizations"] += 1
        return spla.LinearOperator(matrix.shape, matvec=factors.solve)

    def _get_preconditioner(self, matrix):
        if not self.freeze:
            return self._build_preconditioner(matrix)
        if (
            self._frozen_operator is None
            or self._frozen_shape != matrix.shape
        ):
            self._frozen_operator = self._build_preconditioner(matrix)
            self._frozen_shape = matrix.shape
        return self._frozen_operator

    def _gmres(self, matrix, rhs, preconditioner):
        stats = self.stats

        def count(_residual):
            stats["krylov_iterations"] += 1

        solution, info = spla.gmres(
            matrix,
            rhs,
            rtol=self.rtol,
            atol=0.0,
            restart=self.restart,
            maxiter=self.maxiter,
            M=preconditioner,
            callback=count,
            callback_type="pr_norm",
        )
        return solution, info

    def __call__(self, matrix, rhs):
        rhs = np.asarray(rhs, dtype=float).ravel()
        self.stats["solves"] += 1
        if isinstance(matrix, spla.LinearOperator):
            # Matrix-free: the operator brings its own preconditioner.
            solution, info = self._gmres(
                matrix, rhs, getattr(matrix, "preconditioner", None)
            )
        else:
            matrix = sp.csc_matrix(matrix)
            preconditioner = self._get_preconditioner(matrix)
            solution, info = self._gmres(matrix, rhs, preconditioner)
            if info != 0 and self.freeze and self.preconditioner is not None:
                # The frozen factors have drifted too far from the current
                # matrix: refresh them once and retry before giving up.
                self.invalidate()
                self.stats["refreshes"] += 1
                preconditioner = self._get_preconditioner(matrix)
                solution, info = self._gmres(matrix, rhs, preconditioner)
        if info != 0:
            raise ConvergenceError(
                f"GMRES failed with info={info} "
                f"(matrix size {matrix.shape[0]}, rtol {self.rtol:g})"
            )
        return solution

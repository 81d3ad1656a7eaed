"""Factorisation-reuse linear solver for fixed-pattern Newton systems.

The collocation engines hand :func:`repro.linalg.newton.newton_solve` a
Jacobian whose sparsity pattern never changes — only the numeric values do
(see :mod:`repro.linalg.collocation`).  The stock path
(``spsolve(csc_matrix(J), rhs)``) rebuilds a CSC matrix and runs a fresh
SuperLU factorisation on every iteration, and even when two consecutive
solves see the *same* matrix (predictor/corrector re-solves, memoised
Jacobians) nothing is reused.

:class:`ReusableLUSolver` implements the ``(matrix, rhs) -> x`` protocol of
``newton_solve``'s ``linear_solver`` hook and keeps, across calls:

* the CSR→CSC conversion (the structural permutation is computed once per
  pattern and replayed as a single fancy-index on the data array);
* the LU factorisation itself, reused whenever the matrix values are
  unchanged since the previous call (refactorising only on value changes);
* for dense matrices, the LAPACK LU factors under the same reuse rule.

One instance should live for the duration of one nonlinear solve — or a
whole envelope run, since the pattern is shared across steps.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class FrozenFactorization:
    """Factor once, solve many — the kernel behind stale-Jacobian Newton.

    Unlike :class:`ReusableLUSolver` (which re-checks the matrix values on
    every call), this object factorises only when :meth:`factor` is invoked
    and then answers :meth:`solve` from the stored factors with no
    comparisons at all — the caller (e.g.
    :class:`repro.linalg.newton.StaleJacobianNewton`) owns the staleness
    policy.  Three regimes:

    * sparse input — SuperLU factors (``splu``);
    * small dense (``n <= INVERSE_LIMIT``) — the explicit inverse, making
      each solve a single tiny mat-vec (LAPACK wrapper overhead dominates
      an actual triangular solve at these sizes, and chord-Newton tolerates
      the inverse's slightly larger rounding because convergence is judged
      on the residual, not the update);
    * larger dense — cached LAPACK LU factors.

    ``solve`` accepts 1-D or 2-D right-hand sides (the sensitivity sweep
    solves all ``n`` monodromy columns against one factorisation).
    """

    #: Largest dense size for which the explicit inverse is used.
    INVERSE_LIMIT = 16

    def __init__(self):
        self._mode = None
        self._inv = None
        self._lu = None
        self._splu = None

    @property
    def ready(self):
        """Whether :meth:`factor` has been called."""
        return self._mode is not None

    def factor(self, matrix):
        """Factorise ``matrix``; snapshots everything it needs.

        Failure is atomic: a singular/unfactorisable matrix leaves the
        object *unready* (previous factors dropped) rather than silently
        answering subsequent solves with the factors of an older, entirely
        different matrix.
        """
        try:
            if sp.issparse(matrix):
                csc = matrix if sp.isspmatrix_csc(matrix) else matrix.tocsc()
                splu = spla.splu(csc)
                self._inv = self._lu = None
                self._splu = splu
                self._mode = "sparse"
                return self
            a = np.asarray(matrix, dtype=float)
            if a.shape[0] <= self.INVERSE_LIMIT:
                inv = np.linalg.inv(a)
                self._lu = self._splu = None
                self._inv = inv
                self._mode = "inverse"
            else:
                lu = sla.lu_factor(a)
                self._inv = self._splu = None
                self._lu = lu
                self._mode = "lu"
            return self
        except Exception:
            self._mode = None
            self._inv = self._lu = self._splu = None
            raise

    def solve(self, rhs):
        """Solve against the stored factors; ``rhs`` may be 1-D or 2-D."""
        if self._mode == "inverse":
            return self._inv @ rhs
        if self._mode == "lu":
            return sla.lu_solve(self._lu, rhs, check_finite=False)
        if self._mode == "sparse":
            return self._splu.solve(np.asarray(rhs, dtype=float))
        raise RuntimeError("FrozenFactorization.solve called before factor")


def _batched_lu_factor(stack):
    """Vectorised Doolittle LU with partial pivoting over a ``(B, n, n)`` stack.

    The ``k``-loop runs over the ``n`` columns only and every operation
    inside it is a whole-batch array op, so the cost is ``O(n)`` NumPy
    dispatches instead of ``O(B)`` per-block LAPACK calls.  Returns
    ``(lu, perm)``: ``lu`` holds L (unit diagonal, below) and U (on and
    above) of every block, ``perm`` the ``(B, n)`` row permutation to
    apply to each right-hand side.

    Raises :class:`numpy.linalg.LinAlgError` if any block is singular or
    produces non-finite factors — the whole batch fails, as in the
    compiled kernel, and the ensemble chord turns that into a
    :class:`~repro.errors.SingularJacobianError` (dt halving).
    """
    a = np.array(stack)
    batch, n = a.shape[0], a.shape[1]
    bidx = np.arange(batch)
    perm = np.arange(n) * np.ones((batch, 1), dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            # Partial pivoting: per-block argmax over |column k|.
            p = np.argmax(np.abs(a[:, k:, k]), axis=1) + k
            rows_k = a[bidx, k]
            rows_p = a[bidx, p]
            a[bidx, k] = rows_p
            a[bidx, p] = rows_k
            perm_k = perm[bidx, k]
            perm[bidx, k] = perm[bidx, p]
            perm[bidx, p] = perm_k
            if k + 1 < n:
                pivot = a[:, k, k]
                a[:, k + 1:, k] = a[:, k + 1:, k] / pivot[:, None]
                a[:, k + 1:, k + 1:] = (
                    a[:, k + 1:, k + 1:]
                    - a[:, k + 1:, k:k + 1] * a[:, k:k + 1, k + 1:]
                )
    diag = a[bidx[:, None], np.arange(n)[None, :], np.arange(n)[None, :]]
    if not (np.all(np.isfinite(a)) and np.all(diag != 0.0)):
        raise np.linalg.LinAlgError(
            "singular (or non-finite) block in batched factorisation"
        )
    return a, perm


def _batched_lu_solve(lu, perm, rhs):
    """Solve every block of :func:`_batched_lu_factor` for ``(B, n)`` rows:
    a permutation gather, then forward and back substitution."""
    n = rhs.shape[1]
    bidx = np.arange(rhs.shape[0])
    x = rhs[bidx[:, None], perm]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, n):
            x[:, k] = x[:, k] - np.sum(lu[:, k, :k] * x[:, :k], axis=1)
        for k in range(n - 1, -1, -1):
            if k + 1 < n:
                x[:, k] = x[:, k] - np.sum(
                    lu[:, k, k + 1:] * x[:, k + 1:], axis=1
                )
            x[:, k] = x[:, k] / lu[:, k, k]
    return x


class BlockFactorization:
    """Factor ``B`` independent ``(n, n)`` blocks; solve all in one shot.

    The ensemble transient engine's per-scenario Newton matrices form a
    block-diagonal system that never couples scenarios, so the
    factorisation batches perfectly:

    * a ``(B, n, n)`` dense stack with ``n <= DENSE_LIMIT`` — one
      vectorised LU factorisation of the whole stack
      (:func:`_batched_lu_factor`): no materialised inverses, and every
      :meth:`solve` is a permutation gather plus batched substitution;
    * a larger dense stack — per-block LAPACK LU (the loop runs only on
      refactorisation, which the chord policy makes rare);
    * a sparse block-diagonal matrix (from
      :class:`repro.linalg.transient_assembler.TransientStepAssembler` in
      batch mode) — one SuperLU factorisation of the whole block
      diagonal.

    ``solve`` takes and returns ``(B, n)`` right-hand sides (row ``b`` is
    scenario ``b``'s system).
    """

    #: Largest per-block dense size handled by the batched factorisation --
    #: aligned with the compiled kernels' 64-unknown dense cap.
    DENSE_LIMIT = 64

    def __init__(self):
        self._mode = None
        self._lu = None
        self._perm = None
        self._lus = None
        self._splu = None
        self._shape = None

    @property
    def ready(self):
        """Whether :meth:`factor` has been called."""
        return self._mode is not None

    def factor(self, blocks):
        """Factorise a ``(B, n, n)`` stack or sparse block-diagonal matrix."""
        if sp.issparse(blocks):
            csc = blocks if sp.isspmatrix_csc(blocks) else blocks.tocsc()
            self._splu = spla.splu(csc)
            self._mode = "sparse"
            return self
        stack = np.asarray(blocks, dtype=float)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(
                f"blocks must be a (B, n, n) stack, got shape {stack.shape}"
            )
        self._shape = (stack.shape[0], stack.shape[1])
        if stack.shape[1] <= self.DENSE_LIMIT:
            self._lu, self._perm = _batched_lu_factor(stack)
            self._mode = "batched"
        else:
            self._lus = [sla.lu_factor(block) for block in stack]
            self._mode = "lu"
        return self

    def solve(self, rhs):
        """Solve every scenario's system; ``rhs`` and the result are ``(B, n)``."""
        if self._mode == "batched":
            return _batched_lu_solve(
                self._lu, self._perm, np.asarray(rhs, dtype=float)
            )
        if self._mode == "lu":
            rhs = np.asarray(rhs, dtype=float)
            out = np.empty(self._shape)
            for b, lu in enumerate(self._lus):
                out[b] = sla.lu_solve(lu, rhs[b], check_finite=False)
            return out
        if self._mode == "sparse":
            rhs = np.asarray(rhs, dtype=float)
            return self._splu.solve(rhs.ravel()).reshape(rhs.shape)
        raise RuntimeError("BlockFactorization.solve called before factor")


class ReusableLUSolver:
    """LU solver with pattern-aware CSC conversion and factorisation reuse.

    ``stats["factorizations"]`` counts actual (re)factorisations — SuperLU
    ``splu``, LAPACK ``lu_factor``, or a small-dense direct ``solve`` (which
    factors internally) — so callers (:class:`repro.linalg.solver_core.\
SolverCore`) can report uniform factorisation counts; ``stats["solves"]``
    counts calls.
    """

    def __init__(self):
        self.stats = {"factorizations": 0, "solves": 0}
        # Sparse state.
        self._lu = None
        self._lu_data = None
        self._struct_indices = None
        self._struct_indptr = None
        self._struct_shape = None
        # CSR -> CSC conversion cache.
        self._csr_indices = None
        self._csr_indptr = None
        self._csr_perm = None
        self._csc_template = None
        # Dense state.
        self._dense_a = None
        self._dense_lu = None

    # -- sparse helpers ------------------------------------------------------

    def _csc_from_csr(self, matrix):
        """CSC view of a CSR matrix, caching the structural permutation."""
        if not (
            self._csr_indices is matrix.indices
            and self._csr_indptr is matrix.indptr
            and self._csc_template is not None
            and self._csc_template.shape == matrix.shape
        ):
            coo = sp.coo_matrix(
                (
                    np.arange(1, matrix.nnz + 1, dtype=float),
                    (
                        np.repeat(
                            np.arange(matrix.shape[0]),
                            np.diff(matrix.indptr),
                        ),
                        matrix.indices,
                    ),
                ),
                shape=matrix.shape,
            )
            csc = coo.tocsc()
            self._csr_perm = csc.data.astype(np.intp) - 1
            csc.data = np.empty(matrix.nnz)
            self._csc_template = csc
            self._csr_indices = matrix.indices
            self._csr_indptr = matrix.indptr
        np.take(matrix.data, self._csr_perm, out=self._csc_template.data)
        return self._csc_template

    def _same_structure(self, csc):
        return (
            self._struct_shape == csc.shape
            and self._struct_indices is not None
            and (
                self._struct_indices is csc.indices
                or (
                    self._struct_indices.size == csc.indices.size
                    and np.array_equal(self._struct_indices, csc.indices)
                    and np.array_equal(self._struct_indptr, csc.indptr)
                )
            )
        )

    def _solve_sparse(self, matrix, rhs):
        if sp.isspmatrix_csc(matrix):
            csc = matrix
        elif sp.isspmatrix_csr(matrix):
            csc = self._csc_from_csr(matrix)
        else:
            csc = matrix.tocsc()
        if not (
            self._lu is not None
            and self._same_structure(csc)
            and np.array_equal(self._lu_data, csc.data)
        ):
            self._lu = spla.splu(csc)
            self.stats["factorizations"] += 1
            self._lu_data = csc.data.copy()
            self._struct_indices = csc.indices
            self._struct_indptr = csc.indptr
            self._struct_shape = csc.shape
        return self._lu.solve(rhs)

    # -- dense helper --------------------------------------------------------

    #: Below this size the LAPACK-wrapper overhead of a cached ``lu_factor``
    #: exceeds the factorisation itself; plain ``solve`` wins.
    DENSE_CACHE_THRESHOLD = 32

    def _solve_dense(self, matrix, rhs):
        a = np.asarray(matrix, dtype=float)
        if a.shape[0] <= self.DENSE_CACHE_THRESHOLD:
            self.stats["factorizations"] += 1
            return np.linalg.solve(a, rhs)
        if not (
            self._dense_lu is not None
            and self._dense_a.shape == a.shape
            and np.array_equal(self._dense_a, a)
        ):
            self._dense_lu = sla.lu_factor(a)
            self.stats["factorizations"] += 1
            self._dense_a = a.copy()
        return sla.lu_solve(self._dense_lu, rhs)

    def export_frozen(self):
        """Snapshot the current factors as a :class:`FrozenFactorization`.

        Lets a chord policy *adopt* the factorisation a damped full-Newton
        fallback just paid for instead of discarding it (see the
        ``"full_newton"`` recovery rung of
        :class:`repro.linalg.solver_core.SolverCore`).  Returns
        ``None`` when no reusable factors are held — before the first
        solve, or in the small-dense regime where :meth:`_solve_dense`
        factors inside LAPACK ``solve`` without keeping anything.
        """
        frozen = FrozenFactorization()
        if self._lu is not None:
            frozen._splu = self._lu
            frozen._mode = "sparse"
            return frozen
        if self._dense_lu is not None:
            frozen._lu = self._dense_lu
            frozen._mode = "lu"
            return frozen
        return None

    def __call__(self, matrix, rhs):
        self.stats["solves"] += 1
        rhs = np.asarray(rhs, dtype=float).ravel()
        if sp.issparse(matrix):
            return self._solve_sparse(matrix, rhs)
        return self._solve_dense(matrix, rhs)

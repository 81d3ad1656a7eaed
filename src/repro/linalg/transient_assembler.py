"""Pattern-reuse assembly of transient step Jacobians.

Every implicit integrator in :mod:`repro.transient` reduces one time step to
a Newton solve whose matrix has the fixed shape::

    J(x) = alpha * dQ(x) + beta * dF(x)

where ``alpha`` / ``beta`` are scalar integration weights and ``dQ`` / ``dF``
are the pointwise system Jacobians.  The sparsity pattern of ``J`` is fully
determined by the DAE's structural masks
(:meth:`repro.dae.base.SemiExplicitDAE.dq_structure` /
:meth:`~repro.dae.base.SemiExplicitDAE.df_structure`), which never change
during a run — so, exactly as :class:`repro.linalg.collocation.\
CollocationJacobianAssembler` does for the multi-time engines, the CSC
structure can be computed once and only the ``data`` array refreshed per
Newton iteration.

Small systems stay dense: below :attr:`TransientStepAssembler.DENSE_LIMIT`
unknowns the CSC bookkeeping costs more than it saves, so ``refresh``
returns a preallocated dense buffer instead (the downstream
:class:`repro.linalg.lu_cache.FrozenFactorization` handles both).

Ensembles
---------

With ``batch=B`` the assembler describes the block-diagonal step matrix of
``B`` lock-step scenarios (:mod:`repro.dae.ensemble`): ``refresh`` then
takes ``(B, n, n)`` Jacobian stacks and returns either a ``(B, n, n)``
dense stack (small members — consumed by the batched
:class:`repro.linalg.lu_cache.BlockFactorization`) or one sparse
block-diagonal CSC whose pattern — ``B`` copies of the member union —
is computed once and value-refreshed per iteration, exactly like the
single-scenario path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class TransientStepAssembler:
    """Reusable structure for the step Jacobian ``alpha * dQ + beta * dF``.

    Parameters
    ----------
    dq_mask, df_mask:
        Boolean ``(n, n)`` supersets of the nonzero patterns of ``dq_dx`` /
        ``df_dx`` (see :meth:`repro.dae.base.SemiExplicitDAE.dq_structure`).
    batch:
        ``None`` (the default) for a single system — ``refresh`` takes
        and returns 2-D ``(n, n)`` shapes exactly as before.  An integer
        ``B >= 1`` selects ensemble mode: ``refresh`` takes ``(B, n, n)``
        stacks and assembles the block diagonal of the per-scenario steps
        (see the module docstring).

    Systems with ``n <= DENSE_LIMIT`` (or with a nearly full union
    pattern) are assembled densely.
    """

    #: Below this size (or above ~50% fill) dense assembly + LAPACK wins
    #: over CSC bookkeeping + SuperLU.
    DENSE_LIMIT = 64

    def __init__(self, dq_mask, df_mask, batch=None):
        dq_mask = np.asarray(dq_mask, dtype=bool)
        df_mask = np.asarray(df_mask, dtype=bool)
        if dq_mask.shape != df_mask.shape or dq_mask.ndim != 2 \
                or dq_mask.shape[0] != dq_mask.shape[1]:
            raise ValueError(
                f"masks must be equal square (n, n) arrays, got "
                f"{dq_mask.shape} and {df_mask.shape}"
            )
        if batch is not None:
            batch = int(batch)
            if batch < 1:
                raise ValueError(f"batch must be >= 1, got {batch}")
        n = dq_mask.shape[0]
        union = dq_mask | df_mask

        self.n = n
        self.batch = batch
        self.dq_mask = dq_mask
        self.df_mask = df_mask
        # The dense/sparse decision is made at *member* level: ensembles of
        # small systems keep the (B, n, n) stack that the batched
        # factorisation of BlockFactorization consumes directly.
        self.dense = bool(n <= self.DENSE_LIMIT or union.mean() > 0.5)

        block_shape = (n, n) if batch is None else (batch, n, n)
        if self.dense:
            self._buffer = np.zeros(block_shape)
            self._scratch = np.empty(block_shape)
            return

        # Structural entries of the union pattern (one block), and the
        # gather map from the natural block-major value order into the CSC
        # data order of the (possibly block-diagonal) assembled matrix.
        rows, cols = np.nonzero(union)
        nnz = rows.size
        blocks = 1 if batch is None else batch
        offsets = n * np.arange(blocks)
        all_rows = (offsets[:, None] + rows[None, :]).ravel()
        all_cols = (offsets[:, None] + cols[None, :]).ravel()
        coo = sp.coo_matrix(
            (
                np.arange(1, blocks * nnz + 1, dtype=float),
                (all_rows, all_cols),
            ),
            shape=(blocks * n, blocks * n),
        )
        csc = coo.tocsc()
        self._perm = csc.data.astype(np.intp) - 1
        csc.data = np.zeros(blocks * nnz)
        self._rows = rows
        self._cols = cols
        self._matrix = csc
        # Entries of the union set where each operand is structurally zero
        # contribute nothing; mask the gathered values instead of branching.
        self._dq_sel = dq_mask[rows, cols]
        self._df_sel = df_mask[rows, cols]
        self._values = np.empty(nnz if batch is None else (batch, nnz))

    def refresh(self, alpha, dq, beta, df):
        """Recompute ``alpha * dq + beta * df`` and return the matrix.

        The returned matrix (dense array or CSC) is **owned by the
        assembler and overwritten in place** on every call — consume it
        (factorise/solve) before calling :meth:`refresh` again.

        Parameters
        ----------
        alpha, beta:
            Scalar integration weights (shared by every scenario of an
            ensemble — the lock-step grid has one dt).
        dq, df:
            Dense ``(n, n)`` pointwise Jacobians, or ``(batch, n, n)``
            stacks when the assembler was built in ensemble mode.
        """
        dq = np.asarray(dq, dtype=float)
        df = np.asarray(df, dtype=float)
        if self.dense:
            buf = self._buffer
            np.multiply(dq, alpha, out=buf)
            np.multiply(df, beta, out=self._scratch)
            buf += self._scratch
            return buf
        values = self._values
        np.multiply(dq[..., self._rows, self._cols], alpha, out=values)
        values[..., ~self._dq_sel] = 0.0
        dfv = df[..., self._rows, self._cols]
        dfv[..., ~self._df_sel] = 0.0
        values += beta * dfv
        np.take(values.reshape(-1), self._perm, out=self._matrix.data)
        return self._matrix


"""Pattern-reuse assembly of spectral-collocation Jacobians.

Every multi-time engine in this library (harmonic balance, MPDE and WaMPDE
collocation) solves Newton systems whose matrix has the same shape (large
forced harmonic balance applies it matrix-free instead, see
:mod:`repro.linalg.spectral`, and assembles it here only when GMRES misses
its budget)::

    J  =  outer * ( scale * (W ⊗-blockwise) @ blockdiag(dq_i)
                    + blockdiag(df_i) )
          + blockdiag(dq_i / h)
          [ optionally bordered by extra columns/rows ]

where ``W`` is an ``(M, M)`` collocation-point coupling matrix (a Fourier
differentiation matrix, or a combination of two of them for quasiperiodic
problems) and ``dq_i`` / ``df_i`` are the ``(n, n)`` system Jacobians at
collocation point ``i``.  The product ``(W ⊗ I) @ blockdiag(A_1..A_M)`` has
the closed form ``block(i, j) = W[i, j] * A_j`` — no sparse matrix-matrix
product is needed, and the candidate entry set depends only on structural
masks that never change across Newton iterations or envelope steps.

:class:`CollocationJacobianAssembler` therefore precomputes the candidate
entries (their rows, columns and gather indices) exactly once, and each
:meth:`~CollocationJacobianAssembler.refresh` recomputes only the values —
pure vectorised NumPy — replacing the per-iteration
``scipy.sparse.block_diag`` / ``@`` / ``bmat`` pipeline that used to
dominate the envelope hot path.

Bit-compatibility with the reference pipeline is deliberate and tested: the
value computation reproduces its floating-point grouping exactly, and the
stored-entry set reproduces scipy's operand-level zero dropping (an entry
exists iff the operands that generate it are nonzero, exactly as
``csr_matrix(dense)`` conversions decide), so solvers that switched to the
assembler kept bit-identical Newton trajectories.  The stored pattern is
cached and only rebuilt on the rare iterations where an operand's exact
zero set changes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def union_block_mask(dae):
    """Structural ``(n, n)`` mask ``dq_structure | df_structure`` of a DAE.

    This is the per-collocation-point *diagonal* block pattern of a
    collocation Jacobian; see
    :meth:`repro.dae.base.SemiExplicitDAE.dq_structure`.
    """
    dq = np.asarray(dae.dq_structure(), dtype=bool)
    df = np.asarray(dae.df_structure(), dtype=bool)
    return dq | df


class CollocationJacobianAssembler:
    """Reusable structure for a (possibly bordered) collocation Jacobian.

    Off-diagonal blocks carry the ``dq`` pattern (they arise only from the
    coupling product); diagonal blocks the ``dq | df`` union.

    Parameters
    ----------
    num_points:
        Number of collocation points ``M``.
    n_vars:
        System variables ``n`` per collocation point; the core is
        ``(M*n, M*n)`` in point-major ordering.
    dq_mask, df_mask:
        Boolean ``(n, n)`` supersets of the nonzero patterns of the
        pointwise ``dq_dx`` / ``df_dx`` blocks (see
        :meth:`repro.dae.base.SemiExplicitDAE.dq_structure`).  ``None``
        means dense — always safe, never minimal.
    coupling_mask:
        Boolean ``(M, M)`` superset of the *off-diagonal* nonzero pattern
        of the coupling matrix ``W``; ``None`` means dense (correct for
        Fourier differentiation matrices).  Diagonal coupling entries are
        folded into the diagonal blocks, which always exist.
    num_border:
        Number of border columns/rows (1 for a frequency unknown + phase
        condition, ``N1`` for the quasiperiodic WaMPDE, 0 for none).
    """

    def __init__(self, num_points, n_vars, dq_mask=None, df_mask=None,
                 coupling_mask=None, num_border=0):
        m = int(num_points)
        n = int(n_vars)
        k = int(num_border)
        if m < 1 or n < 1 or k < 0:
            raise ValueError(
                f"need num_points >= 1, n_vars >= 1, num_border >= 0; got "
                f"({num_points}, {n_vars}, {num_border})"
            )

        def as_mask(mask, shape, name):
            if mask is None:
                return np.ones(shape, dtype=bool)
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != shape:
                raise ValueError(
                    f"{name} must have shape {shape}, got {mask.shape}"
                )
            return mask

        dq_mask = as_mask(dq_mask, (n, n), "dq_mask")
        df_mask = as_mask(df_mask, (n, n), "df_mask")
        coupling_mask = as_mask(coupling_mask, (m, m), "coupling_mask")
        diag_mask = dq_mask | df_mask

        self.num_points = m
        self.n_vars = n
        self.num_border = k
        self.core_size = m * n
        self.size = m * n + k
        self.dq_mask = dq_mask
        self.df_mask = df_mask

        pairs = np.argwhere(coupling_mask & ~np.eye(m, dtype=bool))
        self._pair_i = pairs[:, 0]
        self._pair_j = pairs[:, 1]
        self._off_r, self._off_c = np.nonzero(dq_mask)
        self._diag_r, self._diag_c = np.nonzero(diag_mask)

        # Candidate (row, col) of every structural entry, in the exact order
        # refresh() lays the values out (off blocks, diag blocks, border
        # columns, border rows, corner).
        core = self.core_size
        points = np.arange(m)
        row_parts = [
            (self._pair_i[:, None] * n + self._off_r[None, :]).ravel(),
            (points[:, None] * n + self._diag_r[None, :]).ravel(),
        ]
        col_parts = [
            (self._pair_j[:, None] * n + self._off_c[None, :]).ravel(),
            (points[:, None] * n + self._diag_c[None, :]).ravel(),
        ]
        if k:
            full = np.arange(core, dtype=np.intp)
            # Border columns, one column at a time (column-major).
            row_parts.append(np.tile(full, k))
            col_parts.append(core + np.repeat(np.arange(k), core))
            # Border rows, one row at a time (row-major).
            row_parts.append(core + np.repeat(np.arange(k), core))
            col_parts.append(np.tile(full, k))
            # Corner, row-major.
            row_parts.append(core + np.repeat(np.arange(k), k))
            col_parts.append(core + np.tile(np.arange(k), k))
        self._rows = np.concatenate(row_parts)
        self._cols = np.concatenate(col_parts)
        # Segment boundaries within the candidate (natural) layout.
        n_off = self._pair_i.size * self._off_r.size
        n_diag = m * self._diag_r.size
        self._bcol_start = n_off + n_diag
        self._bcol_end = self._bcol_start + k * core
        self._corner_start = self._bcol_end + k * core
        # Head arrays of the last generically built pattern (single-border
        # case): entries of CSC columns 0..core-1, which depend only on the
        # core and border-row zero sets.  When just the border *column's*
        # zero set changes — the common case, since it holds a spectral
        # derivative whose exact zeros drift — the new pattern is the same
        # head plus a new tail, spliced without re-running COO->CSC.
        self._head = None

        # Pattern cache: which candidates were kept last time, the CSC
        # holding them and the gather map from the natural value layout
        # into csc.data order.  Iterates often alternate between a handful
        # of exact-zero configurations (e.g. a spectral derivative that is
        # exactly zero at a converged state but not mid-iteration), so
        # previously seen patterns are kept in a small dictionary.
        self._keep = None
        self._matrix = None
        self._gather = None
        self._pattern_cache = {}

    _PATTERN_CACHE_LIMIT = 32

    def _rebuild(self, keep):
        """Build or recall the CSC pattern for the kept candidate entries."""
        key = keep.tobytes()
        cached = self._pattern_cache.get(key)
        if cached is None:
            cached = self._splice_tail(keep) or self._build_pattern(keep)
            if len(self._pattern_cache) >= self._PATTERN_CACHE_LIMIT:
                self._pattern_cache.pop(next(iter(self._pattern_cache)))
            self._pattern_cache[key] = cached
        self._matrix, self._gather = cached
        self._keep = keep

    def _build_pattern(self, keep):
        kept_idx = np.nonzero(keep)[0]
        coo = sp.coo_matrix(
            (
                np.arange(1, kept_idx.size + 1, dtype=float),
                (self._rows[kept_idx], self._cols[kept_idx]),
            ),
            shape=(self.size, self.size),
        )
        csc = coo.tocsc()
        if csc.data.size != kept_idx.size:
            raise ValueError(
                "duplicate entries in the collocation pattern "
                f"({kept_idx.size} generated, {csc.data.size} unique)"
            )
        # csc.data[p] is the (1-based) natural position of entry p.
        gather = kept_idx[csc.data.astype(np.intp) - 1]
        csc.data = np.zeros(kept_idx.size)
        if self.num_border == 1:
            head_len = int(csc.indptr[self.core_size])
            self._head = (
                keep[: self._bcol_start].copy(),
                keep[self._bcol_end:self._corner_start].copy(),
                keep[self._corner_start:].copy(),
                csc.indices[:head_len].copy(),
                gather[:head_len].copy(),
                csc.indptr[: self.core_size + 1].copy(),
            )
        return csc, gather

    def _splice_tail(self, keep):
        """New pattern differing from the cached head only in the border
        column: splice the head arrays with the new final-column tail."""
        if self.num_border != 1 or self._head is None:
            return None
        head_keep, brow_keep, corner_keep, head_indices, head_gather, \
            head_indptr = self._head
        if not (
            np.array_equal(keep[: self._bcol_start], head_keep)
            and np.array_equal(
                keep[self._bcol_end:self._corner_start], brow_keep
            )
            and np.array_equal(keep[self._corner_start:], corner_keep)
        ):
            return None
        bcol_rows = np.nonzero(keep[self._bcol_start:self._bcol_end])[0]
        corner_rows = np.nonzero(corner_keep)[0]
        indices = np.concatenate(
            [head_indices, bcol_rows, self.core_size + corner_rows]
        )
        gather = np.concatenate(
            [
                head_gather,
                self._bcol_start + bcol_rows,
                self._corner_start + corner_rows,
            ]
        )
        indptr = np.empty(self.size + 1, dtype=head_indptr.dtype)
        indptr[: self.core_size + 1] = head_indptr
        indptr[self.core_size + 1] = indices.size
        csc = sp.csc_matrix(
            (np.zeros(indices.size), indices, indptr),
            shape=(self.size, self.size),
        )
        return csc, gather

    def refresh(self, coupling, dq_blocks, diag_inner=None, coupling_scale=1.0,
                outer_coeff=1.0, diag_outer=None, border_columns=None,
                border_rows=None, corner=None):
        """Recompute the numeric values and return the assembled matrix.

        The assembled core is

            outer_coeff * ( coupling_scale * ((W ⊗) blockdiag(dq))
                            + blockdiag(diag_inner) )
            + blockdiag(diag_outer)

        evaluated in exactly this floating-point grouping — matching, bit
        for bit, the reference ``bd(dq/h) + outer*(scale*(D_big @ bd(dq)) +
        bd(df))`` that the engines previously built with sparse products.

        The returned CSC matrix is **owned by the assembler and mutated in
        place** on every call — consume it (factorise/solve) before calling
        :meth:`refresh` again.

        Parameters
        ----------
        coupling:
            Dense ``(M, M)`` coupling matrix ``W`` (e.g. a Fourier
            differentiation matrix).
        dq_blocks:
            ``(M, n, n)`` stacked pointwise ``dq_dx`` Jacobians.
        diag_inner:
            Optional ``(M, n, n)`` blocks added to the block diagonal
            *inside* the ``outer_coeff`` factor (typically ``df_dx``).
        coupling_scale:
            Scalar multiplying the coupling product (e.g. the local
            frequency ``omega``).
        outer_coeff:
            Scalar multiplying coupling product + ``diag_inner`` (e.g. the
            integrator's implicitness weight).
        diag_outer:
            Optional ``(M, n, n)`` blocks added to the block diagonal
            outside the ``outer_coeff`` factor (typically ``dq_dx / h`` —
            the caller performs the division so the rounding matches).
        border_columns:
            ``(M*n, k)`` border columns (required when ``num_border > 0``).
        border_rows:
            ``(k, M*n)`` border rows.
        corner:
            ``(k, k)`` corner block; defaults to zeros.
        """
        m, n = self.num_points, self.n_vars
        coupling = np.asarray(coupling, dtype=float)
        if coupling.shape != (m, m):
            raise ValueError(
                f"coupling must be ({m}, {m}), got {coupling.shape}"
            )
        dq_blocks = np.asarray(dq_blocks, dtype=float)
        if dq_blocks.shape != (m, n, n):
            raise ValueError(
                f"dq_blocks must be ({m}, {n}, {n}), got {dq_blocks.shape}"
            )

        dq_off = dq_blocks[:, self._off_r, self._off_c]    # (M, nnz_off)
        dq_diag = dq_blocks[:, self._diag_r, self._diag_c]  # (M, nnz_diag)
        w_off = coupling[self._pair_i, self._pair_j]
        w_diag = np.diagonal(coupling)

        # Which candidates the sparse reference pipeline would store: an
        # entry exists iff some generating operand is nonzero (scipy drops
        # exact zeros when densifying operands, but keeps entries whose
        # *result* happens to round to zero).
        off = w_off[:, None] * dq_off[self._pair_j]
        keep_off = (w_off != 0.0)[:, None] & (dq_off != 0.0)[self._pair_j]
        if coupling_scale != 1.0:
            off *= coupling_scale
        if outer_coeff != 1.0:
            off *= outer_coeff
        diag = w_diag[:, None] * dq_diag
        keep_diag = (w_diag != 0.0)[:, None] & (dq_diag != 0.0)
        if coupling_scale != 1.0:
            diag *= coupling_scale
        if diag_inner is not None:
            diag_inner = np.asarray(diag_inner, dtype=float)
            inner = diag_inner[:, self._diag_r, self._diag_c]
            diag += inner
            keep_diag = keep_diag | (inner != 0.0)
        if outer_coeff != 1.0:
            diag *= outer_coeff
        if diag_outer is not None:
            diag_outer = np.asarray(diag_outer, dtype=float)
            outer = diag_outer[:, self._diag_r, self._diag_c]
            diag += outer
            keep_diag = keep_diag | (outer != 0.0)

        if self.num_border == 0:
            if border_columns is not None or border_rows is not None:
                raise ValueError("assembler was built without a border")
            natural = np.concatenate([off.ravel(), diag.ravel()])
            keep = np.concatenate([keep_off.ravel(), keep_diag.ravel()])
        else:
            k = self.num_border
            if border_columns is None or border_rows is None:
                raise ValueError(
                    f"assembler was built with num_border={k}; border_columns "
                    f"and border_rows are required"
                )
            columns = np.asarray(border_columns, dtype=float).reshape(
                self.core_size, k
            )
            rows = np.asarray(border_rows, dtype=float).reshape(
                k, self.core_size
            )
            if corner is None:
                corner = np.zeros((k, k))
            corner = np.asarray(corner, dtype=float).reshape(k, k)
            natural = np.concatenate(
                [
                    off.ravel(),
                    diag.ravel(),
                    columns.T.ravel(),
                    rows.ravel(),
                    corner.ravel(),
                ]
            )
            keep = natural != 0.0
            keep[: off.size] = keep_off.ravel()
            keep[off.size:off.size + diag.size] = keep_diag.ravel()

        if self._keep is None or not np.array_equal(self._keep, keep):
            self._rebuild(keep)
        np.take(natural, self._gather, out=self._matrix.data)
        return self._matrix

"""The warped collocation system and its pattern-reuse Jacobian assembly.

Autonomous harmonic balance, the bi-periodic WaMPDE and the WaMPDE and MPDE
envelope steps solve one system, :class:`WarpedCollocationSystem` (the
collocated WaMPDE, paper eq. 16, with its phase conditions); forced
harmonic balance and the bi-periodic MPDE solve
:class:`~repro.linalg.spectral.PeriodicCollocationSystem`, whose residual
is an FFT.  Every one of these solves Newton systems whose matrix has the
same shape (large forced harmonic balance and bi-periodic MPDE problems
apply it matrix-free instead, see :mod:`repro.linalg.spectral`, and
assemble it here only when GMRES misses its budget)::

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

Dense or sparse
---------------

Small Newton matrices are not worth a sparse pattern.  Up to
:data:`DENSE_MAX_UNKNOWNS` unknowns (``num_points * n_vars + num_border``)
:func:`collocation_assembler` returns a :class:`DenseCollocationAssembler`,
which fills a preallocated array with one broadcast in the same
floating-point grouping (its matrix equals the sparse assembler's
``refresh(...).toarray()``), and :mod:`repro.linalg.lu_cache` factorises it
with LAPACK.  Larger matrices take the sparse assembler and SuperLU.  The
WaMPDE envelope step and autonomous harmonic balance of a 4-unknown VCO at
25 samples (101 unknowns) are dense; a 41-stage ring oscillator at 25
samples (1,026 unknowns) is sparse.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.linalg.solver_core import CollocationSystem
from repro.spectral.diffmat import fourier_differentiation_matrix

#: Largest collocation Newton matrix (``num_points * n_vars + num_border``
#: unknowns) that :func:`collocation_assembler` assembles dense.  Measured
#: on a 2-core x86-64 host with single-thread BLAS: the bordered WaMPDE
#: envelope step matrix at 25 t1 samples, per refactorisation (compiled
#: Jacobian evaluation + assembly + LU), sparse (pattern refresh +
#: SuperLU) against dense (broadcast + LAPACK), and per solve against the
#: factors; ranges over three runs:
#:
#:     unknowns  case           sparse        dense         solve s / d
#:           76  3-stage ring   0.35-0.53 ms  0.14-0.21 ms
#:          101  MEMS VCO       0.48-0.63 ms  0.21-0.32 ms  13-15 / 4-7 us
#:          176  7-stage ring   0.83-0.90 ms  0.62-0.66 ms
#:          226  9-stage ring   0.84-1.00 ms  0.81-1.01 ms
#:          526  21-stage ring  1.6-2.2 ms    6.6-7.2 ms    44-59 / 78-85 us
#:         1026  41-stage ring  3.0-3.7 ms    36-38 ms
#:
#: Dense LU grows as the cube of the size: level near 200 unknowns, the
#: sparse route is 3-11x faster from ~500.
DENSE_MAX_UNKNOWNS = 200


def collocation_assembler(num_points, n_vars, dq_mask=None, df_mask=None,
                          coupling_mask=None, num_border=0):
    """The Jacobian assembler for a collocation system of this size.

    A :class:`DenseCollocationAssembler` up to :data:`DENSE_MAX_UNKNOWNS`
    unknowns, else a :class:`CollocationJacobianAssembler` (the masks
    describe the sparse pattern; the dense route has none).  Both take the
    same :meth:`~CollocationJacobianAssembler.refresh` arguments.
    """
    if int(num_points) * int(n_vars) + int(num_border) <= DENSE_MAX_UNKNOWNS:
        return DenseCollocationAssembler(num_points, n_vars, num_border)
    return CollocationJacobianAssembler(
        num_points, n_vars, dq_mask=dq_mask, df_mask=df_mask,
        coupling_mask=coupling_mask, num_border=num_border,
    )


class IterateEvaluation:
    """``q``, ``f`` and the point derivative ``D q`` at the last samples.

    A collocation residual needs ``q`` and ``f`` at every point and the
    derivative of ``q`` along the points; the bordered Jacobian at the
    same iterate needs that derivative again for its frequency columns.
    One ``dae.qf_batch`` call serves both: the values are kept until
    different samples come (they depend on the samples alone, not on a
    frequency or other border unknown).  The memo is keyed on the bytes
    of the samples: equal bits give equal values, and comparing two
    short byte strings costs a fraction of an array comparison.  The
    derivative is the dense ``D @ Q`` on the ``(points, n)`` samples,
    applied to each run of ``len(D)`` consecutive points (each t2 slice
    of a tensor grid).
    ``D`` is dense, so this does exactly the flops of the ``kron(D, I)``
    matvec without building that sparse matrix.  The returned arrays are
    shared between calls, so callers must not modify them.

    Parameters
    ----------
    dae:
        System providing ``qf_batch``.
    diffmat:
        The ``(m, m)`` differentiation matrix ``D``.
    """

    def __init__(self, dae, diffmat):
        self.dae = dae
        self.diffmat = diffmat
        self._key = None
        self._value = None

    def __call__(self, states):
        """Flat ``(q, f, D q)`` at the ``(points, n)`` samples ``states``."""
        states = np.asarray(states, dtype=float)
        key = states.tobytes()
        if key != self._key:
            q, f = self.dae.qf_batch(states)
            m = self.diffmat.shape[0]
            derivative = self.diffmat @ q.reshape(-1, m, q.shape[1])
            self._key = key
            self._value = (q.ravel(), f.ravel(), derivative.ravel())
        return self._value


class WarpedCollocationSystem(CollocationSystem):
    """The collocated WaMPDE (paper eq. 16) and its phase conditions (eq. 20).

    The unknowns are ``N1`` slices of ``N0`` t1 samples of the ``n``
    system variables (slice-major, point-major within a slice), followed,
    when there is a phase condition, by one local frequency ``omega_s``
    per slice.  The collocation equations are

        fast  =  omega_s * D1 q + D2 q + f(x) - b

    or, for a theta-method step in t2 of size ``h``,

        (q - q_old) / h  +  theta * fast  +  (1 - theta) * rhs_old,

    followed by one phase row ``phase_row . x_s - target`` per slice.  Each
    term is present only when its data is:

    * ``diffmat2`` (the t2 differentiation matrix) for the bi-periodic
      WaMPDE; without it there is one slice;
    * ``h`` (with ``theta``, ``q_old``, ``rhs_old``) for the envelope
      steps; ``None`` solves the system itself;
    * ``condition`` for the frequency unknowns and phase rows; without
      one, t1 has the fixed period ``period1`` and ``fast = D1 q + f - b``
      (the unwarped MPDE envelope).

    So autonomous harmonic balance is one slice with a phase condition,
    the WaMPDE envelope adds the step, the MPDE envelope is a step without
    a phase condition and the bi-periodic WaMPDE has ``diffmat2``.  One
    ``qf_batch`` call per residual serves the residual and the Jacobian's
    frequency columns at the same iterate (:class:`IterateEvaluation`).

    The floating-point grouping is part of the contract: the engines'
    outputs are pinned bit for bit (``tests/test_collocation_residuals.py``
    writes each configuration out).  One slice computes
    ``omega * D1 q + f - b`` and the phase residual as a dot product, N1
    slices the pre-scaled coupling ``repeat(omega) * W1 + W2`` and the
    phase residuals as one matrix-vector product; a Jacobian without a
    step keeps the frequency column ``D1 q`` unscaled.

    Parameters
    ----------
    dae:
        System providing ``qf_batch``, ``dq_dx_batch``, ``df_dx_batch``
        and the structure masks.
    num_t1:
        Samples ``N0`` per t1 period.
    period1:
        The t1 period: 1 in warped time, the fast forcing period for the
        MPDE.
    condition:
        A linear :mod:`repro.phase_conditions` condition, or ``None``.
    diffmat2:
        The ``(N1, N1)`` t2 differentiation matrix of a bi-periodic
        problem, or ``None``.
    core:
        The :class:`~repro.linalg.solver_core.SolverCore` of a march, or
        ``None``: each Jacobian then records ``(z, h)`` as its
        ``jacobian_meta``, the checkpoint stand-in for the factors the
        chord policy holds (see :meth:`matrix_at`).

    Attributes
    ----------
    b:
        The flat forcing samples, one per equation of the core.
    h, theta, q_old, rhs_old:
        The t2 step: its size (``None``, the default: no step), the
        implicitness weight, and the flat charges and ``fast`` terms at
        the accepted point (:meth:`fast_terms`).
    """

    def __init__(self, dae, num_t1, period1=1.0, condition=None,
                 diffmat2=None, core=None):
        n = dae.n
        self.dae = dae
        self.n = n
        self.num_t1 = num_t1
        self.num_t2 = 1 if diffmat2 is None else diffmat2.shape[0]
        self.block = num_t1 * n
        self.total = self.num_t2 * self.block
        self.diffmat = fourier_differentiation_matrix(num_t1, period=period1)
        self.diffmat2 = diffmat2
        self.core = core
        self.b = None
        self.h = None
        self.theta = 1.0
        self.q_old = None
        self.rhs_old = None
        self._evaluate = IterateEvaluation(dae, self.diffmat)
        # The condition is linear: residual = phase_row . x_s - target.
        self.phase_row = None
        num_border = 0
        if condition is not None:
            self.phase_row = condition.gradient(num_t1, n)
            self.target = condition.target
            num_border = self.num_t2
            # One phase row per slice, on that slice's unknowns: the
            # values of kron(eye(N1), phase_row), without kron's cost.
            self._phase_rows = (
                np.eye(self.num_t2)[:, :, None] * self.phase_row
            ).reshape(self.num_t2, -1)
        coupling_mask = None
        if diffmat2 is not None:
            # Point couplings over the flattened (t2, t1) grid: within one
            # slice, and across slices at equal t1 index.
            self._w1 = np.kron(np.eye(self.num_t2), self.diffmat)
            self._w2 = np.kron(diffmat2, np.eye(num_t1))
            coupling_mask = (self._w1 != 0.0) | (self._w2 != 0.0)
        self.assembler = collocation_assembler(
            self.num_t2 * num_t1, n,
            dq_mask=dae.dq_structure(), df_mask=dae.df_structure(),
            coupling_mask=coupling_mask, num_border=num_border,
        )

    def fast_terms(self, states, b, omega=None):
        """``fast`` of one slice at ``(N0, n)`` samples, and its flat ``q``:
        the ``(rhs_old, q_old)`` of a step from there."""
        q, f, d1q = self._evaluate(states)
        if omega is None:
            return d1q + f - b, q
        return omega * d1q + f - b, q

    def residual(self, z):
        total = self.total
        x = z[:total]
        q, f, d1q = self._evaluate(x.reshape(-1, self.n))
        if self.diffmat2 is not None:
            fast = (
                np.repeat(z[total:], self.block) * d1q
                + (self.diffmat2 @ q.reshape(self.num_t2, self.block)).ravel()
                + f - self.b
            )
        elif self.phase_row is None:
            fast = d1q + f - self.b
        else:
            fast = z[total] * d1q + f - self.b
        if self.h is not None:
            fast = (
                (q - self.q_old) / self.h
                + self.theta * fast
                + (1.0 - self.theta) * self.rhs_old
            )
        if self.phase_row is None:
            return fast
        if self.diffmat2 is None:
            return np.concatenate([fast, [self.phase_row @ x - self.target]])
        return np.concatenate([
            fast,
            x.reshape(self.num_t2, self.block) @ self.phase_row - self.target,
        ])

    def jacobian(self, z):
        if self.core is not None:
            self.core.jacobian_meta = (np.array(z, dtype=float), self.h)
        total = self.total
        states = z[:total].reshape(-1, self.n)
        dq = self.dae.dq_dx_batch(states)
        df = self.dae.df_dx_batch(states)
        coupling, scale, columns, rows = self.diffmat, 1.0, None, None
        if self.phase_row is not None:
            d1q = self._evaluate(states)[2]
            rows = self._phase_rows
            if self.diffmat2 is None:
                scale = z[total]
                columns = d1q[:, None]
            else:
                # omega(t2) row-scales the within-slice coupling only.
                coupling = (
                    np.repeat(z[total:], self.num_t1)[:, None] * self._w1
                    + self._w2
                )
                columns = np.zeros((total, self.num_t2))
                index = np.arange(total)
                columns[index, index // self.block] = d1q
        outer, diag_outer = 1.0, None
        if self.h is not None:
            # scipy's sparse "/ h" was "* (1/h)"; kept bit for bit.
            outer, diag_outer = self.theta, dq * (1.0 / self.h)
            if columns is not None:
                columns = self.theta * columns
        return self.assembler.refresh(
            coupling, dq, diag_inner=df, coupling_scale=scale,
            outer_coeff=outer, diag_outer=diag_outer,
            border_columns=columns, border_rows=rows,
        )

    def structure(self):
        num_border = 0 if self.phase_row is None else self.num_t2
        return {"num_points": self.num_t2 * self.num_t1, "n_vars": self.n,
                "num_border": num_border, "size": self.total + num_border}

    def matrix_at(self, meta):
        """The step matrix at frozen-factor metadata ``(z, h)``; the step
        the system is set up for keeps its own ``h``."""
        z, h = meta
        step, self.h = self.h, float(h)
        try:
            return self.jacobian(np.asarray(z, dtype=float))
        finally:
            self.h = step


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


class DenseCollocationAssembler:
    """The collocation Jacobian of :class:`CollocationJacobianAssembler`,
    assembled into a dense array.

    ``refresh`` takes the same arguments and evaluates the same
    floating-point grouping, so its matrix equals the sparse assembler's
    ``refresh(...).toarray()``: ``block(i, j) = W[i, j] * dq_j`` for every
    pair in one broadcast, scaled, with the diagonal-block terms added in
    the sparse order.  The broadcast writes whole matrix rows: row ``r``
    of point ``i`` is ``W[i, j] * dq_j[r, c]`` over every column
    ``j * n + c``, the product of row ``i`` of ``W`` with each entry
    repeated ``n`` times and row ``r`` of the ``dq`` blocks laid side by
    side, so its innermost axis runs over all ``M * n`` columns instead
    of one block's ``n``.  There are no masks: a structural zero of the
    Jacobians is a zero entry here.  Built by :func:`collocation_assembler`
    for small systems.

    The returned array is **owned by the assembler and overwritten in
    place** on every call — consume it before calling :meth:`refresh`
    again.
    """

    def __init__(self, num_points, n_vars, num_border=0):
        m = int(num_points)
        n = int(n_vars)
        k = int(num_border)
        if m < 1 or n < 1 or k < 0:
            raise ValueError(
                f"need num_points >= 1, n_vars >= 1, num_border >= 0; got "
                f"({num_points}, {n_vars}, {num_border})"
            )
        self.num_points = m
        self.n_vars = n
        self.num_border = k
        self.core_size = m * n
        self.size = m * n + k
        self._matrix = np.zeros((self.size, self.size))
        self._core = self._matrix[: self.core_size, : self.core_size]
        # (i, r, J) view of the core: row r of point i, all M*n columns.
        self._rows = self._core.reshape(m, n, self.core_size)
        # Flat positions of the diagonal blocks' entries, laid out (i, r, c).
        first = np.arange(m)[:, None, None] * n
        self._diag = (
            (first + np.arange(n)[None, :, None]) * self.size
            + first + np.arange(n)[None, None, :]
        )
        self._flat = self._matrix.reshape(-1)

    def refresh(self, coupling, dq_blocks, diag_inner=None, coupling_scale=1.0,
                outer_coeff=1.0, diag_outer=None, border_columns=None,
                border_rows=None, corner=None):
        """Recompute the matrix; see
        :meth:`CollocationJacobianAssembler.refresh` for the arguments."""
        m, n, k = self.num_points, self.n_vars, self.num_border
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
        np.multiply(
            np.repeat(coupling, n, axis=1)[:, None, :],
            dq_blocks.transpose(1, 0, 2).reshape(n, m * n),
            out=self._rows,
        )
        if coupling_scale != 1.0:
            self._core *= coupling_scale
        flat = self._flat
        if diag_inner is not None:
            flat[self._diag] += np.asarray(diag_inner, dtype=float)
        if outer_coeff != 1.0:
            self._core *= outer_coeff
        if diag_outer is not None:
            flat[self._diag] += np.asarray(diag_outer, dtype=float)

        if k == 0:
            if border_columns is not None or border_rows is not None:
                raise ValueError("assembler was built without a border")
            return self._matrix
        if border_columns is None or border_rows is None:
            raise ValueError(
                f"assembler was built with num_border={k}; border_columns "
                f"and border_rows are required"
            )
        core = self.core_size
        matrix = self._matrix
        matrix[:core, core:] = np.asarray(
            border_columns, dtype=float
        ).reshape(core, k)
        matrix[core:, :core] = np.asarray(border_rows, dtype=float).reshape(
            k, core
        )
        matrix[core:, core:] = (
            0.0 if corner is None
            else np.asarray(corner, dtype=float).reshape(k, k)
        )
        return matrix

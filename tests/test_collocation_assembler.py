"""Pattern-reuse collocation assembly vs the sparse reference pipeline.

The assembler must agree with ``kron_diffmat`` / ``block_diagonal_expand``
reference assembly both structurally (same stored-entry set) and
numerically (bit-for-bit here, which implies the required <= 1e-12).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import (
    BorderedSystem,
    CollocationJacobianAssembler,
    ReusableLUSolver,
    block_diagonal_expand,
    kron_diffmat,
)
from repro.spectral.diffmat import fourier_differentiation_matrix


def random_blocks(rng, m, n, mask):
    """(m, n, n) random blocks supported on ``mask``."""
    blocks = rng.normal(size=(m, n, n))
    blocks[:, ~mask] = 0.0
    return blocks


def reference(coupling, dq, diag_inner=None, coupling_scale=1.0,
              outer_coeff=1.0, h=None):
    """The sparse pipeline the engines used before the assembler.

    ``h`` adds the ``block_diagonal_expand(dq) / h`` charge-difference term
    exactly as the envelope steppers wrote it (scipy's sparse division is a
    reciprocal multiply, which the assembler callers replicate).
    """
    n = dq.shape[1]
    d_big = kron_diffmat(coupling, n, ordering="point")
    core = coupling_scale * (d_big @ block_diagonal_expand(dq))
    if diag_inner is not None:
        core = core + block_diagonal_expand(diag_inner)
    core = outer_coeff * core
    if h is not None:
        core = block_diagonal_expand(dq) / h + core
    return core.tocsc()


class TestCoreAssembly:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 9, 3
        dq_mask = rng.random((n, n)) < 0.6
        df_mask = rng.random((n, n)) < 0.6
        dq = random_blocks(rng, m, n, dq_mask)
        df = random_blocks(rng, m, n, df_mask)
        coupling = fourier_differentiation_matrix(m, period=1.0)
        h = 3.7e-4
        w = 1.3e5
        beta = 0.55

        asm = CollocationJacobianAssembler(m, n, dq_mask=dq_mask, df_mask=df_mask)
        # dq/h + beta * (w * D_big @ dq + df), as the envelope builds it.
        got = asm.refresh(
            coupling, dq, diag_inner=df, coupling_scale=w,
            outer_coeff=beta, diag_outer=dq * (1.0 / h),
        )
        want = reference(
            coupling, dq, diag_inner=df, coupling_scale=w,
            outer_coeff=beta, h=h,
        )
        # Exact structural agreement ...
        assert got.nnz == want.nnz
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
        # ... and exact numerical agreement (trivially <= 1e-12).
        np.testing.assert_array_equal(got.data, want.data)

    def test_dense_masks_are_safe_default(self):
        rng = np.random.default_rng(3)
        m, n = 5, 2
        dq = rng.normal(size=(m, n, n))
        df = rng.normal(size=(m, n, n))
        coupling = fourier_differentiation_matrix(m, period=2.0)
        asm = CollocationJacobianAssembler(m, n)
        got = asm.refresh(coupling, dq, diag_inner=df)
        want = reference(coupling, dq, diag_inner=df)
        np.testing.assert_array_equal(got.toarray(), want.toarray())

    def test_refresh_tracks_value_changes(self):
        rng = np.random.default_rng(4)
        m, n = 7, 2
        coupling = fourier_differentiation_matrix(m, period=1.0)
        asm = CollocationJacobianAssembler(m, n)
        for _ in range(3):
            dq = rng.normal(size=(m, n, n))
            df = rng.normal(size=(m, n, n))
            got = asm.refresh(coupling, dq, diag_inner=df)
            want = reference(coupling, dq, diag_inner=df)
            np.testing.assert_array_equal(got.toarray(), want.toarray())

    def test_operand_zero_dropping_matches_scipy(self):
        """Entries vanish from the pattern exactly when scipy would drop
        them (operand exactly zero), and reappear when values return."""
        rng = np.random.default_rng(5)
        m, n = 5, 2
        coupling = fourier_differentiation_matrix(m, period=1.0)
        asm = CollocationJacobianAssembler(m, n)
        dq = rng.normal(size=(m, n, n))
        df = rng.normal(size=(m, n, n))
        dq[2, 0, 1] = 0.0
        df[3] = 0.0
        got = asm.refresh(coupling, dq, diag_inner=df)
        want = reference(coupling, dq, diag_inner=df)
        assert got.nnz == want.nnz
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)
        # Restore the zeros: pattern grows back and values still match.
        dq2 = rng.normal(size=(m, n, n))
        df2 = rng.normal(size=(m, n, n))
        got2 = asm.refresh(coupling, dq2, diag_inner=df2)
        want2 = reference(coupling, dq2, diag_inner=df2)
        assert got2.nnz == want2.nnz
        np.testing.assert_array_equal(got2.data, want2.data)


class TestBorderedAssembly:
    def test_matches_bordered_system_bitwise(self):
        rng = np.random.default_rng(6)
        m, n = 9, 3
        dq = rng.normal(size=(m, n, n))
        df = rng.normal(size=(m, n, n))
        coupling = fourier_differentiation_matrix(m, period=1.0)
        nu = 7.3e5
        column = rng.normal(size=m * n)
        row = np.zeros(m * n)
        row[::n] = rng.normal(size=m)  # structurally sparse phase row

        asm = CollocationJacobianAssembler(m, n, num_border=1)
        got = asm.refresh(
            coupling, dq, diag_inner=df, coupling_scale=nu,
            border_columns=column[:, None], border_rows=row[None, :],
        )
        core = reference(coupling, dq, diag_inner=df, coupling_scale=nu)
        want = BorderedSystem(
            core.tocsr(), column[:, None], row[None, :], np.zeros((1, 1))
        ).assemble()
        assert got.nnz == want.nnz
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.data, want.data)

    def test_border_column_zero_drift(self):
        """The tail-splice fast path: only the border column's exact-zero
        set changes between refreshes."""
        rng = np.random.default_rng(8)
        m, n = 7, 2
        dq = rng.normal(size=(m, n, n))
        df = rng.normal(size=(m, n, n))
        coupling = fourier_differentiation_matrix(m, period=1.0)
        row = rng.normal(size=m * n)
        asm = CollocationJacobianAssembler(m, n, num_border=1)
        for zeros in ([], [3], [3, 9], [0], []):
            column = rng.normal(size=m * n)
            column[list(zeros)] = 0.0
            got = asm.refresh(
                coupling, dq, diag_inner=df,
                border_columns=column[:, None], border_rows=row[None, :],
            )
            core = reference(coupling, dq, diag_inner=df)
            want = BorderedSystem(
                core.tocsr(), column[:, None], row[None, :], np.zeros((1, 1))
            ).assemble()
            assert got.nnz == want.nnz
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.data, want.data)

    def test_missing_border_values_raise(self):
        asm = CollocationJacobianAssembler(3, 2, num_border=1)
        coupling = fourier_differentiation_matrix(3, period=1.0)
        dq = np.ones((3, 2, 2))
        with pytest.raises(ValueError):
            asm.refresh(coupling, dq)
        asm2 = CollocationJacobianAssembler(3, 2)
        with pytest.raises(ValueError):
            asm2.refresh(coupling, dq, border_columns=np.ones((6, 1)),
                         border_rows=np.ones((1, 6)))


class TestReusableLUSolver:
    def test_sparse_solutions_match_spsolve(self):
        import scipy.sparse.linalg as spla

        rng = np.random.default_rng(0)
        a = sp.random(40, 40, density=0.2, random_state=1).tocsc()
        a = a + sp.identity(40) * 8.0
        rhs = rng.normal(size=40)
        solver = ReusableLUSolver()
        np.testing.assert_array_equal(
            solver(a, rhs), spla.spsolve(a.tocsc(), rhs)
        )

    def test_value_changes_are_picked_up(self):
        rng = np.random.default_rng(1)
        a = (sp.random(25, 25, density=0.3, random_state=2)
             + sp.identity(25) * 5.0).tocsc()
        solver = ReusableLUSolver()
        rhs = rng.normal(size=25)
        x1 = solver(a, rhs)
        np.testing.assert_allclose(a @ x1, rhs, atol=1e-10)
        a.data = a.data * 1.7  # same pattern, new values
        x2 = solver(a, rhs)
        np.testing.assert_allclose(a @ x2, rhs, atol=1e-10)
        assert not np.allclose(x1, x2)

    def test_csr_input_uses_cached_conversion(self):
        rng = np.random.default_rng(3)
        a = (sp.random(30, 30, density=0.25, random_state=4)
             + sp.identity(30) * 6.0).tocsr()
        solver = ReusableLUSolver()
        rhs = rng.normal(size=30)
        x1 = solver(a, rhs)
        np.testing.assert_allclose(a @ x1, rhs, atol=1e-10)
        a.data[:] = a.data * 0.9  # in-place value change, same index arrays
        x2 = solver(a, rhs)
        np.testing.assert_allclose(a @ x2, rhs, atol=1e-10)

    def test_dense_small_passthrough_and_large_cache(self):
        rng = np.random.default_rng(4)
        small = rng.normal(size=(4, 4)) + np.eye(4) * 4.0
        rhs = rng.normal(size=4)
        solver = ReusableLUSolver()
        np.testing.assert_array_equal(
            solver(small, rhs), np.linalg.solve(small, rhs)
        )
        big_n = ReusableLUSolver.DENSE_CACHE_THRESHOLD + 8
        big = rng.normal(size=(big_n, big_n)) + np.eye(big_n) * big_n
        rhs = rng.normal(size=big_n)
        x = solver(big, rhs)
        np.testing.assert_allclose(big @ x, rhs, atol=1e-9)
        x2 = solver(big, rhs * 2.0)  # same matrix, different rhs
        np.testing.assert_allclose(big @ x2, rhs * 2.0, atol=1e-9)

"""Matrix-free collocation Jacobian vs the assembled matrix.

:class:`~repro.linalg.spectral.SpectralCollocationOperator` must apply the
same Jacobian the pattern-reuse assembler builds, and forced HB's FFT
residual must equal the dense ``kron_diffmat`` product it replaced.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.dae.base import FunctionDAE
from repro.linalg import (
    CollocationJacobianAssembler,
    GmresLinearSolver,
    kron_diffmat,
)
from repro.linalg.spectral import (
    SpectralCollocationOperator,
    SpectralNewtonSolver,
)
from repro.spectral.diffmat import fourier_differentiation_matrix
from repro.steadystate.harmonic_balance import _ForcedHBSystem

grid_sizes = st.integers(min_value=1, max_value=30).map(lambda k: 2 * k + 1)
var_counts = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def relative_error(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300)


def random_blocks(rng, m, n):
    """``(m, n, n)`` random blocks on a random structural mask."""
    mask = rng.random((n, n)) < 0.6
    blocks = rng.normal(size=(m, n, n)) * 10.0 ** rng.uniform(-3, 3)
    blocks[:, ~mask] = 0.0
    return blocks, mask


def assemble_with(mask_dq, mask_df, diffmat):
    m, n = diffmat.shape[0], mask_dq.shape[0]
    assembler = CollocationJacobianAssembler(m, n, dq_mask=mask_dq,
                                             df_mask=mask_df)
    return lambda dq, df: assembler.refresh(diffmat, dq, diag_inner=df)


@given(grid_sizes, var_counts, seeds)
def test_matvec_matches_assembled_jacobian(m, n, seed):
    rng = np.random.default_rng(seed)
    period = 10.0 ** rng.uniform(-5, 1)
    dq, dq_mask = random_blocks(rng, m, n)
    df, df_mask = random_blocks(rng, m, n)
    diffmat = fourier_differentiation_matrix(m, period)
    assemble = assemble_with(dq_mask, df_mask, diffmat)
    operator = SpectralCollocationOperator(dq, df, period, assemble)
    v = rng.normal(size=m * n)
    expected = assemble(dq, df) @ v
    assert relative_error(operator.matvec(v), expected) <= 1e-12


@given(grid_sizes, var_counts, seeds)
def test_fft_residual_matches_dense_product(m, n, seed):
    rng = np.random.default_rng(seed)
    period = 10.0 ** rng.uniform(-5, 1)
    q_mat = rng.normal(size=(n, n))
    f_mat = rng.normal(size=(n, n))
    amplitude = rng.normal(size=n)
    dae = FunctionDAE(
        n,
        q=lambda x: q_mat @ np.tanh(x),
        f=lambda x: f_mat @ x + x ** 3,
        b=lambda t: amplitude * np.sin(2 * np.pi * t / period),
        dq_dx=lambda x: q_mat / np.cosh(x) ** 2,
        df_dx=lambda x: f_mat + np.diag(3 * x ** 2),
    )
    system = _ForcedHBSystem(dae, m, period)
    states = rng.normal(size=(m, n))
    d_big = kron_diffmat(fourier_differentiation_matrix(m, period), n)
    expected = (
        d_big @ dae.q_batch(states).ravel() + dae.f_batch(states).ravel()
        - system.b_flat
    )
    assert relative_error(system.residual(states.ravel()), expected) <= 1e-12


def test_preconditioner_inverts_a_constant_jacobian():
    """``dq``/``df`` equal at every point: the averaged Jacobian is the
    Jacobian, so preconditioned GMRES converges in one iteration."""
    rng = np.random.default_rng(3)
    m, n = 41, 3
    dq = np.broadcast_to(rng.normal(size=(n, n)), (m, n, n)).copy()
    df = np.broadcast_to(rng.normal(size=(n, n)) + 3 * np.eye(n),
                         (m, n, n)).copy()
    operator = SpectralCollocationOperator(dq, df, 2.5, assemble=None)
    rhs = rng.normal(size=m * n)
    np.testing.assert_allclose(
        operator.matvec(operator.preconditioner.matvec(rhs)), rhs,
        atol=1e-12 * np.abs(rhs).max(),
    )
    solver = GmresLinearSolver(preconditioner=None)
    x = solver(operator, rhs)
    assert solver.stats["krylov_iterations"] == 1
    np.testing.assert_allclose(operator.matvec(x), rhs,
                               atol=1e-9 * np.abs(rhs).max())


def test_singular_average_goes_straight_to_assembly():
    """An averaged Jacobian that cannot be inverted preconditions nothing:
    the step is solved on the assembled matrix without spending GMRES."""
    m, n = 21, 2
    dq = np.broadcast_to(0.1 * np.eye(n), (m, n, n)).copy()
    df = np.zeros((m, n, n))
    df[:, 0, 0] = 1.0
    df[:, 1, 1] = np.tile([2.0, -1.0, -1.0], m // 3)  # averages to zero
    diffmat = fourier_differentiation_matrix(m, 1.0)
    assemble = assemble_with(np.ones((n, n), bool), np.ones((n, n), bool),
                             diffmat)
    operator = SpectralCollocationOperator(dq, df, 1.0, assemble)
    assert operator.preconditioner is None
    rhs = np.random.default_rng(5).normal(size=m * n)
    solver = SpectralNewtonSolver()
    step = solver(operator, rhs)
    assert solver.stats == {"factorizations": 1, "krylov_iterations": 0}
    np.testing.assert_allclose(assemble(dq, df) @ step, rhs, atol=1e-10)

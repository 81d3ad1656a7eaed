"""Matrix-free collocation Jacobian vs the assembled matrix.

:class:`~repro.linalg.spectral.SpectralCollocationOperator` must apply the
same Jacobian the pattern-reuse assembler builds on 1-D and 2-D grids, and
forced HB's FFT residual must equal the dense ``kron_diffmat`` product it
replaced.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dae.base import FunctionDAE
from repro.linalg import (
    CollocationJacobianAssembler,
    GmresLinearSolver,
    kron_diffmat,
)
from repro.linalg.spectral import (
    FORCING_TERM_MAX,
    SpectralCollocationOperator,
    SpectralNewtonSolver,
    coupling_matrix,
)
from repro.spectral.diffmat import fourier_differentiation_matrix
from repro.steadystate.harmonic_balance import _ForcedHBSystem

grid_sizes = st.integers(min_value=1, max_value=30).map(lambda k: 2 * k + 1)
#: A 1-D grid of up to 61 points or a 2-D grid of up to 15 x 15.
grids = st.one_of(
    grid_sizes.map(lambda m: (m,)),
    st.tuples(*[st.integers(min_value=0, max_value=7).map(
        lambda k: 2 * k + 1)] * 2),
)
var_counts = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def relative_error(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300)


def random_blocks(rng, grid, n):
    """``grid + (n, n)`` random blocks on a random structural mask."""
    mask = rng.random((n, n)) < 0.6
    blocks = rng.normal(size=tuple(grid) + (n, n)) * 10.0 ** rng.uniform(-3, 3)
    blocks[..., ~mask] = 0.0
    return blocks, mask


def assemble_with(mask_dq, mask_df, grid, periods):
    """The assembled Jacobian of ``Σ_axis D_axis`` on ``grid``."""
    coupling = coupling_matrix(grid, periods)
    m, n = coupling.shape[0], mask_dq.shape[0]
    assembler = CollocationJacobianAssembler(
        m, n, dq_mask=mask_dq, df_mask=mask_df, coupling_mask=coupling != 0.0
    )
    return lambda dq, df: assembler.refresh(
        coupling, dq.reshape(m, n, n), diag_inner=df.reshape(m, n, n)
    )


@given(grids, var_counts, seeds)
def test_matvec_matches_assembled_jacobian(grid, n, seed):
    rng = np.random.default_rng(seed)
    periods = tuple(10.0 ** rng.uniform(-5, 1, size=len(grid)))
    dq, dq_mask = random_blocks(rng, grid, n)
    df, df_mask = random_blocks(rng, grid, n)
    assemble = assemble_with(dq_mask, df_mask, grid, periods)
    operator = SpectralCollocationOperator(dq, df, periods, assemble)
    v = rng.normal(size=dq.size // n)
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
    """``dq``/``df`` that do not vary along one grid axis: that axis is
    averaged, the averaged Jacobian is the Jacobian, and preconditioned
    GMRES converges in one iteration.  On a 2-D grid the other axis may
    vary freely, in either direction."""
    rng = np.random.default_rng(3)
    n = 3
    for grid, constant_axis in (((41,), 0), ((9, 15), 0), ((9, 15), 1)):
        shape = list(grid) + [n, n]
        shape[constant_axis] = 1
        dq = np.broadcast_to(rng.normal(size=shape), grid + (n, n)).copy()
        df = np.broadcast_to(rng.normal(size=shape) + 3 * np.eye(n),
                             grid + (n, n)).copy()
        periods = (2.5, 0.01)[:len(grid)]
        operator = SpectralCollocationOperator(dq, df, periods, assemble=None)
        assert operator.averaged_axis == constant_axis
        rhs = rng.normal(size=dq.size // n)
        np.testing.assert_allclose(
            operator.matvec(operator.preconditioner.matvec(rhs)), rhs,
            atol=1e-12 * np.abs(rhs).max(),
        )
        solver = GmresLinearSolver(preconditioner=None)
        x = solver(operator, rhs)
        assert solver.stats["krylov_iterations"] == 1
        np.testing.assert_allclose(operator.matvec(x), rhs,
                                   atol=1e-9 * np.abs(rhs).max())


@pytest.mark.parametrize("periods, averaged", [((10.0, 1.0), 0),
                                               ((1.0, 10.0), 1)])
def test_averaged_axis_weighs_dq_by_the_axis_frequency(periods, averaged):
    """The same ``dq`` variation along both axes: the axis with the longer
    period (``D`` scales ``dq`` by its ``2π/T``) is the one averaged."""
    rng = np.random.default_rng(11)
    grid, n = (9, 11), 2
    ripple = (np.cos(2 * np.pi * np.arange(grid[0]) / grid[0])[:, None]
              + np.cos(2 * np.pi * np.arange(grid[1]) / grid[1])[None, :])
    dq = (1.0 + 0.1 * ripple)[..., None, None] * np.eye(n)
    df = np.broadcast_to(rng.normal(size=(n, n)) + 3 * np.eye(n),
                         grid + (n, n)).copy()
    operator = SpectralCollocationOperator(dq, df, periods, assemble=None)
    assert operator.averaged_axis == averaged


def test_operator_is_freed_by_refcount():
    """Nothing in an operator refers back to it: without the cycle
    collector it dies on ``del``, and with it whatever its ``assemble``
    keeps alive (a system holding an ``(N n)²`` Jacobian after a miss)."""
    m, n = 21, 2
    dq = np.broadcast_to(0.1 * np.eye(n), (m, n, n)).copy()
    df = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    enabled = gc.isenabled()
    gc.disable()
    try:
        operator = SpectralCollocationOperator(dq, df, 1.0, assemble=None)
        assert operator.preconditioner is not None
        alive = weakref.ref(operator)
        del operator
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_singular_average_goes_straight_to_assembly():
    """An averaged Jacobian that cannot be inverted preconditions nothing:
    the step is solved on the assembled matrix without spending GMRES.
    ``df[1, 1]`` averages to zero along every axis and ``dq[1, 1]`` is 0,
    so the zeroth harmonic is singular whichever axis is averaged."""
    n = 2
    for grid, periods in (((21,), (1.0,)), ((9, 15), (1.0, 3.0))):
        pattern = np.ones(grid)
        for axis, size in enumerate(grid):
            shape = [1] * len(grid)
            shape[axis] = size
            pattern = pattern * np.tile([2.0, -1.0, -1.0],
                                        size // 3).reshape(shape)
        dq = np.zeros(grid + (n, n))
        dq[..., 0, 0] = 0.1
        df = np.zeros(grid + (n, n))
        df[..., 0, 0] = 1.0
        df[..., 1, 1] = pattern  # averages to zero along each axis
        assemble = assemble_with(np.ones((n, n), bool),
                                 np.ones((n, n), bool), grid, periods)
        operator = SpectralCollocationOperator(dq, df, periods, assemble)
        assert operator.preconditioner is None
        rhs = np.random.default_rng(5).normal(size=dq.size // n)
        solver = SpectralNewtonSolver()
        step = solver(operator, rhs)
        assert solver.stats == {"factorizations": 1, "krylov_iterations": 0}
        np.testing.assert_allclose(assemble(dq, df) @ step, rhs, atol=1e-10)


def test_forcing_terms_follow_eisenstat_walker():
    """Choice 2: ``η_k = 0.9 (‖F_k‖/‖F_{k-1}‖)²`` from the right-hand
    sides' 2-norms, capped at FORCING_TERM_MAX (also the first step's) and
    never tighter than GMRES's exact-solve tolerance."""
    m, n = 21, 2
    dq = np.broadcast_to(0.1 * np.eye(n), (m, n, n)).copy()
    df = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    operator = SpectralCollocationOperator(dq, df, 1.0, assemble=None)
    rhs = np.random.default_rng(7).normal(size=m * n)
    solver = SpectralNewtonSolver()
    forcing = []
    for scale in (1.0, 0.1, 0.1, 1e-12):
        solver(operator, scale * rhs)
        forcing.append(solver.krylov.rtol)
    assert forcing[0] == FORCING_TERM_MAX
    assert forcing[1] == pytest.approx(0.9 * 0.1 ** 2)
    assert forcing[2] == FORCING_TERM_MAX
    assert forcing[3] == solver.exact_rtol

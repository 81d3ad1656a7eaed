"""The dense collocation route: parity with the sparse assembler, the size
selector, and the LAPACK solves behind it.

Up to ``DENSE_MAX_UNKNOWNS`` unknowns the engines assemble their Newton
matrices with ``DenseCollocationAssembler`` and factorise them with LAPACK.
Its matrix must equal the sparse assembler's ``refresh(...).toarray()``
exactly, so the two routes differ only in the factorisation.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.circuits.library import (
    MemsVcoDae,
    VcoParams,
    ring_oscillator_circuit,
)
from repro.dae import VanDerPolDae
from repro.kernels.sweep import KernelizedDAE, maybe_kernelize_batch
from repro.linalg import collocation
from repro.linalg.collocation import (
    CollocationJacobianAssembler,
    DenseCollocationAssembler,
    collocation_assembler,
)
from repro.linalg.lu_cache import FrozenFactorization, ReusableLUSolver
from repro.phase_conditions import FourierImagAnchor
from repro.spectral.diffmat import fourier_differentiation_matrix
from repro.wampde import solve_wampde_envelope


def envelope_arguments(dae, states, rng):
    """``refresh`` arguments of a WaMPDE envelope step at ``states``."""
    m, n = states.shape
    dq = dae.dq_dx_batch(states)
    return dict(
        coupling=fourier_differentiation_matrix(m, period=1.0),
        dq_blocks=dq,
        diag_inner=dae.df_dx_batch(states),
        coupling_scale=rng.uniform(0.5, 2.0) / rng.uniform(1e-7, 1e-5),
        outer_coeff=0.55,
        diag_outer=dq * (1.0 / rng.uniform(1e-8, 1e-6)),
        border_columns=rng.normal(size=(m * n, 1)),
        border_rows=FourierImagAnchor().gradient(m, n)[None, :],
    )


def assert_dense_equals_sparse(dae, num_points, num_border, arguments,
                               coupling_mask=None):
    sparse = CollocationJacobianAssembler(
        num_points, dae.n, dq_mask=dae.dq_structure(),
        df_mask=dae.df_structure(), coupling_mask=coupling_mask,
        num_border=num_border,
    )
    dense = DenseCollocationAssembler(num_points, dae.n, num_border)
    expected = sparse.refresh(**arguments).toarray()
    matrix = dense.refresh(**arguments)
    assert matrix.shape == expected.shape
    assert np.array_equal(matrix, expected)


class TestDenseSparseParity:
    @pytest.mark.parametrize("kernel", ["python", "auto"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vco_envelope_step(self, vco_initial_condition, kernel, seed):
        params, samples, _f0 = vco_initial_condition
        dae, _info = maybe_kernelize_batch(MemsVcoDae(params), kernel)
        if kernel == "auto" and not isinstance(dae, KernelizedDAE):
            pytest.skip("no compiled kernel on this host")
        rng = np.random.default_rng(seed)
        states = samples * (1.0 + 0.05 * rng.normal(size=samples.shape))
        assert_dense_equals_sparse(
            dae, samples.shape[0], 1, envelope_arguments(dae, states, rng)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ring_oscillator(self, seed):
        dae = ring_oscillator_circuit(stages=5).to_dae()
        rng = np.random.default_rng(seed)
        states = 0.5 * rng.normal(size=(25, dae.n))
        assert_dense_equals_sparse(
            dae, 25, 1, envelope_arguments(dae, states, rng)
        )

    def test_quasiperiodic_borders(self):
        """Several borders, a corner and a sparse two-axis coupling."""
        dae = VanDerPolDae(mu=0.7)
        n0, n1 = 5, 3
        rng = np.random.default_rng(4)
        w1 = np.kron(np.eye(n1), fourier_differentiation_matrix(n0, 1.0))
        w2 = np.kron(fourier_differentiation_matrix(n1, 2.0), np.eye(n0))
        omegas = rng.uniform(0.8, 1.2, size=n1)
        states = rng.normal(size=(n1 * n0, dae.n))
        core = n1 * n0 * dae.n
        arguments = dict(
            coupling=np.repeat(omegas, n0)[:, None] * w1 + w2,
            dq_blocks=dae.dq_dx_batch(states),
            diag_inner=dae.df_dx_batch(states),
            border_columns=rng.normal(size=(core, n1)),
            border_rows=rng.normal(size=(n1, core)),
            corner=rng.normal(size=(n1, n1)),
        )
        assert_dense_equals_sparse(
            dae, n1 * n0, n1, arguments,
            coupling_mask=(w1 != 0.0) | (w2 != 0.0),
        )

    def test_unbordered_refresh_overwrites_in_place(self):
        dae = VanDerPolDae(mu=0.3)
        rng = np.random.default_rng(5)
        dense = DenseCollocationAssembler(7, dae.n)
        coupling = fourier_differentiation_matrix(7, period=1.0)
        first = dense.refresh(coupling, rng.normal(size=(7, 2, 2)))
        states = rng.normal(size=(7, 2))
        second = dense.refresh(
            coupling, dae.dq_dx_batch(states),
            diag_inner=dae.df_dx_batch(states), coupling_scale=2.5,
        )
        assert second is first
        sparse = CollocationJacobianAssembler(7, dae.n)
        expected = sparse.refresh(
            coupling, dae.dq_dx_batch(states),
            diag_inner=dae.df_dx_batch(states), coupling_scale=2.5,
        ).toarray()
        assert np.array_equal(second, expected)

    def test_argument_errors_match_sparse(self):
        dense = DenseCollocationAssembler(3, 2, num_border=1)
        coupling = fourier_differentiation_matrix(3, period=1.0)
        with pytest.raises(ValueError, match="border_columns"):
            dense.refresh(coupling, np.zeros((3, 2, 2)))
        with pytest.raises(ValueError, match="dq_blocks"):
            dense.refresh(coupling, np.zeros((3, 2, 3)))
        with pytest.raises(ValueError, match="without a border"):
            DenseCollocationAssembler(3, 2).refresh(
                coupling, np.zeros((3, 2, 2)),
                border_columns=np.zeros((6, 1)), border_rows=np.zeros((1, 6)),
            )


class TestSelector:
    def test_vco_envelope_step_is_dense(self):
        dae = MemsVcoDae(VcoParams.vacuum())
        assert 25 * dae.n + 1 == 101
        assembler = collocation_assembler(
            25, dae.n, dae.dq_structure(), dae.df_structure(), num_border=1
        )
        assert isinstance(assembler, DenseCollocationAssembler)

    def test_41_stage_ring_stays_sparse(self):
        dae = ring_oscillator_circuit(stages=41).to_dae()
        assert 25 * dae.n + 1 == 1026
        assembler = collocation_assembler(
            25, dae.n, dae.dq_structure(), dae.df_structure(), num_border=1
        )
        assert isinstance(assembler, CollocationJacobianAssembler)

    def test_crossover_counts_the_border(self):
        limit = collocation.DENSE_MAX_UNKNOWNS
        assert isinstance(
            collocation_assembler(limit, 1), DenseCollocationAssembler
        )
        assert isinstance(
            collocation_assembler(limit, 1, num_border=1),
            CollocationJacobianAssembler,
        )

    def test_envelope_assembles_nothing_sparse(
        self, vco_initial_condition, monkeypatch
    ):
        # The NumPy stepper: the compiled march assembles in C.
        monkeypatch.setenv("REPRO_KERNEL", "python")
        params, samples, f0 = vco_initial_condition
        calls = []
        sparse_refresh = CollocationJacobianAssembler.refresh

        def counting(self, *args, **kwargs):
            calls.append(1)
            return sparse_refresh(self, *args, **kwargs)

        monkeypatch.setattr(CollocationJacobianAssembler, "refresh", counting)
        solve_wampde_envelope(MemsVcoDae(params), samples, f0, 0.0, 4e-6, 5)
        assert calls == []
        monkeypatch.setattr(collocation, "DENSE_MAX_UNKNOWNS", 0)
        solve_wampde_envelope(MemsVcoDae(params), samples, f0, 0.0, 4e-6, 5)
        assert len(calls) > 0


class TestRouteEquivalence:
    def test_dense_and_sparse_envelopes_agree(
        self, vco_initial_condition, monkeypatch
    ):
        """One vacuum control period, where omega swings ~3x: the routes
        factorise differently, so they agree to the Newton tolerance, not
        bit for bit."""
        # The NumPy stepper: the compiled march is dense at any size.
        monkeypatch.setenv("REPRO_KERNEL", "python")
        params, samples, f0 = vco_initial_condition
        span = params.control_period
        dense = solve_wampde_envelope(
            MemsVcoDae(params), samples, f0, 0.0, span, 50
        )
        monkeypatch.setattr(collocation, "DENSE_MAX_UNKNOWNS", 0)
        sparse = solve_wampde_envelope(
            MemsVcoDae(params), samples, f0, 0.0, span, 50
        )
        assert dense.omega.max() / dense.omega.min() > 2.5
        np.testing.assert_allclose(dense.omega, sparse.omega, rtol=1e-9)
        scale = np.max(np.abs(sparse.samples), axis=(0, 1))
        assert np.all(
            np.max(np.abs(dense.samples - sparse.samples), axis=(0, 1))
            <= 1e-9 * scale
        )


class TestLapackSolve:
    """The dense factors are solved by LAPACK ``getrs`` directly."""

    @staticmethod
    def system(shape):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(101, 101)) + 10.0 * np.eye(101)
        return a, rng.normal(size=shape)

    @pytest.mark.parametrize("shape", [(101,), (101, 3)])
    def test_frozen_solve_equals_lu_solve(self, shape):
        a, rhs = self.system(shape)
        kept = rhs.copy()
        solution = FrozenFactorization().factor(a).solve(rhs)
        assert np.array_equal(solution, sla.lu_solve(sla.lu_factor(a), rhs))
        assert np.array_equal(rhs, kept)

    def test_reusable_solver_equals_lu_solve(self):
        a, rhs = self.system((101,))
        solver = ReusableLUSolver()
        first = solver(a, rhs)
        second = solver(a, 2.0 * rhs)
        factors = sla.lu_factor(a)
        assert np.array_equal(first, sla.lu_solve(factors, rhs))
        assert np.array_equal(second, sla.lu_solve(factors, 2.0 * rhs))
        assert solver.stats["factorizations"] == 2

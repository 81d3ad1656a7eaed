"""Tests for the ensemble batch axis: stacked DAEs, the batched step
assembler/factorisation, the lock-step transient engine and the ensemble
sweep path."""

import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace

from repro.circuits.devices import Capacitor, Resistor, VoltageSource
from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
from repro.circuits.netlist import Circuit
from repro.circuits.waveforms import Sine
from repro.dae import EnsembleDAE, VanDerPolDae, ensemble_from_factory
from repro.errors import SimulationError, ValidationError
from repro.linalg.lu_cache import BlockFactorization
from repro.linalg.transient_assembler import TransientStepAssembler
from repro.steadystate import (
    ensemble_frequency_sweep,
    oscillator_frequency_sweep,
)
from repro.transient import (
    TransientOptions,
    simulate_transient,
    simulate_transient_ensemble,
)


VCS = np.array([0.9, 1.3, 1.7, 2.1])


def vco_factory(vc):
    return MemsVcoDae(
        replace(VcoParams.vacuum(), control_offset=vc), constant_control=True
    )


def vco_stacked_factory(values):
    return MemsVcoDae(
        replace(VcoParams.vacuum(), control_offset=np.asarray(values)),
        constant_control=True,
    )


def vco_ensemble():
    return ensemble_from_factory(vco_factory, VCS, vco_stacked_factory)


class TestEnsembleDAE:
    def test_stacked_matches_members(self, rng):
        ensemble = vco_ensemble()
        loop = EnsembleDAE.from_members([vco_factory(v) for v in VCS])
        states = rng.standard_normal((VCS.size, 4))
        for name in ("q_rows", "f_rows", "dq_rows", "df_rows"):
            np.testing.assert_allclose(
                getattr(ensemble, name)(states),
                getattr(loop, name)(states),
                rtol=1e-14,
            )
        q1, f1 = ensemble.qf_rows(states)
        q2, f2 = loop.qf_rows(states)
        np.testing.assert_allclose(q1, q2, rtol=1e-14)
        np.testing.assert_allclose(f1, f2, rtol=1e-14)
        np.testing.assert_allclose(
            ensemble.b_rows(0.2), loop.b_rows(0.2), rtol=1e-14
        )
        grid = np.linspace(0.0, 1e-6, 7)
        np.testing.assert_allclose(
            ensemble.b_rows_grid(grid), loop.b_rows_grid(grid), rtol=1e-14
        )

    def test_structures_and_member_access(self):
        ensemble = vco_ensemble()
        member = ensemble.member(2)
        np.testing.assert_array_equal(
            ensemble.dq_structure(), member.dq_structure()
        )
        np.testing.assert_array_equal(
            ensemble.df_structure(), member.df_structure()
        )
        assert ensemble.batch_size == VCS.size
        assert ensemble.variable_names == member.variable_names

    def test_shape_validation(self):
        ensemble = vco_ensemble()
        with pytest.raises(ValidationError):
            ensemble.q_rows(np.zeros((2, 4)))
        with pytest.raises(ValidationError):
            EnsembleDAE.from_members([])
        with pytest.raises(ValidationError):
            EnsembleDAE.from_members([VanDerPolDae(), vco_factory(1.5)])

    def test_stacked_without_members_refuses_member_access(self):
        ensemble = EnsembleDAE.from_stacked(vco_stacked_factory(VCS), 4)
        assert not ensemble.has_members
        with pytest.raises(ValidationError):
            ensemble.member(0)

    def test_circuit_dae_per_scenario_device_stacks(self, rng):
        """A CircuitDAE whose devices hold (B,) component stacks matches
        per-member circuit builds — the PR-1 gather/scatter maps never
        look at parameter values."""
        resistances = np.array([500.0, 1000.0, 2000.0])
        capacitances = np.array([1e-7, 2e-7, 4e-7])

        def build(r, c):
            circuit = Circuit("per-scenario RC")
            circuit.add(
                VoltageSource("Vin", "in", "0", Sine(amplitude=1.0,
                                                     frequency=50.0))
            )
            circuit.add(Resistor("R1", "in", "out", r))
            circuit.add(Capacitor("C1", "out", "0", c))
            return circuit.to_dae()

        stacked = build(resistances, capacitances)
        members = [build(r, c) for r, c in zip(resistances, capacitances)]
        states = rng.standard_normal((3, stacked.n))
        for name in ("q_batch", "f_batch", "dq_dx_batch", "df_dx_batch"):
            got = getattr(stacked, name)(states)
            want = np.stack(
                [getattr(m, name)(s[None])[0]
                 for m, s in zip(members, states)]
            )
            np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_qf_batch_matches_separate_calls(self, rng):
        dae = vco_stacked_factory(VCS)
        states = rng.standard_normal((VCS.size, 4))
        q, f = dae.qf_batch(states)
        np.testing.assert_allclose(q, dae.q_batch(states), rtol=0, atol=0)
        np.testing.assert_allclose(f, dae.f_batch(states), rtol=0, atol=0)


class TestBatchedAssembler:
    def test_block_diagonal_matches_per_block(self, rng):
        n, batch = 80, 3
        dq_mask = rng.random((n, n)) < 0.03
        df_mask = rng.random((n, n)) < 0.03
        np.fill_diagonal(dq_mask, True)
        asm = TransientStepAssembler(dq_mask, df_mask, batch=batch)
        assert not asm.dense
        dq = rng.standard_normal((batch, n, n)) * dq_mask
        df = rng.standard_normal((batch, n, n)) * df_mask
        out = asm.refresh(2.0, dq, 0.5, df)
        assert sp.issparse(out)
        reference = sp.block_diag(
            [2.0 * dq[b] + 0.5 * df[b] for b in range(batch)]
        ).toarray()
        np.testing.assert_allclose(out.toarray(), reference, rtol=0, atol=0)

    def test_dense_batch_returns_stack(self, rng):
        asm = TransientStepAssembler(
            np.ones((4, 4), bool), np.ones((4, 4), bool), batch=5
        )
        assert asm.dense
        dq = rng.standard_normal((5, 4, 4))
        df = rng.standard_normal((5, 4, 4))
        out = asm.refresh(3.0, dq, 1.0, df)
        assert out.shape == (5, 4, 4)
        np.testing.assert_array_equal(out, 3.0 * dq + 1.0 * df)

    def test_block_factorization_dense_and_sparse(self, rng):
        batch, n = 4, 6
        blocks = rng.standard_normal((batch, n, n)) + n * np.eye(n)
        rhs = rng.standard_normal((batch, n))
        factor = BlockFactorization().factor(blocks)
        solution = factor.solve(rhs)
        for b in range(batch):
            np.testing.assert_allclose(
                blocks[b] @ solution[b], rhs[b], atol=1e-10
            )
        sparse = sp.block_diag(list(blocks)).tocsc()
        solution2 = BlockFactorization().factor(sparse).solve(rhs)
        np.testing.assert_allclose(solution2, solution, atol=1e-10)

    def test_block_factorization_large_dense_uses_lu(self, rng):
        n = BlockFactorization.DENSE_LIMIT + 4
        blocks = rng.standard_normal((2, n, n)) + n * np.eye(n)
        rhs = rng.standard_normal((2, n))
        factor = BlockFactorization().factor(blocks)
        solution = factor.solve(rhs)
        for b in range(2):
            np.testing.assert_allclose(
                solution[b], np.linalg.solve(blocks[b], rhs[b]), rtol=1e-10
            )

    def test_solve_before_factor_raises(self):
        with pytest.raises(RuntimeError, match="before factor"):
            BlockFactorization().solve(np.zeros((1, 2)))


class TestBatchedLU:
    """The batched mode of BlockFactorization: a vectorised LU with
    partial pivoting and no materialised inverses."""

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 33, 64])
    def test_factor_solve_matches_numpy(self, n, rng):
        batch = 7
        a = rng.standard_normal((batch, n, n)) + n * np.eye(n)
        b = rng.standard_normal((batch, n))
        factor = BlockFactorization().factor(a)
        assert factor._mode == "batched"
        x = factor.solve(b)
        want = np.stack([np.linalg.solve(a[i], b[i]) for i in range(batch)])
        np.testing.assert_allclose(x, want, rtol=1e-9, atol=1e-12)

    def test_pivoting_handles_zero_leading_diagonal(self):
        a = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        b = np.array([[2.0, 3.0]])
        x = BlockFactorization().factor(a).solve(b)
        np.testing.assert_allclose(x[0], [3.0, 2.0], rtol=1e-14)

    def test_singular_member_raises_for_whole_batch(self, rng):
        # Like the compiled kernel: one singular scenario fails the whole
        # factorisation, and the step controller reacts by halving dt for
        # everyone.
        a = rng.standard_normal((3, 4, 4)) + 4 * np.eye(4)
        a[1, :, 2] = a[1, :, 0]  # exactly dependent columns
        factor = BlockFactorization()
        with pytest.raises(np.linalg.LinAlgError):
            factor.factor(a)

    def test_nonfinite_factor_raises(self):
        a = np.ones((1, 3, 3))
        a[0, 1, 1] = np.inf
        with pytest.raises(np.linalg.LinAlgError):
            BlockFactorization().factor(a)

    def test_dense_block_uses_batched_mode_up_to_64(self, rng):
        n = 64
        blocks = rng.standard_normal((3, n, n)) + n * np.eye(n)
        rhs = rng.standard_normal((3, n))
        factor = BlockFactorization()
        factor.factor(blocks)
        assert factor._mode == "batched"
        # No materialised inverses anywhere: the factorisation keeps LU
        # factors + permutations only.
        assert not any("inv" in key for key in vars(factor))
        x = factor.solve(rhs)
        want = np.stack(
            [np.linalg.solve(blocks[i], rhs[i]) for i in range(3)]
        )
        np.testing.assert_allclose(x, want, rtol=1e-9, atol=1e-12)

    def test_dense_cap_is_64(self):
        assert BlockFactorization.DENSE_LIMIT == 64

    def test_above_cap_falls_back_to_per_block_lu(self, rng):
        n = BlockFactorization.DENSE_LIMIT + 1
        blocks = rng.standard_normal((2, n, n)) + n * np.eye(n)
        factor = BlockFactorization()
        factor.factor(blocks)
        assert factor._mode == "lu"
        rhs = rng.standard_normal((2, n))
        want = np.stack(
            [np.linalg.solve(blocks[i], rhs[i]) for i in range(2)]
        )
        np.testing.assert_allclose(
            factor.solve(rhs), want, rtol=1e-9, atol=1e-12
        )


class TestEnsembleTransient:
    """Acceptance: a batched B-scenario transient matches B independent
    serial runs within solver tolerance."""

    def test_matches_serial_runs(self):
        ensemble = vco_ensemble()
        x0 = np.tile([1.0, 0.0, 0.0, 0.0], (VCS.size, 1))
        opts = TransientOptions(integrator="trap", dt=T_NOMINAL / 100)
        horizon = 15 * T_NOMINAL
        batched = simulate_transient_ensemble(
            ensemble, x0, 0.0, horizon, opts
        )
        for index, vc in enumerate(VCS):
            serial = simulate_transient(
                vco_factory(vc), x0[index], 0.0, horizon, opts
            )
            assert np.array_equal(batched.t, serial.t)
            scale = np.maximum(np.abs(serial.x).max(axis=0), 1e-30)
            err = np.abs(batched.x[:, index] - serial.x).max(axis=0) / scale
            assert err.max() < 1e-5, (index, err)

    def test_stacked_matches_member_loop_path(self):
        x0 = np.tile([1.0, 0.0, 0.0, 0.0], (VCS.size, 1))
        opts = TransientOptions(integrator="trap", dt=T_NOMINAL / 100)
        fast = simulate_transient_ensemble(
            vco_ensemble(), x0, 0.0, 4 * T_NOMINAL, opts
        )
        slow = simulate_transient_ensemble(
            EnsembleDAE.from_members([vco_factory(v) for v in VCS]),
            x0, 0.0, 4 * T_NOMINAL, opts,
        )
        np.testing.assert_allclose(fast.x, slow.x, rtol=0, atol=1e-12)

    def test_integrator_variants_and_broadcast_x0(self):
        mus = np.array([0.3, 0.8, 1.4])
        ensemble = ensemble_from_factory(
            lambda mu: VanDerPolDae(mu=mu), mus,
            lambda stack: VanDerPolDae(mu=np.asarray(stack)),
        )
        for integrator in ("be", "trap", "bdf2"):
            opts = TransientOptions(integrator=integrator, dt=0.02)
            batched = simulate_transient_ensemble(
                ensemble, [2.0, 0.0], 0.0, 10.0, opts
            )
            for index, mu in enumerate(mus):
                serial = simulate_transient(
                    VanDerPolDae(mu=float(mu)), [2.0, 0.0], 0.0, 10.0, opts
                )
                scale = np.maximum(np.abs(serial.x).max(axis=0), 1e-30)
                err = np.abs(
                    batched.x[:, index] - serial.x
                ).max(axis=0) / scale
                assert err.max() < 2e-4, (integrator, index, err)

    def test_per_scenario_stats_reported(self):
        ensemble = vco_ensemble()
        x0 = np.tile([1.0, 0.0, 0.0, 0.0], (VCS.size, 1))
        result = simulate_transient_ensemble(
            ensemble, x0, 0.0, 5 * T_NOMINAL,
            TransientOptions(integrator="trap", dt=T_NOMINAL / 80),
        )
        per_scenario = result.stats["solver_per_scenario"]
        assert len(per_scenario) == VCS.size
        assert sum(s["iterations"] for s in per_scenario) \
            == result.stats["newton_iterations"]
        member = result.member(1)
        assert member.x.shape == (result.t.size, 4)
        assert member.stats["solver"] == per_scenario[1]

    def test_member_result_roundtrip(self):
        ensemble = vco_ensemble()
        x0 = np.tile([1.0, 0.0, 0.0, 0.0], (VCS.size, 1))
        result = simulate_transient_ensemble(
            ensemble, x0, 0.0, 2 * T_NOMINAL,
            TransientOptions(integrator="trap", dt=T_NOMINAL / 50),
        )
        member = result.member(3)
        np.testing.assert_array_equal(member.t, result.t)
        np.testing.assert_array_equal(member.x, result.x[:, 3])

    def test_rejects_adaptive_and_missing_dt(self):
        ensemble = vco_ensemble()
        x0 = np.zeros((VCS.size, 4))
        with pytest.raises(SimulationError, match="fixed-step"):
            simulate_transient_ensemble(
                ensemble, x0, 0.0, 1.0,
                TransientOptions(adaptive=True, dt=0.1),
            )
        with pytest.raises(SimulationError, match="options.dt"):
            simulate_transient_ensemble(ensemble, x0, 0.0, 1.0)
        with pytest.raises(SimulationError, match="linear solvers"):
            simulate_transient_ensemble(
                ensemble, x0, 0.0, 1.0,
                TransientOptions(dt=0.1, linear_solver=lambda a, b: b),
            )

    def test_plain_dae_wrapped_as_single_scenario(self):
        dae = VanDerPolDae(mu=0.5)
        opts = TransientOptions(integrator="trap", dt=0.02)
        batched = simulate_transient_ensemble(dae, [2.0, 0.0], 0.0, 5.0, opts)
        serial = simulate_transient(dae, [2.0, 0.0], 0.0, 5.0, opts)
        assert batched.batch_size == 1
        scale = np.maximum(np.abs(serial.x).max(axis=0), 1e-30)
        err = np.abs(batched.x[:, 0] - serial.x).max(axis=0) / scale
        assert err.max() < 1e-6


class TestLargeBatch:
    def test_large_b_lockstep_smoke(self):
        batch = 256
        mus = np.linspace(0.1, 0.7, batch)
        ensemble = ensemble_from_factory(
            lambda mu: VanDerPolDae(mu=mu), mus,
            lambda stack: VanDerPolDae(mu=np.asarray(stack)),
        )
        x0 = np.tile([2.0, 0.0], (batch, 1))
        result = simulate_transient_ensemble(
            ensemble, x0, 0.0, 1.0,
            TransientOptions(dt=0.02, kernel="python"),
        )
        assert result.x.shape[1:] == (batch, 2)
        stats = result.stats
        assert stats["scenarios"] == batch
        assert stats["kernel"]["mode"] == "python"
        # Per-scenario convergence masks: every scenario carries its own
        # solver counters, and on this smooth problem all converge.
        per = stats["solver_per_scenario"]
        assert len(per) == batch
        assert all(entry["iterations"] > 0 for entry in per)
        assert stats["newton_failures"] == 0
        assert np.all(np.isfinite(result.x))


class TestEnsembleSweep:
    def test_matches_continuation(self):
        mus = np.linspace(0.2, 1.0, 5)
        continuation = oscillator_frequency_sweep(
            lambda mu: VanDerPolDae(mu=float(mu)), mus, period_guess=6.3
        )
        batched = ensemble_frequency_sweep(
            lambda mu: VanDerPolDae(mu=float(mu)), mus, period_guess=6.3,
            stacked_factory=lambda stack: VanDerPolDae(mu=np.asarray(stack)),
        )
        np.testing.assert_allclose(
            batched.frequencies, continuation.frequencies, rtol=1e-8
        )
        np.testing.assert_allclose(
            batched.amplitudes, continuation.amplitudes, rtol=1e-6
        )
        assert len(batched.solver_stats) == mus.size

    def test_method_dispatch_and_validation(self):
        mus = np.array([0.2, 0.6])
        via_dispatch = oscillator_frequency_sweep(
            lambda mu: VanDerPolDae(mu=float(mu)), mus, period_guess=6.3,
            method="ensemble",
        )
        direct = ensemble_frequency_sweep(
            lambda mu: VanDerPolDae(mu=float(mu)), mus, period_guess=6.3
        )
        np.testing.assert_allclose(
            via_dispatch.frequencies, direct.frequencies, rtol=1e-9
        )
        with pytest.raises(ValueError, match="method"):
            oscillator_frequency_sweep(
                lambda mu: VanDerPolDae(), [0.2], period_guess=6.3,
                method="bogus",
            )

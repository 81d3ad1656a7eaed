"""Tests for single-sweep (forward-sensitivity) monodromy propagation.

The sensitivity-propagated monodromy must match the independent
finite-difference monodromy, shooting must converge with exactly one
transient sweep per Newton iteration, and the period column of the
autonomous bordered system must match a finite difference on the flow.
"""

import numpy as np
import pytest

from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
from repro.dae import LinearRCDae, VanDerPolDae
from repro.errors import SimulationError
from repro.steadystate import (
    estimate_period_from_transient,
    monodromy_finite_difference,
    shooting_autonomous,
    shooting_periodic,
)
from repro.steadystate.shooting import _flow, _sensitivity_sweep
from repro.testing.faults import FaultyDAE
from repro.transient import (
    TransientOptions,
    simulate_transient,
    simulate_transient_with_sensitivity,
)


class TestSensitivityPropagation:
    @pytest.mark.parametrize("integrator", ["be", "trap", "bdf2"])
    def test_matches_fd_monodromy_vdp(self, vdp, integrator):
        x0 = np.array([2.0, 0.1])
        period = 6.28
        _phi, mono_fd = monodromy_finite_difference(
            vdp, x0, 0.0, period, steps_per_period=200, integrator=integrator
        )
        _phi, mono_s, _ = _sensitivity_sweep(
            vdp, x0, 0.0, period, 200, integrator
        )
        np.testing.assert_allclose(
            mono_s, mono_fd, rtol=0, atol=2e-5 * np.abs(mono_fd).max()
        )

    def test_matches_scaled_fd_on_mems_vco(self):
        # The VCO's states span nine decades; probe each column with a
        # step scaled to its own magnitude (the default absolute FD probe
        # is meaningless for the nm-scale displacement state).
        dae = MemsVcoDae(VcoParams.air())
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        steps = 300
        _phi, mono_s, _ = _sensitivity_sweep(
            dae, x0, 0.0, T_NOMINAL, steps, "trap"
        )
        scales = np.array([1.0, 1e-4, 1e-9, 1e-3])
        mono_fd = np.empty((4, 4))
        for j in range(4):
            h = 1e-5 * scales[j]
            xp = x0.copy()
            xp[j] += h
            xm = x0.copy()
            xm[j] -= h
            mono_fd[:, j] = (
                _flow(dae, xp, 0.0, T_NOMINAL, steps, "trap")
                - _flow(dae, xm, 0.0, T_NOMINAL, steps, "trap")
            ) / (2.0 * h)
        np.testing.assert_allclose(
            mono_s, mono_fd, rtol=0, atol=1e-5 * np.abs(mono_fd).max()
        )

    def test_period_column_matches_fd(self, vdp):
        x0 = np.array([2.0, 0.1])
        period = 6.28
        steps = 200
        _phi, _mono, d_dt = _sensitivity_sweep(
            vdp, x0, 0.0, period, steps, "trap", period_derivative=True
        )
        # Central difference with a step large enough to sit above the
        # Newton-tolerance noise floor of the two probe sweeps.
        h = 1e-5 * period
        d_fd = (
            _flow(vdp, x0, 0.0, period + h, steps, "trap")
            - _flow(vdp, x0, 0.0, period - h, steps, "trap")
        ) / (2.0 * h)
        np.testing.assert_allclose(
            d_dt, d_fd, rtol=0, atol=1e-4 * np.abs(d_fd).max()
        )

    def test_forced_period_column_includes_b_derivative(self):
        # Forced system: d Phi / d T picks up the forcing time-derivative
        # terms; check against a central difference on the sweep length.
        dae = LinearRCDae(resistance=1.0, capacitance=0.5, amplitude=1.0,
                          omega=2.0 * np.pi)
        x0 = np.array([0.3])
        period = 1.0
        steps = 400

        def flow(T):
            opts = TransientOptions(integrator="trap", dt=T / steps,
                                    store_every=10**9)
            return simulate_transient(dae, x0, 0.0, T, opts).final_state()

        _phi, _mono, d_dt = _sensitivity_sweep(
            dae, x0, 0.0, period, steps, "trap", period_derivative=True
        )
        h = 1e-6 * period
        d_fd = (flow(period + h) - flow(period - h)) / (2.0 * h)
        np.testing.assert_allclose(
            d_dt, d_fd, rtol=0, atol=2e-5 * np.abs(d_fd).max()
        )

    def test_chained_sweeps_compose(self, vdp):
        # S over [0, T] must equal S over [T/2, T] @ S over [0, T/2]
        # (sensitivities compose like the flow's Jacobian).
        x0 = np.array([2.0, 0.1])
        period = 6.0
        opts = TransientOptions(integrator="trap", dt=period / 400,
                                store_every=10**9)
        half = TransientOptions(integrator="trap", dt=period / 400,
                                store_every=10**9)
        whole = simulate_transient_with_sensitivity(vdp, x0, 0.0, period, opts)
        first = simulate_transient_with_sensitivity(
            vdp, x0, 0.0, period / 2, half
        )
        second = simulate_transient_with_sensitivity(
            vdp, first.result.final_state(), period / 2, period, half,
            s0=first.sensitivity,
        )
        np.testing.assert_allclose(
            second.sensitivity, whole.sensitivity,
            atol=1e-6 * np.abs(whole.sensitivity).max(),
        )

    def test_requires_fixed_step(self, vdp):
        with pytest.raises(SimulationError, match="fixed-step"):
            simulate_transient_with_sensitivity(
                vdp, [2.0, 0.0], 0.0, 1.0,
                TransientOptions(adaptive=True, dt=0.01),
            )

    def test_max_steps_stops_the_sweep_like_the_march(self):
        dae = VanDerPolDae(0.2)
        options = TransientOptions(dt=0.01, max_steps=5)
        with pytest.raises(SimulationError, match="max_steps=5"):
            simulate_transient(dae, [2.0, 0.0], 0.0, 1.0, options)
        with pytest.raises(SimulationError, match="max_steps=5") as info:
            simulate_transient_with_sensitivity(
                dae, [2.0, 0.0], 0.0, 1.0, options
            )
        exc = info.value
        assert exc.step == 5
        partial = exc.partial_result
        assert partial.t.shape == (6,) and partial.x.shape == (6, 2)
        np.testing.assert_allclose(partial.t, 0.01 * np.arange(6))
        assert partial.stats["steps"] == 5

    def test_newton_failure_carries_the_stored_prefix(self):
        """Steps into a NaN forcing window cannot converge; the sweep
        cannot shrink its step, so it fails with the accepted prefix."""
        dae = FaultyDAE(VanDerPolDae(0.2), nan_b_window=(0.5, np.inf))
        with pytest.raises(SimulationError, match="Newton diverged") as info:
            simulate_transient_with_sensitivity(
                dae, [2.0, 0.0], 0.0, 1.0, TransientOptions(dt=0.01)
            )
        exc = info.value
        assert exc.step == 49
        assert exc.partial_result.t.shape == (50,)
        assert exc.partial_result.t[-1] == pytest.approx(0.49)
        assert np.isfinite(exc.partial_result.x).all()


class TestShootingSweepEconomy:
    def test_forced_rc_one_sweep_per_iteration(self):
        dae = LinearRCDae(resistance=1.0, capacitance=1.0, amplitude=1.0,
                          omega=2 * np.pi)
        result = shooting_periodic(dae, [0.0], period=1.0,
                                   steps_per_period=200)
        np.testing.assert_allclose(
            result.x0[0], dae.steady_state_response(0.0), atol=1e-4
        )
        assert result.transient_sweeps == result.newton_iterations + 1

    def test_autonomous_vdp_one_sweep_per_iteration(self, vdp):
        settle = simulate_transient(
            vdp, [2.0, 0.0], 0.0, 60.0,
            TransientOptions(integrator="trap", dt=0.02),
        )
        guess = estimate_period_from_transient(settle, key=0)
        result = shooting_autonomous(
            vdp, settle.final_state(), guess,
            anchor_index=1, anchor_value=0.0,
        )
        expected = 2 * np.pi / vdp.small_mu_angular_frequency()
        assert abs(result.period - expected) / expected < 2e-3
        assert result.transient_sweeps == result.newton_iterations + 1

    def test_bench_circuit_one_sweep_per_iteration(self):
        # The paper's MEMS VCO (unforced): the acceptance-criterion
        # configuration — shooting must converge with exactly one transient
        # sweep per Newton iteration.
        dae = MemsVcoDae(VcoParams.vacuum(), constant_control=True)
        settle = simulate_transient(
            dae, [1.0, 0.0, 0.0, 0.0], 0.0, 30 * T_NOMINAL,
            TransientOptions(integrator="trap", dt=T_NOMINAL / 150),
        )
        guess = estimate_period_from_transient(settle, key=0)
        result = shooting_autonomous(
            dae, settle.final_state(), guess, anchor_index=1,
            steps_per_period=300,
        )
        assert abs(result.period - T_NOMINAL) / T_NOMINAL < 0.01
        assert result.transient_sweeps == result.newton_iterations + 1
        # Autonomous orbit: one Floquet multiplier pinned at 1.
        multipliers = np.abs(result.floquet_multipliers())
        assert np.isclose(multipliers.max(), 1.0, atol=0.02)

    def test_fd_mode_agrees_with_sensitivity_mode(self, vdp):
        settle = simulate_transient(
            vdp, [2.0, 0.0], 0.0, 60.0,
            TransientOptions(integrator="trap", dt=0.02),
        )
        guess = estimate_period_from_transient(settle, key=0)
        kwargs = dict(anchor_index=1, anchor_value=0.0)
        fast = shooting_autonomous(vdp, settle.final_state(), guess, **kwargs)
        legacy = shooting_autonomous(vdp, settle.final_state(), guess,
                                     monodromy="fd", **kwargs)
        assert abs(fast.period - legacy.period) / legacy.period < 1e-6
        np.testing.assert_allclose(fast.x0, legacy.x0, atol=1e-6)
        # The legacy scheme spends n + 2 sweeps per evaluation.
        assert legacy.transient_sweeps > fast.transient_sweeps

    def test_rejects_unknown_monodromy_method(self, vdp):
        with pytest.raises(ValueError, match="monodromy"):
            shooting_periodic(vdp, [2.0, 0.0], period=6.28,
                              monodromy="adjoint")

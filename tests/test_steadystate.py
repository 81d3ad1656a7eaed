"""Tests for DC, shooting and harmonic balance."""

import numpy as np
import pytest

from repro.circuits import Circuit, Resistor, VoltageSource
from repro.circuits.devices import Diode
from repro.circuits.waveforms import DC
from repro.dae import LinearRCDae, VanDerPolDae
from repro.errors import ConvergenceError
from repro.steadystate import (
    dc_operating_point,
    estimate_period_from_transient,
    harmonic_balance_autonomous,
    harmonic_balance_forced,
    shooting_autonomous,
    shooting_periodic,
)
from repro.transient import TransientOptions, simulate_transient


class TestDcOperatingPoint:
    def test_linear_circuit(self):
        dae = LinearRCDae(resistance=2.0, amplitude=3.0, omega=1.0)
        x = dc_operating_point(dae, t0=0.0)
        # f(x) = b(0): v/R = 3 -> v = 6.
        np.testing.assert_allclose(x, [6.0], atol=1e-9)

    def test_diode_resistor(self):
        ckt = Circuit()
        ckt.add(VoltageSource("V1", "in", "0", DC(5.0)))
        ckt.add(Diode("D1", "in", "out"))
        ckt.add(Resistor("R1", "out", "0", 1e3))
        dae = ckt.to_dae()
        x = dc_operating_point(dae)
        v_in = x[dae.variable_names.index("v(in)")]
        v_out = x[dae.variable_names.index("v(out)")]
        assert np.isclose(v_in, 5.0)
        # Diode drop should be a few hundred mV.
        assert 4.0 < v_out < 5.0
        # KCL: diode current equals resistor current.
        diode = ckt.device("D1")
        assert np.isclose(diode.current(v_in - v_out), v_out / 1e3, rtol=1e-6)

    def test_oscillator_equilibrium(self, vdp):
        x = dc_operating_point(vdp)
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-12)

    def test_vco_mechanical_equilibrium(self):
        from repro.circuits.library import MemsVcoDae, VcoParams

        params = VcoParams.vacuum()
        dae = MemsVcoDae(params, constant_control=True)
        x = dc_operating_point(dae)
        np.testing.assert_allclose(
            x[2], params.static_displacement(1.5), rtol=1e-9
        )

    def test_failure_raises_convergence_error(self):
        from repro.dae import FunctionDAE

        # f has no root: f(x) = exp(x) + 1, b = 0.
        impossible = FunctionDAE(
            1,
            q=lambda x: x,
            f=lambda x: np.array([np.exp(np.clip(x[0], -700, 700)) + 1.0]),
            b=lambda t: np.zeros(1),
            dq_dx=lambda x: np.eye(1),
            df_dx=lambda x: np.array(
                [[np.exp(np.clip(x[0], -700, 700))]]
            ),
        )
        with pytest.raises(ConvergenceError):
            dc_operating_point(impossible)


class TestPeriodEstimation:
    def test_estimates_vdp_period(self, vdp):
        result = simulate_transient(
            vdp, [2.0, 0.0], 0.0, 60.0,
            TransientOptions(integrator="trap", dt=0.02),
        )
        period = estimate_period_from_transient(result, key=0)
        expected = 2 * np.pi / vdp.small_mu_angular_frequency()
        assert abs(period - expected) / expected < 0.01

    def test_raises_without_oscillation(self):
        from repro.dae import ForcedDecayDae

        dae = ForcedDecayDae(rate=1.0)
        result = simulate_transient(
            dae, [1.0], 0.0, 5.0, TransientOptions(dt=0.05)
        )
        with pytest.raises(ConvergenceError):
            estimate_period_from_transient(result, key=0)


class TestShooting:
    def test_forced_rc_steady_state(self):
        dae = LinearRCDae(resistance=1.0, capacitance=1.0, amplitude=1.0,
                          omega=2 * np.pi)
        result = shooting_periodic(dae, [0.0], period=1.0,
                                   steps_per_period=200)
        np.testing.assert_allclose(
            result.x0[0], dae.steady_state_response(0.0), atol=1e-4
        )

    def test_forced_monodromy_stable(self):
        dae = LinearRCDae(resistance=1.0, capacitance=1.0, omega=2 * np.pi)
        result = shooting_periodic(dae, [0.0], period=1.0,
                                   steps_per_period=100)
        multipliers = np.abs(result.floquet_multipliers())
        # exp(-T/RC) = exp(-1) ~ 0.368
        np.testing.assert_allclose(multipliers, [np.exp(-1.0)], rtol=1e-2)

    def test_autonomous_vdp_period(self, vdp):
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

    def test_autonomous_floquet_has_unit_multiplier(self, vdp):
        settle = simulate_transient(
            vdp, [2.0, 0.0], 0.0, 60.0,
            TransientOptions(integrator="trap", dt=0.02),
        )
        guess = estimate_period_from_transient(settle, key=0)
        result = shooting_autonomous(
            vdp, settle.final_state(), guess,
            anchor_index=1, anchor_value=0.0,
        )
        multipliers = np.abs(result.floquet_multipliers())
        # Autonomous orbit: one multiplier at 1 (phase), one inside (stable).
        assert np.isclose(multipliers.max(), 1.0, atol=0.02)
        assert multipliers.min() < 0.9

    def test_sample_orbit_shape(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        from repro.steadystate import ShootingResult

        result = ShootingResult(hb.samples[0], hb.period, np.eye(2), 0)
        orbit = result.sample_orbit(dae, 11, steps_per_period=200)
        assert orbit.shape == (11, 2)
        np.testing.assert_allclose(orbit[0], hb.samples[0], atol=1e-6)


class TestHarmonicBalanceForced:
    def test_rc_lowpass_matches_closed_form(self):
        dae = LinearRCDae(resistance=2.0, capacitance=0.3, amplitude=1.0,
                          omega=2 * np.pi)
        hb = harmonic_balance_forced(dae, period=1.0, num_samples=15)
        grid = np.arange(15) / 15
        np.testing.assert_allclose(
            hb.samples[:, 0], dae.steady_state_response(grid), atol=1e-9
        )

    def test_interpolant_evaluation(self):
        dae = LinearRCDae(omega=2 * np.pi)
        hb = harmonic_balance_forced(dae, period=1.0, num_samples=15)
        t = np.linspace(0, 1, 37)
        np.testing.assert_allclose(
            hb.evaluate(t)[:, 0], dae.steady_state_response(t), atol=1e-9
        )

    def test_rejects_wrong_initial_shape(self):
        dae = LinearRCDae(omega=2 * np.pi)
        with pytest.raises(ValueError, match="initial"):
            harmonic_balance_forced(
                dae, period=1.0, num_samples=15, initial=np.zeros((3, 1))
            )

    def test_diode_rectifier_dc_shift(self):
        """A driven diode-RC rectifier's HB solution has positive mean."""
        from repro.circuits.library import rc_diode_mixer_circuit

        dae = rc_diode_mixer_circuit(
            lo_amplitude=0.0, rf_amplitude=0.3, rf_frequency=1e4
        ).to_dae()
        x_dc = dc_operating_point(dae)
        hb = harmonic_balance_forced(
            dae, period=1e-4, num_samples=31,
            initial=np.tile(x_dc, (31, 1)),
        )
        v_out = hb.samples[:, dae.variable_names.index("v(out)")]
        assert v_out.mean() > 0.01


def _rectifier_hb(amplitude, num_samples, linear_solver=None):
    from repro.circuits.library import rc_diode_mixer_circuit
    from repro.linalg.solver_core import SolverCoreOptions

    dae = rc_diode_mixer_circuit(
        lo_amplitude=0.0, rf_amplitude=amplitude, rf_frequency=1e4
    ).to_dae()
    x_dc = dc_operating_point(dae)
    return harmonic_balance_forced(
        dae, period=1e-4, num_samples=num_samples,
        initial=np.tile(x_dc, (num_samples, 1)),
        solver_options=SolverCoreOptions(linear_solver=linear_solver),
    )


def _scaled_gap(result, reference):
    scale = np.abs(reference.samples).max(axis=0)
    return (np.abs(result.samples - reference.samples) / scale).max()


class TestForcedHarmonicBalanceRoute:
    """The default linear solver picks the matrix-free route by size."""

    def test_matrix_free_matches_assembled_lu(self):
        default = _rectifier_hb(0.3, 301)
        assembled = _rectifier_hb(0.3, 301, linear_solver="lu")
        assert default.newton_iterations == assembled.newton_iterations == 7
        assert _scaled_gap(default, assembled) <= 1e-12
        assert default.stats["factorizations"] == 0
        assert default.stats["krylov_iterations"] > 0
        assert assembled.stats["krylov_iterations"] == 0
        assert assembled.stats["factorizations"] == 7

    def test_below_crossover_is_the_assembled_route(self):
        default = _rectifier_hb(0.3, 31)
        assembled = _rectifier_hb(0.3, 31, linear_solver="lu")
        np.testing.assert_array_equal(default.samples, assembled.samples)
        assert default.stats["krylov_iterations"] == 0
        assert default.stats["factorizations"] == 7

    def test_gmres_miss_finishes_on_the_assembled_route(self):
        """A strong drive defeats the averaged-Jacobian preconditioner:
        one GMRES miss, then sparse LU for the rest of the solve."""
        default = _rectifier_hb(1.0, 301)
        assembled = _rectifier_hb(1.0, 301, linear_solver="lu")
        stats = default.stats
        assert 0 < stats["factorizations"] < stats["iterations"]
        assert stats["krylov_iterations"] > 0
        assert default.newton_iterations == assembled.newton_iterations
        assert _scaled_gap(default, assembled) <= 1e-12

    def test_matrix_free_memory_is_linear_in_samples(self):
        """No O(N^2) array: the same solve with ``linear_solver="lu"``
        peaks at about 200 MiB of traced memory."""
        import tracemalloc

        tracemalloc.start()
        try:
            result = _rectifier_hb(0.3, 801)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.stats["factorizations"] == 0
        assert peak <= 16 * 2**20


class TestHarmonicBalanceAutonomous:
    def test_vdp_frequency(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        expected = vdp.small_mu_angular_frequency(
        ) if False else dae.small_mu_angular_frequency() / (2 * np.pi)
        assert abs(hb.frequency - expected) / expected < 2e-3

    def test_vdp_amplitude_near_two(self, vdp_limit_cycle):
        _dae, hb = vdp_limit_cycle
        amplitude = hb.samples[:, 0].max() - hb.samples[:, 0].min()
        assert abs(amplitude - 4.0) < 0.1  # peak-to-peak ~ 2*2

    def test_phase_condition_satisfied(self, vdp_limit_cycle):
        from repro.phase_conditions import FourierImagAnchor

        _dae, hb = vdp_limit_cycle
        condition = FourierImagAnchor(variable=0)  # the default (eq. 20)
        assert abs(condition.residual(hb.samples)) < 1e-6

    def test_rejects_bad_initial_shape(self, vdp):
        with pytest.raises(ValueError, match="initial"):
            harmonic_balance_autonomous(
                vdp, 0.16, np.zeros((5, 2)), num_samples=15
            )

    def test_solution_satisfies_time_domain_ode(self, vdp_limit_cycle):
        """Spot-check: HB samples satisfy the ODE in collocation form."""
        from repro.spectral import fourier_differentiation_matrix

        dae, hb = vdp_limit_cycle
        num = hb.num_samples
        diffmat = fourier_differentiation_matrix(num, period=1.0)
        nu = hb.frequency
        dq = nu * diffmat @ hb.samples  # q = x for vdP
        residual = dq + np.stack([dae.f(s) for s in hb.samples])
        assert np.max(np.abs(residual)) < 1e-6


class _NanJacobianVdp(VanDerPolDae):
    """Van der Pol whose Jacobian is NaN while its residual stays finite."""

    def df_dx_batch(self, states):
        return np.full((len(states), 2, 2), np.nan)


class TestEquilibratedAutonomousHB:
    """Autonomous HB converges in a scale-aware norm: the MEMS force
    balance (~1e-5 N) and the inductor row (~2 V) count equally, and the
    answer does not depend on the units of the unknowns."""

    @pytest.fixture(scope="class")
    def vco_at(self):
        from dataclasses import replace

        from repro.circuits.library import MemsVcoDae, VcoParams

        def build(vc):
            return MemsVcoDae(replace(VcoParams.vacuum(), control_offset=vc),
                              constant_control=True)

        return build

    @pytest.fixture(scope="class")
    def converged(self, vco_at, vco_initial_condition):
        _params, samples, f0 = vco_initial_condition
        return harmonic_balance_autonomous(
            vco_at(1.5), f0, samples, num_samples=25
        )

    def test_perturbed_seed_cannot_converge_in_zero_iterations(
            self, vco_at, converged):
        """A 1e-6 relative error in the plate displacement leaves a force
        residual k*dz ~ 1e-10, below atol in SI units; equilibrated, it is
        a real error that Newton must remove."""
        perturbed = converged.samples.copy()
        perturbed[:, 2] *= 1.0 + 1e-6
        hb = harmonic_balance_autonomous(
            vco_at(1.5), converged.frequency, perturbed, num_samples=25
        )
        assert hb.newton_iterations >= 1
        z = converged.samples[:, 2]
        assert np.max(np.abs(hb.samples[:, 2] - z)) <= 1e-12 * np.max(np.abs(z))

    def test_solution_independent_of_units(self, vco_at, converged):
        from repro.dae import ScaledDAE

        units = np.array([1.0, 1e-3, 1e-6, 1e-6])  # V, mA, um, um/s
        target = vco_at(1.55)
        si = harmonic_balance_autonomous(
            target, converged.frequency, converged.samples, num_samples=25
        )
        scaled = harmonic_balance_autonomous(
            ScaledDAE(target, variable_scale=units), converged.frequency,
            converged.samples / units, num_samples=25,
        )
        assert si.newton_iterations <= 6
        assert scaled.newton_iterations <= 6
        assert abs(scaled.frequency / si.frequency - 1.0) <= 1e-12
        # u sits at rounding level (~1e-16 m/s): compare v, il and z only.
        for k in range(3):
            reference = si.samples[:, k]
            assert (np.max(np.abs(scaled.samples[:, k] * units[k] - reference))
                    <= 1e-12 * np.max(np.abs(reference)))

    def test_value_anchor_nonzero_target_in_caller_units(self, vdp_limit_cycle):
        from repro.phase_conditions import ValueAnchor

        dae, seed = vdp_limit_cycle
        condition = ValueAnchor(variable=0, target=1.0)
        hb = harmonic_balance_autonomous(
            dae, seed.frequency, seed.samples, phase_condition=condition,
            num_samples=25,
        )
        assert abs(condition.residual(hb.samples)) <= 1e-9
        assert abs(hb.frequency - seed.frequency) / seed.frequency < 1e-6

    def test_non_finite_seed_jacobian_raises_convergence_error(
            self, vdp_limit_cycle):
        """The scale rule falls back to unit scales instead of rejecting
        the seed; the solve then fails the way an unscaled one would."""
        _dae, seed = vdp_limit_cycle
        with pytest.raises(ConvergenceError):
            harmonic_balance_autonomous(
                _NanJacobianVdp(mu=0.2), seed.frequency, 1.1 * seed.samples,
                num_samples=25,
            )

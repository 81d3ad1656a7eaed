"""Tests for oscillator initialisation and univariate reconstruction."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.wampde import (
    oscillator_initial_condition,
    reconstruct_univariate,
    solve_wampde_envelope,
)


class TestOscillatorInitialCondition:
    def test_vdp_pipeline(self, vdp):
        samples, freq = oscillator_initial_condition(
            vdp, num_t1=25, period_guess=6.0, settle_cycles=12
        )
        expected = vdp.small_mu_angular_frequency() / (2 * np.pi)
        assert abs(freq - expected) / expected < 5e-3
        assert samples.shape == (25, 2)
        # Limit-cycle amplitude ~2.
        assert abs(samples[:, 0].max() - 2.0) < 0.1

    def test_requires_period_guess(self, vdp):
        with pytest.raises(SimulationError, match="period_guess"):
            oscillator_initial_condition(vdp, num_t1=25)

    def test_phase_condition_satisfied(self, vdp):
        from repro.phase_conditions import FourierImagAnchor

        samples, _freq = oscillator_initial_condition(
            vdp, num_t1=25, period_guess=6.0, settle_cycles=12,
            phase_condition="fourier",
        )
        anchor = FourierImagAnchor(variable=0, harmonic=1)
        assert abs(anchor.residual(samples)) < 1e-7

    def test_custom_perturbation(self, vdp):
        samples, freq = oscillator_initial_condition(
            vdp, num_t1=15, period_guess=6.0, settle_cycles=12,
            perturbation=np.array([0.5, 0.0]),
        )
        assert freq > 0

    def test_rejects_bad_perturbation_shape(self, vdp):
        with pytest.raises(SimulationError, match="perturbation"):
            oscillator_initial_condition(
                vdp, num_t1=15, period_guess=6.0,
                perturbation=np.zeros(5),
            )

    def test_vco_frequency_anchor(self, vco_initial_condition):
        """Paper: 1.5 V control -> ~0.75 MHz free-running."""
        _params, _samples, f0 = vco_initial_condition
        assert abs(f0 - 0.75e6) / 0.75e6 < 0.01

    def test_air_vco_at_1p675_volts(self):
        """From the settled seed, Newton on the unscaled system exhausts
        its 80-iteration budget at this control voltage."""
        from dataclasses import replace

        from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams

        unforced = MemsVcoDae(
            replace(VcoParams.air(), control_offset=1.675),
            constant_control=True,
        )
        samples, f0 = oscillator_initial_condition(
            unforced, num_t1=25, period_guess=T_NOMINAL
        )
        assert samples.shape == (25, 4)
        assert abs(f0 - 820.5e3) / 820.5e3 < 1e-3


class TestReconstruction:
    def test_matches_closed_form_for_harmonic(self, lc):
        """The LC oscillator envelope reconstructs cos(omega0 t) exactly."""
        from repro.spectral import collocation_grid

        grid = collocation_grid(15, 1.0)
        period = 2 * np.pi / lc.omega0
        samples = np.stack(
            [np.cos(2 * np.pi * grid), np.sin(2 * np.pi * grid)], axis=1
        )
        env = solve_wampde_envelope(
            lc, samples, 1.0 / period, 0.0, 10.0, 50
        )
        times = np.linspace(0.0, 10.0, 500)
        rec = reconstruct_univariate(env, 0, times)
        np.testing.assert_allclose(rec, np.cos(lc.omega0 * times), atol=1e-3)

    def test_key_by_name(self, lc):
        from repro.spectral import collocation_grid

        grid = collocation_grid(15, 1.0)
        period = 2 * np.pi / lc.omega0
        samples = np.stack(
            [np.cos(2 * np.pi * grid), np.sin(2 * np.pi * grid)], axis=1
        )
        env = solve_wampde_envelope(lc, samples, 1.0 / period, 0.0, 5.0, 25)
        times = np.linspace(0.0, 5.0, 100)
        np.testing.assert_allclose(
            reconstruct_univariate(env, "v", times),
            reconstruct_univariate(env, 0, times),
            atol=1e-12,
        )

    def test_chunked_evaluation_consistent(self, lc):
        from repro.spectral import collocation_grid

        grid = collocation_grid(15, 1.0)
        period = 2 * np.pi / lc.omega0
        samples = np.stack(
            [np.cos(2 * np.pi * grid), np.sin(2 * np.pi * grid)], axis=1
        )
        env = solve_wampde_envelope(lc, samples, 1.0 / period, 0.0, 5.0, 25)
        times = np.linspace(0.0, 5.0, 1000)
        full = reconstruct_univariate(env, 0, times, chunk=10**6)
        small = reconstruct_univariate(env, 0, times, chunk=64)
        np.testing.assert_allclose(full, small, atol=1e-14)

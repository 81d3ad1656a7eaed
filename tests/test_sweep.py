"""Tests for frequency sweeps (HB continuation)."""

import numpy as np
import pytest
from dataclasses import replace

from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
from repro.dae import VanDerPolDae
from repro.steadystate import oscillator_frequency_sweep


def _vacuum_vco(vc):
    return MemsVcoDae(
        replace(VcoParams.vacuum(), control_offset=vc), constant_control=True
    )


def _vacuum_vco_stack(values):
    return _vacuum_vco(np.asarray(values, dtype=float))


FIG7_VALUES = np.linspace(0.4, 2.6, 9)


class TestArgumentChecks:
    """Both methods check their arguments up front, naming them."""

    @pytest.mark.parametrize("method", ["continuation", "ensemble"])
    def test_values_must_be_1d(self, method):
        with pytest.raises(ValueError, match="values must be a 1-D"):
            oscillator_frequency_sweep(
                _vacuum_vco, [[1.5, 1.6]], T_NOMINAL, method=method,
                stacked_factory=_vacuum_vco_stack,
            )

    @pytest.mark.parametrize("method", ["continuation", "ensemble"])
    def test_period_guess_must_be_positive(self, method):
        with pytest.raises(ValueError, match="period_guess"):
            oscillator_frequency_sweep(
                _vacuum_vco, [1.5, 1.6], -T_NOMINAL, method=method,
            )

    @pytest.mark.parametrize("name", ["settle_cycles", "steps_per_cycle"])
    def test_ensemble_settle_schedule(self, name):
        from repro.steadystate.sweep import ensemble_frequency_sweep

        with pytest.raises(ValueError, match=name):
            ensemble_frequency_sweep(
                _vacuum_vco, [1.5, 1.6], T_NOMINAL, **{name: 0},
            )


class TestVcoTuningCurve:
    @pytest.fixture(scope="class")
    def tuning(self):
        return VcoParams.vacuum(), oscillator_frequency_sweep(
            _vacuum_vco, FIG7_VALUES, period_guess=T_NOMINAL
        )

    def test_every_point_converges_quickly(self, tuning):
        """Each continuation step, seeded from the previous point, takes a
        handful of Newton iterations, far inside the 80-iteration budget,
        and needs no step bisection."""
        _base, sweep = tuning
        iterations = [stats["iterations"] for stats in sweep.solver_stats]
        assert len(iterations) == FIG7_VALUES.size
        assert max(iterations) <= 15

    def test_continuation_matches_ensemble(self, tuning):
        _base, sweep = tuning
        ensemble = oscillator_frequency_sweep(
            _vacuum_vco, FIG7_VALUES, period_guess=T_NOMINAL,
            method="ensemble", stacked_factory=_vacuum_vco_stack,
        )
        np.testing.assert_allclose(sweep.frequencies, ensemble.frequencies,
                                   rtol=1e-9, atol=0.0)

    def test_nominal_anchor(self, tuning):
        """The sweep passes through the paper's 0.75 MHz @ 1.5 V point."""
        _base, sweep = tuning
        idx = np.argmin(np.abs(sweep.values - 1.5))
        assert abs(sweep.frequencies[idx] - 0.75e6) / 0.75e6 < 0.01

    def test_monotone_tuning(self, tuning):
        _base, sweep = tuning
        assert np.all(np.diff(sweep.frequencies) > 0)

    def test_tracks_static_law_with_growing_pulling(self, tuning):
        """The oscillating frequency follows the linear-tank law, pulled
        below it by the cubic resistor; the pulling grows with Vc because
        the effective van der Pol parameter ~ g1*sqrt(L/C) grows as the
        capacitance shrinks."""
        base, sweep = tuning
        law = base.static_frequency(sweep.values) / np.sqrt(0.9557)
        deviation = (sweep.frequencies - law) / law
        assert np.all(deviation < 0)          # always pulled downward
        assert np.all(np.abs(deviation) < 0.15)
        assert np.all(np.diff(np.abs(deviation)) > 0)  # grows with Vc

    def test_amplitudes_reported(self, tuning):
        _base, sweep = tuning
        assert np.all(sweep.amplitudes > 3.0)  # healthy ~4 Vpp everywhere


class TestHardTuningPoints:
    def test_vacuum_1p95_volts_through_the_stacked_ensemble(self):
        """From the ensemble settle seed, Newton on the unscaled system
        exhausts its 80-iteration budget at this control voltage."""
        from repro.steadystate import ensemble_frequency_sweep

        sweep = ensemble_frequency_sweep(
            _vacuum_vco, [1.95], period_guess=T_NOMINAL,
            stacked_factory=_vacuum_vco_stack,
        )
        assert sweep.solver_stats[0]["iterations"] <= 15
        assert abs(sweep.frequencies[0] - 979.9e3) / 979.9e3 < 1e-3


class TestSweepMechanics:
    def test_single_value(self):
        sweep = oscillator_frequency_sweep(
            lambda _v: VanDerPolDae(mu=0.2), [0.0], period_guess=6.3
        )
        expected = VanDerPolDae(0.2).small_mu_angular_frequency() / (2 * np.pi)
        assert abs(sweep.frequencies[0] - expected) / expected < 5e-3

    def test_continuation_over_mu(self):
        """Sweep the van der Pol nonlinearity: frequency falls with mu."""
        sweep = oscillator_frequency_sweep(
            lambda mu: VanDerPolDae(mu=float(mu)),
            np.linspace(0.2, 1.2, 6),
            period_guess=6.3,
        )
        assert np.all(np.diff(sweep.frequencies) < 0)
        # Amplitude stays near 2 (peak-to-peak ~4) across the range.
        np.testing.assert_allclose(sweep.amplitudes, 4.0, atol=0.35)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            oscillator_frequency_sweep(
                lambda _v: VanDerPolDae(), [], period_guess=6.3
            )


class _NanVdp(VanDerPolDae):
    """Van der Pol whose statics go NaN — HB can never converge on it."""

    def f(self, x):
        return np.full(2, np.nan)

    def f_batch(self, states):
        return np.full(np.asarray(states).shape, np.nan)

    def qf(self, x):
        return self.q(x), self.f(x)


class TestSweepFailurePaths:
    """ConvergenceError mid-sweep must leave a truncated-but-consistent
    FrequencySweepResult (and name the failing value when raising)."""

    @staticmethod
    def _broken_factory(broken_above):
        def factory(mu):
            if mu > broken_above:
                return _NanVdp(mu=0.2)
            return VanDerPolDae(mu=float(mu))

        return factory

    def test_continuation_truncate_returns_consistent_prefix(self):
        values = np.array([0.2, 0.5, 5.0, 0.4])
        sweep = oscillator_frequency_sweep(
            self._broken_factory(1.0), values, period_guess=6.3,
            on_failure="truncate",
        )
        np.testing.assert_array_equal(sweep.values, values[:2])
        assert sweep.frequencies.shape == (2,)
        assert sweep.amplitudes.shape == (2,)
        assert len(sweep.solver_stats) == 2
        assert np.all(np.isfinite(sweep.frequencies))

    def test_continuation_raise_names_value_and_attaches_partial(self):
        from repro.errors import ConvergenceError

        values = np.array([0.2, 0.5, 5.0])
        # The bisection retries name the innermost failing value; the
        # outer message always carries the "frequency sweep failed"
        # context.
        with pytest.raises(ConvergenceError,
                           match="frequency sweep failed") as excinfo:
            oscillator_frequency_sweep(
                self._broken_factory(1.0), values, period_guess=6.3,
            )
        partial = excinfo.value.partial_result
        np.testing.assert_array_equal(partial.values, values[:2])
        assert partial.frequencies.shape == (2,)
        assert partial.amplitudes.shape == (2,)

    def test_ensemble_truncate_returns_consistent_prefix(self):
        from repro.steadystate import ensemble_frequency_sweep

        def factory(mu):
            # A NaN member fails already at the DC stage — it must be
            # truncated away instead of poisoning the lock-step settle.
            if mu > 1.0:
                return _NanVdp(mu=0.2)
            return VanDerPolDae(mu=float(mu))

        values = np.array([0.2, 0.6, 5.0, 0.4])
        sweep = ensemble_frequency_sweep(
            factory, values, period_guess=6.3, on_failure="truncate",
        )
        np.testing.assert_array_equal(sweep.values, values[:2])
        assert sweep.frequencies.shape == (2,)
        assert sweep.amplitudes.shape == (2,)
        assert len(sweep.solver_stats) == 2
        assert np.all(np.isfinite(sweep.frequencies))

    def test_ensemble_raise_names_value_and_attaches_partial(self):
        from repro.errors import ConvergenceError
        from repro.steadystate import ensemble_frequency_sweep

        def factory(mu):
            if mu > 1.0:
                return _NanVdp(mu=0.2)
            return VanDerPolDae(mu=float(mu))

        values = np.array([0.2, 0.6, 5.0])
        with pytest.raises(ConvergenceError, match="5.0") as excinfo:
            ensemble_frequency_sweep(factory, values, period_guess=6.3)
        partial = excinfo.value.partial_result
        np.testing.assert_array_equal(partial.values, values[:2])
        assert partial.frequencies.shape == (2,)
        assert partial.amplitudes.shape == (2,)

    def test_invalid_on_failure_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            oscillator_frequency_sweep(
                lambda _v: VanDerPolDae(), [0.2], period_guess=6.3,
                on_failure="ignore",
            )

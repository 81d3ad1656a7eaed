"""Tests for frequency estimation, phase error, spectra, comparisons."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.analysis import (
    amplitude_spectrum,
    cycles_to_radians,
    dominant_frequency,
    frequency_from_crossings,
    instantaneous_frequency_hilbert,
    max_error,
    phase_error_vs_reference,
    phase_from_crossings,
    relative_rms_error,
    rms_error,
)


class TestFrequencyFromCrossings:
    def test_constant_tone(self):
        t = np.linspace(0, 1, 5000)
        _mid, freq = frequency_from_crossings(t, np.sin(2 * np.pi * 50 * t))
        np.testing.assert_allclose(freq, 50.0, rtol=1e-4)

    def test_chirp_tracks_frequency(self):
        t = np.linspace(0, 1, 50000)
        phase = 2 * np.pi * (10 * t + 10 * t**2)  # f(t) = 10 + 20 t
        mid, freq = frequency_from_crossings(t, np.sin(phase))
        expected = 10 + 20 * mid
        np.testing.assert_allclose(freq, expected, rtol=0.05)

    def test_custom_level(self):
        t = np.linspace(0, 1, 5000)
        y = 2.0 + np.sin(2 * np.pi * 20 * t)
        _mid, freq = frequency_from_crossings(t, y, level=2.0)
        np.testing.assert_allclose(freq, 20.0, rtol=1e-3)

    def test_empty_for_flat_signal(self):
        mid, freq = frequency_from_crossings([0, 1], [1.0, 1.0])
        assert mid.size == 0 and freq.size == 0


class TestHilbertEstimator:
    def test_constant_tone(self):
        t = np.linspace(0, 1, 4096)
        _mid, freq = instantaneous_frequency_hilbert(
            t, np.sin(2 * np.pi * 64 * t)
        )
        interior = freq[400:-400]
        np.testing.assert_allclose(interior, 64.0, rtol=1e-2)

    def test_fm_signal_tracks(self):
        from repro.signals import fm_instantaneous_frequency, fm_signal

        t = np.linspace(0, 5e-5, 8192)
        _mid, freq = instantaneous_frequency_hilbert(
            t, fm_signal(t), smooth_window=9
        )
        expected = fm_instantaneous_frequency(t[:-1])
        interior = slice(500, -500)
        assert np.max(
            np.abs(freq[interior] - expected[interior])
        ) < 0.1 * 1e6

    def test_requires_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            instantaneous_frequency_hilbert(
                [0.0, 0.1, 0.3, 0.7], [0.0, 1.0, 0.0, -1.0]
            )

    def test_library_import_leaves_scipy_signal_unloaded(self):
        """Only the Hilbert estimator needs ``scipy.signal`` (which pulls
        in ``scipy.stats``); importing the library's packages loads
        neither."""
        code = (
            "import importlib, sys\n"
            "for name in ('repro.api', 'repro.service', 'repro.wampde',\n"
            "             'repro.steadystate', 'repro.mpde',\n"
            "             'repro.transient', 'repro.analysis'):\n"
            "    importlib.import_module(name)\n"
            "print(sorted(name for name in ('scipy.signal', 'scipy.stats')\n"
            "             if name in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestPhaseError:
    def test_zero_for_identical(self):
        t = np.linspace(0, 2, 20000)
        y = np.sin(2 * np.pi * 30 * t)
        times, error = phase_error_vs_reference(t, y, t, y.copy())
        np.testing.assert_allclose(error, 0.0, atol=1e-9)

    def test_linear_drift_detected(self):
        """1% frequency offset accumulates ~0.01 cycles per cycle."""
        t = np.linspace(0, 2, 40000)
        ref = np.sin(2 * np.pi * 30.0 * t)
        test = np.sin(2 * np.pi * 30.3 * t)
        times, error = phase_error_vs_reference(t, test, t, ref)
        total_expected = 0.3 * (times[-1] - times[0])
        np.testing.assert_allclose(error[-1], total_expected, rtol=0.05)

    def test_anchored_at_zero(self):
        t = np.linspace(0, 1, 10000)
        ref = np.sin(2 * np.pi * 40 * t)
        test = np.sin(2 * np.pi * 41 * t)
        _times, error = phase_error_vs_reference(t, test, t, ref)
        assert error[0] == 0.0

    def test_phase_from_crossings_monotone(self):
        t = np.linspace(0, 1, 10000)
        crossings, cycles = phase_from_crossings(t, np.sin(2 * np.pi * 25 * t))
        assert np.all(np.diff(crossings) > 0)
        np.testing.assert_allclose(np.diff(cycles), 1.0)

    def test_requires_two_crossings(self):
        with pytest.raises(ValueError):
            phase_from_crossings([0, 1], [1.0, 2.0])

    def test_cycles_to_radians(self):
        np.testing.assert_allclose(cycles_to_radians(1.0), 2 * np.pi)


class TestSpectrum:
    def test_single_tone_peak(self):
        t = np.linspace(0, 1, 2048, endpoint=False)
        freqs, amps = amplitude_spectrum(t, 3.0 * np.sin(2 * np.pi * 100 * t))
        peak = freqs[np.argmax(amps[1:]) + 1]
        assert np.isclose(peak, 100.0, atol=1.5)
        assert np.isclose(np.max(amps), 3.0, rtol=0.05)

    def test_dominant_frequency(self):
        t = np.linspace(0, 1, 4096, endpoint=False)
        y = np.sin(2 * np.pi * 50 * t) + 0.2 * np.sin(2 * np.pi * 300 * t)
        assert np.isclose(dominant_frequency(t, y), 50.0, atol=1.5)

    def test_rect_window(self):
        t = np.linspace(0, 1, 1024, endpoint=False)
        freqs, amps = amplitude_spectrum(
            t, np.sin(2 * np.pi * 128 * t), window="rect"
        )
        assert np.isclose(np.max(amps), 1.0, rtol=1e-6)

    def test_rejects_unknown_window(self):
        t = np.linspace(0, 1, 64, endpoint=False)
        with pytest.raises(ValueError, match="window"):
            amplitude_spectrum(t, np.sin(t), window="kaiser")

    def test_requires_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            amplitude_spectrum([0, 0.1, 0.5, 0.6, 0.7], np.zeros(5))


class TestComparisons:
    def test_rms_error(self):
        np.testing.assert_allclose(
            rms_error([1.0, 2.0], [1.0, 4.0]), np.sqrt(2.0)
        )

    def test_max_error(self):
        assert max_error([0.0, 1.0], [0.5, 3.0]) == 2.0

    def test_relative_rms(self):
        assert np.isclose(
            relative_rms_error([1.1, 1.1], [1.0, 1.0]), 0.1, atol=1e-12
        )

    def test_relative_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            relative_rms_error([1.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rms_error([1.0], [1.0, 2.0])

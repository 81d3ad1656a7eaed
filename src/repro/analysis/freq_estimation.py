"""Instantaneous-frequency estimators.

Used to validate the WaMPDE's explicitly computed ``omega(t2)`` against
model-free estimates extracted from brute-force transient waveforms.
"""

from __future__ import annotations

import numpy as np

from repro.transient.events import zero_crossings
from repro.utils.validation import as_1d_array


def frequency_from_crossings(t, y, level=None):
    """Cycle-by-cycle frequency from rising level crossings.

    Parameters
    ----------
    t, y:
        Sampled waveform.
    level:
        Crossing level; defaults to the waveform mean.

    Returns
    -------
    tuple
        ``(t_mid, freq)``: midpoints between consecutive rising crossings
        and the corresponding ``1 / spacing`` frequencies [Hz].
    """
    t = as_1d_array(t, "t")
    y = as_1d_array(y, "y")
    if level is None:
        level = float(np.mean(y))
    crossings = zero_crossings(t, y - level, direction=+1)
    if crossings.size < 2:
        return np.array([]), np.array([])
    spacing = np.diff(crossings)
    t_mid = 0.5 * (crossings[:-1] + crossings[1:])
    return t_mid, 1.0 / spacing


def instantaneous_frequency_hilbert(t, y, smooth_window=0):
    """Instantaneous frequency from the analytic-signal phase derivative.

    Suitable for narrowband signals on a *uniform* time grid; the optional
    moving-average ``smooth_window`` (samples) tames differentiation noise.

    Returns
    -------
    tuple
        ``(t_mid, freq)`` at the midpoints of the sample grid.
    """
    # Imported here: scipy.signal pulls in scipy.stats, and importing
    # repro.analysis should not pay for either.
    import scipy.signal

    t = as_1d_array(t, "t")
    y = as_1d_array(y, "y")
    if t.size < 4:
        raise ValueError("need at least 4 samples for the Hilbert estimator")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-6):
        raise ValueError("Hilbert estimator requires a uniform time grid")
    analytic = scipy.signal.hilbert(y - np.mean(y))
    phase = np.unwrap(np.angle(analytic))
    freq = np.diff(phase) / (2.0 * np.pi * dt)
    t_mid = 0.5 * (t[:-1] + t[1:])
    if smooth_window and smooth_window > 1:
        kernel = np.ones(int(smooth_window)) / int(smooth_window)
        freq = np.convolve(freq, kernel, mode="same")
    return t_mid, freq

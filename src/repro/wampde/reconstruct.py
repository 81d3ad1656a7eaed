"""Univariate reconstruction along the warped path (paper eq. 15).

Given an envelope solution ``(xhat, omega)``, the 1-D solution of the
original DAE is

    x(t) = xhat(phi(t), t),    phi(t) = int_0^t omega(s) ds

with ``xhat`` 1-periodic in its first argument.  This is what Fig 9 and
Fig 12 plot against direct transient simulation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import as_1d_array


def reconstruct_univariate(envelope_result, key, times, chunk=4096):
    """Evaluate ``x(t) = xhat(phi(t) mod 1, t)`` at ``times``.

    Parameters
    ----------
    envelope_result:
        A :class:`repro.wampde.envelope.WampdeEnvelopeResult`.
    key:
        Variable name or index.
    times:
        1-D unwarped times inside the simulated t2 window.
    chunk:
        Evaluation chunk size (memory/time tradeoff): at ``N0 = 25`` the
        complex temporaries peak near 1.3 KiB a point, so 4096 points
        take ~5 MiB where 40,000 at once took 47 MiB.  The result does
        not depend on it: every point is evaluated alone.

    Returns
    -------
    numpy.ndarray
        The reconstructed waveform, same length as ``times``.
    """
    times = as_1d_array(times, "times")
    waveform = envelope_result.bivariate(key)
    warping = envelope_result.warping()

    out = np.empty(times.size)
    for start in range(0, times.size, chunk):
        sl = slice(start, min(start + chunk, times.size))
        t_chunk = times[sl]
        t1 = np.mod(warping.phi(t_chunk), 1.0)
        out[sl] = waveform(t1, t_chunk)
    return out

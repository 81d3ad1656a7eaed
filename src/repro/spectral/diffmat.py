"""Fourier spectral differentiation.

For an odd number of uniform samples the differentiation matrix is exact on
the space of trigonometric polynomials the grid can represent — the key
property exploited by the WaMPDE collocation along the warped time axis.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_odd, check_positive


def fourier_differentiation_matrix(num_samples, period=1.0):
    """Dense spectral differentiation matrix ``D`` for odd ``num_samples``.

    ``(D @ x_samples)`` equals the exact derivative of the trigonometric
    interpolant of ``x_samples`` at the grid points.

    The classical closed form for odd ``N`` on a period-``P`` grid is::

        D[j, k] = (2*pi/P) * (-1)**(j-k) / (2*sin(pi*(j-k)/N)),  j != k
        D[j, j] = 0
    """
    num = check_odd(num_samples, "num_samples")
    check_positive(period, "period")
    j = np.arange(num)
    diff = j[:, None] - j[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        matrix = np.where(
            diff == 0,
            0.0,
            0.5 * (-1.0) ** diff / np.sin(np.pi * diff / num),
        )
    return (2.0 * np.pi / period) * matrix


def spectral_derivative(samples, period=1.0, order=1, axis=-1):
    """Differentiate periodic ``samples`` along ``axis`` via the FFT.

    Equals ``fourier_differentiation_matrix(N, period) @ samples`` (for
    ``order=1``) to rounding, in ``O(N log N)`` instead of ``O(N²)``: one
    real-FFT pair, since an odd ``N`` has no Nyquist mode to special-case.
    Forced harmonic balance evaluates its residual and its matrix-free
    Jacobian (:mod:`repro.linalg.spectral`) with it.

    Parameters
    ----------
    samples:
        Uniform periodic samples (odd count along ``axis``).
    period:
        Period of the sampled signal.
    order:
        Derivative order (>= 1).
    axis:
        Axis along which to differentiate.
    """
    samples = np.asarray(samples, dtype=float)
    num = check_odd(samples.shape[axis], "number of samples")
    check_positive(period, "period")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    multiplier = (2j * np.pi / period * np.arange(num // 2 + 1)) ** order
    shape = [1] * samples.ndim
    shape[axis] = multiplier.size
    spectrum = np.fft.rfft(samples, axis=axis) * multiplier.reshape(shape)
    return np.fft.irfft(spectrum, n=num, axis=axis)

"""Variable and time scaling of a DAE.

Circuit unknowns can span many decades (volts next to picofarad charges);
scaling improves Newton conditioning.  ``ScaledDAE`` wraps any
:class:`~repro.dae.base.SemiExplicitDAE` with diagonal variable scaling and
a time dilation, preserving the semi-explicit structure:

With ``x = S @ y`` and ``t = T * s`` the system
``d/dt q(x) + f(x) = b(t)`` becomes (in the new time ``s``)

    d/ds [q(S y) / T] + f(S y) = b(T s)

so ``q_scaled(y) = q(S y) / T``, ``f_scaled(y) = f(S y)`` and
``b_scaled(s) = b(T s)``.  Row scaling (equation scaling) is applied on top
with a diagonal ``R``.

:func:`equilibration_scales` picks ``S`` and ``R`` from a periodic seed
waveform: with the per-entry magnitude bound
``M = 2 pi nu0 max_j |dq_dx(x_j)| + max_j |df_dx(x_j)|`` over the seed's
samples, ``S_k = 1 / max_i M_ik`` and ``R_i = 1 / max_k M_ik S_k`` (one
column then one row pass of max-norm equilibration).
:func:`repro.steadystate.harmonic_balance.harmonic_balance_autonomous`
solves on that view, so its Newton tolerances and line search see every
equation and unknown on a comparable scale whatever the units.
"""

from __future__ import annotations

import numpy as np

from repro.dae.base import SemiExplicitDAE
from repro.utils.validation import as_1d_array, check_positive


class ScaledDAE(SemiExplicitDAE):
    """Diagonally scaled view of another DAE.

    Parameters
    ----------
    inner:
        The DAE being wrapped.
    variable_scale:
        Per-unknown scale factors ``S`` (``x = S * y``). Scalar or length-n.
    time_scale:
        Time dilation ``T`` (``t = T * s``).
    equation_scale:
        Per-equation row scaling ``R``. Scalar or length-n.
    """

    def __init__(self, inner, variable_scale=1.0, time_scale=1.0,
                 equation_scale=1.0):
        self.inner = inner
        self.n = inner.n
        self.variable_names = inner.variable_names
        check_positive(time_scale, "time_scale")
        self.time_scale = float(time_scale)
        self.variable_scale = self._expand(variable_scale, "variable_scale")
        self.equation_scale = self._expand(equation_scale, "equation_scale")

    def _expand(self, scale, name):
        arr = as_1d_array(scale, name)
        if arr.size == 1:
            arr = np.full(self.n, arr[0])
        if arr.size != self.n:
            raise ValueError(f"{name} must have length {self.n}, got {arr.size}")
        if not np.all(np.isfinite(arr) & (arr > 0)):
            raise ValueError(f"{name} entries must be positive and finite")
        return arr

    # -- mappings ------------------------------------------------------------

    def to_inner(self, y):
        """Map scaled unknowns ``y`` to the inner DAE's ``x``."""
        return self.variable_scale * np.asarray(y, dtype=float)

    def from_inner(self, x):
        """Map inner unknowns ``x`` to the scaled ``y``."""
        return np.asarray(x, dtype=float) / self.variable_scale

    # -- DAE interface ---------------------------------------------------------

    def q(self, y):
        return self.equation_scale * self.inner.q(self.to_inner(y)) / self.time_scale

    def f(self, y):
        return self.equation_scale * self.inner.f(self.to_inner(y))

    def b(self, s):
        return self.equation_scale * self.inner.b(self.time_scale * float(s))

    def dq_dx(self, y):
        jac = self.inner.dq_dx(self.to_inner(y))
        return (
            self.equation_scale[:, None]
            * jac
            * self.variable_scale[None, :]
            / self.time_scale
        )

    def df_dx(self, y):
        jac = self.inner.df_dx(self.to_inner(y))
        return self.equation_scale[:, None] * jac * self.variable_scale[None, :]

    # -- batched interface (delegates to the inner DAE's fast paths) -----------

    def q_batch(self, states):
        states = np.asarray(states, dtype=float)
        inner = self.inner.q_batch(states * self.variable_scale)
        return self.equation_scale * inner / self.time_scale

    def f_batch(self, states):
        states = np.asarray(states, dtype=float)
        return self.equation_scale * self.inner.f_batch(
            states * self.variable_scale
        )

    def qf_batch(self, states):
        # One inner fused evaluation; the scalings are q_batch's and
        # f_batch's, so the values are bit-equal to theirs.
        states = np.asarray(states, dtype=float)
        q, f = self.inner.qf_batch(states * self.variable_scale)
        return (
            self.equation_scale * q / self.time_scale,
            self.equation_scale * f,
        )

    def b_batch(self, times):
        times = np.asarray(times, dtype=float).ravel()
        return self.equation_scale * self.inner.b_batch(self.time_scale * times)

    def dq_dx_batch(self, states):
        states = np.asarray(states, dtype=float)
        jac = self.inner.dq_dx_batch(states * self.variable_scale)
        return (
            self.equation_scale[None, :, None]
            * jac
            * self.variable_scale[None, None, :]
            / self.time_scale
        )

    def df_dx_batch(self, states):
        states = np.asarray(states, dtype=float)
        jac = self.inner.df_dx_batch(states * self.variable_scale)
        return (
            self.equation_scale[None, :, None]
            * jac
            * self.variable_scale[None, None, :]
        )

    # Diagonal scaling preserves the structural pattern.

    def dq_structure(self):
        return self.inner.dq_structure()

    def df_structure(self):
        return self.inner.df_structure()


def _reciprocal_or_one(magnitude):
    """``1 / magnitude``, with 1 wherever that is not positive and finite."""
    scale = 1.0 / magnitude
    return np.where(np.isfinite(scale) & (scale > 0), scale, 1.0)


def equilibration_scales(dae, samples, frequency):
    """Variable and equation scales equilibrating a periodic-problem Jacobian.

    Parameters
    ----------
    dae:
        The system being scaled.
    samples:
        ``(N, n)`` seed waveform, one period on the normalised grid.
    frequency:
        Seed frequency ``nu0`` [Hz]; ``2 pi nu0`` weighs the charge
        Jacobian as the fundamental harmonic's time derivative does.

    Returns
    -------
    tuple
        ``(S, R)``: positive finite length-n arrays for
        :class:`ScaledDAE`'s ``variable_scale`` and ``equation_scale``.
        Entries whose column or row maximum is zero or non-finite (a NaN
        Jacobian, an unknown no equation touches) fall back to 1.
    """
    samples = np.asarray(samples, dtype=float)
    with np.errstate(all="ignore"):  # non-finite entries fall back below
        magnitude = (
            2.0 * np.pi * frequency
            * np.abs(dae.dq_dx_batch(samples)).max(axis=0)
            + np.abs(dae.df_dx_batch(samples)).max(axis=0)
        )
        variable_scale = _reciprocal_or_one(magnitude.max(axis=0))
        equation_scale = _reciprocal_or_one(
            (magnitude * variable_scale).max(axis=1)
        )
    return variable_scale, equation_scale

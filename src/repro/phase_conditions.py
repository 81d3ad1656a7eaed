"""Phase conditions for autonomous periodic problems.

An autonomous system is invariant under time shifts: if ``xhat(t1)`` solves
the periodic problem, so does ``xhat(t1 + D)`` for any ``D`` (paper §4).
Newton therefore sees a singular Jacobian unless one scalar *phase
condition* pins the shift.  The paper's eq. (20) fixes the imaginary part
of one Fourier coefficient; §3 (eq. 9) discusses time-domain alternatives.
All of these are linear functionals of the collocation samples, which is
what this module encodes.

A condition applies to one system variable's samples ``x_k`` on an odd
``N``-point uniform grid over one (possibly warped) period, and contributes

    residual  = w . x_k - target      (one scalar equation)
    gradient  = w                     (constant row for the Jacobian border)
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import PhaseConditionError
from repro.spectral.diffmat import fourier_differentiation_matrix
from repro.utils.validation import check_odd


class PhaseCondition(ABC):
    """A linear functional pinning the phase of one variable's samples.

    Parameters
    ----------
    variable:
        Index of the system variable the condition applies to.
    target:
        Right-hand side of the scalar equation.
    """

    def __init__(self, variable=0, target=0.0):
        self.variable = int(variable)
        self.target = float(target)

    @abstractmethod
    def weights(self, num_samples):
        """Weight vector ``w`` (length ``num_samples``) of the functional."""

    def _check_variable(self, n_vars):
        if not 0 <= self.variable < n_vars:
            raise PhaseConditionError(
                f"phase-condition variable {self.variable} out of range for "
                f"{n_vars} variables"
            )

    def residual(self, samples):
        """Scalar residual for ``samples`` of shape ``(N, n_vars)``."""
        samples = np.asarray(samples, dtype=float)
        self._check_variable(samples.shape[1])
        w = self.weights(samples.shape[0])
        return float(w @ samples[:, self.variable] - self.target)

    def gradient(self, num_samples, n_vars):
        """Row vector of length ``num_samples * n_vars`` (point-major order)."""
        self._check_variable(n_vars)
        w = self.weights(num_samples)
        row = np.zeros(num_samples * n_vars)
        row[self.variable::n_vars] = w
        return row


class ValueAnchor(PhaseCondition):
    """Pin ``x_k(t1 = sample_index / N) = target``.

    The simplest time-domain phase condition; ``target`` must be a value the
    waveform actually attains or Newton cannot satisfy it.
    """

    def __init__(self, variable=0, target=0.0, sample_index=0):
        super().__init__(variable, target)
        self.sample_index = int(sample_index)

    def weights(self, num_samples):
        check_odd(num_samples, "num_samples")
        if not 0 <= self.sample_index < num_samples:
            raise PhaseConditionError(
                f"sample_index {self.sample_index} out of range for "
                f"{num_samples} samples"
            )
        w = np.zeros(num_samples)
        w[self.sample_index] = 1.0
        return w


class DerivativeAnchor(PhaseCondition):
    """Pin the t1-derivative: ``d x_k / d t1 (t1=grid point) = target``.

    With ``target = 0`` this anchors an extremum of the waveform at the
    grid point — the time-domain phase condition used for the paper's VCO
    runs (a "time-domain equivalent of (20)", §5).  Always satisfiable,
    since every periodic waveform has extrema.
    """

    def __init__(self, variable=0, target=0.0, sample_index=0):
        super().__init__(variable, target)
        self.sample_index = int(sample_index)

    def weights(self, num_samples):
        check_odd(num_samples, "num_samples")
        if not 0 <= self.sample_index < num_samples:
            raise PhaseConditionError(
                f"sample_index {self.sample_index} out of range for "
                f"{num_samples} samples"
            )
        diffmat = fourier_differentiation_matrix(num_samples, period=1.0)
        return diffmat[self.sample_index].copy()


class FourierImagAnchor(PhaseCondition):
    """Pin ``Im{ X_k[l] } = target`` — the paper's eq. (20) verbatim.

    ``X_k[l]`` is the ``l``-th Fourier coefficient of variable ``k``'s
    t1-dependence.  With ``target = 0`` the ``l``-th harmonic is forced to
    cosine phase.
    """

    def __init__(self, variable=0, harmonic=1, target=0.0):
        super().__init__(variable, target)
        if harmonic == 0:
            raise PhaseConditionError(
                "harmonic 0 has identically zero imaginary part for real "
                "signals; choose |harmonic| >= 1"
            )
        self.harmonic = int(harmonic)

    def weights(self, num_samples):
        check_odd(num_samples, "num_samples")
        half = num_samples // 2
        if abs(self.harmonic) > half:
            raise PhaseConditionError(
                f"harmonic {self.harmonic} not representable with "
                f"{num_samples} samples (max {half})"
            )
        j = np.arange(num_samples)
        # X_l = (1/N) sum_j x_j exp(-2i pi l j / N); Im{X_l} is the weights
        # below dotted with the samples.
        return -np.sin(2.0 * np.pi * self.harmonic * j / num_samples) / num_samples


def as_phase_condition(spec, variable=0):
    """Coerce ``spec`` into a :class:`PhaseCondition`.

    Accepts an existing condition, or one of the strings ``"derivative"``,
    ``"value"``, ``"fourier"`` (built with default parameters on
    ``variable``).
    """
    if isinstance(spec, PhaseCondition):
        return spec
    if spec == "derivative":
        return DerivativeAnchor(variable=variable)
    if spec == "value":
        return ValueAnchor(variable=variable)
    if spec == "fourier":
        return FourierImagAnchor(variable=variable)
    raise PhaseConditionError(
        f"unknown phase condition {spec!r}; use 'derivative', 'value', "
        f"'fourier' or a PhaseCondition instance"
    )

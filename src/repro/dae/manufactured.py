"""Manufactured DAE systems with known analytic behaviour.

These are the measuring sticks of the test suite: integrator convergence
orders, shooting/HB correctness and MPDE/WaMPDE sanity are all verified
against the closed forms documented on each class.
"""

from __future__ import annotations

import numpy as np

from repro.dae.base import SemiExplicitDAE
from repro.errors import ValidationError
from repro.utils.validation import check_nonnegative, check_positive


class LinearRCDae(SemiExplicitDAE):
    """Driven RC low-pass: ``C v' + v/R = I(t)``.

    With sinusoidal drive ``I(t) = amplitude * cos(omega t)`` the periodic
    steady state is available in closed form through
    :meth:`steady_state_response`.
    """

    def __init__(self, resistance=1.0, capacitance=1.0, amplitude=1.0,
                 omega=1.0):
        check_positive(resistance, "resistance")
        check_positive(capacitance, "capacitance")
        self.resistance = float(resistance)
        self.capacitance = float(capacitance)
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.n = 1
        self.variable_names = ("v",)

    def q(self, x):
        return np.array([self.capacitance * x[0]])

    def f(self, x):
        return np.array([x[0] / self.resistance])

    def b(self, t):
        return np.array([self.amplitude * np.cos(self.omega * t)])

    def dq_dx(self, x):
        return np.array([[self.capacitance]])

    def df_dx(self, x):
        return np.array([[1.0 / self.resistance]])

    def steady_state_response(self, t):
        """Exact periodic steady-state voltage at times ``t``."""
        t = np.asarray(t, dtype=float)
        g = 1.0 / self.resistance
        c = self.capacitance
        w = self.omega
        denom = g**2 + (w * c) ** 2
        return (
            self.amplitude
            * (g * np.cos(w * t) + w * c * np.sin(w * t))
            / denom
        )

    def transient_response(self, t, v0):
        """Exact solution from initial voltage ``v0`` (includes transient)."""
        t = np.asarray(t, dtype=float)
        tau = self.resistance * self.capacitance
        steady = self.steady_state_response(t)
        steady0 = self.steady_state_response(0.0)
        return steady + (v0 - steady0) * np.exp(-t / tau)


class HarmonicOscillatorDae(SemiExplicitDAE):
    """Undamped LC oscillator in first-order form.

    Unknowns ``x = [v, i]`` with ``C v' + i = 0`` and ``L i' - v = 0``; the
    solution oscillates at ``omega0 = 1/sqrt(L C)`` with conserved energy
    ``E = C v^2 / 2 + L i^2 / 2``.
    """

    def __init__(self, inductance=1.0, capacitance=1.0):
        check_positive(inductance, "inductance")
        check_positive(capacitance, "capacitance")
        self.inductance = float(inductance)
        self.capacitance = float(capacitance)
        self.n = 2
        self.variable_names = ("v", "i")

    @property
    def omega0(self):
        """Natural angular frequency ``1/sqrt(LC)``."""
        return 1.0 / np.sqrt(self.inductance * self.capacitance)

    def q(self, x):
        return np.array([self.capacitance * x[0], self.inductance * x[1]])

    def f(self, x):
        return np.array([x[1], -x[0]])

    def b(self, t):
        return np.zeros(2)

    def dq_dx(self, x):
        return np.diag([self.capacitance, self.inductance])

    def df_dx(self, x):
        return np.array([[0.0, 1.0], [-1.0, 0.0]])

    def energy(self, x):
        """Conserved energy of the state (invariant under exact flow)."""
        v, i = x
        return 0.5 * self.capacitance * v**2 + 0.5 * self.inductance * i**2

    def exact(self, t, v0, i0=0.0):
        """Closed-form solution from initial conditions ``(v0, i0)``."""
        t = np.asarray(t, dtype=float)
        w = self.omega0
        z0 = np.sqrt(self.inductance / self.capacitance)
        v = v0 * np.cos(w * t) - i0 * z0 * np.sin(w * t)
        i = i0 * np.cos(w * t) + (v0 / z0) * np.sin(w * t)
        return np.stack([v, i], axis=-1)


class VanDerPolDae(SemiExplicitDAE):
    """Van der Pol oscillator ``y'' - mu (1 - y^2) y' + y = 0``.

    Written as a DAE with ``x = [y, w]``, ``q = x``::

        y' - w = 0
        w' - mu (1 - y^2) w + y = 0

    For small ``mu`` the limit cycle has amplitude ≈ 2 and angular frequency
    ``omega ≈ 1 - mu^2 / 16`` (classical two-timing result), which the
    shooting/HB/WaMPDE tests check against.
    """

    def __init__(self, mu=0.2):
        # mu may be a (B,) per-scenario stack: the batch methods then
        # evaluate row b with mu[b], so one instance carries a whole
        # nonlinearity sweep (see repro.dae.ensemble).
        if np.ndim(mu) == 0:
            check_nonnegative(mu, "mu")
            self.mu = float(mu)
        else:
            self.mu = np.asarray(mu, dtype=float)
            if self.mu.ndim != 1 or np.any(self.mu < 0):
                raise ValidationError(
                    f"mu must be a non-negative scalar or 1-D stack, got {mu!r}"
                )
        self.n = 2
        self.variable_names = ("y", "w")

    def q(self, x):
        return np.asarray(x, dtype=float).copy()

    def f(self, x):
        y, w = x
        return np.array([-w, -self.mu * (1.0 - y**2) * w + y])

    def b(self, t):
        return np.zeros(2)

    def dq_dx(self, x):
        return np.eye(2)

    def df_dx(self, x):
        y, w = x
        return np.array(
            [
                [0.0, -1.0],
                [2.0 * self.mu * y * w + 1.0, -self.mu * (1.0 - y**2)],
            ]
        )

    def small_mu_angular_frequency(self):
        """Two-timing estimate ``1 - mu^2/16`` of the limit-cycle frequency."""
        return 1.0 - self.mu**2 / 16.0

    def qf(self, x):
        y, w = x
        return (
            np.asarray(x, dtype=float).copy(),
            np.array([-w, -self.mu * (1.0 - y**2) * w + y]),
        )

    def subset_scenarios(self, indices):
        """Stacked-``mu`` slice for chunked ensemble marches."""
        mu = self.mu
        if np.ndim(mu) != 0:
            mu = np.asarray(mu, dtype=float)[np.asarray(indices, dtype=int)]
        return VanDerPolDae(mu=mu)

    # Vectorised batch evaluation (exercised heavily by multi-time solvers).

    def q_batch(self, states):
        return np.asarray(states, dtype=float).copy()

    def f_batch(self, states):
        states = np.asarray(states, dtype=float)
        y = states[:, 0]
        w = states[:, 1]
        out = np.empty_like(states)
        out[:, 0] = -w
        out[:, 1] = -self.mu * (1.0 - y**2) * w + y
        return out

    def dq_dx_batch(self, states):
        states = np.asarray(states, dtype=float)
        out = np.zeros((states.shape[0], 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        return out

    def df_dx_batch(self, states):
        states = np.asarray(states, dtype=float)
        y = states[:, 0]
        w = states[:, 1]
        out = np.zeros((states.shape[0], 2, 2))
        out[:, 0, 1] = -1.0
        out[:, 1, 0] = 2.0 * self.mu * y * w + 1.0
        out[:, 1, 1] = -self.mu * (1.0 - y**2)
        return out

    def dq_structure(self):
        return np.eye(2, dtype=bool)

    def df_structure(self):
        return np.array([[False, True], [True, True]])


class ForcedDecayDae(SemiExplicitDAE):
    """Scalar linear decay with arbitrary forcing: ``x' + a x = u(t)``.

    Used for convergence-order studies; the exact solution for constant
    forcing is available via :meth:`exact_constant_forcing`.
    """

    def __init__(self, rate=1.0, forcing=None):
        check_positive(rate, "rate")
        self.rate = float(rate)
        self.forcing = forcing if forcing is not None else (lambda t: 0.0)
        self.n = 1
        self.variable_names = ("x",)

    def q(self, x):
        return np.asarray(x, dtype=float).copy()

    def f(self, x):
        return np.array([self.rate * x[0]])

    def b(self, t):
        return np.array([float(self.forcing(t))])

    def dq_dx(self, x):
        return np.eye(1)

    def df_dx(self, x):
        return np.array([[self.rate]])

    def exact_constant_forcing(self, t, x0, u):
        """Exact solution when ``forcing ≡ u`` (constant)."""
        t = np.asarray(t, dtype=float)
        xinf = u / self.rate
        return xinf + (x0 - xinf) * np.exp(-self.rate * t)

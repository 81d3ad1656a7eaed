"""Device stamping contract.

A device connects to ``ports`` (node names) and may own internal unknowns
(branch currents, mechanical states).  Its *local unknown vector* is::

    u = [v(port_0), ..., v(port_{p-1}), internal_0, ..., internal_{m-1}]

and it contributes one equation row per local unknown:

* one KCL row per port — the charge (``q``) and current (``f``) flowing
  *out of that node into the device*, and any source term (``b``) on the
  right-hand side;
* one constitutive row per internal unknown (e.g. an inductor's flux
  equation, a voltage source's KVL row, a varactor's mechanical equations).

The global system built by :class:`repro.circuits.mna.CircuitDAE` is then
``d/dt q(x) + f(x) = b(t)`` with each local row scatter-added into the
matching global row (ground rows are dropped).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import DeviceError


def per_scenario_parameter(value, name, device_name, positive=True):
    """Coerce a component value to ``float`` or a 1-D per-scenario stack.

    Devices that accept a ``(B,)`` array here become *stacked* devices:
    row ``b`` of every batched stamp is evaluated with the ``b``-th
    parameter value, which is how :class:`repro.circuits.mna.CircuitDAE`
    carries an ensemble of component spreads through one evaluation (see
    :mod:`repro.dae.ensemble`).  A stacked device must only be evaluated
    through the ``*_local_batch`` methods with batches matching ``B``.
    """
    if np.ndim(value) == 0:
        value = float(value)
        if positive and not value > 0:
            raise DeviceError(
                f"{device_name!r} needs positive {name}, got {value!r}"
            )
        return value
    stack = np.asarray(value, dtype=float)
    if stack.ndim != 1:
        raise DeviceError(
            f"{device_name!r} {name} must be a scalar or 1-D per-scenario "
            f"stack, got shape {stack.shape}"
        )
    if positive and not np.all(stack > 0):
        raise DeviceError(
            f"{device_name!r} needs positive {name}, got {stack!r}"
        )
    return stack


def slice_per_scenario(value, indices):
    """Slice a per-scenario stack to ``indices``; scalars pass through.

    The companion of :func:`per_scenario_parameter` for chunked ensemble
    marches: ``Device.subset_scenarios`` implementations apply it to every
    stackable parameter.
    """
    if np.ndim(value) == 0:
        return value
    return np.asarray(value, dtype=float)[np.asarray(indices, dtype=int)]


class Device(ABC):
    """Base class for all circuit devices.

    Parameters
    ----------
    name:
        Unique device identifier within a circuit.
    ports:
        Node names this device connects to, in device-defined order.
    """

    #: Labels of internal unknowns; override in subclasses that have any.
    internal_names: tuple = ()

    def __init__(self, name, ports):
        if not name:
            raise DeviceError("device name must be a non-empty string")
        self.name = str(name)
        self.ports = tuple(str(p) for p in ports)
        if len(self.ports) == 0:
            raise DeviceError(f"device {self.name!r} must have at least one port")

    # -- sizes ---------------------------------------------------------------

    @property
    def n_ports(self):
        """Number of terminals."""
        return len(self.ports)

    @property
    def n_internal(self):
        """Number of internal unknowns."""
        return len(self.internal_names)

    @property
    def n_local(self):
        """Length of the local unknown vector (and of the local rows)."""
        return self.n_ports + self.n_internal

    # -- ensembles -----------------------------------------------------------

    def subset_scenarios(self, indices):
        """Copy with per-scenario stacks sliced to ``indices``.

        Devices that accept stacked parameters
        (:func:`per_scenario_parameter`) override this so ensemble
        service shards can carve a ``(B,)`` stacked circuit into scenario
        blocks; parameterless devices are shared as-is.
        """
        return self

    # -- stamping ------------------------------------------------------------

    def q_local(self, u):
        """Local charge/flux contributions (length ``n_local``); default 0."""
        return np.zeros(self.n_local)

    @abstractmethod
    def f_local(self, u):
        """Local static contributions (length ``n_local``)."""

    def b_local(self, t):
        """Local source contributions at time ``t``; default 0."""
        return np.zeros(self.n_local)

    def dq_local(self, u):
        """Jacobian of :meth:`q_local` w.r.t. ``u``; default 0."""
        return np.zeros((self.n_local, self.n_local))

    @abstractmethod
    def df_local(self, u):
        """Jacobian of :meth:`f_local` w.r.t. ``u``."""

    # -- batched stamping ------------------------------------------------------
    #
    # ``U`` is an ``(m, n_local)`` stack of local unknown vectors; the batch
    # methods return the row-wise application of the single-point stamps
    # (``(m, n_local)`` for vectors, ``(m, n_local, n_local)`` for
    # Jacobians).  The generic fallbacks loop; concrete devices override
    # them with true NumPy-vectorised versions, which is what lets
    # :class:`repro.circuits.mna.CircuitDAE` evaluate a whole collocation
    # grid with one call per device.

    def q_local_batch(self, U):
        """Row-wise :meth:`q_local`; zeros fast path for static devices."""
        if type(self).q_local is Device.q_local:
            return np.zeros((U.shape[0], self.n_local))
        # The generic loop evaluates the scalar stamp pointwise; hot
        # devices override with a vectorised version.
        U = np.asarray(U, dtype=float)
        return np.stack([self.q_local(u) for u in U])

    def f_local_batch(self, U):
        """Row-wise :meth:`f_local` (pointwise loop fallback)."""
        U = np.asarray(U, dtype=float)
        return np.stack([self.f_local(u) for u in U])

    def b_local_batch(self, times):
        """:meth:`b_local` at each time; zeros fast path for unforced."""
        times = np.asarray(times, dtype=float).ravel()
        if type(self).b_local is Device.b_local:
            return np.zeros((times.size, self.n_local))
        return np.stack([self.b_local(t) for t in times])

    def dq_local_batch(self, U):
        """Row-wise :meth:`dq_local`; zeros fast path for static devices."""
        if type(self).dq_local is Device.dq_local:
            return np.zeros((U.shape[0], self.n_local, self.n_local))
        U = np.asarray(U, dtype=float)
        return np.stack([self.dq_local(u) for u in U])

    def df_local_batch(self, U):
        """Row-wise :meth:`df_local` (pointwise loop fallback)."""
        U = np.asarray(U, dtype=float)
        return np.stack([self.df_local(u) for u in U])

    def __repr__(self):
        ports = ", ".join(self.ports)
        return f"{type(self).__name__}({self.name!r}, ports=({ports}))"


class TwoTerminalStatic(Device):
    """Helper base for memoryless two-terminal elements.

    Subclasses provide the branch current ``i(v)`` and its derivative for
    the branch voltage ``v = v(port_0) - v(port_1)``; the KCL rows follow
    the passive sign convention (current flows in at port 0, out at port 1).
    """

    def __init__(self, name, node_a, node_b):
        super().__init__(name, (node_a, node_b))

    @abstractmethod
    def current(self, v):
        """Branch current as a function of branch voltage.

        Must be vectorised over NumPy arrays of ``v`` (elementwise) — the
        batched stamps below evaluate one whole collocation grid per call.
        """

    @abstractmethod
    def conductance(self, v):
        """Derivative ``di/dv`` of :meth:`current`; vectorised like it."""

    def f_local(self, u):
        i = self.current(u[0] - u[1])
        return np.array([i, -i])

    def df_local(self, u):
        g = self.conductance(u[0] - u[1])
        return np.array([[g, -g], [-g, g]])

    def f_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        i = np.asarray(self.current(U[:, 0] - U[:, 1]), dtype=float)
        return np.stack([i, -i], axis=1)

    def df_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        g = np.asarray(self.conductance(U[:, 0] - U[:, 1]), dtype=float)
        out = np.empty((U.shape[0], 2, 2))
        out[:, 0, 0] = g
        out[:, 0, 1] = -g
        out[:, 1, 0] = -g
        out[:, 1, 1] = g
        return out

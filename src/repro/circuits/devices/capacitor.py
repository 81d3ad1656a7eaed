"""Linear capacitor."""

from __future__ import annotations

import numpy as np

from repro.circuits.devices.base import (
    Device,
    per_scenario_parameter,
    slice_per_scenario,
)


class Capacitor(Device):
    """Linear capacitor between ``node_a`` and ``node_b``.

    Contributes charge ``C * (v_a - v_b)`` to the KCL rows of its terminals.

    Parameters
    ----------
    capacitance:
        Capacitance in farads; must be positive.  May be a ``(B,)``
        per-scenario stack (see
        :func:`repro.circuits.devices.base.per_scenario_parameter`).
    """

    def __init__(self, name, node_a, node_b, capacitance):
        super().__init__(name, (node_a, node_b))
        self.capacitance = per_scenario_parameter(
            capacitance, "capacitance", name
        )

    def q_local(self, u):
        charge = self.capacitance * (u[0] - u[1])
        return np.array([charge, -charge])

    def dq_local(self, u):
        c = self.capacitance
        return np.array([[c, -c], [-c, c]])

    def f_local(self, u):
        return np.zeros(2)

    def df_local(self, u):
        return np.zeros((2, 2))

    def subset_scenarios(self, indices):
        return Capacitor(
            self.name, self.ports[0], self.ports[1],
            slice_per_scenario(self.capacitance, indices),
        )

    def q_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        charge = self.capacitance * (U[:, 0] - U[:, 1])
        return np.stack([charge, -charge], axis=1)

    def dq_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        out = np.empty((U.shape[0], 2, 2))
        out[:, 0, 0] = self.capacitance
        out[:, 0, 1] = -out[:, 0, 0]
        out[:, 1, 0] = -out[:, 0, 0]
        out[:, 1, 1] = out[:, 0, 0]
        return out

    def f_local_batch(self, U):
        return np.zeros((np.asarray(U).shape[0], 2))

    def df_local_batch(self, U):
        return np.zeros((np.asarray(U).shape[0], 2, 2))

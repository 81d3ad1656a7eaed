"""Linear inductor (adds a branch-current unknown)."""

from __future__ import annotations

import numpy as np

from repro.circuits.devices.base import (
    Device,
    per_scenario_parameter,
    slice_per_scenario,
)


class Inductor(Device):
    """Linear inductor between ``node_a`` and ``node_b``.

    The branch current ``i`` (flowing from ``node_a`` to ``node_b``) is an
    internal unknown; its constitutive row is ``d/dt (L i) - (v_a - v_b) = 0``.
    """

    internal_names = ("i",)

    def __init__(self, name, node_a, node_b, inductance):
        super().__init__(name, (node_a, node_b))
        self.inductance = per_scenario_parameter(
            inductance, "inductance", name
        )

    def subset_scenarios(self, indices):
        return Inductor(
            self.name, self.ports[0], self.ports[1],
            slice_per_scenario(self.inductance, indices),
        )

    def q_local(self, u):
        # Rows: [kcl_a, kcl_b, branch]; only the branch row carries flux.
        return np.array([0.0, 0.0, self.inductance * u[2]])

    def dq_local(self, u):
        jac = np.zeros((3, 3))
        jac[2, 2] = self.inductance
        return jac

    def f_local(self, u):
        return np.array([u[2], -u[2], -(u[0] - u[1])])

    def df_local(self, u):
        return np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0],
                [-1.0, 1.0, 0.0],
            ]
        )

    def q_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        out = np.zeros((U.shape[0], 3))
        out[:, 2] = self.inductance * U[:, 2]
        return out

    def dq_local_batch(self, U):
        out = np.zeros((np.asarray(U).shape[0], 3, 3))
        out[:, 2, 2] = self.inductance
        return out

    def f_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        return np.stack(
            [U[:, 2], -U[:, 2], -(U[:, 0] - U[:, 1])], axis=1
        )

    def df_local_batch(self, U):
        out = np.zeros((np.asarray(U).shape[0], 3, 3))
        out[:, 0, 2] = 1.0
        out[:, 1, 2] = -1.0
        out[:, 2, 0] = -1.0
        out[:, 2, 1] = 1.0
        return out

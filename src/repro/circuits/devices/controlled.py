"""Linear controlled sources (VCCS, VCVS)."""

from __future__ import annotations

import numpy as np

from repro.circuits.devices.base import Device


class VCCS(Device):
    """Voltage-controlled current source.

    Drives current ``gm * (v_cp - v_cn)`` from ``out_p`` to ``out_n``.
    Ports: ``(out_p, out_n, ctrl_p, ctrl_n)``.
    """

    def __init__(self, name, out_p, out_n, ctrl_p, ctrl_n, gm):
        super().__init__(name, (out_p, out_n, ctrl_p, ctrl_n))
        self.gm = float(gm)

    def f_local(self, u):
        i = self.gm * (u[2] - u[3])
        return np.array([i, -i, 0.0, 0.0])

    def df_local(self, u):
        gm = self.gm
        return np.array(
            [
                [0.0, 0.0, gm, -gm],
                [0.0, 0.0, -gm, gm],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )

    def f_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        i = self.gm * (U[:, 2] - U[:, 3])
        out = np.zeros((U.shape[0], 4))
        out[:, 0] = i
        out[:, 1] = -i
        return out

    def df_local_batch(self, U):
        out = np.zeros((np.asarray(U).shape[0], 4, 4))
        out[:, 0, 2] = self.gm
        out[:, 0, 3] = -self.gm
        out[:, 1, 2] = -self.gm
        out[:, 1, 3] = self.gm
        return out


class VCVS(Device):
    """Voltage-controlled voltage source ``v(out_p) - v(out_n) = mu * v_ctrl``.

    Adds a branch-current unknown like an independent voltage source.
    Ports: ``(out_p, out_n, ctrl_p, ctrl_n)``.
    """

    internal_names = ("i",)

    def __init__(self, name, out_p, out_n, ctrl_p, ctrl_n, mu):
        super().__init__(name, (out_p, out_n, ctrl_p, ctrl_n))
        self.mu = float(mu)

    def f_local(self, u):
        i = u[4]
        kvl = (u[0] - u[1]) - self.mu * (u[2] - u[3])
        return np.array([i, -i, 0.0, 0.0, kvl])

    def df_local(self, u):
        mu = self.mu
        return np.array(
            [
                [0.0, 0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [1.0, -1.0, -mu, mu, 0.0],
            ]
        )

    def f_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        out = np.zeros((U.shape[0], 5))
        out[:, 0] = U[:, 4]
        out[:, 1] = -U[:, 4]
        out[:, 4] = (U[:, 0] - U[:, 1]) - self.mu * (U[:, 2] - U[:, 3])
        return out

    def df_local_batch(self, U):
        out = np.zeros((np.asarray(U).shape[0], 5, 5))
        out[:, 0, 4] = 1.0
        out[:, 1, 4] = -1.0
        out[:, 4, 0] = 1.0
        out[:, 4, 1] = -1.0
        out[:, 4, 2] = -self.mu
        out[:, 4, 3] = self.mu
        return out

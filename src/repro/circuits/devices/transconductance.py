"""Saturating (tanh) transconductance — the ring-oscillator stage element."""

from __future__ import annotations

import numpy as np

from repro.circuits.devices.base import Device
from repro.errors import DeviceError


class TanhTransconductance(Device):
    """Current ``imax * tanh(gm * v_ctrl / imax)`` from ``out_p`` to ``out_n``.

    A voltage-controlled current source with soft saturation at ``imax`` —
    the classic behavioural model of an inverter/differential-pair stage.
    Small-signal transconductance at the origin is ``gm``; with an RC load
    from ``out_p`` to ground the stage *inverts* (positive input raises
    the current pulled out of the output node).

    Ports: ``(out_p, out_n, ctrl_p, ctrl_n)``.
    """

    def __init__(self, name, out_p, out_n, ctrl_p, ctrl_n, gm, imax):
        super().__init__(name, (out_p, out_n, ctrl_p, ctrl_n))
        gm = float(gm)
        imax = float(imax)
        if gm <= 0 or imax <= 0:
            raise DeviceError(
                f"transconductance {name!r} needs gm > 0 and imax > 0, "
                f"got gm={gm!r}, imax={imax!r}"
            )
        self.gm = gm
        self.imax = imax

    def output_current(self, v_ctrl):
        """Saturating output current for a control voltage."""
        return self.imax * np.tanh(self.gm * v_ctrl / self.imax)

    def transconductance(self, v_ctrl):
        """Derivative of :meth:`output_current`."""
        sech2 = 1.0 / np.cosh(self.gm * v_ctrl / self.imax) ** 2
        return self.gm * sech2

    def f_local(self, u):
        i = self.output_current(u[2] - u[3])
        return np.array([i, -i, 0.0, 0.0])

    def df_local(self, u):
        g = self.transconductance(u[2] - u[3])
        jac = np.zeros((4, 4))
        jac[0, 2] = g
        jac[0, 3] = -g
        jac[1, 2] = -g
        jac[1, 3] = g
        return jac

    def f_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        i = self.output_current(U[:, 2] - U[:, 3])
        out = np.zeros((U.shape[0], 4))
        out[:, 0] = i
        out[:, 1] = -i
        return out

    def df_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        g = self.transconductance(U[:, 2] - U[:, 3])
        out = np.zeros((U.shape[0], 4, 4))
        out[:, 0, 2] = g
        out[:, 0, 3] = -g
        out[:, 1, 2] = -g
        out[:, 1, 3] = g
        return out

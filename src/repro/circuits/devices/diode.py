"""Exponential junction diode with overflow-safe limiting."""

from __future__ import annotations

import numpy as np

from repro.circuits.devices.base import TwoTerminalStatic
from repro.constants import THERMAL_VOLTAGE_300K
from repro.errors import DeviceError

#: Junction voltage (in units of the thermal voltage) beyond which the
#: exponential is continued linearly to keep Newton iterates finite.
_LIMIT_MULTIPLE = 40.0


class Diode(TwoTerminalStatic):
    """Shockley diode ``i = Is (exp(v/Vt) - 1)`` from anode to cathode.

    Beyond ``v = 40 Vt`` the i-v law continues with the tangent line
    (standard SPICE-style junction limiting) so that wildly wrong Newton
    iterates produce large-but-finite currents instead of overflow.
    """

    def __init__(self, name, anode, cathode, saturation_current=1e-14,
                 thermal_voltage=THERMAL_VOLTAGE_300K):
        super().__init__(name, anode, cathode)
        saturation_current = float(saturation_current)
        thermal_voltage = float(thermal_voltage)
        if saturation_current <= 0 or thermal_voltage <= 0:
            raise DeviceError(
                f"diode {name!r} needs positive saturation current and "
                f"thermal voltage"
            )
        self.saturation_current = saturation_current
        self.thermal_voltage = thermal_voltage

    def _split(self, v):
        """Return (is_limited, v_limit) for the limiting region test."""
        v_limit = _LIMIT_MULTIPLE * self.thermal_voltage
        return v > v_limit, v_limit

    def current(self, v):
        """Branch current; vectorised over arrays of junction voltages."""
        v = np.asarray(v, dtype=float)
        limited, v_limit = self._split(v)
        exp_lim = np.exp(_LIMIT_MULTIPLE)
        slope = self.saturation_current * exp_lim / self.thermal_voltage
        i_lim = self.saturation_current * (exp_lim - 1.0)
        value = np.where(
            limited,
            i_lim + slope * (v - v_limit),
            self.saturation_current
            * np.expm1(np.minimum(v, v_limit) / self.thermal_voltage),
        )
        return value if value.ndim else float(value)

    def conductance(self, v):
        """Derivative ``di/dv``; vectorised over arrays."""
        v = np.asarray(v, dtype=float)
        limited, v_limit = self._split(v)
        value = (
            self.saturation_current
            * np.exp(np.where(limited, v_limit, v) / self.thermal_voltage)
            / self.thermal_voltage
        )
        return value if value.ndim else float(value)

"""Nonlinear resistors, including the paper's negative-resistance element.

The paper's VCO uses "an LC tank in parallel with a nonlinear resistor,
whose resistance was negative in a region about zero and positive
elsewhere", which makes the origin unstable and yields a stable limit
cycle.  :class:`CubicConductance` is the classical van der Pol cubic;
:class:`TanhNegativeConductance` is a saturating alternative often used for
cross-coupled CMOS oscillator models.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.devices.base import TwoTerminalStatic
from repro.errors import DeviceError


class CubicConductance(TwoTerminalStatic):
    """Cubic i-v law ``i(v) = -g1 * v + g3 * v**3``.

    Negative differential conductance for ``|v| < sqrt(g1 / (3 g3))`` and
    positive beyond — exactly the region structure the paper requires.  For
    a parallel-LC tank the resulting limit-cycle amplitude is approximately
    ``2 * sqrt(g1 / (3 g3))`` when the nonlinearity is weak.
    """

    def __init__(self, name, node_a, node_b, g1, g3):
        super().__init__(name, node_a, node_b)
        g1 = float(g1)
        g3 = float(g3)
        if g1 <= 0 or g3 <= 0:
            raise DeviceError(
                f"cubic conductance {name!r} needs g1 > 0 and g3 > 0, "
                f"got g1={g1!r}, g3={g3!r}"
            )
        self.g1 = g1
        self.g3 = g3

    def current(self, v):
        return -self.g1 * v + self.g3 * v**3

    def conductance(self, v):
        return -self.g1 + 3.0 * self.g3 * v**2

    def limit_cycle_amplitude_estimate(self):
        """First-order describing-function amplitude ``2 sqrt(g1/(3 g3))``."""
        return 2.0 * np.sqrt(self.g1 / (3.0 * self.g3))


class TanhNegativeConductance(TwoTerminalStatic):
    """Saturating negative resistance ``i(v) = gsat*v - imax*tanh(gneg*v/imax)``.

    Near zero the slope is ``gsat - gneg`` (negative when ``gneg > gsat``);
    for large ``|v|`` the tanh saturates and the slope tends to ``gsat > 0``.
    """

    def __init__(self, name, node_a, node_b, gneg, gsat, imax):
        super().__init__(name, node_a, node_b)
        gneg = float(gneg)
        gsat = float(gsat)
        imax = float(imax)
        if gneg <= gsat:
            raise DeviceError(
                f"tanh conductance {name!r} needs gneg > gsat for a negative "
                f"region, got gneg={gneg!r}, gsat={gsat!r}"
            )
        if gsat <= 0 or imax <= 0:
            raise DeviceError(
                f"tanh conductance {name!r} needs gsat > 0 and imax > 0"
            )
        self.gneg = gneg
        self.gsat = gsat
        self.imax = imax

    def current(self, v):
        return self.gsat * v - self.imax * np.tanh(self.gneg * v / self.imax)

    def conductance(self, v):
        sech2 = 1.0 / np.cosh(self.gneg * v / self.imax) ** 2
        return self.gsat - self.gneg * sech2

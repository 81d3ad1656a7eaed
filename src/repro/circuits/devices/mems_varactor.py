"""MEMS varactor: a voltage-controlled capacitor with mechanical dynamics.

The paper's VCO tunes its tank capacitance "by adjusting the physical plate
separation of a novel MEMS varactor with a separate control voltage"; the
mechanical damping distinguishes the two experiments (near-vacuum for
Figs 7-9, air-filled for Figs 10-12).

Model
-----
The moving plate has displacement ``z`` and velocity ``u`` obeying

    m z'' + c z' + k z = kappa * Vc(t)**2

i.e. a comb-drive-style actuator: electrostatic force quadratic in the
control voltage ``Vc`` and independent of ``z`` (no pull-in singularity,
so the model is globally well-posed — a deliberate, documented substitution
for the paper's unspecified parallel-plate device).  The RF capacitance
seen by the tank is

    C(z) = C0 / (1 + (z/zs)**2)**2

chosen so the tank's local frequency ``f = 1/(2 pi sqrt(L C))``
is *linear* in ``(z/zs)**2`` — convenient for calibrating the paper's
frequency anchors (0.75 MHz at 1.5 V control, ~3x swing in Fig 7).

Because the control voltage is a known waveform, the electrostatic force
appears purely in the source vector ``b(t)``, consistent with the WaMPDE's
slow-time-only forcing ``b(t2)``.

Rows (local unknowns ``u = [v_a, v_b, z, u_vel]``):

* KCL at ``a``:  ``d/dt [C(z) (v_a - v_b)]``
* KCL at ``b``:  the negative of the above
* ``z`` row:     ``d/dt z - u_vel = 0``
* ``u`` row:     ``d/dt (m u_vel) + c u_vel + k z = kappa Vc(t)^2``
"""

from __future__ import annotations

import numpy as np

from repro.circuits.devices.base import (
    Device,
    per_scenario_parameter,
    slice_per_scenario,
)
from repro.circuits.waveforms import as_waveform
from repro.errors import DeviceError


class MemsVaractor(Device):
    """Electromechanical varactor between ``node_a`` and ``node_b``.

    Parameters
    ----------
    name:
        Device identifier.
    node_a, node_b:
        RF terminals (the tank capacitor plates).
    control:
        Control-voltage waveform ``Vc(t)`` (number, callable or
        :class:`~repro.circuits.waveforms.Waveform`).
    c0:
        Capacitance at zero displacement [F].
    z_scale:
        Displacement scale ``zs`` in the capacitance law [m].
    mass:
        Plate mass ``m`` [kg].
    damping:
        Viscous damping ``c`` [N s/m] — small for vacuum, large for air.
    stiffness:
        Spring constant ``k`` [N/m].
    force_gain:
        Actuation gain ``kappa`` [N/V^2].
    """

    internal_names = ("z", "u")

    def __init__(self, name, node_a, node_b, control, c0, z_scale, mass,
                 damping, stiffness, force_gain):
        super().__init__(name, (node_a, node_b))
        # Every mechanical/electrical parameter accepts a (B,) per-scenario
        # stack, which is how an ensemble sweeps e.g. the damping spread
        # between the paper's vacuum and air experiments with one device.
        self.control = as_waveform(control)
        self.c0 = per_scenario_parameter(c0, "c0", name)
        self.z_scale = per_scenario_parameter(z_scale, "z_scale", name)
        self.mass = per_scenario_parameter(mass, "mass", name)
        self.damping = per_scenario_parameter(
            damping, "damping", name, positive=False
        )
        if np.any(np.asarray(self.damping) < 0):
            raise DeviceError(
                f"varactor {name!r} needs non-negative damping, got {damping!r}"
            )
        self.stiffness = per_scenario_parameter(stiffness, "stiffness", name)
        self.force_gain = per_scenario_parameter(
            force_gain, "force_gain", name, positive=False
        )

    # -- capacitance law -------------------------------------------------------

    def capacitance(self, z):
        """RF capacitance at displacement ``z``."""
        ratio = (z / self.z_scale) ** 2
        return self.c0 / (1.0 + ratio) ** 2

    def dcapacitance_dz(self, z):
        """Derivative ``dC/dz``."""
        s = z / self.z_scale
        return -4.0 * self.c0 * s / (self.z_scale * (1.0 + s**2) ** 3)

    def static_displacement(self, vc):
        """Equilibrium displacement for a constant control voltage."""
        return self.force_gain * float(vc) ** 2 / self.stiffness

    def subset_scenarios(self, indices):
        """Copy of this device with per-scenario stacks sliced to ``indices``."""
        return MemsVaractor(
            self.name, self.ports[0], self.ports[1], self.control,
            c0=slice_per_scenario(self.c0, indices),
            z_scale=slice_per_scenario(self.z_scale, indices),
            mass=slice_per_scenario(self.mass, indices),
            damping=slice_per_scenario(self.damping, indices),
            stiffness=slice_per_scenario(self.stiffness, indices),
            force_gain=slice_per_scenario(self.force_gain, indices),
        )

    def static_capacitance(self, vc):
        """Equilibrium capacitance for a constant control voltage."""
        return self.capacitance(self.static_displacement(vc))

    def force(self, t):
        """Electrostatic actuation force ``kappa * Vc(t)^2``."""
        vc = self.control(t)
        return self.force_gain * np.square(vc)

    # -- stamping ----------------------------------------------------------------

    def q_local(self, u):
        v = u[0] - u[1]
        z = u[2]
        charge = self.capacitance(z) * v
        return np.array([charge, -charge, z, self.mass * u[3]])

    def dq_local(self, u):
        v = u[0] - u[1]
        z = u[2]
        cap = self.capacitance(z)
        dcap = self.dcapacitance_dz(z)
        jac = np.zeros((4, 4))
        jac[0, 0] = cap
        jac[0, 1] = -cap
        jac[0, 2] = dcap * v
        jac[1, 0] = -cap
        jac[1, 1] = cap
        jac[1, 2] = -dcap * v
        jac[2, 2] = 1.0
        jac[3, 3] = self.mass
        return jac

    def f_local(self, u):
        return np.array(
            [
                0.0,
                0.0,
                -u[3],
                self.damping * u[3] + self.stiffness * u[2],
            ]
        )

    def df_local(self, u):
        jac = np.zeros((4, 4))
        jac[2, 3] = -1.0
        jac[3, 2] = self.stiffness
        jac[3, 3] = self.damping
        return jac

    def b_local(self, t):
        return np.array([0.0, 0.0, 0.0, float(self.force(t))])

    # -- batched stamping --------------------------------------------------------

    def q_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        v = U[:, 0] - U[:, 1]
        z = U[:, 2]
        charge = self.capacitance(z) * v
        return np.stack([charge, -charge, z, self.mass * U[:, 3]], axis=1)

    def dq_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        v = U[:, 0] - U[:, 1]
        z = U[:, 2]
        cap = self.capacitance(z)
        dcap = self.dcapacitance_dz(z)
        out = np.zeros((U.shape[0], 4, 4))
        out[:, 0, 0] = cap
        out[:, 0, 1] = -cap
        out[:, 0, 2] = dcap * v
        out[:, 1, 0] = -cap
        out[:, 1, 1] = cap
        out[:, 1, 2] = -dcap * v
        out[:, 2, 2] = 1.0
        out[:, 3, 3] = self.mass
        return out

    def f_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        out = np.zeros((U.shape[0], 4))
        out[:, 2] = -U[:, 3]
        out[:, 3] = self.damping * U[:, 3] + self.stiffness * U[:, 2]
        return out

    def df_local_batch(self, U):
        out = np.zeros((np.asarray(U).shape[0], 4, 4))
        out[:, 2, 3] = -1.0
        out[:, 3, 2] = self.stiffness
        out[:, 3, 3] = self.damping
        return out

    def b_local_batch(self, times):
        times = np.asarray(times, dtype=float).ravel()
        out = np.zeros((times.size, 4))
        out[:, 3] = np.asarray(self.force(times), dtype=float)
        return out

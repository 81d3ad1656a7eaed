"""Ready-made circuits, including the paper's MEMS-varactor VCO.

Calibration
-----------
The paper gives no component values, only behavioural anchors.  The
parameters below are solved so that the *static* tuning law

    f(Vc) = f_base * (1 + gamma**2 * Vc**4),   gamma = kappa / (k * zs)

hits the anchors ``f(1.5 V) = 0.75 MHz`` (paper: "initial control voltage of
1.5V resulted in an initial frequency of about 0.75MHz") and
``f(2.7 V) = 2.0 MHz`` (top of Fig 7's ~3x swing), giving

    beta = gamma**2 = 0.0420407...,   f_base = 618.39 kHz

The control waveform is ``Vc(t) = 1.5 + 1.2 sin(2 pi t / T_force)`` with
``T_force = 30 * T_nominal = 40 us`` for the vacuum variant (Figs 7-9) and
``T_force = 1 ms`` for the air variant (Figs 10-12), exactly as §5 states.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro.circuits.devices import (
    CubicConductance,
    CurrentSource,
    Inductor,
    MemsVaractor,
)
from repro.circuits.netlist import Circuit
from repro.circuits.waveforms import DC, Sine, as_waveform
from repro.constants import TWO_PI
from repro.dae.base import SemiExplicitDAE

#: Tuning-law curvature solved from the two frequency anchors.
_BETA = 5.0 / 118.932187
#: gamma = kappa / (k * zs) [1/V^2].
_GAMMA = float(np.sqrt(_BETA))
#: Base (zero-displacement) oscillation frequency [Hz].
_F_BASE = 0.75e6 / (1.0 + _BETA * 1.5**4)
#: Nominal oscillation frequency at Vc = 1.5 V [Hz].
F_NOMINAL = 0.75e6
#: Nominal oscillation period [s].
T_NOMINAL = 1.0 / F_NOMINAL


@dataclass(frozen=True)
class VcoParams:
    """Component values of the MEMS-varactor VCO.

    Defaults are the vacuum (Figs 7-9) calibration; use :meth:`air` for the
    modified VCO of Figs 10-12.
    """

    #: Tank inductance [H]; sets f_base together with ``c0``.  The factor
    #: 0.9557 compensates the van der Pol frequency pulling of the cubic
    #: resistor so the *oscillating* circuit (not just the linear tank)
    #: free-runs at 0.75 MHz with a 1.5 V control.
    inductance: float = 0.9557 / ((TWO_PI * _F_BASE) ** 2 * 100e-12)
    #: Varactor capacitance at zero displacement [F].
    c0: float = 100e-12
    #: Negative-conductance magnitude g1 [S] of the cubic resistor.
    g1: float = 1.9427e-4
    #: Cubic coefficient g3 [S/V^2]; g1/(3*g3) = 1 → ~2 V limit cycle.
    g3: float = 1.9427e-4 / 3.0
    #: Displacement scale zs [m] in the capacitance law.
    z_scale: float = 1e-6
    #: Plate mass [kg].
    mass: float = 1e-9
    #: Spring constant [N/m]; mech. resonance ~75 kHz.
    stiffness: float = 221.0
    #: Viscous damping [N s/m]; default = near vacuum (Q ≈ 5).
    damping: float = 9.4e-5
    #: Actuation gain kappa = gamma * k * zs [N/V^2].
    force_gain: float = _GAMMA * 221.0 * 1e-6
    #: Control offset [V].
    control_offset: float = 1.5
    #: Control sinusoid amplitude [V].
    control_amplitude: float = 1.1
    #: Control sinusoid period [s]; vacuum default = 30 nominal cycles.
    control_period: float = 30.0 * T_NOMINAL

    @staticmethod
    def vacuum():
        """Paper §5 first experiment: near-vacuum damping, 40 us forcing."""
        return VcoParams()

    @staticmethod
    def air():
        """Paper §5 modified VCO: air damping, 1 ms forcing period.

        The damping gives a mechanical relaxation time ``c/k = 0.25 ms``,
        strongly overdamped — the source of Fig 10's settling behaviour.
        """
        return replace(VcoParams(), damping=0.0553, control_period=1e-3)

    @property
    def gamma(self):
        """Tuning coefficient kappa/(k*zs) [1/V^2]."""
        return self.force_gain / (self.stiffness * self.z_scale)

    @property
    def f_base(self):
        """Zero-displacement oscillation frequency [Hz]."""
        return 1.0 / (TWO_PI * np.sqrt(self.inductance * self.c0))

    def control_waveform(self, constant=False):
        """The control voltage Vc(t); ``constant=True`` freezes it at t=0."""
        if constant:
            return DC(self.control_offset)
        return Sine(
            amplitude=self.control_amplitude,
            frequency=1.0 / self.control_period,
            offset=self.control_offset,
        )

    def static_frequency(self, vc):
        """Static tuning law ``f_base * (1 + (gamma * Vc^2)^2)`` [Hz]."""
        vc = np.asarray(vc, dtype=float)
        return self.f_base * (1.0 + (self.gamma * vc**2) ** 2)

    def static_displacement(self, vc):
        """Equilibrium plate displacement at constant control voltage [m]."""
        vc = np.asarray(vc, dtype=float)
        return self.force_gain * vc**2 / self.stiffness


def mems_vco_circuit(params=None, constant_control=False):
    """Netlist of the paper's VCO: LC tank ∥ cubic resistor ∥ MEMS varactor.

    Parameters
    ----------
    params:
        :class:`VcoParams`; defaults to the vacuum calibration.
    constant_control:
        Freeze the control voltage at its offset (the unforced oscillator
        used to initialise envelope runs).
    """
    p = params or VcoParams()
    circuit = Circuit("MEMS-varactor VCO (Narayan & Roychowdhury, DAC 1999)")
    circuit.add(CubicConductance("Rneg", "tank", "0", p.g1, p.g3))
    circuit.add(Inductor("L1", "tank", "0", p.inductance))
    circuit.add(
        MemsVaractor(
            "Cmems",
            "tank",
            "0",
            p.control_waveform(constant=constant_control),
            c0=p.c0,
            z_scale=p.z_scale,
            mass=p.mass,
            damping=p.damping,
            stiffness=p.stiffness,
            force_gain=p.force_gain,
        )
    )
    return circuit


class MemsVcoDae(SemiExplicitDAE):
    """Hand-vectorised DAE of the MEMS VCO (same equations as the netlist).

    Unknowns (matching ``mems_vco_circuit(...).to_dae()`` ordering)::

        x = [v, il, z, u]
        d/dt [C(z) v]  + il - g1 v + g3 v^3 = 0
        d/dt [L il]    - v                  = 0
        d/dt  z        - u                  = 0
        d/dt [m u]     + c u + k z          = kappa * Vc(t)^2

    The batch methods are vectorised; the multi-time engines rely on them
    for speed.  Equivalence with the netlist build is asserted in the tests.

    Every :class:`VcoParams` field may also be a ``(B,)`` per-scenario
    stack (the dataclass performs no coercion): the batch methods then
    evaluate row ``b`` with the ``b``-th parameter value, which is how
    :class:`repro.dae.ensemble.EnsembleDAE.from_stacked` carries a whole
    control-voltage sweep through one vectorised evaluation.  A stacked
    instance must only be used through the ``*_batch`` methods with
    batches of exactly ``B`` rows.
    """

    def __init__(self, params=None, constant_control=False):
        self.params = params or VcoParams()
        self._constant_control = bool(constant_control)
        self.control = self.params.control_waveform(constant=constant_control)
        self.n = 4
        self.variable_names = ("v(tank)", "L1.i", "Cmems.z", "Cmems.u")

    def subset_scenarios(self, indices):
        """A new DAE over the selected scenario rows of every ``(B,)`` stack.

        The hook behind :meth:`repro.dae.ensemble.EnsembleDAE.subset` —
        scalar parameters are shared by every scenario and pass through;
        stacked parameters are sliced.
        """
        indices = np.asarray(indices, dtype=int).ravel()

        def pick(value):
            arr = np.asarray(value, dtype=float)
            return value if arr.ndim == 0 else arr[indices]

        params = replace(self.params, **{
            field.name: pick(getattr(self.params, field.name))
            for field in fields(self.params)
        })
        return MemsVcoDae(params, constant_control=self._constant_control)

    # -- capacitance law (shared with MemsVaractor) ---------------------------

    def capacitance(self, z):
        """RF capacitance at displacement ``z`` (vectorised)."""
        s2 = (np.asarray(z) / self.params.z_scale) ** 2
        return self.params.c0 / (1.0 + s2) ** 2

    def dcapacitance_dz(self, z):
        """Derivative dC/dz (vectorised)."""
        zs = self.params.z_scale
        s = np.asarray(z) / zs
        return -4.0 * self.params.c0 * s / (zs * (1.0 + s**2) ** 3)

    # -- single-point interface ------------------------------------------------

    def q(self, x):
        return self.q_batch(np.asarray(x, dtype=float)[None, :])[0]

    def f(self, x):
        return self.f_batch(np.asarray(x, dtype=float)[None, :])[0]

    def b(self, t):
        return self.b_batch(np.array([t]))[0]

    def dq_dx(self, x):
        return self.dq_dx_batch(np.asarray(x, dtype=float)[None, :])[0]

    def df_dx(self, x):
        return self.df_dx_batch(np.asarray(x, dtype=float)[None, :])[0]

    def qf(self, x):
        # Transient hot path: one unpack and one capacitance evaluation for
        # both vectors (the per-step Newton loop calls this 2-3 times per
        # accepted step).
        p = self.params
        v, il, z, u = x
        q = np.empty(4)
        s2 = (z / p.z_scale) ** 2
        q[0] = p.c0 / (1.0 + s2) ** 2 * v
        q[1] = p.inductance * il
        q[2] = z
        q[3] = p.mass * u
        f = np.empty(4)
        f[0] = il - p.g1 * v + p.g3 * v**3
        f[1] = -v
        f[2] = -u
        f[3] = p.damping * u + p.stiffness * z
        return q, f

    # -- vectorised batch interface ---------------------------------------------

    def q_batch(self, states):
        states = np.asarray(states, dtype=float)
        p = self.params
        v, il, z, u = states.T
        out = np.empty_like(states)
        out[:, 0] = self.capacitance(z) * v
        out[:, 1] = p.inductance * il
        out[:, 2] = z
        out[:, 3] = p.mass * u
        return out

    def f_batch(self, states):
        states = np.asarray(states, dtype=float)
        p = self.params
        v, il, z, u = states.T
        out = np.empty_like(states)
        out[:, 0] = il - p.g1 * v + p.g3 * v**3
        out[:, 1] = -v
        out[:, 2] = -u
        out[:, 3] = p.damping * u + p.stiffness * z
        return out

    def qf_batch(self, states):
        # Ensemble hot path: one unpack and one capacitance evaluation for
        # both stacks (mirrors the single-point qf fast path).
        states = np.asarray(states, dtype=float)
        p = self.params
        v, il, z, u = states.T
        q = np.empty_like(states)
        q[:, 0] = self.capacitance(z) * v
        q[:, 1] = p.inductance * il
        q[:, 2] = z
        q[:, 3] = p.mass * u
        f = np.empty_like(states)
        f[:, 0] = il - p.g1 * v + p.g3 * v**3
        f[:, 1] = -v
        f[:, 2] = -u
        f[:, 3] = p.damping * u + p.stiffness * z
        return q, f

    def b_batch(self, times):
        times = np.asarray(times, dtype=float).ravel()
        out = np.zeros((times.size, 4))
        vc = np.asarray(self.control(times), dtype=float)
        out[:, 3] = self.params.force_gain * vc**2
        return out

    def dq_dx_batch(self, states):
        states = np.asarray(states, dtype=float)
        p = self.params
        v, il, z, u = states.T
        out = np.zeros((states.shape[0], 4, 4))
        out[:, 0, 0] = self.capacitance(z)
        out[:, 0, 2] = self.dcapacitance_dz(z) * v
        out[:, 1, 1] = p.inductance
        out[:, 2, 2] = 1.0
        out[:, 3, 3] = p.mass
        return out

    def df_dx_batch(self, states):
        states = np.asarray(states, dtype=float)
        p = self.params
        v = states[:, 0]
        out = np.zeros((states.shape[0], 4, 4))
        out[:, 0, 0] = -p.g1 + 3.0 * p.g3 * v**2
        out[:, 0, 1] = 1.0
        out[:, 1, 0] = -1.0
        out[:, 2, 3] = -1.0
        out[:, 3, 2] = p.stiffness
        out[:, 3, 3] = p.damping
        return out

    # -- structural sparsity (exact; see the batch Jacobians above) -----------

    def dq_structure(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[0, 2] = True
        mask[1, 1] = mask[2, 2] = mask[3, 3] = True
        return mask

    def df_structure(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[0, 1] = mask[1, 0] = True
        mask[2, 3] = mask[3, 2] = mask[3, 3] = True
        return mask


def lc_oscillator_circuit(inductance=1.0, capacitance=1.0, g1=0.5,
                          g3=0.5 / 3.0):
    """Van der Pol-style LC oscillator: tank ∥ cubic negative resistor.

    With the defaults this oscillates near ``1/(2 pi sqrt(LC))`` Hz with a
    ~2-unit amplitude — the small autonomous test vehicle used throughout
    the test suite.
    """
    circuit = Circuit("LC oscillator with cubic negative resistance")
    circuit.add(CubicConductance("Rneg", "tank", "0", g1, g3))
    circuit.add(Inductor("L1", "tank", "0", inductance))
    from repro.circuits.devices import Capacitor

    circuit.add(Capacitor("C1", "tank", "0", capacitance))
    return circuit


def forced_lc_oscillator_circuit(inductance=1.0, capacitance=1.0, g1=0.5,
                                 g3=0.5 / 3.0, injection_amplitude=0.05,
                                 injection_frequency=0.17):
    """LC oscillator with a sinusoidal injection current into the tank.

    Used by the entrainment/mode-locking example: when the injection
    frequency is close to the free-running frequency and strong enough, the
    oscillator locks (the WaMPDE's omega converges to the injection
    frequency).
    """
    circuit = lc_oscillator_circuit(inductance, capacitance, g1, g3)
    circuit.add(
        CurrentSource(
            "Iinj",
            "tank",
            "0",
            Sine(amplitude=injection_amplitude, frequency=injection_frequency),
        )
    )
    return circuit


def ring_oscillator_circuit(stages=3, resistance=1e3, capacitance=1e-9,
                            gm=4e-3, imax=1e-3, bias=None):
    """Odd-stage RC ring oscillator built from saturating transconductors.

    Each stage is an inverting ``TanhTransconductance`` driving an RC load;
    with ``gm * R > 2`` (three stages) the DC point is unstable and the
    ring oscillates near ``sqrt(3) / (2 pi R C)``, with saturation at
    ``imax * R`` setting the swing.  A second, structurally different
    autonomous circuit for exercising the WaMPDE beyond the paper's LC VCO.

    Parameters
    ----------
    stages:
        Odd number of inverting stages (>= 3).
    bias:
        Optional waveform injected as a current into node ``n1`` — a
        crude "control input" that detunes the ring (current-starved-VCO
        style); useful for envelope experiments.
    """
    from repro.circuits.devices import Capacitor, Resistor, TanhTransconductance

    if stages < 3 or stages % 2 == 0:
        raise ValueError(f"ring oscillator needs an odd stage count >= 3, got {stages}")
    circuit = Circuit(f"{stages}-stage tanh ring oscillator")
    for k in range(stages):
        node = f"n{k + 1}"
        prev = f"n{k if k else stages}"
        circuit.add(Resistor(f"R{k + 1}", node, "0", resistance))
        circuit.add(Capacitor(f"C{k + 1}", node, "0", capacitance))
        circuit.add(
            TanhTransconductance(
                f"G{k + 1}", node, "0", prev, "0", gm=gm, imax=imax
            )
        )
    if bias is not None:
        circuit.add(CurrentSource("Ibias", "0", "n1", bias))
    return circuit


def rc_diode_mixer_circuit(resistance=1e3, capacitance=1e-7,
                           bias=0.6, rf_amplitude=0.05, rf_frequency=1e5,
                           lo_amplitude=0.4, lo_frequency=1e3):
    """Two-tone driven RC-diode mixer — the classic MPDE (non-autonomous) demo.

    A diode feeding an RC load, driven by the sum of a fast RF tone and a
    slow LO tone (widely separated rates).  The response is
    AM-quasiperiodic: exactly the Fig 1/Fig 2 situation of the paper.
    """
    from repro.circuits.devices import Capacitor, Diode, Resistor, VoltageSource

    def drive(t):
        return (
            bias
            + rf_amplitude * np.sin(TWO_PI * rf_frequency * t)
            + lo_amplitude * np.sin(TWO_PI * lo_frequency * t)
        )

    circuit = Circuit("RC diode mixer (two-tone drive)")
    circuit.add(VoltageSource("Vin", "in", "0", as_waveform(drive)))
    circuit.add(Diode("D1", "in", "out"))
    circuit.add(Resistor("RL", "out", "0", resistance))
    circuit.add(Capacitor("CL", "out", "0", capacitance))
    return circuit

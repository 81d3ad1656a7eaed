"""Lower supported DAEs into a language-neutral kernel IR.

A :class:`KernelSpec` describes one DAE as two straight-line statement
lists — ``qf`` (fill ``q[:]``/``f[:]`` from ``x``/``p``) and ``jac``
(fill flat ``dq[:]``/``df[:]`` of length ``n*n``) — over a parameter
vector ``p``.  The statements use a tiny C expression language (see
:mod:`repro.kernels.codegen`): ``x[i]``/``p[i]``
array reads, float literals, ``+ - * /``, comparisons, and the math
calls ``exp``/``expm1``/``tanh``/``fabs``.

Statement forms (plain tuples)::

    ("let",   name, expr)          # first binding of a scalar temp
    ("set",   name, expr)          # re-binding (inside "if" branches)
    ("add",   array, index, expr)  # array[index] += expr
    ("store", array, index, expr)  # array[index] = expr
    ("if",    cond, then_stmts, else_stmts)

Lowering walks either a :class:`~repro.circuits.mna.CircuitDAE` (one
emitter per device class, scattering through the slot incidence maps
with ground columns reading ``0.0`` and ground rows dropped) or one of
the hand-written DAEs (``MemsVcoDae``, ``VanDerPolDae``).  Device
parameters land in ``p`` so that per-scenario stacked parameters become
per-row parameter vectors without re-generating code.

The emitted arithmetic mirrors the NumPy device methods operation for
operation wherever the order is observable (e.g. the diode's limited
linearisation), so compiled and python trajectories differ only by
float non-associativity inside sums — well inside Newton tolerance.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Diode limiting threshold multiple; must match repro.circuits.devices.diode.
_DIODE_LIMIT_MULTIPLE = 40.0


class KernelSpec:
    """IR + parameters for one DAE's ``q/f/dq/df`` evaluation."""

    def __init__(self, n, params_rows, stacked, qf_stmts, jac_stmts,
                 dae_label):
        self.n = int(n)
        #: (B, P) parameter rows; B == 1 for scalar-parameter DAEs.
        self.params_rows = params_rows
        #: True when any device parameter is per-scenario stacked.
        self.stacked = bool(stacked)
        self.qf_stmts = qf_stmts
        self.jac_stmts = jac_stmts
        self.dae_label = str(dae_label)

    @property
    def num_params(self):
        return self.params_rows.shape[1]

    def source_key(self):
        """Digest of the generated structure (not the parameter values)."""
        h = hashlib.sha256()
        h.update(repr((self.n, self.num_params, self.qf_stmts,
                       self.jac_stmts)).encode())
        return h.hexdigest()[:16]


class _SpecBuilder:
    def __init__(self, n):
        self.n = int(n)
        self.params = []
        self.qf = []
        self.jac = []
        self._tmp = 0

    def param(self, value):
        self.params.append(value)
        return f"p[{len(self.params) - 1}]"

    def tmp(self, base):
        self._tmp += 1
        return f"_{base}{self._tmp}"

    # -- scatter helpers (None index means ground: read 0, drop row) ----

    def addq(self, row, expr):
        if row is not None and row >= 0:
            self.qf.append(("add", "q", int(row), expr))

    def addf(self, row, expr):
        if row is not None and row >= 0:
            self.qf.append(("add", "f", int(row), expr))

    def adddq(self, row, col, expr):
        if row is not None and col is not None and row >= 0 and col >= 0:
            self.jac.append(("add", "dq", int(row) * self.n + int(col), expr))

    def adddf(self, row, col, expr):
        if row is not None and col is not None and row >= 0 and col >= 0:
            self.jac.append(("add", "df", int(row) * self.n + int(col), expr))

    def finalize(self, dae_label):
        stacked = any(np.ndim(v) > 0 for v in self.params)
        if stacked:
            sizes = {np.shape(v)[0] for v in self.params if np.ndim(v) > 0}
            if len(sizes) != 1:
                return None, "inconsistent per-scenario parameter stacks"
            batch = sizes.pop()
            rows = np.empty((batch, len(self.params)))
            for j, value in enumerate(self.params):
                rows[:, j] = np.asarray(value, dtype=float)
        else:
            rows = np.array([[float(v) for v in self.params]])
            if rows.size == 0:
                rows = rows.reshape(1, 0)
        return KernelSpec(self.n, rows, stacked, tuple(self.qf),
                          tuple(self.jac), dae_label), None


def _vnode(cols, k):
    c = int(cols[k])
    return "0.0" if c < 0 else f"x[{c}]"


def _xcol(cols, k):
    """Unknown read for a column that the slot guarantees is internal."""
    return f"x[{int(cols[k])}]"


# ---------------------------------------------------------------------------
# Per-device emitters.  Each receives (builder, device, columns, rows) from
# the slot and appends to builder.qf / builder.jac.
# ---------------------------------------------------------------------------


def _emit_resistor(b, dev, cols, rows):
    R = b.param(dev.resistance)
    v = b.tmp("v")
    b.qf.append(("let", v, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.addf(rows[0], f"{v} / {R}")
    b.addf(rows[1], f"-({v} / {R})")
    g = f"1.0 / {R}"
    b.adddf(rows[0], cols[0], g)
    b.adddf(rows[0], cols[1], f"-({g})")
    b.adddf(rows[1], cols[0], f"-({g})")
    b.adddf(rows[1], cols[1], g)


def _emit_capacitor(b, dev, cols, rows):
    C = b.param(dev.capacitance)
    v = b.tmp("v")
    b.qf.append(("let", v, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.addq(rows[0], f"{C} * {v}")
    b.addq(rows[1], f"-({C} * {v})")
    b.adddq(rows[0], cols[0], C)
    b.adddq(rows[0], cols[1], f"-{C}")
    b.adddq(rows[1], cols[0], f"-{C}")
    b.adddq(rows[1], cols[1], C)


def _emit_inductor(b, dev, cols, rows):
    L = b.param(dev.inductance)
    ib = _xcol(cols, 2)
    b.addq(rows[2], f"{L} * {ib}")
    b.addf(rows[0], ib)
    b.addf(rows[1], f"-{ib}")
    b.addf(rows[2], f"-({_vnode(cols, 0)} - {_vnode(cols, 1)})")
    b.adddq(rows[2], cols[2], L)
    b.adddf(rows[0], cols[2], "1.0")
    b.adddf(rows[1], cols[2], "-1.0")
    b.adddf(rows[2], cols[0], "-1.0")
    b.adddf(rows[2], cols[1], "1.0")


def _emit_diode(b, dev, cols, rows):
    # Same exponential-limiting law as Diode.current()/conductance():
    # beyond v_limit the diode continues as its tangent line.
    Is = float(dev.saturation_current)
    Vt = float(dev.thermal_voltage)
    exp_lim = float(np.exp(_DIODE_LIMIT_MULTIPLE))
    IS = b.param(Is)
    VT = b.param(Vt)
    VLIM = b.param(_DIODE_LIMIT_MULTIPLE * Vt)
    SLOPE = b.param(Is * exp_lim / Vt)
    ILIM = b.param(Is * (exp_lim - 1.0))
    v = b.tmp("v")
    i = b.tmp("i")
    b.qf.append(("let", v, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.qf.append(("let", i, "0.0"))
    b.qf.append((
        "if", f"{v} > {VLIM}",
        (("set", i, f"{ILIM} + {SLOPE} * ({v} - {VLIM})"),),
        (("set", i, f"{IS} * expm1({v} / {VT})"),),
    ))
    b.addf(rows[0], i)
    b.addf(rows[1], f"-{i}")
    vj = b.tmp("v")
    g = b.tmp("g")
    b.jac.append(("let", vj, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.jac.append(("let", g, "0.0"))
    b.jac.append((
        "if", f"{vj} > {VLIM}",
        (("set", g, SLOPE),),
        (("set", g, f"{IS} * exp({vj} / {VT}) / {VT}"),),
    ))
    b.adddf(rows[0], cols[0], g)
    b.adddf(rows[0], cols[1], f"-{g}")
    b.adddf(rows[1], cols[0], f"-{g}")
    b.adddf(rows[1], cols[1], g)


def _emit_cubic(b, dev, cols, rows):
    G1 = b.param(dev.g1)
    G3 = b.param(dev.g3)
    v = b.tmp("v")
    i = b.tmp("i")
    b.qf.append(("let", v, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.qf.append(("let", i, f"-{G1} * {v} + {G3} * {v} * {v} * {v}"))
    b.addf(rows[0], i)
    b.addf(rows[1], f"-{i}")
    vj = b.tmp("v")
    g = b.tmp("g")
    b.jac.append(("let", vj, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.jac.append(("let", g, f"-{G1} + 3.0 * {G3} * {vj} * {vj}"))
    b.adddf(rows[0], cols[0], g)
    b.adddf(rows[0], cols[1], f"-{g}")
    b.adddf(rows[1], cols[0], f"-{g}")
    b.adddf(rows[1], cols[1], g)


def _emit_tanh_negative(b, dev, cols, rows):
    GN = b.param(dev.gneg)
    GS = b.param(dev.gsat)
    IM = b.param(dev.imax)
    v = b.tmp("v")
    i = b.tmp("i")
    b.qf.append(("let", v, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.qf.append(("let", i,
                 f"{GS} * {v} - {IM} * tanh({GN} * {v} / {IM})"))
    b.addf(rows[0], i)
    b.addf(rows[1], f"-{i}")
    vj = b.tmp("v")
    ch = b.tmp("ch")
    g = b.tmp("g")
    b.jac.append(("let", vj, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.jac.append(("let", ch, f"cosh({GN} * {vj} / {IM})"))
    b.jac.append(("let", g, f"{GS} - {GN} * (1.0 / ({ch} * {ch}))"))
    b.adddf(rows[0], cols[0], g)
    b.adddf(rows[0], cols[1], f"-{g}")
    b.adddf(rows[1], cols[0], f"-{g}")
    b.adddf(rows[1], cols[1], g)


def _emit_tanh_transconductance(b, dev, cols, rows):
    GM = b.param(dev.gm)
    IM = b.param(dev.imax)
    v = b.tmp("v")
    i = b.tmp("i")
    b.qf.append(("let", v, f"{_vnode(cols, 2)} - {_vnode(cols, 3)}"))
    b.qf.append(("let", i, f"{IM} * tanh({GM} * {v} / {IM})"))
    b.addf(rows[0], i)
    b.addf(rows[1], f"-{i}")
    vj = b.tmp("v")
    ch = b.tmp("ch")
    g = b.tmp("g")
    b.jac.append(("let", vj, f"{_vnode(cols, 2)} - {_vnode(cols, 3)}"))
    b.jac.append(("let", ch, f"cosh({GM} * {vj} / {IM})"))
    b.jac.append(("let", g, f"{GM} * (1.0 / ({ch} * {ch}))"))
    b.adddf(rows[0], cols[2], g)
    b.adddf(rows[0], cols[3], f"-{g}")
    b.adddf(rows[1], cols[2], f"-{g}")
    b.adddf(rows[1], cols[3], g)


def _emit_vccs(b, dev, cols, rows):
    GM = b.param(dev.gm)
    v = b.tmp("v")
    b.qf.append(("let", v, f"{_vnode(cols, 2)} - {_vnode(cols, 3)}"))
    b.addf(rows[0], f"{GM} * {v}")
    b.addf(rows[1], f"-({GM} * {v})")
    b.adddf(rows[0], cols[2], GM)
    b.adddf(rows[0], cols[3], f"-{GM}")
    b.adddf(rows[1], cols[2], f"-{GM}")
    b.adddf(rows[1], cols[3], GM)


def _emit_vcvs(b, dev, cols, rows):
    MU = b.param(dev.mu)
    ib = _xcol(cols, 4)
    b.addf(rows[0], ib)
    b.addf(rows[1], f"-{ib}")
    b.addf(rows[4],
           f"({_vnode(cols, 0)} - {_vnode(cols, 1)})"
           f" - {MU} * ({_vnode(cols, 2)} - {_vnode(cols, 3)})")
    b.adddf(rows[0], cols[4], "1.0")
    b.adddf(rows[1], cols[4], "-1.0")
    b.adddf(rows[4], cols[0], "1.0")
    b.adddf(rows[4], cols[1], "-1.0")
    b.adddf(rows[4], cols[2], f"-{MU}")
    b.adddf(rows[4], cols[3], MU)


def _emit_voltage_source(b, dev, cols, rows):
    ib = _xcol(cols, 2)
    b.addf(rows[0], ib)
    b.addf(rows[1], f"-{ib}")
    b.addf(rows[2], f"{_vnode(cols, 0)} - {_vnode(cols, 1)}")
    b.adddf(rows[0], cols[2], "1.0")
    b.adddf(rows[1], cols[2], "-1.0")
    b.adddf(rows[2], cols[0], "1.0")
    b.adddf(rows[2], cols[1], "-1.0")


def _emit_current_source(b, dev, cols, rows):
    # Pure forcing: contributes only to b(t), which stays python-side.
    pass


def _emit_mems_varactor(b, dev, cols, rows):
    C0 = b.param(dev.c0)
    ZS = b.param(dev.z_scale)
    M = b.param(dev.mass)
    DAMP = b.param(dev.damping)
    K = b.param(dev.stiffness)
    z = _xcol(cols, 2)
    u = _xcol(cols, 3)
    v = b.tmp("v")
    s = b.tmp("s")
    o = b.tmp("o")
    cap = b.tmp("c")
    b.qf.append(("let", v, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.qf.append(("let", s, f"{z} / {ZS}"))
    b.qf.append(("let", o, f"1.0 + {s} * {s}"))
    b.qf.append(("let", cap, f"{C0} / ({o} * {o})"))
    b.addq(rows[0], f"{cap} * {v}")
    b.addq(rows[1], f"-({cap} * {v})")
    b.addq(rows[2], z)
    b.addq(rows[3], f"{M} * {u}")
    b.addf(rows[2], f"-{u}")
    b.addf(rows[3], f"{DAMP} * {u} + {K} * {z}")
    vj = b.tmp("v")
    sj = b.tmp("s")
    oj = b.tmp("o")
    capj = b.tmp("c")
    dcv = b.tmp("dcv")
    b.jac.append(("let", vj, f"{_vnode(cols, 0)} - {_vnode(cols, 1)}"))
    b.jac.append(("let", sj, f"{z} / {ZS}"))
    b.jac.append(("let", oj, f"1.0 + {sj} * {sj}"))
    b.jac.append(("let", capj, f"{C0} / ({oj} * {oj})"))
    b.jac.append(("let", dcv,
                  f"-4.0 * {C0} * {sj} / ({ZS} * {oj} * {oj} * {oj})"
                  f" * {vj}"))
    b.adddq(rows[0], cols[0], capj)
    b.adddq(rows[0], cols[1], f"-{capj}")
    b.adddq(rows[0], cols[2], dcv)
    b.adddq(rows[1], cols[0], f"-{capj}")
    b.adddq(rows[1], cols[1], capj)
    b.adddq(rows[1], cols[2], f"-({dcv})")
    b.adddq(rows[2], cols[2], "1.0")
    b.adddq(rows[3], cols[3], M)
    b.adddf(rows[2], cols[3], "-1.0")
    b.adddf(rows[3], cols[2], K)
    b.adddf(rows[3], cols[3], DAMP)


def _device_emitters():
    from repro.circuits.devices.capacitor import Capacitor
    from repro.circuits.devices.controlled import VCCS, VCVS
    from repro.circuits.devices.diode import Diode
    from repro.circuits.devices.inductor import Inductor
    from repro.circuits.devices.mems_varactor import MemsVaractor
    from repro.circuits.devices.nonlinear_resistor import (
        CubicConductance,
        TanhNegativeConductance,
    )
    from repro.circuits.devices.resistor import Resistor
    from repro.circuits.devices.sources import CurrentSource, VoltageSource
    from repro.circuits.devices.transconductance import TanhTransconductance

    return {
        Resistor: _emit_resistor,
        Capacitor: _emit_capacitor,
        Inductor: _emit_inductor,
        Diode: _emit_diode,
        CubicConductance: _emit_cubic,
        TanhNegativeConductance: _emit_tanh_negative,
        TanhTransconductance: _emit_tanh_transconductance,
        VCCS: _emit_vccs,
        VCVS: _emit_vcvs,
        VoltageSource: _emit_voltage_source,
        CurrentSource: _emit_current_source,
        MemsVaractor: _emit_mems_varactor,
    }


# ---------------------------------------------------------------------------
# Hand-written DAEs.
# ---------------------------------------------------------------------------


def _build_circuit_spec(dae):
    emitters = _device_emitters()
    b = _SpecBuilder(dae.n)
    for slot in dae._slots:
        emit = emitters.get(type(slot.device))
        if emit is None:
            return None, (f"device {type(slot.device).__name__!r} has no "
                          "kernel emitter")
        emit(b, slot.device, slot.columns, slot.rows)
    label = getattr(dae.circuit, "title", None) or "circuit"
    return b.finalize(f"circuit:{label}")


def _build_vco_spec(dae):
    p = dae.params
    b = _SpecBuilder(4)
    C0 = b.param(p.c0)
    ZS = b.param(p.z_scale)
    L = b.param(p.inductance)
    M = b.param(p.mass)
    G1 = b.param(p.g1)
    G3 = b.param(p.g3)
    DAMP = b.param(p.damping)
    K = b.param(p.stiffness)
    s = b.tmp("s")
    o = b.tmp("o")
    b.qf.append(("let", s, f"x[2] / {ZS}"))
    b.qf.append(("let", o, f"1.0 + {s} * {s}"))
    b.qf.append(("add", "q", 0, f"{C0} / ({o} * {o}) * x[0]"))
    b.qf.append(("add", "q", 1, f"{L} * x[1]"))
    b.qf.append(("add", "q", 2, "x[2]"))
    b.qf.append(("add", "q", 3, f"{M} * x[3]"))
    b.qf.append(("add", "f", 0,
                 f"x[1] - {G1} * x[0] + {G3} * x[0] * x[0] * x[0]"))
    b.qf.append(("add", "f", 1, "-x[0]"))
    b.qf.append(("add", "f", 2, "-x[3]"))
    b.qf.append(("add", "f", 3, f"{DAMP} * x[3] + {K} * x[2]"))
    sj = b.tmp("s")
    oj = b.tmp("o")
    b.jac.append(("let", sj, f"x[2] / {ZS}"))
    b.jac.append(("let", oj, f"1.0 + {sj} * {sj}"))
    b.jac.append(("add", "dq", 0, f"{C0} / ({oj} * {oj})"))
    b.jac.append(("add", "dq", 2,
                  f"-4.0 * {C0} * {sj} / ({ZS} * {oj} * {oj} * {oj})"
                  f" * x[0]"))
    b.jac.append(("add", "dq", 5, L))
    b.jac.append(("add", "dq", 10, "1.0"))
    b.jac.append(("add", "dq", 15, M))
    b.jac.append(("add", "df", 0, f"-{G1} + 3.0 * {G3} * x[0] * x[0]"))
    b.jac.append(("add", "df", 1, "1.0"))
    b.jac.append(("add", "df", 4, "-1.0"))
    b.jac.append(("add", "df", 11, "-1.0"))
    b.jac.append(("add", "df", 14, K))
    b.jac.append(("add", "df", 15, DAMP))
    return b.finalize("mems-vco")


def _build_vdp_spec(dae):
    b = _SpecBuilder(2)
    MU = b.param(dae.mu)
    b.qf.append(("add", "q", 0, "x[0]"))
    b.qf.append(("add", "q", 1, "x[1]"))
    b.qf.append(("add", "f", 0, "-x[1]"))
    b.qf.append(("add", "f", 1,
                 f"-{MU} * (1.0 - x[0] * x[0]) * x[1] + x[0]"))
    b.jac.append(("add", "dq", 0, "1.0"))
    b.jac.append(("add", "dq", 3, "1.0"))
    b.jac.append(("add", "df", 1, "-1.0"))
    b.jac.append(("add", "df", 2, f"2.0 * {MU} * x[0] * x[1] + 1.0"))
    b.jac.append(("add", "df", 3, f"-{MU} * (1.0 - x[0] * x[0])"))
    return b.finalize("van-der-pol")


def spec_for_dae(dae):
    """Lower ``dae`` to a :class:`KernelSpec`.

    Returns ``(spec, None)`` on success or ``(None, reason)`` for DAEs
    outside the registry.  A fault-free :class:`repro.testing.faults.FaultyDAE`
    wrapper delegates to its wrapped DAE (its ``b`` poisoning stays
    python-side in the forcing grid); wrappers with q/f/Jacobian faults
    must run the python path so the injections are actually exercised.
    """
    from repro.circuits.library import MemsVcoDae
    from repro.circuits.mna import CircuitDAE
    from repro.dae.manufactured import VanDerPolDae

    cls = type(dae)
    if cls.__name__ == "FaultyDAE" and cls.__module__ == "repro.testing.faults":
        if dae.nan_q_calls or dae.nan_f_calls or dae.singular_df_calls:
            return None, "fault injection targets q/f/df"
        return spec_for_dae(dae._dae)
    if cls is CircuitDAE:
        return _build_circuit_spec(dae)
    if cls is MemsVcoDae:
        return _build_vco_spec(dae)
    if cls is VanDerPolDae:
        return _build_vdp_spec(dae)
    return None, f"no kernel lowering for {cls.__name__}"


def _waveform_is_constant(wave):
    from repro.circuits.waveforms import DC

    return isinstance(wave, DC) and np.ndim(wave.value) == 0


def constant_forcing_row(dae, t_ref=0.0):
    """Return ``b(t_ref)`` when ``b(t)`` is provably time-invariant.

    The adaptive compiled sweep picks its own step times inside the
    kernel, so it cannot use a precomputed forcing grid — it needs one
    constant forcing row instead.  This walks the same registry of DAE
    classes as :func:`spec_for_dae` and inspects their drive waveforms
    structurally (scalar :class:`~repro.circuits.waveforms.DC` only);
    anything it cannot prove constant returns ``None`` and stays on the
    python adaptive path.
    """
    from repro.circuits.library import MemsVcoDae
    from repro.circuits.mna import CircuitDAE
    from repro.dae.manufactured import VanDerPolDae

    cls = type(dae)
    if cls.__name__ == "FaultyDAE" and cls.__module__ == "repro.testing.faults":
        if dae.nan_b_window is not None:
            return None
        return constant_forcing_row(dae._dae, t_ref)
    if cls is MemsVcoDae:
        if _waveform_is_constant(dae.control):
            return np.asarray(dae.b(t_ref), dtype=float)
        return None
    if cls is VanDerPolDae:
        return np.asarray(dae.b(t_ref), dtype=float)
    if cls is CircuitDAE:
        for slot in dae._slots:
            wave = getattr(slot.device, "waveform", None)
            if wave is None:
                wave = getattr(slot.device, "control", None)
            if wave is not None and not _waveform_is_constant(wave):
                return None
        return np.asarray(dae.b(t_ref), dtype=float)
    return None

"""Route parity on generated netlists.

Hypothesis builds small circuits from the library's current-defined
devices (plus inductors), each node held by a grounded R and C and the
whole circuit driven by one sine current source.  Every route that
marches such a circuit has a declared contract with the NumPy engine:

* **C kernel vs NumPy** (serial fixed-step march and lock-step
  ensemble): when the NumPy run needs no rescue, the C run marches every
  step compiled, its trajectory agrees to 1e-9 relative and its Newton
  iterations, factorisations and residual evaluations are equal.  When
  the NumPy run does need rescues, the kernel hands those steps back to
  the NumPy loop and the ensemble bound below applies.
* **Lock-step ensemble vs B serial NumPy runs**: per variable,
  ``|dx| <= 1e-6 * max(max|x|, 1)`` -- the scale of the Newton update
  test in :mod:`repro.linalg.newton`.
* **Checkpoint resume** (both kernels): resuming from a mid-run
  checkpoint reproduces the uninterrupted run bit for bit.
* **Adaptive C route** (``sweep_adaptive``, which needs constant
  forcing): under a ``DC(amplitude)`` drive the adaptive C march runs
  compiled end to end, and a run resumed from a mid-run checkpoint
  equals the uninterrupted one bit for bit, rejections included.  It
  has no bound against the adaptive NumPy march: Newton's absolute
  residual test lets the two leave each other's step grid (ROADMAP
  item 4).

The C cases request ``kernel="c"`` and skip without a C compiler, so a
``REPRO_KERNEL=python`` run never compares NumPy with itself.  The
examples are derandomised: every run checks the same circuits.  The
generated family never needs a rescue at these drive levels, so one
explicit example drives antiparallel diodes hard enough to need them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits.devices import (
    VCCS,
    Capacitor,
    CubicConductance,
    CurrentSource,
    Diode,
    Inductor,
    MemsVaractor,
    Resistor,
    TanhNegativeConductance,
    TanhTransconductance,
)
from repro.circuits.netlist import Circuit
from repro.circuits.waveforms import DC, Sine
from repro.dae import EnsembleDAE
from repro.errors import SimulationError
from repro.kernels import probe_cc
from repro.transient import (
    TransientOptions,
    simulate_transient,
    simulate_transient_ensemble,
)

needs_cc = pytest.mark.skipif(not probe_cc(), reason="no C compiler on PATH")

MATRIX = settings(max_examples=16, derandomize=True, deadline=None)

#: The fixed-step grid every generated circuit marches.
DT = 2e-6
T_STOP = 2e-4
#: Scales of the first node's grounded resistor across the ensemble.
ENSEMBLE_SCALES = (1.0, 1.5, 2.0)


def _log_uniform(low, high):
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0 ** e)


def _varactor(label, node_a, node_b, control, c0, damping, force_gain):
    return MemsVaractor(
        label, node_a, node_b, control, c0=c0, z_scale=1e-6, mass=1e-9,
        damping=damping, stiffness=221.0, force_gain=force_gain,
    )


#: Device kind -> ``factory(label, *ports, *params)``.
_DEVICES = {
    "R": Resistor,
    "C": Capacitor,
    "L": Inductor,
    "D": Diode,
    "CUBIC": CubicConductance,
    "TANH": TanhNegativeConductance,
    "VCCS": VCCS,
    "GM": TanhTransconductance,
    "VAR": _varactor,
}

_PARAMS = {
    "R": st.tuples(_log_uniform(200.0, 5e3)),
    "C": st.tuples(_log_uniform(1e-9, 1e-8)),
    "L": st.tuples(_log_uniform(1e-4, 1e-3)),
    "D": st.tuples(_log_uniform(1e-15, 1e-12)),
    "CUBIC": st.tuples(_log_uniform(1e-5, 2e-4), _log_uniform(1e-5, 1e-3)),
    # (gneg, gsat, imax) with gneg > gsat.
    "TANH": st.tuples(
        _log_uniform(1e-5, 2e-4), _log_uniform(1e-5, 5e-4),
        _log_uniform(1e-4, 1e-3),
    ).map(lambda p: (p[1] + p[0], p[1], p[2])),
    "VCCS": st.tuples(_log_uniform(1e-5, 2e-4)),
    "GM": st.tuples(_log_uniform(1e-5, 2e-4), _log_uniform(1e-4, 1e-3)),
    # (control voltage, c0, damping, force gain).
    "VAR": st.tuples(
        st.floats(0.5, 2.0), _log_uniform(1e-9, 1e-8),
        _log_uniform(1e-4, 5e-2), _log_uniform(1e-6, 5e-5),
    ),
}
_FOUR_PORT = ("VCCS", "GM")


@st.composite
def netlists(draw):
    """A circuit description: plain tuples, so examples can be written out.

    ``(integrator, nodes, grounded, drive, devices)`` where ``grounded``
    holds each node's ``(R, C)``, ``drive`` is the sine source's
    ``(node, amplitude, frequency)`` and every device is
    ``(kind, ports, params)``.
    """
    nodes = tuple(f"n{k}" for k in range(1, draw(st.integers(1, 3)) + 1))
    pins = nodes + ("0",)
    grounded = tuple(
        (draw(_log_uniform(200.0, 2e3)), draw(_log_uniform(1e-9, 1e-8)))
        for _ in nodes
    )
    drive = (
        draw(st.sampled_from(nodes)),
        draw(_log_uniform(1e-4, 1e-3)),
        draw(_log_uniform(2e3, 2e4)),
    )
    devices = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(_PARAMS)))
        # Either orientation; ground may sit on either port.
        ports = draw(st.permutations(pins))[:2]
        if kind in _FOUR_PORT:
            ports += draw(st.permutations(pins))[:2]
        devices.append((kind, ports, draw(_PARAMS[kind])))
    integrator = draw(st.sampled_from(("be", "trap", "bdf2")))
    return integrator, nodes, grounded, drive, tuple(devices)


#: Two opposed inductors on one node: a later pivot swaps rows whose
#: earlier multipliers differ, which the C kernel's LU solve once got
#: wrong (199 iterations and 100 factorisations against NumPy's 100/1).
LU_PIVOT_NETLIST = (
    "trap", ("n1",), ((800.0, 6.8e-9),), ("n1", 1e-3, 1e4),
    (("L", ("n1", "0"), (470e-6,)), ("L", ("0", "n1"), (160e-6,))),
)
#: Hard-driven antiparallel diodes: the NumPy marches need rescues, so
#: the C routes hand steps back (the serial one at step 2, for the rest
#: of the run), and a resumed C run must stay on the python loop too.
HANDBACK_NETLIST = (
    "trap", ("n1",), ((290.0, 1e-9),), ("n1", 3.6e-3, 1e4),
    (("D", ("n1", "0"), (6.6e-10,)), ("D", ("0", "n1"), (6.6e-10,))),
)


def build(netlist, resistance=None, dc=False):
    """The circuit's DAE; ``resistance`` overrides the first node's
    grounded resistor (a ``(B,)`` stack gives a stacked circuit), and
    ``dc`` drives it with ``DC(amplitude)`` instead of the sine."""
    _, nodes, grounded, drive, devices = netlist
    circuit = Circuit("generated")
    node, amplitude, frequency = drive
    wave = DC(amplitude) if dc else Sine(
        amplitude=amplitude, frequency=frequency
    )
    circuit.add(CurrentSource("I0", "0", node, wave))
    for k, (name, (r, c)) in enumerate(zip(nodes, grounded)):
        if k == 0 and resistance is not None:
            r = resistance
        circuit.add(Resistor(f"RG{k}", name, "0", r))
        circuit.add(Capacitor(f"CG{k}", name, "0", c))
    for k, (kind, ports, params) in enumerate(devices):
        circuit.add(_DEVICES[kind](f"{kind}{k}", *ports, *params))
    return circuit.to_dae()


def ensemble(netlist):
    """B = 3 scenarios stacking the first node's grounded resistor."""
    grounded = netlist[2]
    values = grounded[0][0] * np.asarray(ENSEMBLE_SCALES)
    return EnsembleDAE.from_stacked(
        build(netlist, values), values.size,
        members=[build(netlist, value) for value in values],
    )


def options(netlist, kernel, **overrides):
    return TransientOptions(
        integrator=netlist[0], dt=DT, kernel=kernel, **overrides
    )


def march(netlist, kernel, resume_from=None, **overrides):
    dae = build(netlist)
    return simulate_transient(
        dae, np.zeros(dae.n), 0.0, T_STOP,
        options(netlist, kernel, **overrides), resume_from=resume_from,
    )


def march_adaptive(netlist, resume_from=None, **overrides):
    """The DC-driven circuit on the adaptive C route."""
    dae = build(netlist, dc=True)
    return simulate_transient(
        dae, np.zeros(dae.n), 0.0, T_STOP,
        options(netlist, "c", adaptive=True, **overrides),
        resume_from=resume_from,
    )


def march_ensemble(netlist, kernel):
    members = ensemble(netlist)
    return simulate_transient_ensemble(
        members, np.zeros(members.n), 0.0, T_STOP, options(netlist, kernel)
    )


def rescued(stats):
    """Whether the NumPy march needed a rescue: a per-scenario (or
    full-Newton) fallback or a dt halving."""
    return bool(stats["newton_fallbacks"] or stats["newton_failures"])


def assert_within_update_scale(x, reference):
    """``|dx| <= 1e-6 * max(max|x|, 1)`` per variable (last axis)."""
    axes = tuple(range(reference.ndim - 1))
    scale = np.maximum(np.abs(reference).max(axis=axes), 1.0)
    err = np.abs(x - reference).max(axis=axes)
    assert np.all(err <= 1e-6 * scale), err / scale


def assert_kernel_matches_numpy(numpy_run, c_run):
    assert numpy_run.stats["kernel"]["mode"] == "python"
    assert c_run.stats["kernel"]["mode"] == "c"
    assert np.array_equal(c_run.t, numpy_run.t)
    if rescued(numpy_run.stats):
        # The kernel hands the failing steps back by design.
        assert c_run.stats["kernel"]["python_steps"] > 0
        assert_within_update_scale(c_run.x, numpy_run.x)
        return
    assert c_run.stats["kernel"]["python_steps"] == 0
    scale = np.abs(numpy_run.x).max()
    assert np.abs(c_run.x - numpy_run.x).max() <= 1e-9 * scale
    for key in ("newton_iterations", "jacobian_factorizations"):
        assert c_run.stats[key] == numpy_run.stats[key], key
    assert (c_run.stats["solver"]["residual_evaluations"]
            == numpy_run.stats["solver"]["residual_evaluations"])


def assert_resume_is_bit_identical(netlist, kernel, full):
    with pytest.raises(SimulationError) as info:
        march(netlist, kernel, max_steps=full.stats["steps"] // 2)
    resumed = march(netlist, kernel, resume_from=info.value.checkpoint)
    assert np.array_equal(resumed.t, full.t)
    assert np.array_equal(resumed.x, full.x)
    for key in ("steps", "newton_iterations", "jacobian_factorizations"):
        assert resumed.stats[key] == full.stats[key], key


@MATRIX
@example(LU_PIVOT_NETLIST)
@example(HANDBACK_NETLIST)
@given(netlists())
def test_numpy_routes(netlist):
    """Lock-step ensemble vs B serial runs, and NumPy checkpoint resume."""
    batched = march_ensemble(netlist, "python")
    members = ensemble(netlist)
    for index in range(members.batch_size):
        serial = simulate_transient(
            members.member(index), np.zeros(members.n), 0.0, T_STOP,
            options(netlist, "python"),
        )
        assert np.array_equal(batched.t, serial.t)
        assert_within_update_scale(batched.x[:, index], serial.x)
    assert_resume_is_bit_identical(
        netlist, "python", march(netlist, "python")
    )


@needs_cc
@MATRIX
@example(LU_PIVOT_NETLIST)
@example(HANDBACK_NETLIST)
@given(netlists())
def test_c_kernel_routes(netlist):
    """C kernel vs NumPy (serial and lock-step ensemble), and C
    checkpoint resume.  One circuit compiles one kernel for all three."""
    c_run = march(netlist, "c")
    assert_kernel_matches_numpy(march(netlist, "python"), c_run)
    assert_kernel_matches_numpy(
        march_ensemble(netlist, "python"), march_ensemble(netlist, "c")
    )
    assert_resume_is_bit_identical(netlist, "c", c_run)


@needs_cc
@MATRIX
@example(LU_PIVOT_NETLIST)
@example(HANDBACK_NETLIST)
@given(netlists())
def test_adaptive_c_route(netlist):
    """The adaptive C sweep marches compiled end to end, and its
    checkpoint resume is bit-identical, rejections included."""
    full = march_adaptive(netlist)
    assert full.stats["kernel"]["mode"] == "c"
    assert full.stats["kernel"]["python_steps"] == 0
    with pytest.raises(SimulationError) as info:
        march_adaptive(netlist, max_steps=full.stats["steps"] // 2)
    resumed = march_adaptive(netlist, resume_from=info.value.checkpoint)
    assert np.array_equal(resumed.t, full.t)
    assert np.array_equal(resumed.x, full.x)
    for key in ("steps", "newton_iterations", "jacobian_factorizations",
                "rejected_steps"):
        assert resumed.stats[key] == full.stats[key], key

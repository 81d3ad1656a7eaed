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
* **WaMPDE envelope, C march vs NumPy stepper** (fixed steps): on runs
  that need no handback, the C route marches every step compiled, takes
  equal solves, iterations, residual evaluations and factorisations, and
  its ``omega`` and samples agree within 1e-9 of each variable's largest
  magnitude (its ``D1 q`` rounds differently from NumPy's BLAS, so not
  bit for bit).  A failing compiled step is replayed by the NumPy
  stepper with the NumPy route's outcome.
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


# -- the WaMPDE envelope: compiled march vs the NumPy stepper -----------------

#: SolverStats counters the envelope routes must share.
ENVELOPE_COUNTS = ("solves", "iterations", "residual_evaluations",
                   "factorizations", "jacobian_refreshes", "fallbacks")


def envelope_run(kernel, dae, samples, f0, t2_stop, steps, **overrides):
    from repro.wampde import WampdeEnvelopeOptions, solve_wampde_envelope

    return solve_wampde_envelope(
        dae, samples, f0, 0.0, t2_stop, steps,
        WampdeEnvelopeOptions(kernel=kernel, **overrides),
    )


def envelope_runs(*args, **overrides):
    """The same fixed-step envelope on the NumPy and the C route."""
    return tuple(envelope_run(kernel, *args, **overrides)
                 for kernel in ("python", "c"))


def assert_envelopes_agree(numpy_run, c_run):
    assert np.array_equal(c_run.t2, numpy_run.t2)
    scale = np.abs(numpy_run.samples).reshape(
        -1, numpy_run.samples.shape[-1]).max(axis=0)
    assert np.all(
        np.abs(c_run.samples - numpy_run.samples) <= 1e-9 * scale
    )
    assert np.all(np.abs(c_run.omega - numpy_run.omega)
                  <= 1e-9 * np.abs(numpy_run.omega).max())
    for key in ENVELOPE_COUNTS:
        assert c_run.stats["solver"][key] == numpy_run.stats["solver"][key], key
    assert c_run.stats["newton_iterations"] == \
        numpy_run.stats["newton_iterations"]


def assert_envelope_contract(numpy_run, c_run):
    assert numpy_run.stats["kernel"]["compiled_steps"] == 0
    kernel = c_run.stats["kernel"]
    assert kernel["mode"] == "c"
    assert kernel["compiled_steps"] == c_run.stats["steps"]
    assert kernel["python_steps"] == 0
    assert_envelopes_agree(numpy_run, c_run)


@pytest.fixture(scope="module")
def vco_cycles():
    from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
    from repro.wampde import oscillator_initial_condition

    cycles = {}
    for variant in ("vacuum", "air"):
        params = getattr(VcoParams, variant)()
        samples, f0 = oscillator_initial_condition(
            MemsVcoDae(params, constant_control=True), num_t1=25,
            period_guess=T_NOMINAL,
        )
        cycles[variant] = (params, samples, f0)
    return cycles


@needs_cc
@pytest.mark.parametrize("integrator", ["theta", "trap", "be"])
@pytest.mark.parametrize("variant", ["vacuum", "air"])
def test_envelope_c_route_vco(vco_cycles, variant, integrator):
    """The MEMS VCO over one control period."""
    from repro.circuits.library import MemsVcoDae

    params, samples, f0 = vco_cycles[variant]
    numpy_run, c_run = envelope_runs(
        MemsVcoDae(params), samples, f0, params.control_period, 100,
        integrator=integrator,
    )
    assert numpy_run.stats["solver"]["fallbacks"] == 0
    assert c_run.stats["solver"]["factorizations"] > 10
    assert numpy_run.omega.max() / numpy_run.omega.min() > 1.1
    assert_envelope_contract(numpy_run, c_run)


@needs_cc
def test_envelope_c_route_ring_oscillator():
    """A second oscillator: the 3-stage tanh ring under a Sine bias."""
    from repro.circuits.library import ring_oscillator_circuit
    from repro.wampde import oscillator_initial_condition

    samples, f0 = oscillator_initial_condition(
        ring_oscillator_circuit(bias=DC(0.0)).to_dae(), num_t1=25,
        period_guess=4e-6, perturbation=np.array([0.1, -0.05, 0.02]),
    )
    period2 = 40.0 / f0
    forced = ring_oscillator_circuit(
        bias=Sine(amplitude=4e-4, frequency=1.0 / period2)
    ).to_dae()
    numpy_run, c_run = envelope_runs(forced, samples, f0, period2, 100)
    assert numpy_run.omega.max() / numpy_run.omega.min() > 1.005
    assert_envelope_contract(numpy_run, c_run)


@needs_cc
def test_envelope_handback_replays_quench():
    """A step converging to omega <= 0 is handed back uncommitted; the
    NumPy replay raises the NumPy route's SimulationError.  The van der
    Pol cycle reversed in t1 solves the warped equations with negative
    omega, so the first backward-Euler step lands there."""
    from repro.dae import VanDerPolDae
    from repro.wampde import oscillator_initial_condition

    dae = VanDerPolDae(mu=0.2)
    samples, f0 = oscillator_initial_condition(dae, num_t1=25,
                                               period_guess=6.28)
    reversed_cycle = np.roll(samples[::-1], 1, axis=0)
    errors = []
    for kernel in ("python", "c"):
        with pytest.raises(SimulationError, match="quenched") as info:
            envelope_run(kernel, dae, reversed_cycle, f0, 5.0, 10,
                         integrator="be")
        errors.append(info.value)
    numpy_error, c_error = errors
    assert str(c_error) == str(numpy_error)
    assert c_error.step == numpy_error.step == 0
    kernel = c_error.partial_result.stats["kernel"]
    assert kernel["compiled_steps"] == 0
    assert "status 5" in kernel["reason"]


@needs_cc
@pytest.mark.parametrize("max_iterations", [2, 4])
def test_envelope_handback_replays_chord_failure(vco_cycles, max_iterations):
    """A chord budget too small for some steps: the C route hands the
    first such step back, and the NumPy stepper's rescue (or failure)
    is the NumPy route's, counts included."""
    from repro.circuits.library import MemsVcoDae
    from repro.linalg.newton import NewtonOptions

    params, samples, f0 = vco_cycles["vacuum"]
    newton = NewtonOptions(atol=1e-9, max_iterations=max_iterations)
    if max_iterations == 2:
        errors = []
        for kernel in ("python", "c"):
            with pytest.raises(SimulationError, match="converge") as info:
                envelope_run(
                    kernel, MemsVcoDae(params), samples, f0,
                    params.control_period, 50, newton=newton,
                )
            errors.append(info.value)
        assert str(errors[1]) == str(errors[0])
        assert errors[1].step == errors[0].step
        return
    numpy_run, c_run = envelope_runs(
        MemsVcoDae(params), samples, f0, params.control_period, 50,
        newton=newton,
    )
    kernel = c_run.stats["kernel"]
    assert 0 < kernel["compiled_steps"] < c_run.stats["steps"]
    assert kernel["python_steps"] == \
        c_run.stats["steps"] - kernel["compiled_steps"]
    assert "status 1" in kernel["reason"]
    assert c_run.stats["solver"]["fallbacks"] > 0
    assert_envelopes_agree(numpy_run, c_run)


@needs_cc
def test_envelope_warm_start_through_the_service():
    """A family-seed hit (warm chord factors and registered parameters
    from the first window's run) matches on both routes."""
    from repro import api
    from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
    from repro.service import SimulationService
    from repro.wampde import WampdeEnvelopeOptions

    params = VcoParams.vacuum()

    def request(periods, num_steps, kernel):
        return api.EnvelopeRequest(
            dae=MemsVcoDae(params), t2_start=0.0,
            t2_stop=periods * params.control_period, num_steps=num_steps,
            unforced_dae=MemsVcoDae(params, constant_control=True),
            num_t1=25, period_guess=T_NOMINAL,
            options=WampdeEnvelopeOptions(kernel=kernel),
        )

    runs = {}
    for kernel in ("python", "c"):
        with SimulationService(workers=0) as service:
            service.submit(request(0.5, 25, kernel)).outcome()
            job = service.submit(request(0.75, 36, kernel))
            runs[kernel] = job.outcome()
            assert job.warm_hit
    numpy_run, c_run = runs["python"], runs["c"]
    assert_envelope_contract(numpy_run, c_run)


# -- autonomous harmonic balance ------------------------------------------

#: SolverStats counters the autonomous-HB routes must share.
HB_COUNTS = ("solves", "iterations", "residual_evaluations",
             "jacobian_refreshes", "factorizations")


def settle_seed(dae, period, kick, num=25):
    """A rough cycle from a settle transient (the HB seed the initial
    condition and the sweeps use) and its frequency."""
    from repro.steadystate import (
        dc_operating_point,
        estimate_period_from_transient,
    )

    run = simulate_transient(
        dae, dc_operating_point(dae) + kick, 0.0, 40 * period,
        TransientOptions(integrator="trap", dt=period / 60),
    )
    cycle = estimate_period_from_transient(run, key=0)
    times = run.t[-1] - cycle + cycle * np.arange(num) / num
    return run.sample(times), 1.0 / cycle


def hb_runs(monkeypatch, dae, seed, f0, **kwargs):
    """The same autonomous HB solve on the NumPy and the C route."""
    from repro.steadystate import harmonic_balance_autonomous

    runs = []
    for kernel in ("python", "c"):
        monkeypatch.setenv("REPRO_KERNEL", "python" if kernel == "python"
                           else "auto")
        runs.append(harmonic_balance_autonomous(dae, f0, seed, **kwargs))
    return runs


def assert_hb_contract(numpy_run, c_run, rounding=()):
    """Equal counts, the frequency within 1e-12 relative and the samples
    within 1e-9 of each variable's largest magnitude; the ``rounding``
    variables sit at rounding level on both routes (|x| < 1e-14)."""
    assert numpy_run.kernel["mode"] == "python"
    assert c_run.kernel == {"mode": "c", "reason": None}
    for key in HB_COUNTS:
        assert c_run.stats[key] == numpy_run.stats[key], key
    assert c_run.newton_iterations == numpy_run.newton_iterations
    assert abs(c_run.frequency / numpy_run.frequency - 1.0) <= 1e-12
    scale = np.abs(numpy_run.samples).max(axis=0)
    for k in range(scale.size):
        if k in rounding:
            assert np.abs(numpy_run.samples[:, k]).max() < 1e-14
            assert np.abs(c_run.samples[:, k]).max() < 1e-14
        else:
            assert np.abs(c_run.samples[:, k] - numpy_run.samples[:, k]
                          ).max() <= 1e-9 * scale[k]


@needs_cc
@pytest.mark.parametrize("vc", [0.4, 1.5, 2.6])
@pytest.mark.parametrize("variant", ["vacuum", "air"])
def test_hb_c_route_vco(monkeypatch, variant, vc):
    """The Fig-7 solves: the MEMS VCO at three control voltages.  With the
    control held constant the plate velocity u is rounding noise
    (|u| <= 2.5e-15 m/s at these points), so it is held to that level
    instead of to its own largest magnitude."""
    from dataclasses import replace

    from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams

    params = replace(getattr(VcoParams, variant)(), control_offset=vc)
    dae = MemsVcoDae(params, constant_control=True)
    seed, f0 = settle_seed(dae, T_NOMINAL, np.array([0.1, 0.0, 0.0, 0.0]))
    numpy_run, c_run = hb_runs(monkeypatch, dae, seed, f0, num_samples=25)
    assert numpy_run.newton_iterations >= 3
    assert_hb_contract(numpy_run, c_run, rounding=(3,))


@needs_cc
def test_hb_c_route_van_der_pol(monkeypatch):
    from repro.dae import VanDerPolDae

    dae = VanDerPolDae(mu=1.0)
    seed, f0 = settle_seed(dae, 6.28, np.array([0.1, 0.0]))
    numpy_run, c_run = hb_runs(monkeypatch, dae, seed, f0, num_samples=25)
    assert numpy_run.newton_iterations >= 3
    assert_hb_contract(numpy_run, c_run)


@needs_cc
def test_hb_c_route_ring_oscillator(monkeypatch):
    from repro.circuits.library import ring_oscillator_circuit

    dae = ring_oscillator_circuit(bias=DC(0.0)).to_dae()
    seed, f0 = settle_seed(dae, 4e-6, np.array([0.1, -0.05, 0.02]))
    numpy_run, c_run = hb_runs(monkeypatch, dae, seed, f0, num_samples=25)
    assert numpy_run.newton_iterations >= 3
    assert_hb_contract(numpy_run, c_run)


@pytest.fixture(scope="module")
def vdp_seed():
    from repro.dae import VanDerPolDae

    dae = VanDerPolDae(mu=1.0)
    return (dae,) + settle_seed(dae, 6.28, np.array([0.1, 0.0]))


@needs_cc
@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("case", ["budget", "zero_seed"])
def test_hb_failure_replays_on_numpy(monkeypatch, vdp_seed, case):
    """A failing compiled solve is replayed whole by the NumPy core: the
    exception and its message are the NumPy route's.  The budget case
    stops after one iteration (status 1); the VCO's all-zero seed has a
    zero phase row and frequency column, so its first matrix is singular
    (status 3)."""
    from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
    from repro.errors import ConvergenceError
    from repro.linalg.newton import NewtonOptions

    dae, seed, f0 = vdp_seed
    kwargs = {"num_samples": 25}
    if case == "budget":
        kwargs["newton_options"] = NewtonOptions(atol=1e-9, max_iterations=1)
    else:
        dae = MemsVcoDae(VcoParams.vacuum(), constant_control=True)
        seed, f0 = np.zeros((25, dae.n)), 1.0 / T_NOMINAL
    from repro.steadystate import harmonic_balance as hb_module

    statuses = []
    compiled = hb_module.solve_autonomous_hb

    def spy(*args):
        status, stats = compiled(*args)
        statuses.append(status)
        return status, stats

    monkeypatch.setattr(hb_module, "solve_autonomous_hb", spy)
    errors = []
    for kernel in ("python", "auto"):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        with pytest.raises(ConvergenceError) as info:
            hb_module.harmonic_balance_autonomous(dae, f0, seed, **kwargs)
        errors.append(info.value)
    assert statuses == [1 if case == "budget" else 3]
    assert type(errors[1]) is type(errors[0])
    assert str(errors[1]) == str(errors[0])


@needs_cc
@pytest.mark.parametrize("case", [
    "chord", "gmres", "extended", "faulty", "scaled", "env",
])
def test_hb_ineligible_solves_stay_on_numpy(monkeypatch, vdp_seed, case):
    from repro.dae import ScaledDAE
    from repro.linalg.solver_core import SolverCoreOptions
    from repro.steadystate import harmonic_balance_autonomous
    from repro.testing.faults import FaultyDAE

    dae, seed, f0 = vdp_seed
    monkeypatch.setenv("REPRO_KERNEL", "auto")
    kwargs = {"num_samples": 25}
    reason = "full Newton on the default linear solver and ladder"
    if case == "chord":
        kwargs["solver_options"] = SolverCoreOptions(mode="chord")
    elif case == "gmres":
        kwargs["solver_options"] = SolverCoreOptions(linear_solver="gmres")
    elif case == "extended":
        kwargs["solver_options"] = SolverCoreOptions(ladder="extended")
    elif case == "faulty":
        dae = FaultyDAE(dae, nan_q_calls=[10_000])
        reason = "fault injection"
    elif case == "scaled":
        dae = ScaledDAE(dae, variable_scale=2.0)
        seed = seed / 2.0
        reason = "no kernel lowering for ScaledDAE"
    else:
        monkeypatch.setenv("REPRO_KERNEL", "python")
        reason = "kernel='python' requested"
    hb = harmonic_balance_autonomous(dae, f0, seed, **kwargs)
    assert hb.kernel["mode"] == "python"
    assert reason in hb.kernel["reason"]

"""The march contract every checkpointing route keeps.

Transient (fixed and adaptive, compiled and NumPy), WaMPDE (fixed and
adaptive) and MPDE marches all run their bookkeeping through
:class:`repro.resilience.march.March`, so each must:

(a) fail with full context — step, time, dt, a checkpoint of its kind
    and a partial result equal to the stored prefix of the
    uninterrupted run;
(b) resume from that checkpoint to the uninterrupted run, bit for bit;
(c) stream, at the checkpoint cadence, partial results whose arrays
    are bit-identical prefixes of the final result.
"""

import queue

import numpy as np
import pytest

from repro.constants import TWO_PI
from repro.dae import LinearRCDae, VanDerPolDae
from repro.errors import SimulationError
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import SolverCore
from repro.mpde import additive_two_tone_forcing, solve_mpde_envelope
from repro.mpde.envelope import MpdeEnvelopeOptions
from repro.service.streaming import StreamSink, decode_stream_item
from repro.transient import TransientOptions, simulate_transient
from repro.wampde import (
    WampdeEnvelopeOptions,
    solve_wampde_envelope,
    solve_wampde_envelope_adaptive,
)

#: An unreachable atol with rtol=0 (so the relative-update check cannot
#: declare victory) and a one-iteration budget fail every ladder rung of
#: the first step deterministically.
UNREACHABLE = NewtonOptions(atol=1e-30, rtol=0.0, max_iterations=1)


def mpde_problem():
    dae = LinearRCDae(resistance=1.0, capacitance=0.02)
    f1, f2 = 50.0, 1.0

    def fast(t1):
        return np.array([np.cos(TWO_PI * f1 * t1)])

    def slow(t2):
        return np.array([0.5 * np.cos(TWO_PI * f2 * t2)])

    return dae, additive_two_tone_forcing(fast, slow, 1.0 / f1, 1.0 / f2, 1)


def transient_route(adaptive, kernel):
    dae = VanDerPolDae(mu=3.0)

    def run(resume_from=None, **overrides):
        options = TransientOptions(
            integrator="trap", dt=1e-2, adaptive=adaptive, kernel=kernel,
            **overrides,
        )
        return simulate_transient(
            dae, [2.0, 0.0], 0.0, 8.0, options, resume_from=resume_from
        )

    return run


def wampde_route(adaptive, vdp_limit_cycle):
    dae, hb = vdp_limit_cycle

    def run(resume_from=None, **overrides):
        if adaptive:
            max_steps = overrides.pop("max_steps", 1_000_000)
            return solve_wampde_envelope_adaptive(
                dae, hb.samples, hb.frequency, 0.0, 60.0,
                options=WampdeEnvelopeOptions(**overrides),
                max_steps=max_steps, resume_from=resume_from,
            )
        return solve_wampde_envelope(
            dae, hb.samples, hb.frequency, 0.0, 15.0, 30,
            WampdeEnvelopeOptions(**overrides), resume_from=resume_from,
        )

    return run


def mpde_route():
    dae, forcing = mpde_problem()

    def run(resume_from=None, **overrides):
        return solve_mpde_envelope(
            dae, forcing, np.zeros((9, 1)), 0.0, 1.0, 60,
            MpdeEnvelopeOptions(**overrides), resume_from=resume_from,
        )

    return run


#: route id -> (checkpoint kind, result columns, options forcing a
#: failure, checkpoint cadence for streaming).
ROUTES = {
    "transient-fixed-auto": ("transient", ("t", "x"), {"max_steps": 300}, 300),
    "transient-fixed-python": (
        "transient", ("t", "x"), {"max_steps": 300}, 300,
    ),
    "transient-adaptive-auto": (
        "transient", ("t", "x"), {"max_steps": 200}, 150,
    ),
    "transient-adaptive-python": (
        "transient", ("t", "x"), {"max_steps": 200}, 150,
    ),
    "wampde-fixed": (
        "wampde_envelope", ("t2", "omega", "samples"),
        {"newton": UNREACHABLE}, 7,
    ),
    "wampde-adaptive": (
        "wampde_envelope_adaptive", ("t2", "omega", "samples"),
        {"max_steps": 4}, 2,
    ),
    "mpde": ("mpde_envelope", ("t2", "samples"), {"newton": UNREACHABLE}, 25),
}


@pytest.fixture(params=sorted(ROUTES))
def route(request, vdp_limit_cycle):
    name = request.param
    if name.startswith("transient"):
        _, mode, kernel = name.split("-")
        run = transient_route(mode == "adaptive", kernel)
    elif name.startswith("wampde"):
        run = wampde_route(name.endswith("adaptive"), vdp_limit_cycle)
    else:
        run = mpde_route()
    return (run,) + ROUTES[name]


def assert_prefix(partial, final, columns):
    size = getattr(partial, columns[0]).shape[0]
    assert size >= 1
    for name in columns:
        assert np.array_equal(
            getattr(partial, name), getattr(final, name)[:size]
        ), name


def test_failure_context_and_bit_identical_resume(route):
    run, kind, columns, failing, _ = route
    reference = run()
    with pytest.raises(SimulationError) as info:
        run(**failing)
    exc = info.value

    checkpoint = exc.checkpoint
    assert checkpoint is not None and checkpoint.kind == kind
    assert exc.step == checkpoint.step
    assert exc.step == failing.get("max_steps", 0)
    assert exc.time == checkpoint.t
    assert exc.dt is not None and exc.dt > 0
    if "newton" in failing:
        assert "failed to converge" in str(exc)
        assert exc.iterations is not None
    else:
        assert "max_steps" in str(exc)
    partial = exc.partial_result
    assert getattr(partial, columns[0])[-1] == exc.time
    assert exc.time < getattr(reference, columns[0])[-1]
    assert_prefix(partial, reference, columns)
    assert "solver" in partial.stats

    resumed = run(resume_from=checkpoint)
    for name in columns:
        assert np.array_equal(
            getattr(resumed, name), getattr(reference, name)
        ), name
    for key in ("steps", "newton_iterations"):
        assert resumed.stats[key] == reference.stats[key]


def test_streamed_partials_are_prefixes_of_the_final_result(route):
    run, _, columns, _, every = route
    reference = run()
    sink_queue = queue.Queue()
    final = run(checkpoint_every=every, checkpoint_path=StreamSink(sink_queue))
    for name in columns:
        assert np.array_equal(getattr(final, name), getattr(reference, name))
    steps = []
    while not sink_queue.empty():
        step, _t, partial = decode_stream_item(sink_queue.get_nowait())
        steps.append(step)
        assert_prefix(partial, final, columns)
    assert steps and all(step % every == 0 for step in steps)


@pytest.mark.parametrize("adaptive", [False, True])
def test_quenched_oscillator_fails_with_context(
    vdp_limit_cycle, monkeypatch, adaptive
):
    """A non-positive local frequency is a SimulationError raised inside
    the step; it keeps its message and gains the march's context."""
    solve = SolverCore.solve
    calls = []

    def quench_fourth_solve(self, system, z0, fallback_z0=None):
        result = solve(self, system, z0, fallback_z0)
        calls.append(None)
        if len(calls) == 4:
            result.x[-1] = -abs(result.x[-1])
        return result

    monkeypatch.setattr(SolverCore, "solve", quench_fourth_solve)
    run = wampde_route(adaptive, vdp_limit_cycle)
    with pytest.raises(SimulationError, match="quenched") as info:
        run(checkpoint_every=2)
    exc = info.value
    # Three solves per accepted adaptive step (step doubling), one per
    # fixed step.
    accepted = 1 if adaptive else 3
    assert exc.step == accepted
    assert exc.checkpoint.kind == (
        "wampde_envelope_adaptive" if adaptive else "wampde_envelope"
    )
    assert exc.checkpoint.step == accepted
    assert exc.partial_result.t2.size == accepted + 1
    assert exc.partial_result.t2[-1] == exc.time
    assert exc.dt is not None


def test_adaptive_wampde_honours_store_every(vdp_limit_cycle):
    run = wampde_route(True, vdp_limit_cycle)
    every_point = run()
    assert every_point.stats["steps"] == 7
    thinned = run(store_every=3)
    rows = [0, 3, 6, 7]
    assert np.array_equal(thinned.t2, every_point.t2[rows])
    assert np.array_equal(thinned.omega, every_point.omega[rows])
    assert np.array_equal(thinned.samples, every_point.samples[rows])


def test_streamed_mpde_partial_reconstructs_like_the_final_result():
    sink_queue = queue.Queue()
    final = mpde_route()(
        checkpoint_every=25, checkpoint_path=StreamSink(sink_queue)
    )
    assert sink_queue.qsize() == 2
    while not sink_queue.empty():
        _step, _t, partial = decode_stream_item(sink_queue.get_nowait())
        assert partial.period1 == final.period1 == mpde_problem()[1].period1
        times = np.linspace(0.0, partial.t2[-1], 301)
        assert np.array_equal(
            partial.reconstruct(0, times), final.reconstruct(0, times)
        )

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
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.constants import TWO_PI
from repro.dae import LinearRCDae, VanDerPolDae
from repro.errors import SimulationError
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import SolverCore
from repro.mpde import additive_two_tone_forcing, solve_mpde_envelope
from repro.mpde.envelope import MpdeEnvelopeOptions
from repro.resilience.march import March, partial_result
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
        run(checkpoint_every=2, kernel="python")
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


@pytest.mark.parametrize("kernel", ["python", "auto"])
def test_a_run_needing_exactly_max_steps_finishes(kernel):
    """``max_steps`` bounds the accepted steps: a run whose last step is
    the ``max_steps``-th finishes (compiled chunks and single steps
    alike), and one that needs another step still fails."""

    def run(max_steps):
        return simulate_transient(
            VanDerPolDae(0.2), [2.0, 0.0], 0.0, 0.05,
            TransientOptions(dt=0.01, max_steps=max_steps, kernel=kernel),
        )

    result = run(5)
    assert result.stats["steps"] == 5
    assert result.t.size == 6 and result.t[-1] == pytest.approx(0.05)
    routes = result.stats["kernel"]
    assert routes["compiled_steps"] + routes["python_steps"] == 5
    if routes["mode"] == "c":
        assert routes["compiled_steps"] == 5
    with pytest.raises(SimulationError, match="max_steps=4"):
        run(4)


def test_adaptive_wampde_needing_exactly_max_steps_finishes(vdp_limit_cycle):
    run = wampde_route(True, vdp_limit_cycle)
    assert run(max_steps=7).stats["steps"] == 7
    with pytest.raises(SimulationError, match="max_steps=6"):
        run(max_steps=6)


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


# -- storage: compiled chunks against single steps ---------------------------


class Series:
    """A two-column result for driving :class:`March` directly."""

    def __init__(self, t, x, stats):
        self.t, self.x, self.stats = t, x, stats


#: Accepted steps in groups: ``None`` is one ``accept()``, ``k`` a
#: compiled chunk of ``k`` rows (21 steps after the initial point).
PLAN = (None, 4, None, None, 7, 1, None, 5)
STEPS = 21
DT = 0.25
_rng = np.random.default_rng(17)
TIMES = np.cumsum(np.r_[0.0, _rng.uniform(0.5, 1.5, STEPS)])
ROWS = _rng.normal(size=(STEPS + 1, 3))
T_STOP = TIMES[-1]


def new_march(store_every, sink=None, resume_from=None):
    options = SimpleNamespace(
        store_every=store_every, checkpoint_every=5 if sink else 0,
        checkpoint_path=sink,
    )
    march = March(
        "transient", options, resume_from, result=Series, fields=("t", "x"),
        snapshot=dict, core=SolverCore(), matrix_at=None,
    )
    if resume_from is None:
        march.start(TIMES[0], DT, ROWS[0])
    return march


def drive(march, chunked):
    """Feed the steps after the march's last accepted one in PLAN's
    groups, each chunk through reused buffers (as the compiled runners
    hand them over) or, with ``chunked`` off, row by row."""
    buffer_t, buffer_x = np.empty(8), np.empty((8, 3))
    start = 0
    for size in PLAN:
        stop = start + (size or 1)
        step = max(start, march.stats["steps"])
        while step < stop:
            if size is None or not chunked:
                step += 1
                march.accept(TIMES[step], DT, ROWS[step],
                             final=TIMES[step] >= T_STOP)
                continue
            k = march.chunk_budget(stop - step)
            buffer_t[:k] = TIMES[step + 1:step + k + 1]
            buffer_x[:k] = ROWS[step + 1:step + k + 1]
            march.accept_chunk(buffer_t[:k], buffer_x[:k], DT, T_STOP)
            buffer_t.fill(np.nan)
            buffer_x.fill(np.nan)
            step += k
        start = stop
    return march.finish()


def stored_rows(store_every):
    return sorted({0, STEPS} | set(range(store_every, STEPS, store_every)))


def poisoning(received):
    """A checkpoint sink that keeps each partial's arrays, then overwrites
    the ones it was handed: the march must not share them."""
    def sink(checkpoint):
        partial = partial_result(checkpoint)
        received.append((checkpoint.step, partial.t.copy(), partial.x.copy()))
        partial.t.fill(np.nan)
        partial.x.fill(np.nan)

    return sink


@pytest.mark.parametrize("store_every", [1, 3])
def test_chunks_store_bit_equal_to_single_steps(store_every):
    partials = {}
    results = {}
    for chunked in (False, True):
        partials[chunked] = []
        results[chunked] = drive(
            new_march(store_every, poisoning(partials[chunked])), chunked
        )
    rows = stored_rows(store_every)
    for result in results.values():
        assert np.array_equal(result.t, TIMES[rows])
        assert np.array_equal(result.x, ROWS[rows])
        assert result.stats["steps"] == STEPS
    # Checkpoints (with their partial results) at the same cadence points,
    # each a bit-equal prefix of the final result.
    assert [p[0] for p in partials[True]] == [5, 10, 15, 20]
    assert [p[0] for p in partials[False]] == [5, 10, 15, 20]
    for (_, t_c, x_c), (_, t_r, x_r) in zip(partials[True], partials[False]):
        assert np.array_equal(t_c, t_r) and np.array_equal(x_c, x_r)
        assert np.array_equal(t_c, results[True].t[:t_c.size])
        assert np.array_equal(x_c, results[True].x[:t_c.size])


@pytest.mark.parametrize("store_every", [1, 3])
def test_resume_from_a_checkpoint_after_a_chunk(store_every):
    checkpoints = []
    final = drive(new_march(store_every, checkpoints.append), chunked=True)
    # Step 5 ends a chunk; step 10 splits one at the checkpoint cadence.
    for checkpoint in checkpoints[:2]:
        resumed = drive(
            new_march(store_every, resume_from=checkpoint), chunked=True
        )
        assert np.array_equal(resumed.t, final.t)
        assert np.array_equal(resumed.x, final.x)
        assert resumed.stats["steps"] == final.stats["steps"]


def test_storing_chunks_keeps_peak_memory_near_the_rows():
    """100,000 rows of 4 unknowns in 10 chunks, then finished: the peak
    stays within 3x the stored rows' bytes (one block per chunk plus one
    concatenation, not an object per row)."""
    chunk, chunks, n = 10_000, 10, 4
    buffer_t = np.empty(chunk)
    buffer_x = np.empty((chunk, n))
    march = March(None, SimpleNamespace(), result=Series, fields=("t", "x"))
    tracemalloc.start()
    try:
        march.start(0.0, 1.0, np.zeros(n))
        for c in range(chunks):
            buffer_t[:] = np.arange(c * chunk + 1, (c + 1) * chunk + 1)
            buffer_x[:] = c
            march.accept_chunk(buffer_t, buffer_x, 1.0, np.inf)
        result = march.finish()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.x.shape == (chunk * chunks + 1, n)
    assert np.array_equal(result.t, np.arange(chunk * chunks + 1))
    assert peak <= 3 * result.x.nbytes


@pytest.mark.parametrize("store_every", [1, 3])
def test_chunks_with_two_value_columns(store_every):
    """The envelope's chunks carry two value columns (omega, samples):
    chunked and single-step marches store the same points, the final
    one always."""

    class Envelope:
        def __init__(self, t2, omega, samples, stats):
            self.t2, self.omega, self.samples = t2, omega, samples
            self.stats = stats

    steps = 10
    times = np.arange(1, steps + 1) * 0.5
    omega = 1.0 + 0.1 * np.arange(1, steps + 1)
    samples = np.arange(1, steps + 1)[:, None, None] * np.ones((steps, 3, 2))

    def new_march():
        march = March(None, SimpleNamespace(store_every=store_every),
                      result=Envelope, fields=("t2", "omega", "samples"))
        march.start(0.0, 0.5, 1.0, np.zeros((3, 2)))
        return march

    single = new_march()
    for j in range(steps):
        single.accept(times[j], 0.5, omega[j], samples[j],
                      final=j == steps - 1)
    chunked = new_march()
    for lo, hi in ((0, 4), (4, steps)):
        chunked.accept_chunk(times[lo:hi], (omega[lo:hi], samples[lo:hi]),
                             0.5, times[-1])
    expected, result = single.finish(), chunked.finish()
    assert result.t2[-1] == times[-1]
    for name in ("t2", "omega", "samples"):
        assert np.array_equal(getattr(result, name), getattr(expected, name))
    assert result.stats["steps"] == steps

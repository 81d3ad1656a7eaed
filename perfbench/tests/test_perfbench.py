"""Tests of the benchmark's own machinery: generators, spans, metrics."""

import numpy as np
import pytest

from perfbench import metrics, spans
from perfbench.run import run_pass
from perfbench.workloads import WORKLOADS, Request, Workload


def _fingerprint(requests):
    """Labels plus exact content keys where the request type has one."""
    keys = []
    for request in requests:
        key = getattr(request.payload, "cache_key", None)
        keys.append((request.label, request.anchor, key() if key else None))
    return keys


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_reproducible_per_seed(name):
    workload = WORKLOADS[name]
    first = _fingerprint(workload.generate(7))
    assert first == _fingerprint(workload.generate(7))
    other = _fingerprint(workload.generate(8))
    assert first != other
    # Anchors (the accuracy_err inputs) do not depend on the seed.
    assert sorted(k for k in first if k[1]) == sorted(k for k in other if k[1])


def _span(name, start, end, parent=None):
    return [name, start, end, parent, "request-0"]


def test_self_time_subtracts_union_of_children():
    root = _span("root", 0.0, 10.0)
    first = _span("a", 1.0, 4.0, root)
    overlapping = _span("b", 3.0, 6.0, root)
    leaf = _span("leaf", 2.0, 3.0, first)
    past_end = _span("b", 9.0, 12.0, root)  # clipped to the parent
    own = spans.self_times([root, first, overlapping, leaf, past_end])
    assert own["root"] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(6.0)
    assert own["leaf"] == pytest.approx(1.0)
    assert spans.span_durations([root, first])["root"] == pytest.approx(10.0)


def test_instrumentation_records_and_restores():
    import repro.steadystate
    import repro.steadystate.dc as dc
    from perfbench.workloads import _rectifier

    original = dc.dc_operating_point
    recorder = spans.Recorder()
    inst = spans.instrument(recorder)
    try:
        assert repro.steadystate.dc_operating_point is not original
        repro.steadystate.dc_operating_point(_rectifier(0.3))
    finally:
        inst.remove()
    assert dc.dc_operating_point is original
    assert repro.steadystate.dc_operating_point is original
    names = {span[0] for span in recorder.spans}
    assert "steadystate.dc" in names
    assert all(span[2] >= span[1] for span in recorder.spans)
    assert recorder.counters["steadystate.dc.calls"] == 1


def test_tail_level_keeps_ten_samples_beyond():
    assert metrics.tail_level(100) == pytest.approx(0.9)
    assert metrics.tail_level(1000) == pytest.approx(0.9)
    assert metrics.tail_level(44) == pytest.approx(1 - 10 / 44)
    assert metrics.tail_level(12) == 0.5


def test_percentile_matches_linear_interpolation():
    values = np.random.default_rng(0).random(37)
    for level in (0.0, 0.25, 0.5, 0.77, 0.9, 1.0):
        assert metrics.percentile(values, level) == pytest.approx(
            np.percentile(values, level * 100))


def test_latency_summary_uses_fastest_repeat_per_request():
    passes = [[1.0, 2.0, 30.0], [3.0, 2.0, 10.0], [2.0, 2.0, 20.0]]
    summary = metrics.summarize_latencies(passes)
    assert summary.samples == 3
    assert summary.total == pytest.approx(1.0 + 2.0 + 10.0)
    assert summary.p50 == pytest.approx(2.0)
    assert summary.tail_level == 0.5
    assert summary.tail == pytest.approx(2.0)
    stalled = [list(range(1, 101)), list(range(1, 101)),
               [1000.0] * 100]
    summary = metrics.summarize_latencies(stalled)
    assert summary.tail_level == pytest.approx(0.9)
    assert summary.tail == pytest.approx(np.percentile(range(1, 101), 90))


class _Scripted(Workload):
    """Requests whose kind says how they end."""

    def execute(self, ctx, state, request):
        if request.kind == "raise":
            raise RuntimeError("boom")
        return request.kind

    def check(self, ctx, state, request, result):
        return "wrong output" if result == "wrong" else ""


def test_failures_are_counted_against_attempts():
    ctx = {"requests": [Request(label, kind, None) for label, kind in (
        ("a", "ok"), ("b", "raise"), ("c", "wrong"), ("d", "ok"))]}
    outcomes, _ = run_pass(_Scripted(), ctx)
    assert metrics.count_failures(outcomes) == (4, 2)
    reasons = {o.label: o.reason for o in outcomes}
    assert reasons["b"] == "RuntimeError: boom"
    assert reasons["c"] == "wrong output"
    assert all(o.latency >= 0 for o in outcomes)


def test_traced_passes_repeat_their_counters():
    workload = WORKLOADS["vco_envelope"]
    requests = [r for r in workload.generate(3) if not r.anchor][:8]
    requests = [r for r in requests
                if r.replay_of is None or r.replay_of in requests]
    ctx = {"requests": requests}
    runs = []
    for _ in range(2):
        recorder = spans.Recorder()
        inst = spans.instrument(recorder)
        try:
            outcomes, _ = run_pass(workload, ctx, recorder)
        finally:
            inst.remove()
        assert all(o.ok for o in outcomes), [o.reason for o in outcomes]
        runs.append(spans.layer_metrics(recorder.spans, recorder.counters))
    first, second = runs
    assert first["solver_core.iterations"] > 0
    assert first["wampde.steps"] > 0
    assert {k: first[k] for k in spans.DETERMINISTIC} == \
        {k: second[k] for k in spans.DETERMINISTIC}

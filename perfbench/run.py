"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload vco_envelope --seed 1 \\
        --seconds 35 --trace 0

One client sends the workload's seeded request set in a closed loop (the
next request only after the previous one returns), in one process,
single-threaded BLAS, through ``repro.api.run`` or
``SimulationService(workers=0)``.  Passes over the same request set repeat
until ``--seconds`` would be exceeded.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates traced and untraced passes
and reports the per-layer metrics (see README.md).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPS = 3
#: BLAS/OpenMP thread pools are pinned to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("vco_envelope", "tuning_curve", "large_bvp",
                  "transient_march")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pass(workload, ctx, recorder=None):
    """One pass over the request set; returns ``(outcomes, anchor errors)``."""
    from perfbench.metrics import Outcome

    state = workload.start_pass(ctx)
    outcomes = []
    try:
        for index, request in enumerate(ctx["requests"]):
            span = None
            if recorder is not None:
                recorder.request = f"{index}:{request.label}"
                span = recorder.open("request")
            start = time.perf_counter()
            try:
                result = workload.execute(ctx, state, request)
                reason = ""
            except Exception as exc:  # a failed request is counted, not fatal
                result, reason = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if span is not None:
                recorder.close(span)
            if not reason:
                try:
                    reason = workload.check(ctx, state, request, result)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            outcomes.append(Outcome(request.label, latency, not reason,
                                    reason))
    finally:
        errors = workload.finish_pass(ctx, state)
    return outcomes, errors


def set_up(workload, seed, scratch, recorder=None):
    """Set up ``SETUP_REPS`` times with a fresh kernel cache each time.

    Returns ``(context, seconds per repetition)``; with a ``recorder``
    the last repetition is traced (for ``kernels.build_s``).
    """
    from perfbench.spans import instrument
    from repro.kernels import backends

    times = []
    for rep in range(SETUP_REPS):
        os.environ["REPRO_KERNEL_CACHE"] = str(scratch / f"kernels-{rep}")
        # Drop the in-process memo too, so every repetition builds cold.
        backends._KERNEL_MEMO.clear()
        inst = None
        if recorder is not None and rep == SETUP_REPS - 1:
            inst = instrument(recorder)
        start = time.perf_counter()
        try:
            ctx = workload.setup(seed)
        finally:
            if inst is not None:
                inst.remove()
        times.append(time.perf_counter() - start)
    return ctx, times


def measure(workload, ctx, seconds, trace):
    """Repeat passes until another would overrun ``seconds``.

    Returns a list of ``(outcomes, errors, wall, trace_data)`` per pass,
    where ``wall`` is the sum of the pass's request latencies and
    ``trace_data`` is ``(spans, counters)`` for traced passes.
    """
    from perfbench.spans import Recorder, instrument

    passes = []
    start = time.perf_counter()
    while True:
        # Traced passes first and then every other one, so that three
        # passes give two traced ones to compare for determinism.
        traced = trace and len(passes) % 2 == 0
        recorder = Recorder() if traced else None
        inst = instrument(recorder) if traced else None
        try:
            outcomes, errors = run_pass(workload, ctx, recorder)
        finally:
            if inst is not None:
                inst.remove()
        wall = sum(o.latency for o in outcomes)
        data = (recorder.spans, recorder.counters) if traced else None
        passes.append((outcomes, errors, wall, data))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p[2] for p in passes)
        if len(passes) >= (2 if trace else 1) and elapsed + typical > seconds:
            return passes


def end_to_end(passes, setup_s):
    from perfbench.metrics import summarize_latencies

    latency = summarize_latencies([[o.latency for o in p[0]] for p in passes])
    accuracy = max(max(p[1].values()) for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "latency_p50_s": (latency.p50, "s"),
        "latency_p90_s": (latency.tail, "s"),
        "wall_s": (latency.total, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "accuracy_err": (accuracy, "1"),
    }
    notes = [
        f"latency samples: {latency.samples} requests (each the fastest "
        f"of {len(passes)} pass(es)); latency_p90_s is the "
        f"p{latency.tail_level * 100:.1f}",
    ]
    return values, notes


def per_layer(passes, setup_spans, untraced_walls):
    from perfbench.spans import (
        DETERMINISTIC,
        LAYER_UNITS,
        layer_metrics,
        layer_shares,
        recorder_cost_per_span,
        span_durations,
    )

    traced = [(layer_metrics(*p[3]), p[2], len(p[3][0]))
              for p in passes if p[3] is not None]
    first = traced[0][0]
    changed = sorted({k for other, _wall, _spans in traced[1:]
                      for k in DETERMINISTIC if other[k] != first[k]})
    if len(traced) < 2:
        notes = ["determinism: one traced pass, nothing to compare"]
    else:
        notes = [f"determinism: {len(traced)} traced passes, counters "
                 + ("differ: " + ", ".join(changed) if changed
                    else "identical")]
    values = {
        name: statistics.median(t[0][name] for t in traced)
        for name in first
    }
    traced_wall = statistics.median(t[1] for t in traced)
    spans = statistics.median(t[2] for t in traced)
    values["kernels.build_s"] = span_durations(setup_spans)["kernels.build"]
    values["trace.overhead_s"] = traced_wall - statistics.median(
        untraced_walls)
    values["trace.recorder_s"] = spans * recorder_cost_per_span()
    values["trace.spans"] = spans
    shares = layer_shares(values, traced_wall)
    table = ", ".join(f"{k} {v * 100:.1f}%" for k, v in
                      sorted(shares.items(), key=lambda kv: -kv[1]))
    notes.append(f"layer shares of the traced pass wall "
                 f"({traced_wall:.3f} s): {table}")
    metrics = {k: (values[k], LAYER_UNITS[k]) for k in LAYER_UNITS}
    return metrics, notes, not changed


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the repro sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    work = ROOT / ".bench_build" / "perfbench"
    scratch = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Keep the C compiler's temporary files inside the checkout too.
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    try:
        return run(args, work, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, work, scratch):
    import_start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.metrics import count_failures
    from perfbench.spans import Recorder
    from perfbench.workloads import WORKLOADS
    from repro.kernels.backends import resolve_mode

    for module in ("repro.api", "repro.service", "repro.wampde",
                   "repro.steadystate", "repro.mpde", "repro.transient",
                   "repro.analysis"):
        importlib.import_module(module)
    import_s = time.perf_counter() - import_start
    workload = WORKLOADS[args.workload]
    setup_recorder = Recorder() if args.trace else None
    ctx, setup_times = set_up(workload, args.seed, scratch, setup_recorder)
    setup_s = import_s + statistics.median(setup_times)

    passes = measure(workload, ctx, args.seconds, args.trace)
    outcomes = [o for p in passes for o in p[0]]
    attempted, failed = count_failures(outcomes)
    notes = [
        f"workload {workload.name} seed {args.seed}: {len(passes)} pass(es) "
        f"of {len(ctx['requests'])} requests, closed loop, 1 client",
        f"kernel_mode {resolve_mode('auto')[0]}, BLAS/OpenMP threads 1, "
        f"nproc {os.cpu_count()}",
        f"setup: import {import_s:.3f} s + median of "
        f"{[round(t, 3) for t in setup_times]} s",
        f"fail_frac {failed / attempted:.4f} ({failed}/{attempted})",
    ]
    if resolve_mode("auto")[0] != "c":
        notes.append("WARNING: no C kernels on this host; these figures are "
                     "not comparable with C-kernel runs")
    notes += [f"FAILED {o.label}: {o.reason}" for o in outcomes if not o.ok]
    correct = failed == 0
    try:
        if args.trace:
            untraced = [p[2] for p in passes if p[3] is None]
            metrics, more, repeatable = per_layer(
                passes, setup_recorder.spans, untraced)
            correct = correct and repeatable
            path = work / f"trace-{workload.name}-seed{args.seed}.jsonl"
            # The set-up and the first traced pass: every traced pass
            # repeats the same requests, and a pass can hold 10^5 spans.
            recorder = Recorder()
            recorder.spans = setup_recorder.spans + passes[0][3][0]
            recorder.write_jsonl(path)
            more.append(f"spans written to {path.relative_to(ROOT)}")
        else:
            metrics, more = end_to_end(passes, setup_s)
    except (KeyError, ValueError) as exc:
        # A missing anchor error means an anchor request failed.
        print(f"perfbench: cannot compute metrics: {exc!r}", file=sys.stderr)
        metrics, more, correct = None, [], False
    for line in notes + more:
        print(line)
    if metrics is None:
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Worker-side execution of analysis requests.

:func:`execute_payload` is the single function the service ships to its
process pool (it must stay module-level so the pool can pickle it by
reference).  Transport is plain pickle — requests, warm-start seeds and
results are ordinary objects of this library — while content keys,
caching and streaming use the tagged JSON of :mod:`repro.api.serialize`.
"""

from __future__ import annotations

import dataclasses

from repro.service.streaming import StreamSink


def _with_streaming(request, sink, every):
    """A copy of ``request`` whose engine options stream checkpoints.

    Only engines with the PR-6 checkpoint seams (``checkpoint_every`` /
    ``checkpoint_path`` options) can stream; other requests are returned
    unchanged and simply produce no partials.
    """
    options = getattr(request, "options", None)
    if options is None or not hasattr(options, "checkpoint_every"):
        return request
    options = dataclasses.replace(
        options, checkpoint_every=int(every), checkpoint_path=sink
    )
    return dataclasses.replace(request, options=options)


def execute_payload(request, warm_start=None, stream_queue=None,
                    stream_every=0):
    """Run one request (or shard) and return its result object.

    Parameters
    ----------
    request:
        An :class:`~repro.api.requests.AnalysisRequest`.
    warm_start:
        Optional :class:`~repro.service.cache.WarmStart` seed.
    stream_queue:
        Queue-like object (``put(item)``) receiving serialized partial
        results while the run progresses; ``None`` disables streaming.
    stream_every:
        Checkpoint/stream cadence in accepted steps (with streaming on).
    """
    from repro.api.requests import run

    if stream_queue is not None and stream_every > 0:
        request = _with_streaming(
            request, StreamSink(stream_queue), stream_every
        )
    return run(request, warm_start=warm_start)

"""Streaming of partial results out of running jobs.

Reuses the two protocols the library already has instead of inventing a
wire format:

* every march takes periodic :class:`~repro.resilience.checkpoint.Checkpoint`
  snapshots through :class:`~repro.resilience.march.March`, and each one
  carries the partial result of the stored trajectory prefix (the same
  object a failing march attaches to its error) — a :class:`StreamSink`
  rides the checkpoint cadence by acting as the manager's *callable
  path*, reads that partial and puts its serialized form on a queue;
* the payload on the queue is the tagged JSON of
  :mod:`repro.api.serialize`, so a streamed prefix decodes to a regular
  result object whose arrays are bit-identical with the corresponding
  prefix of the final result.
"""

from __future__ import annotations

from repro.api.serialize import from_jsonable, to_jsonable
from repro.resilience.march import (
    partial_result as partial_result_from_checkpoint,
)


class StreamSink:
    """Callable checkpoint sink feeding a queue of serialized partials.

    Instances are picklable (the queue is a multiprocessing manager
    proxy when the job runs in a worker process), so the sink can be
    installed as ``options.checkpoint_path`` on the far side of the
    process boundary.
    """

    def __init__(self, queue):
        self.queue = queue

    def __call__(self, checkpoint):
        self.queue.put({
            "step": int(checkpoint.step),
            "t": float(checkpoint.t),
            "partial": to_jsonable(partial_result_from_checkpoint(checkpoint)),
        })


def decode_stream_item(item):
    """``(step, t, partial_result)`` from one queued stream payload."""
    return item["step"], item["t"], from_jsonable(item["partial"])

"""Latency percentiles, failure counting and run-to-run spread."""

from __future__ import annotations

import statistics
from dataclasses import dataclass


def percentile(values, level):
    """Linearly interpolated percentile of ``values`` at ``level`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = level * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (
        position - lower)


def tail_level(count, target=0.9, beyond=10):
    """Highest percentile level, at most ``target``, with at least
    ``beyond`` of ``count`` samples above it — never below the median."""
    return max(0.5, min(target, 1.0 - beyond / count))


@dataclass
class LatencySummary:
    p50: float
    tail: float
    tail_level: float
    samples: int
    #: Time to finish the request set once: the sum of the samples.
    total: float


def summarize_latencies(passes):
    """Median, tail and total latency of a fixed request set.

    ``passes`` holds one list of per-request latencies per pass over the
    same request set.  Each request's latency is its fastest over the
    passes (the ``timeit`` convention): other processes on the host only
    ever add time, so the fastest repeat is the steadiest estimate of
    what the request costs.  The sample count is the request-set size,
    so the tail level (:func:`tail_level`) does not depend on how many
    passes fit in the run.
    """
    per_request = [min(column) for column in zip(*passes)]
    level = tail_level(len(per_request))
    return LatencySummary(
        p50=statistics.median(per_request),
        tail=percentile(per_request, level),
        tail_level=level,
        samples=len(per_request),
        total=sum(per_request),
    )


@dataclass
class Outcome:
    """One executed request: its latency and whether it passed its check."""

    label: str
    latency: float
    ok: bool
    reason: str = ""


def count_failures(outcomes):
    """``(attempted, failed)`` over executed requests."""
    attempted = len(outcomes)
    failed = sum(1 for outcome in outcomes if not outcome.ok)
    return attempted, failed


def relative_spread(values):
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median

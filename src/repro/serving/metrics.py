"""Latency and throughput accounting for serving runs."""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence, TypeVar

import numpy as np

from repro.bounds import within
from repro.serving.request import Response

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class LatencyStats:
    """Summary of a set of completed requests."""

    count: int
    images: int
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    max_latency: float
    duration: float
    throughput_rps: float      # requests / second
    throughput_ips: float      # images / second
    mean_queue_delay: float

    @classmethod
    def empty(cls) -> "LatencyStats":
        return cls(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def nearest_rank_quantile(values: list[float], frac: float) -> float:
    """Rounded-rank quantile of raw samples (0.0 when empty).

    Returns ``sorted(values)[round(frac * (n - 1))]`` with Python's
    half-to-even rounding.  Unlike ``np.percentile`` this never
    interpolates, but it is not the textbook nearest rank (see
    :func:`ceil_rank`): on ``[1, 2, 3, 4]`` at 0.5 it returns 3.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       round(frac * (len(ordered) - 1)))]


def ceil_rank(ordered: Sequence[T], frac: float) -> T:
    """Textbook nearest-rank quantile of an already-sorted sequence.

    Returns ``ordered[ceil(frac * n) - 1]`` (the first element at
    ``frac`` 0); on ``[1, 2, 3, 4]`` at 0.5 it returns 2.  Raises
    ``IndexError`` when ``ordered`` is empty.
    """
    return ordered[max(0, math.ceil(frac * len(ordered)) - 1)]


def summarize_responses(responses: list[Response],
                        warmup_fraction: float = 0.0) -> LatencyStats:
    """Aggregate responses into :class:`LatencyStats`.

    ``warmup_fraction`` drops the earliest completions (cold queues bias
    throughput measurements; standard benchmarking practice).  The
    measurement window then starts at the warmup *boundary* — the last
    dropped completion — not at the kept requests' earliest arrival:
    kept requests typically arrived before the cut, and anchoring the
    window on those arrivals stretches the duration and deflates the
    very throughput the warmup cut was meant to stabilize.
    """
    within("warmup_fraction", warmup_fraction, "[0, 1)")
    if not responses:
        return LatencyStats.empty()
    ordered = sorted(responses, key=lambda r: r.completion_time)
    skip = int(len(ordered) * warmup_fraction)
    kept = ordered[skip:]
    if not kept:
        return LatencyStats.empty()

    latencies = np.array([r.latency for r in kept])
    queue_delays = np.array([r.queue_delay for r in kept])
    images = sum(r.request.num_images for r in kept)
    if skip:
        start = ordered[skip - 1].completion_time
    else:
        start = min(r.request.arrival_time for r in kept)
    end = max(r.completion_time for r in kept)
    duration = max(end - start, 1e-12)
    return LatencyStats(
        count=len(kept),
        images=images,
        mean_latency=float(latencies.mean()),
        p50_latency=float(np.percentile(latencies, 50)),
        p95_latency=float(np.percentile(latencies, 95)),
        p99_latency=float(np.percentile(latencies, 99)),
        max_latency=float(latencies.max()),
        duration=duration,
        throughput_rps=len(kept) / duration,
        throughput_ips=images / duration,
        mean_queue_delay=float(queue_delays.mean()),
    )

"""Deterministic reductions over sweep shard results.

Every reduction here is commutative; counts, maxima, and bucket-walk
quantiles are exactly associative too, while floating-point *sums*
(histogram sums, summary means) are associative only to the ULP.  The
engine therefore always folds in shard-index order —
:meth:`~repro.sweep.runner.SweepResult.values` is index-sorted — which
is what makes merged output byte-identical for any worker count or
completion order:

* :class:`BucketSummary` — mergeable latency summary statistics.
  Quantiles come from **bucket re-accumulation** (merge the counts,
  then walk the cumulative distribution), never from averaging the
  shards' quantiles: the mean of eight p95s is not a p95, and gets
  worse the more skewed the shards are.
* :func:`merge_registries` — fold shard
  :class:`~repro.serving.observability.MetricsRegistry` objects into a
  fresh one (counters add, gauges keep the freshest reading,
  histograms add per bucket with layout validation).
* :func:`normal_ci` — a deterministic aggregate confidence interval
  across per-shard scalars (normal approximation; no bootstrap RNG,
  so sweep tables reproduce byte for byte).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

#: Default latency bounds (seconds) for :class:`BucketSummary` —
#: matches :data:`repro.serving.observability.DEFAULT_BUCKETS` so a
#: summary and a registry histogram built from the same samples agree.
DEFAULT_SUMMARY_BOUNDS: tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
)

#: z-scores for the confidence levels the CLI exposes.
_Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclasses.dataclass
class BucketSummary:
    """Mergeable summary statistics over one metric's samples.

    Holds fixed-bound bucket counts plus exact sum/count/min/max, so
    shards can be reduced without ever re-touching raw samples.  The
    quantile error is bounded by bucket width (Prometheus semantics:
    a quantile reports its bucket's upper bound, sharpened by the
    exact observed min/max) — and crucially it is *identical* whether
    the samples were accumulated in one process or merged from sixteen.
    """

    bounds: tuple[float, ...]
    counts: list[int]
    total: float = 0.0
    count: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf

    @classmethod
    def empty(cls, bounds: Sequence[float] = DEFAULT_SUMMARY_BOUNDS,
              ) -> "BucketSummary":
        bounds = tuple(sorted(bounds))
        if not bounds:
            raise ValueError("a summary needs at least one bound")
        return cls(bounds=bounds, counts=[0] * (len(bounds) + 1))

    @classmethod
    def from_values(cls, values: Iterable[float],
                    bounds: Sequence[float] = DEFAULT_SUMMARY_BOUNDS,
                    ) -> "BucketSummary":
        summary = cls.empty(bounds)
        for value in values:
            summary.observe(float(value))
        return summary

    def observe(self, value: float) -> None:
        """Record one sample (first bound >= value, overflow last)."""
        from bisect import bisect_left

        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "BucketSummary") -> "BucketSummary":
        """Fold another summary in; ``ValueError`` on layout conflict."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"summary bucket layouts conflict: {self.bounds} vs "
                f"{other.bounds}")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def mean(self) -> float:
        """Exact mean of every observed sample (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Quantile by cumulative bucket re-accumulation.

        Walks the merged cumulative counts to the first bucket holding
        the ``q``-th sample and reports its upper bound, clamped into
        the exact observed ``[minimum, maximum]`` range (the overflow
        bucket has no finite bound; the recorded maximum is its
        witness).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, count in enumerate(self.counts):
            running += count
            if running >= target and count:
                bound = (self.bounds[index]
                         if index < len(self.bounds) else self.maximum)
                return max(self.minimum, min(bound, self.maximum))
        return self.maximum

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (used by the sweep CLI)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def merge_registries(registries: Iterable) -> object:
    """Fold shard registries into a fresh ``MetricsRegistry``.

    The originals are untouched; the merged registry's
    :func:`~repro.serving.exporter.export_registry` scrape is
    byte-identical for any ordering of ``registries`` over the same
    shard set.
    """
    from repro.serving.observability import MetricsRegistry

    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    return merged


def merge_summaries(summaries: Iterable[BucketSummary]) -> BucketSummary:
    """Fold shard :class:`BucketSummary` objects into a fresh one."""
    merged: BucketSummary | None = None
    for summary in summaries:
        if merged is None:
            merged = BucketSummary.empty(summary.bounds)
        merged.merge(summary)
    if merged is None:
        raise ValueError("merge_summaries needs at least one summary")
    return merged


def normal_ci(values: Sequence[float], confidence: float = 0.95,
              ) -> tuple[float, float]:
    """``(mean, half_width)`` of a normal-approximation CI.

    Deterministic by construction (closed form, no resampling) so
    sweep tables reproduce byte for byte; with fewer than two values
    the half-width is 0.  ``confidence`` must be one of 0.90 / 0.95 /
    0.99 — the z-table the CLI exposes.
    """
    z = _Z_SCORES.get(round(confidence, 2))
    if z is None:
        raise ValueError(
            f"confidence must be one of {sorted(_Z_SCORES)}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("normal_ci needs at least one value")
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, z * math.sqrt(variance / n)

"""Statistical utilities for benchmark results.

Measurement hygiene for the harness: bootstrap confidence intervals on
latency/throughput summaries.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class ConfidenceInterval:
    """A bootstrap interval for one statistic."""

    statistic: str
    estimate: float
    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        """Interval width (high - low)."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Whether the interval covers ``value``."""
        return self.low <= value <= self.high


def bootstrap_ci(samples, statistic=np.mean, confidence: float = 0.95,
                 resamples: int = 2000, seed: int = 0,
                 name: str = "mean") -> ConfidenceInterval:
    """Percentile-bootstrap CI of ``statistic`` over ``samples``."""
    samples = np.asarray(list(samples), dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if resamples < 10:
        raise ValueError("resamples must be >= 10")
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, samples.size, size=(resamples, samples.size))
    stats = statistic(samples[indices], axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.percentile(stats, [100 * alpha, 100 * (1 - alpha)])
    return ConfidenceInterval(
        statistic=name,
        estimate=float(statistic(samples)),
        low=float(low),
        high=float(high),
        confidence=confidence,
    )


def latency_cis(latencies, confidence: float = 0.95,
                seed: int = 0) -> dict[str, ConfidenceInterval]:
    """Bootstrap CIs for the summary statistics the harness reports."""
    latencies = np.asarray(list(latencies), dtype=float)
    return {
        "mean": bootstrap_ci(latencies, np.mean, confidence, seed=seed,
                             name="mean"),
        "p95": bootstrap_ci(
            latencies, lambda a, axis=None: np.percentile(a, 95,
                                                          axis=axis),
            confidence, seed=seed, name="p95"),
    }

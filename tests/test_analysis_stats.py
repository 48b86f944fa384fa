"""Tests for repro.analysis.stats — bootstrap statistics."""

import numpy as np
import pytest

from repro.analysis.stats import bootstrap_ci, latency_cis


class TestBootstrapCI:
    def test_interval_brackets_the_estimate(self, rng):
        samples = rng.normal(10.0, 2.0, size=200)
        ci = bootstrap_ci(samples)
        assert ci.low <= ci.estimate <= ci.high

    def test_covers_the_true_mean(self, rng):
        samples = rng.normal(5.0, 1.0, size=500)
        ci = bootstrap_ci(samples, confidence=0.99)
        assert ci.contains(5.0)

    def test_width_shrinks_with_sample_size(self, rng):
        small = bootstrap_ci(rng.normal(0, 1, size=20), seed=1)
        large = bootstrap_ci(rng.normal(0, 1, size=2000), seed=1)
        assert large.width < small.width

    def test_deterministic_given_seed(self, rng):
        samples = rng.normal(0, 1, size=50)
        a = bootstrap_ci(samples, seed=7)
        b = bootstrap_ci(samples, seed=7)
        assert (a.low, a.high) == (b.low, b.high)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], resamples=5)

    def test_latency_cis_keys(self, rng):
        cis = latency_cis(rng.exponential(0.01, size=300))
        assert set(cis) == {"mean", "p95"}
        assert cis["p95"].estimate > cis["mean"].estimate

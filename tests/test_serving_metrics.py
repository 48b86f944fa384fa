"""Tests for the raw-sample quantile helpers in serving.metrics."""

import pytest

from repro.serving.metrics import ceil_rank, nearest_rank_quantile


class TestQuantileHelpers:
    def test_the_two_rank_rules_differ_at_the_median_of_four(self):
        # faas and sweep report the rounded rank, cache, network and
        # the critical-path witness the ceil rank; swapping one for the
        # other moves those published numbers.
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank_quantile(values, 0.5) == 3.0
        assert ceil_rank(values, 0.5) == 2.0

    def test_ceil_rank_bounds(self):
        values = [10.0, 20.0, 30.0]
        assert ceil_rank(values, 0.0) == 10.0
        assert ceil_rank(values, 1.0) == 30.0
        assert ceil_rank(values, 0.95) == 30.0
        with pytest.raises(IndexError):
            ceil_rank([], 0.5)

    def test_rounded_rank_sorts_and_handles_empty(self):
        assert nearest_rank_quantile([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0
        assert nearest_rank_quantile([], 0.99) == 0.0

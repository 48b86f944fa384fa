"""Tests for repro.serving.batcher — Triton dynamic batching semantics."""

import pytest

from repro.serving.batcher import BatcherConfig, DynamicBatcher
from repro.serving.request import Request


def req(n=1, model="m"):
    return Request(model, num_images=n)


class TestConfig:
    def test_defaults(self):
        config = BatcherConfig()
        assert config.max_batch_size == 64
        assert config.enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            BatcherConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            BatcherConfig(max_queue_delay=-1)
        with pytest.raises(ValueError):
            BatcherConfig(max_batch_size=8, preferred_batch_sizes=(16,))
        with pytest.raises(ValueError, match="max_queue_delay"):
            BatcherConfig(max_queue_delay=float("nan"))


class TestReadiness:
    def test_empty_queue_never_ready(self):
        batcher = DynamicBatcher(BatcherConfig())
        assert not batcher.ready(now=100.0)

    def test_full_batch_is_immediately_ready(self):
        batcher = DynamicBatcher(BatcherConfig(max_batch_size=4,
                                               max_queue_delay=10.0))
        for _ in range(4):
            batcher.enqueue(req(), now=0.0)
        assert batcher.ready(now=0.0)

    def test_partial_batch_waits_for_delay(self):
        batcher = DynamicBatcher(BatcherConfig(max_batch_size=4,
                                               max_queue_delay=0.01))
        batcher.enqueue(req(), now=0.0)
        assert not batcher.ready(now=0.005)
        assert batcher.ready(now=0.01)

    def test_ready_tolerates_float_roundoff(self):
        # The regression behind the server's delay-timer livelock.
        delay = 0.002
        enqueue_at = 0.022719478673441063
        batcher = DynamicBatcher(BatcherConfig(max_batch_size=8,
                                               max_queue_delay=delay))
        batcher.enqueue(req(), now=enqueue_at)
        assert batcher.ready(now=enqueue_at + delay)

    def test_disabled_batching_always_ready(self):
        batcher = DynamicBatcher(BatcherConfig(enabled=False,
                                               max_queue_delay=100.0))
        batcher.enqueue(req(), now=0.0)
        assert batcher.ready(now=0.0)

    def test_next_deadline(self):
        batcher = DynamicBatcher(BatcherConfig(max_queue_delay=0.5))
        assert batcher.next_deadline() is None
        batcher.enqueue(req(), now=2.0)
        assert batcher.next_deadline() == pytest.approx(2.5)


class TestBatchFormation:
    def test_batch_caps_at_max_size(self):
        batcher = DynamicBatcher(BatcherConfig(max_batch_size=4))
        for _ in range(10):
            batcher.enqueue(req(), now=0.0)
        batch = batcher.form_batch()
        assert len(batch) == 4
        assert batcher.queued_images == 6

    def test_fifo_order(self):
        batcher = DynamicBatcher(BatcherConfig(max_batch_size=2))
        first, second, third = req(), req(), req()
        for r in (first, second, third):
            batcher.enqueue(r, now=0.0)
        assert batcher.form_batch() == [first, second]

    def test_multi_image_requests_not_split(self):
        batcher = DynamicBatcher(BatcherConfig(max_batch_size=4))
        batcher.enqueue(req(3), now=0.0)
        batcher.enqueue(req(3), now=0.0)
        batch = batcher.form_batch()
        assert len(batch) == 1  # the second 3-image request won't fit

    def test_oversized_single_request_still_dispatches(self):
        # A request larger than max_batch_size must not deadlock.
        batcher = DynamicBatcher(BatcherConfig(max_batch_size=4))
        batcher.enqueue(req(10), now=0.0)
        assert len(batcher.form_batch()) == 1

    def test_preferred_sizes_round_down(self):
        batcher = DynamicBatcher(BatcherConfig(
            max_batch_size=64, preferred_batch_sizes=(8, 16, 32)))
        for _ in range(20):
            batcher.enqueue(req(), now=0.0)
        assert len(batcher.form_batch()) == 16

    def test_preferred_sizes_ignored_when_queue_small(self):
        batcher = DynamicBatcher(BatcherConfig(
            max_batch_size=64, preferred_batch_sizes=(32,)))
        for _ in range(5):
            batcher.enqueue(req(), now=0.0)
        assert len(batcher.form_batch()) == 5

    def test_disabled_batching_single_dispatch(self):
        batcher = DynamicBatcher(BatcherConfig(enabled=False))
        batcher.enqueue(req(), now=0.0)
        batcher.enqueue(req(), now=0.0)
        assert len(batcher.form_batch()) == 1

    def test_form_on_empty_queue_raises(self):
        with pytest.raises(RuntimeError):
            DynamicBatcher(BatcherConfig()).form_batch()

    def test_len_counts_requests(self):
        batcher = DynamicBatcher(BatcherConfig())
        batcher.enqueue(req(5), now=0.0)
        assert len(batcher) == 1
        assert batcher.queued_images == 5

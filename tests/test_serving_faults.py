"""Failure-injection tests: faults, retries, and backpressure."""

from collections import Counter

import pytest

from repro.serving.batcher import BatcherConfig, QueueFullError
from repro.serving.faults import FaultModel
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer


class TestFaultModel:
    def test_probability_zero_never_fails(self):
        model = FaultModel(0.0)
        assert not any(model.draw_failure() for _ in range(100))

    def test_probability_one_always_fails(self):
        model = FaultModel(1.0)
        assert all(model.draw_failure() for _ in range(10))
        assert model.injected == 10

    def test_deterministic_given_seed(self):
        a = [FaultModel(0.5, seed=3).draw_failure() for _ in range(1)]
        b = [FaultModel(0.5, seed=3).draw_failure() for _ in range(1)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(1.5)
        with pytest.raises(ValueError):
            FaultModel(0.5, detect_seconds=-1)

    @pytest.mark.parametrize("detect", [float("nan"), float("inf")])
    def test_nan_or_infinite_detection_rejected(self, detect):
        with pytest.raises(ValueError):
            FaultModel(0.5, detect_seconds=detect)


def faulty_server(prob, retries, detect=0.05, seed=1, **batcher_kw):
    server = TritonLikeServer()
    server.register(ModelConfig(
        "m", lambda n: 0.01,
        batcher=BatcherConfig(enabled=False, **batcher_kw),
        fault_model=FaultModel(prob, detect_seconds=detect, seed=seed),
        max_retries=retries))
    return server


class TestRetries:
    def test_transient_faults_recovered_by_retry(self):
        server = faulty_server(prob=0.3, retries=3)
        for _ in range(100):
            server.submit(Request("m"))
        responses = server.run()
        statuses = Counter(r.status for r in responses)
        assert statuses["ok"] >= 95  # 0.3^4 residual failure odds
        assert len(responses) == 100

    def test_zero_retries_fail_fast(self):
        server = faulty_server(prob=1.0, retries=0)
        server.submit(Request("m"))
        [response] = server.run()
        assert response.status == "failed"

    def test_failed_requests_counted_not_lost(self):
        server = faulty_server(prob=1.0, retries=2)
        for _ in range(10):
            server.submit(Request("m"))
        responses = server.run()
        assert len(responses) == 10
        assert all(r.status == "failed" for r in responses)

    def test_detection_window_adds_latency(self):
        # A single fault + successful retry costs ~detect + service.
        server = faulty_server(prob=1.0, retries=1, detect=0.2)
        # Force exactly one failure by flipping the model after start:
        server._models["m"].fault_model.failure_probability = 1.0
        server.submit(Request("m"))

        def clear():  # after the first failure, stop injecting
            server._models["m"].fault_model.failure_probability = 0.0

        server.sim.schedule(0.1, clear)
        [response] = server.run()
        assert response.status == "ok"
        assert response.latency == pytest.approx(0.2 + 0.01, abs=1e-6)

    def test_failure_stats_recorded(self):
        server = faulty_server(prob=1.0, retries=0)
        server.submit(Request("m"))
        server.run()
        [stats] = server.instance_stats("m")
        assert stats.failures == 1
        assert stats.batches_served == 0

    def test_fault_time_counts_toward_utilization(self):
        # Regression: a failed execution occupies the instance for the
        # whole detection window; before the fix that time vanished
        # from the stats, so fault injection *lowered* reported
        # utilization while the instance was actually saturated.
        server = faulty_server(prob=1.0, retries=0, detect=0.2)
        server.submit(Request("m"))
        server.run()
        [stats] = server.instance_stats("m")
        assert stats.fault_seconds == pytest.approx(0.2)
        assert stats.busy_seconds == 0.0
        # The slot was occupied for the entire elapsed window.
        assert stats.utilization(server.sim.now) == pytest.approx(1.0)

    def test_mixed_run_accounts_both_components(self):
        # One failed attempt (0.2 s detection) + one successful retry
        # (0.01 s service): both occupy the instance.
        server = faulty_server(prob=1.0, retries=1, detect=0.2)
        server.submit(Request("m"))

        def clear():
            server._models["m"].fault_model.failure_probability = 0.0

        server.sim.schedule(0.1, clear)
        [response] = server.run()
        assert response.status == "ok"
        [stats] = server.instance_stats("m")
        assert stats.fault_seconds == pytest.approx(0.2)
        assert stats.busy_seconds == pytest.approx(0.01)
        assert stats.utilization(server.sim.now) == pytest.approx(1.0)


class TestBackpressure:
    def test_bounded_queue_rejects_overflow(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 1.0,
            batcher=BatcherConfig(enabled=False, max_queue_size=3)))
        for _ in range(10):
            server.submit(Request("m"))
        responses = server.run()
        statuses = Counter(r.status for r in responses)
        # 1 executing + 3 queued survive the initial burst; the rest
        # bounce immediately.
        assert statuses["rejected"] == 6
        assert statuses["ok"] == 4

    def test_rejections_complete_instantly(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 1.0,
            batcher=BatcherConfig(enabled=False, max_queue_size=1)))
        for _ in range(5):
            server.submit(Request("m"))
        responses = server.run()
        rejected = [r for r in responses if r.status == "rejected"]
        assert rejected
        assert all(r.latency == 0.0 for r in rejected)

    def test_unbounded_queue_never_rejects(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 0.001,
            batcher=BatcherConfig(enabled=False)))
        for _ in range(100):
            server.submit(Request("m"))
        assert all(r.ok for r in server.run())

    def test_queue_full_error_direct(self):
        from repro.serving.batcher import DynamicBatcher

        batcher = DynamicBatcher(BatcherConfig(max_queue_size=2))
        batcher.enqueue(Request("m"), now=0.0)
        batcher.enqueue(Request("m"), now=0.0)
        with pytest.raises(QueueFullError, match="full"):
            batcher.enqueue(Request("m"), now=0.0)

    def test_multi_image_request_counts_against_limit(self):
        from repro.serving.batcher import DynamicBatcher

        batcher = DynamicBatcher(BatcherConfig(max_queue_size=4))
        batcher.enqueue(Request("m", num_images=3), now=0.0)
        with pytest.raises(QueueFullError):
            batcher.enqueue(Request("m", num_images=2), now=0.0)


class TestEnsembleFaultInteraction:
    def test_consumer_failure_fails_the_request_once(self):
        from repro.serving.server import EnsembleConfig

        server = TritonLikeServer()
        server.register(ModelConfig(
            "pre", lambda n: 0.01, batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig(
            "good", lambda n: 0.01, batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig(
            "bad", lambda n: 0.01, batcher=BatcherConfig(enabled=False),
            fault_model=FaultModel(1.0, seed=2), max_retries=0))
        server.register_ensemble(EnsembleConfig("e", "pre",
                                                ("good", "bad")))
        server.submit(Request("e"))
        responses = server.run()
        assert len(responses) == 1
        assert responses[0].status == "failed"

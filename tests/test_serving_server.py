"""Tests for repro.serving.server, instance, client and metrics."""

import pytest

from repro.serving.batcher import BatcherConfig
from repro.serving.client import ClosedLoopClient, OpenLoopClient
from repro.serving.events import Simulator
from repro.serving.instance import BackendInstance
from repro.serving.metrics import summarize_responses
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer
from repro.serving.tracectx import TraceContext


def constant_service(seconds):
    return lambda images: seconds


class TestBackendInstance:
    def test_executes_and_reports(self):
        sim = Simulator()
        inst = BackendInstance("m#0", constant_service(0.5), sim)
        done = []
        inst.execute([Request("m")], done.append)
        assert inst.busy
        sim.run()
        assert not inst.busy
        assert len(done) == 1
        assert inst.stats.batches_served == 1
        assert inst.stats.busy_seconds == 0.5

    def test_double_execute_rejected(self):
        sim = Simulator()
        inst = BackendInstance("m#0", constant_service(0.5), sim)
        inst.execute([Request("m")], lambda b: None)
        with pytest.raises(RuntimeError, match="busy"):
            inst.execute([Request("m")], lambda b: None)

    def test_empty_batch_rejected(self):
        inst = BackendInstance("m#0", constant_service(0.1), Simulator())
        with pytest.raises(ValueError):
            inst.execute([], lambda b: None)

    def test_first_start_and_span_stamped(self):
        sim = Simulator()
        inst = BackendInstance("m#0", constant_service(0.25), sim)
        request = Request("m", trace=TraceContext(1))
        inst.execute([request], lambda b: None)
        sim.run()
        assert request.first_start == 0.0
        [span] = request.trace.find("execute")
        assert (span.start, span.end) == (0.0, 0.25)
        assert span.args["instance"] == "m#0"
        assert span.args["attempt"] == 0

    def test_negative_service_time_rejected(self):
        inst = BackendInstance("m#0", lambda n: -1.0, Simulator())
        with pytest.raises(ValueError):
            inst.execute([Request("m")], lambda b: None)

    def test_nan_service_time_rejected(self):
        # Served through the whole stack: the run raises instead of
        # spinning on an unfireable NaN completion event.
        server = TritonLikeServer()
        server.register(ModelConfig("m", constant_service(float("nan"))))
        server.submit(Request("m"))
        with pytest.raises(ValueError, match="service time .* NaN"):
            server.run()


class TestServerBasics:
    def make_server(self, service=0.01, **batcher_kw):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", constant_service(service),
            batcher=BatcherConfig(**batcher_kw)))
        return server

    def test_single_request_roundtrip(self):
        server = self.make_server(max_queue_delay=0.0)
        server.submit(Request("m"))
        responses = server.run()
        assert len(responses) == 1
        assert responses[0].latency == pytest.approx(0.01)

    def test_unknown_model_rejected(self):
        server = self.make_server()
        with pytest.raises(KeyError, match="loaded"):
            server.submit(Request("nope"))

    def test_duplicate_registration_rejected(self):
        server = self.make_server()
        with pytest.raises(ValueError, match="already"):
            server.register(ModelConfig("m", constant_service(0.01)))

    def test_batching_coalesces_requests(self):
        server = self.make_server(max_batch_size=8, max_queue_delay=0.005)
        for _ in range(8):
            server.submit(Request("m"))
        server.run()
        [stats] = server.instance_stats("m")
        assert stats.batches_served == 1
        assert stats.images_served == 8

    def test_queue_delay_flushes_partial_batch(self):
        server = self.make_server(max_batch_size=64,
                                  max_queue_delay=0.002)
        server.submit(Request("m"))
        responses = server.run()
        # waited out the 2 ms delay, then served in 10 ms.
        assert responses[0].latency == pytest.approx(0.012, abs=1e-6)

    def test_multi_instance_parallelism(self):
        sim = Simulator()
        server = TritonLikeServer(sim)
        server.register(ModelConfig(
            "m", constant_service(1.0), instances=2,
            batcher=BatcherConfig(enabled=False)))
        for _ in range(2):
            server.submit(Request("m"))
        server.run()
        # Two instances serve concurrently: both done at t=1.
        assert sim.now == pytest.approx(1.0)

    def test_single_instance_serializes(self):
        sim = Simulator()
        server = TritonLikeServer(sim)
        server.register(ModelConfig(
            "m", constant_service(1.0),
            batcher=BatcherConfig(enabled=False)))
        for _ in range(2):
            server.submit(Request("m"))
        server.run()
        assert sim.now == pytest.approx(2.0)


class TestReconfigureBatcher:
    def test_shorter_delay_cancels_the_stale_timer(self):
        # Regression: a live swap from 50 ms to 1 ms queue delay must
        # dispatch at the new deadline.  Before the fix the pending
        # 50 ms timer was neither cancelled nor superseded
        # (the stage still counted as armed), so the old deadline
        # silently stayed in force.
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", constant_service(0.01),
            batcher=BatcherConfig(max_batch_size=64,
                                  max_queue_delay=0.05)))
        server.submit(Request("m"))  # arms the 50 ms timer

        def swap():
            server.reconfigure_batcher(
                "m", BatcherConfig(max_batch_size=64,
                                   max_queue_delay=0.001))

        server.sim.schedule(0.0005, swap)
        [response] = server.run()
        # New deadline: enqueue (t=0) + 1 ms, then 10 ms of service —
        # not the stale 50 ms deadline.
        assert response.latency == pytest.approx(0.011, abs=1e-6)

    def test_longer_delay_swap_still_dispatches(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", constant_service(0.01),
            batcher=BatcherConfig(max_batch_size=64,
                                  max_queue_delay=0.001)))
        server.submit(Request("m"))

        def swap():
            server.reconfigure_batcher(
                "m", BatcherConfig(max_batch_size=64,
                                   max_queue_delay=0.02))

        server.sim.schedule(0.0005, swap)
        [response] = server.run()
        assert response.latency == pytest.approx(0.03, abs=1e-6)

    def test_enabling_batching_live_rearms_from_new_config(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", constant_service(0.01),
            batcher=BatcherConfig(max_batch_size=64,
                                  max_queue_delay=0.05)))
        server.submit(Request("m"))

        def swap():  # batching off => immediate FIFO dispatch
            server.reconfigure_batcher("m", BatcherConfig(enabled=False))

        server.sim.schedule(0.002, swap)
        [response] = server.run()
        assert response.latency == pytest.approx(0.012, abs=1e-6)

    def test_unknown_model_rejected(self):
        server = TritonLikeServer()
        with pytest.raises(KeyError):
            server.reconfigure_batcher("nope", BatcherConfig())


class TestEnsembleRouting:
    def test_preprocess_then_infer(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "pre", constant_service(0.2),
            batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig(
            "model", constant_service(0.3),
            batcher=BatcherConfig(enabled=False),
            preprocess_model="pre"))
        request = Request("model", trace=TraceContext(1))
        server.submit(request)
        [response] = server.run()
        assert response.latency == pytest.approx(0.5)
        spans = request.trace.find("execute")
        assert [s.args["instance"] for s in spans] == ["pre#0", "model#0"]
        assert all(s.closed for s in spans)

    def test_preprocess_must_exist_first(self):
        server = TritonLikeServer()
        with pytest.raises(ValueError, match="registered before"):
            server.register(ModelConfig(
                "model", constant_service(0.1),
                preprocess_model="missing"))

    def test_stages_overlap_for_streams(self):
        # With both stages busy simultaneously, total time for N requests
        # approaches N * bottleneck rather than N * (pre + infer).
        sim = Simulator()
        server = TritonLikeServer(sim)
        server.register(ModelConfig(
            "pre", constant_service(0.1),
            batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig(
            "model", constant_service(0.1),
            batcher=BatcherConfig(enabled=False),
            preprocess_model="pre"))
        n = 10
        for _ in range(n):
            server.submit(Request("model"))
        server.run()
        assert sim.now == pytest.approx(0.1 * (n + 1))


class TestClients:
    def test_open_loop_rate(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", constant_service(0.001),
            batcher=BatcherConfig(max_queue_delay=0.001)))
        client = OpenLoopClient(server, "m", rate_per_second=100,
                               num_requests=200, seed=3)
        client.start()
        server.run()
        stats = summarize_responses(server.responses,
                                    warmup_fraction=0.1)
        assert stats.throughput_rps == pytest.approx(100, rel=0.2)

    def test_closed_loop_completes_all(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", constant_service(0.01),
            batcher=BatcherConfig(max_batch_size=4,
                                  max_queue_delay=0.001)))
        client = ClosedLoopClient(server, "m", concurrency=8,
                                  num_requests=50)
        client.start()
        server.run()
        assert len(client.completed) == 50

    def test_closed_loop_higher_concurrency_higher_throughput(self):
        def run(concurrency):
            server = TritonLikeServer()
            server.register(ModelConfig(
                "m", lambda n: 0.005 + 0.001 * n,
                batcher=BatcherConfig(max_batch_size=32,
                                      max_queue_delay=0.001)))
            client = ClosedLoopClient(server, "m", concurrency=concurrency,
                                      num_requests=200)
            client.start()
            server.run()
            return summarize_responses(client.completed,
                                       warmup_fraction=0.2).throughput_ips

        assert run(32) > run(1)

    def test_client_validation(self):
        server = TritonLikeServer()
        server.register(ModelConfig("m", constant_service(0.01)))
        with pytest.raises(ValueError):
            OpenLoopClient(server, "m", rate_per_second=0, num_requests=1)
        with pytest.raises(ValueError, match="rate_per_second"):
            OpenLoopClient(server, "m", rate_per_second=float("nan"),
                           num_requests=1)
        with pytest.raises(ValueError):
            ClosedLoopClient(server, "m", concurrency=5, num_requests=3)


class TestMetrics:
    def test_empty_responses(self):
        stats = summarize_responses([])
        assert stats.count == 0

    def test_percentiles_ordered(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 0.01 * n,
            batcher=BatcherConfig(max_batch_size=16,
                                  max_queue_delay=0.002)))
        client = OpenLoopClient(server, "m", rate_per_second=50,
                               num_requests=100)
        client.start()
        server.run()
        stats = summarize_responses(server.responses)
        assert (stats.p50_latency <= stats.p95_latency
                <= stats.p99_latency <= stats.max_latency)

    def test_warmup_fraction_drops_responses(self):
        server = TritonLikeServer()
        server.register(ModelConfig("m", constant_service(0.01),
                                    batcher=BatcherConfig(
                                        max_queue_delay=0.0)))
        for _ in range(10):
            server.submit(Request("m"))
        server.run()
        assert summarize_responses(server.responses,
                                   warmup_fraction=0.5).count == 5

    def test_invalid_warmup_rejected(self):
        with pytest.raises(ValueError):
            summarize_responses([], warmup_fraction=1.0)

    def test_warmup_window_starts_at_the_boundary(self):
        # Regression: after dropping the earliest completions, the
        # measurement window must start at the warmup boundary (the
        # last dropped completion), not at the kept requests' arrival
        # times — those predate the cut and deflate throughput.
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", constant_service(1.0),
            batcher=BatcherConfig(enabled=False)))
        for _ in range(10):
            server.submit(Request("m"))  # all arrive at t=0
        server.run()  # completions at t = 1..10
        cold = summarize_responses(server.responses)
        warm = summarize_responses(server.responses,
                                   warmup_fraction=0.5)
        # 5 kept completions over the 5 s past the boundary: the
        # steady-state rate, provably not lower than the cold run.
        assert warm.duration == pytest.approx(5.0)
        assert warm.throughput_rps >= cold.throughput_rps - 1e-9
        assert warm.throughput_rps == pytest.approx(1.0)

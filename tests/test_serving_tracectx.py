"""Tests for repro.serving.tracectx — contexts and layer instrumentation."""

import pytest

from repro.analysis.report import registry_stage_breakdown
from repro.continuum.network import get_link
from repro.continuum.pipeline import ContinuumReplayer
from repro.scale.admission import AdmissionConfig, AdmissionController
from repro.scale.balancer import LoadBalancer, RoundRobinPolicy
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.faults import FaultModel
from repro.serving.observability import MetricsRegistry
from repro.serving.request import Request
from repro.serving.server import EnsembleConfig, ModelConfig, \
    TritonLikeServer
from repro.serving.tracectx import SpanRecord, TraceContext, attach, \
    span_of


class TestTraceContext:
    def test_root_opens_at_start(self):
        ctx = TraceContext(7, start=1.5)
        assert ctx.trace_id == 7
        assert ctx.start == 1.5
        assert ctx.root.name == "request"
        assert not ctx.closed

    def test_children_parent_on_root_by_default(self):
        ctx = TraceContext(1)
        a = ctx.begin("a", 0.1)
        b = ctx.begin("b", 0.2, parent=a)
        assert ctx.root.parent_id is None
        assert a.parent_id == ctx.root.span_id
        assert b.parent_id == a.span_id
        assert ctx.children() == [a, b]

    def test_span_ids_sequential(self):
        ctx = TraceContext(1)
        spans = [ctx.begin(f"s{i}", 0.0) for i in range(3)]
        assert [s.span_id for s in spans] == [1, 2, 3]

    def test_end_validations(self):
        ctx = TraceContext(1)
        span = ctx.begin("a", 1.0)
        with pytest.raises(ValueError, match="before it starts"):
            ctx.end(span, 0.5)
        ctx.end(span, 2.0)
        assert span.duration == 1.0
        with pytest.raises(ValueError, match="already closed"):
            ctx.end(span, 3.0)

    def test_instant_has_zero_duration(self):
        ctx = TraceContext(1)
        mark = ctx.instant("decision", 0.4, verdict="admit")
        assert mark.closed and mark.duration == 0.0
        assert mark.args == {"verdict": "admit"}

    def test_close_is_monotonically_reclosable(self):
        # The server closes at respond time; the continuum replayer
        # re-closes after the downlink leg lands — last close wins.
        ctx = TraceContext(1, start=0.0)
        ctx.close(1.0, status="ok")
        ctx.close(1.5, status="ok")
        assert ctx.latency == 1.5
        with pytest.raises(ValueError, match="earlier"):
            ctx.close(1.2)

    def test_find(self):
        ctx = TraceContext(1)
        ctx.begin("execute", 0.0)
        ctx.begin("queue_wait", 0.0)
        ctx.begin("execute", 0.1)
        assert [s.start for s in ctx.find("execute")] == [0.0, 0.1]

    def test_attach_and_span_of(self):
        request = Request("m")
        assert span_of(request) is None
        ctx = attach(request, TraceContext(1))
        assert span_of(request) is ctx


def _traced_request(server, model="m"):
    request = Request(model)
    request.trace = TraceContext(1, start=server.sim.now)
    return request


class TestServerInstrumentation:
    def _server(self, **model_kw):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 0.01,
            batcher=BatcherConfig(max_batch_size=4,
                                  max_queue_delay=0.005),
            **model_kw))
        return server

    def test_queue_wait_and_execute_spans(self):
        server = self._server()
        request = _traced_request(server)
        server.submit(request)
        [response] = server.run()
        ctx = request.trace
        assert response.ok and ctx.closed and ctx.status == "ok"
        [wait] = ctx.find("queue_wait")
        [execute] = ctx.find("execute")
        [dispatch] = ctx.find("batch_dispatch")
        assert wait.closed and wait.end == dispatch.start
        assert execute.start >= wait.end
        assert execute.args["attempt"] == 0
        assert execute.end == ctx.root.end
        # Spans partition the request: no untracked gap at the seams.
        assert wait.start == ctx.start

    def test_retry_spans_carry_attempt_index(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 0.01,
            batcher=BatcherConfig(enabled=False),
            fault_model=FaultModel(1.0, detect_seconds=0.02),
            max_retries=1))
        request = _traced_request(server)
        server.submit(request)
        [response] = server.run()
        assert response.status == "failed"
        attempts = ctx_attempts = [s.args["attempt"]
                                   for s in request.trace.find("execute")]
        assert attempts == [0, 1]
        assert all(s.args["outcome"] == "fault"
                   for s in request.trace.find("execute"))
        assert ctx_attempts == [0, 1]
        assert request.trace.status == "failed"

    def test_queue_reject_closes_trace(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 1.0,
            batcher=BatcherConfig(enabled=False, max_queue_size=1)))
        server.submit(Request("m"))  # occupies the instance
        server.submit(Request("m"))  # fills the queue
        shed = _traced_request(server)
        server.submit(shed)
        ctx = shed.trace
        assert ctx.closed and ctx.status == "rejected"
        assert ctx.find("queue_reject")
        assert ctx.latency == 0.0
        server.run()

    def test_drain_reject_marks_trace(self):
        server = self._server()
        server.begin_drain()
        request = _traced_request(server)
        server.submit(request)
        assert request.trace.status == "rejected"
        assert request.trace.find("drain_reject")

    def test_untraced_requests_unaffected(self):
        server = self._server()
        server.submit(Request("m"))
        [response] = server.run()
        assert response.ok and response.request.trace is None


class TestBalancerInstrumentation:
    def test_route_instant_and_admission_shed(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)

        def backend():
            server = TritonLikeServer(sim, registry=registry)
            server.register(ModelConfig(
                "m", lambda n: 0.01,
                batcher=BatcherConfig(enabled=False)))
            return server

        admission = AdmissionController(AdmissionConfig(
            rate_per_second=1.0, burst=1))
        balancer = LoadBalancer([backend()], policy=RoundRobinPolicy(),
                                registry=registry, admission=admission)
        routed = Request("m")
        routed.trace = TraceContext(1, start=sim.now)
        balancer.submit(routed)
        shed = Request("m")
        shed.trace = TraceContext(2, start=sim.now)
        balancer.submit(shed)  # token bucket exhausted
        balancer.run()

        assert routed.trace.find("route")
        [admit] = [s for s in routed.trace.find("admission")]
        assert admit.args["admitted"] is True
        assert routed.trace.status == "ok"

        assert shed.trace.closed and shed.trace.status == "rejected"
        [denied] = shed.trace.find("admission")
        assert denied.args["admitted"] is False
        assert denied.args["reason"] == "rate"


class TestEnsembleRetryTracing:
    """Degraded ensemble + a retried branch, both views consistent."""

    def _flaky_seed(self, draws):
        # The first draws of FaultModel(0.5, seed) equal ``draws``.
        for seed in range(100):
            model = FaultModel(0.5, seed=seed)
            if [model.draw_failure() for _ in draws] == draws:
                return seed
        raise AssertionError(f"no seed draws {draws}")

    def _run(self, draws):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "pre", lambda n: 0.001,
            batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig(
            "good", lambda n: 0.01,
            batcher=BatcherConfig(enabled=False),
            fault_model=FaultModel(0.5, detect_seconds=0.02,
                                   seed=self._flaky_seed(draws)),
            max_retries=2))
        server.register(ModelConfig(
            "bad", lambda n: 1.0,
            batcher=BatcherConfig(enabled=False, max_queue_size=1)))
        server.register_ensemble(EnsembleConfig("e", "pre",
                                                ("good", "bad")))
        # Saturate "bad": one executing, one queued.  Keep "pre" busy
        # for its first millisecond so the request queues.
        server.submit(Request("bad"))
        server.submit(Request("bad"))
        server.submit(Request("pre"))
        request = _traced_request(server, model="e")
        server.submit(request)
        responses = server.run()
        [result] = [r for r in responses
                    if r.request.request_id == request.request_id]
        assert result.status == "degraded"
        assert request.trace.status == "degraded"

        # Cross-check the registry against the request's execute spans.
        good_spans = [s for s in request.trace.find("execute")
                      if s.args["stage"] == "good"]
        served = [s for s in good_spans if "outcome" not in s.args]
        retried = [s for s in good_spans if s.args["attempt"] > 0]
        breakdown = registry_stage_breakdown(server.metrics)
        assert breakdown["good"]["retried_attempts"] == len(retried)
        assert breakdown["good"]["count"] == len(served) == 1
        assert breakdown["good"]["total_seconds"] == pytest.approx(
            sum(s.duration for s in served))
        return request, result, good_spans

    def test_degraded_plus_retry_spans_and_stage_stamps(self):
        request, result, good_spans = self._run([True, False])
        # Execute spans carry the retry attempt index.
        assert [s.args["attempt"] for s in good_spans] == [0, 1]
        assert good_spans[0].args["outcome"] == "fault"
        assert request.retries == {"good": 1}
        assert result.queue_delay == 0.001

    def test_fails_twice_then_succeeds(self):
        request, result, good_spans = self._run([True, True, False])
        assert [s.args["attempt"] for s in good_spans] == [0, 1, 2]
        assert [s.args.get("outcome") for s in good_spans] == [
            "fault", "fault", None]
        assert request.retries == {"good": 2}
        # Waited behind the busy "pre" until its first execution at
        # 1 ms; the retries at 22 and 42 ms leave that stamp alone.
        assert result.queue_delay == 0.001


class TestContinuumInstrumentation:
    def _replayer(self, registry=None):
        sim = Simulator()
        server = TritonLikeServer(sim, registry=registry)
        server.register(ModelConfig(
            "m", lambda n: 0.01,
            batcher=BatcherConfig(max_batch_size=4,
                                  max_queue_delay=0.002)))
        replayer = ContinuumReplayer(
            server, get_link("station_ethernet"),
            edge_preprocess_time=lambda n: 0.002 * n,
            image_bytes=100_000.0, registry=registry)
        return sim, server, replayer

    def test_full_cloud_path_spans(self):
        sim, server, replayer = self._replayer()
        replayer.submit(Request("m"))
        sim.run()
        [ctx] = replayer.completed_traces()
        assert ctx.status == "ok"
        names = [s.name for s in ctx.children()]
        for leg in ("edge_preprocess", "uplink", "queue_wait",
                    "execute", "downlink"):
            assert leg in names, f"missing {leg}"
        # The legs tile the timeline in order.
        pre, up = ctx.find("edge_preprocess")[0], ctx.find("uplink")[0]
        down = ctx.find("downlink")[0]
        assert pre.start == ctx.start and pre.end == up.start
        assert down.end == ctx.root.end
        assert ctx.baggage["placement"] == "cloud"
        assert "awaiting_downlink" not in ctx.baggage

    def test_latency_histogram_covers_downlink(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        sim2, server, replayer = self._replayer(registry=registry)
        replayer.submit(Request("m"))
        server.sim.run()
        [ctx] = replayer.completed_traces()
        histogram = registry.get("continuum_latency_seconds")
        assert histogram.count(model="m") == 1
        assert histogram.sum(model="m") == pytest.approx(ctx.latency)
        counter = registry.get("continuum_requests_total")
        assert counter.value(placement="cloud", status="ok") == 1

    def test_trace_ids_are_replayer_local(self):
        _, _, first = self._replayer()
        first.submit(Request("m"))
        _, _, second = self._replayer()
        second.submit(Request("m"))
        assert first.traces[0].trace_id == 1
        assert second.traces[0].trace_id == 1


class TestContinuumExemplarsAndProfile:
    def _run(self, sample_rate=1.0, exemplars=True, requests=60):
        from repro.serving.exporter import export_registry
        from repro.serving.profiler import profile_run

        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        server = TritonLikeServer(sim, registry=registry)
        server.register(ModelConfig(
            "m", lambda n: 0.01,
            batcher=BatcherConfig(max_batch_size=4,
                                  max_queue_delay=0.002)))
        replayer = ContinuumReplayer(
            server, get_link("station_ethernet"),
            edge_preprocess_time=lambda n: 0.002 * n,
            image_bytes=100_000.0, registry=registry,
            trace_sample_rate=sample_rate, exemplars=exemplars)
        for i in range(requests):
            sim.schedule_at(0.01 * i,
                            lambda: replayer.submit(Request("m")))
        sim.run()
        prof = profile_run(sim.now, registry, replayer.traces)
        return replayer, export_registry(registry), prof

    def test_exemplars_deterministic_under_sampling(self):
        from repro.serving.exporter import parse_exemplars

        _, first, _ = self._run(sample_rate=0.3)
        _, second, _ = self._run(sample_rate=0.3)
        assert first == second
        exemplars = parse_exemplars(first)
        assert exemplars  # latency buckets carry trace witnesses
        for (name, _), info in exemplars.items():
            assert name == "harvest_continuum_latency_seconds_bucket"
            assert info["labels"]["trace_id"].isdigit()

    def test_exemplar_witnesses_survive_trace_sampling(self):
        # Sampling drops span retention, not exemplar coverage: every
        # finalized request records an exemplar, and last-wins leaves
        # the final trace as the bucket witness.
        from repro.serving.exporter import parse_exemplars

        replayer, scrape, _ = self._run(sample_rate=0.3)
        assert len(replayer.traces) < 60
        ids = {int(info["labels"]["trace_id"])
               for info in parse_exemplars(scrape).values()}
        assert ids == {60}

    def test_exemplars_off_by_default_keeps_scrape_clean(self):
        _, scrape, _ = self._run(exemplars=False)
        assert " # {" not in scrape

    def test_profiler_attributes_continuum_legs(self):
        replayer, _, prof = self._run()
        nodes = prof.nodes()
        [ctx] = [replayer.traces[0]]
        for leg in ("edge_preprocess", "uplink", "downlink"):
            sim_s, count = nodes[("continuum", leg)]
            assert count == 60
            span = ctx.find(leg)[0]
            assert sim_s > 0
            # Per-request leg cost matches the first trace's span.
            assert sim_s / count == pytest.approx(span.duration)

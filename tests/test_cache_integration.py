"""End-to-end tests for the cache hierarchy wired into serving layers."""

import pytest

from repro.cache.keys import FrameFingerprint
from repro.cache.store import CacheStore
from repro.cache.tiers import (
    CLOUD_TENSOR,
    EDGE_RESULT,
    CacheHierarchy,
    CacheTier,
)
from repro.continuum.network import get_link
from repro.continuum.pipeline import ContinuumReplayer
from repro.scale.admission import AdmissionConfig, AdmissionController
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.observability import MetricsRegistry
from repro.serving.request import Request
from repro.serving.server import (
    EnsembleConfig,
    ModelConfig,
    TritonLikeServer,
)
from repro.serving.tracectx import TraceContext


def fp(bits: int) -> FrameFingerprint:
    return FrameFingerprint(dhash=bits, blocks=0)


def traced(sim, model, **fields) -> Request:
    request = Request(model, **fields)
    request.trace = TraceContext(request.request_id, start=sim.now)
    return request


def executed_stages(request) -> list[str]:
    """Stages the request executed on, in span order."""
    return [s.args["stage"] for s in request.trace.find("execute")]


def make_hierarchy(sim, registry=None, ttl=None):
    clock = lambda: sim.now  # noqa: E731
    edge = CacheStore(1 << 20, clock, match_threshold=2,
                      ttl_seconds=ttl, name=EDGE_RESULT)
    cloud = CacheStore(1 << 24, clock, match_threshold=2,
                       name=CLOUD_TENSOR)
    return CacheHierarchy(
        edge=CacheTier(EDGE_RESULT, edge, stage="uplink",
                       registry=registry),
        cloud=CacheTier(CLOUD_TENSOR, cloud, stage="preprocess",
                        registry=registry))


def make_server(sim, registry=None):
    server = TritonLikeServer(sim, registry=registry)
    server.register(ModelConfig(
        "preprocess", lambda n: 0.010 * n,
        batcher=BatcherConfig(max_batch_size=8,
                              max_queue_delay=0.001)))
    server.register(ModelConfig(
        "infer", lambda n: 0.004 + 0.001 * n,
        batcher=BatcherConfig(max_batch_size=8,
                              max_queue_delay=0.001),
        preprocess_model="preprocess"))
    return server


def make_replayer(sim, server, cache=None, registry=None):
    return ContinuumReplayer(
        server, get_link("station_ethernet"),
        edge_preprocess_time=lambda n: 0.002 * n,
        image_bytes=128 * 1024.0, registry=registry, cache=cache)


class TestReplayerEdgeCache:
    def test_miss_populates_then_hit_bypasses_uplink(self):
        sim = Simulator()
        server = make_server(sim)
        cache = make_hierarchy(sim)
        replayer = make_replayer(sim, server, cache=cache)

        first = Request("infer", cache_key=fp(1))
        replayer.submit(first)
        server.run()
        assert first.trace.status == "ok"
        assert cache.edge.hit_ratio == 0.0  # the seed request missed
        assert replayer.uplink_bytes_saved == 0.0

        second = Request("infer", cache_key=fp(1))
        replayer.submit(second)
        server.run()
        ctx = second.trace
        assert ctx.status == "ok"
        assert not ctx.find("uplink")
        assert not ctx.find("edge_preprocess")
        assert len(ctx.find("cache_hit")) == 1
        assert ctx.find("cache_lookup")[0].args["outcome"] == "hit"
        assert ctx.baggage["placement"] == "edge_cache"
        assert replayer.uplink_bytes_saved == 128 * 1024.0
        assert len(replayer.cache_responses) == 1

    def test_hit_is_answered_in_lookup_time(self):
        sim = Simulator()
        server = make_server(sim)
        cache = make_hierarchy(sim)
        replayer = make_replayer(sim, server, cache=cache)
        cache.insert(EDGE_RESULT, fp(1), "seeded", 64)

        request = Request("infer", cache_key=fp(1))
        replayer.submit(request)
        server.run()
        assert request.trace.latency == pytest.approx(
            replayer.cache_lookup_time)

    def test_near_duplicate_frame_hits_within_threshold(self):
        sim = Simulator()
        server = make_server(sim)
        cache = make_hierarchy(sim)
        replayer = make_replayer(sim, server, cache=cache)
        cache.insert(EDGE_RESULT, fp(0b1100), "seeded", 64)

        request = Request("infer", cache_key=fp(0b1101))  # distance 1
        replayer.submit(request)
        server.run()
        assert request.trace.baggage["placement"] == "edge_cache"

    def test_unfingerprinted_request_ignores_cache(self):
        sim = Simulator()
        server = make_server(sim)
        cache = make_hierarchy(sim)
        replayer = make_replayer(sim, server, cache=cache)
        cache.insert(EDGE_RESULT, fp(1), "seeded", 64)

        request = Request("infer")
        replayer.submit(request)
        server.run()
        assert request.trace.status == "ok"
        assert not request.trace.find("cache_lookup")
        assert request.trace.find("uplink")

    def test_cacheless_replayer_unchanged(self):
        # A fingerprinted request through a cache-less replayer takes
        # exactly the uncached path: no cache spans, full uplink.
        sim = Simulator()
        server = make_server(sim)
        replayer = make_replayer(sim, server, cache=None)
        request = Request("infer", cache_key=fp(1))
        replayer.submit(request)
        server.run()
        assert request.trace.status == "ok"
        assert not request.trace.find("cache_lookup")
        assert request.trace.find("uplink")
        assert replayer.uplink_bytes_saved == 0.0

    def test_invalid_lookup_time_rejected(self):
        sim = Simulator()
        server = make_server(sim)
        with pytest.raises(ValueError, match="cache_lookup_time"):
            ContinuumReplayer(server, get_link("station_ethernet"),
                              edge_preprocess_time=lambda n: 0.0,
                              image_bytes=1.0, cache_lookup_time=-1.0)


class TestServerTensorCache:
    def test_tensor_hit_skips_preprocess_stage(self):
        sim = Simulator()
        server = make_server(sim)
        cache = make_hierarchy(sim)
        server.attach_cache(cache, tensor_bytes=1024.0)

        first = traced(sim, "infer", cache_key=fp(1))
        server.submit(first)
        server.run()
        assert executed_stages(first) == ["preprocess", "infer"]
        assert cache.cloud.store.stats.insertions == 1

        second = traced(sim, "infer", cache_key=fp(1))
        server.submit(second)
        server.run()
        assert executed_stages(second) == ["infer"]
        assert server.responses[-1].ok
        assert cache.cloud.hit_ratio == 0.5

    def test_ensemble_tensor_hit_fans_out_directly(self):
        sim = Simulator()
        server = TritonLikeServer(sim)
        server.register(ModelConfig(
            "preprocess", lambda n: 0.010 * n,
            batcher=BatcherConfig(max_batch_size=8,
                                  max_queue_delay=0.001)))
        for name in ("detect", "classify"):
            server.register(ModelConfig(
                name, lambda n: 0.004,
                batcher=BatcherConfig(max_batch_size=8,
                                      max_queue_delay=0.001)))
        server.register_ensemble(EnsembleConfig(
            "field_scan", "preprocess", ("detect", "classify")))
        cache = make_hierarchy(sim)
        server.attach_cache(cache, tensor_bytes=1024.0)

        first = traced(sim, "field_scan", cache_key=fp(1))
        server.submit(first)
        server.run()
        assert executed_stages(first)[0] == "preprocess"

        second = traced(sim, "field_scan", cache_key=fp(1))
        server.submit(second)
        server.run()
        assert sorted(executed_stages(second)) == ["classify", "detect"]
        assert server.responses[-1].ok

    def test_attach_cache_validates_tensor_bytes(self):
        server = make_server(Simulator())
        with pytest.raises(ValueError, match="tensor_bytes"):
            server.attach_cache(CacheHierarchy(), tensor_bytes=0.0)

    def test_cacheless_server_unchanged(self):
        sim = Simulator()
        server = make_server(sim)
        request = traced(sim, "infer", cache_key=fp(1))
        server.submit(request)
        server.run()
        assert executed_stages(request) == ["preprocess", "infer"]
        assert server.responses[-1].ok


class TestAdmissionCacheExemption:
    def test_cache_hits_bypass_the_token_bucket(self):
        controller = AdmissionController(AdmissionConfig(
            rate_per_second=0.001, burst=1, exempt_cache_hits=True))
        assert controller.admit(0.0, 0).admitted  # takes the one token
        refused = controller.admit(0.0, 0)
        assert not refused.admitted and refused.reason == "rate"
        exempt = controller.admit(0.0, 0, cache_hit=True)
        assert exempt.admitted

    def test_exemption_off_by_default(self):
        controller = AdmissionController(AdmissionConfig(
            rate_per_second=0.001, burst=1))
        assert controller.admit(0.0, 0).admitted
        assert not controller.admit(0.0, 0, cache_hit=True).admitted

    def test_queue_shedding_still_applies_to_hits(self):
        controller = AdmissionController(AdmissionConfig(
            max_queued_requests=2, exempt_cache_hits=True))
        decision = controller.admit(0.0, 5, cache_hit=True)
        assert not decision.admitted and decision.reason == "queue"

    def test_balancer_peeks_tensor_tier_for_exemption(self):
        from repro.scale.balancer import (
            JoinShortestQueuePolicy,
            LoadBalancer,
        )

        sim = Simulator()
        server = make_server(sim)
        cache = make_hierarchy(sim)
        cache.insert(CLOUD_TENSOR, fp(1), "tensor", 64)
        admission = AdmissionController(AdmissionConfig(
            rate_per_second=0.001, burst=1, exempt_cache_hits=True))
        balancer = LoadBalancer([server],
                                policy=JoinShortestQueuePolicy(),
                                admission=admission, cache=cache)
        # Burn the only token with an uncached request, then show a
        # cached frame still gets in.
        balancer.submit(Request("infer"))
        hit = Request("infer", cache_key=fp(1))
        balancer.submit(hit)
        miss = Request("infer", cache_key=fp(0xFF))  # far from fp(1)
        balancer.submit(miss)
        responses = balancer.run()
        by_id = {r.request.request_id: r for r in responses}
        assert by_id[hit.request_id].ok
        assert by_id[miss.request_id].status == "rejected"


class TestWhatifCacheModel:
    def test_effective_qps_formula(self):
        from repro.predict.whatif import cache_effective_qps

        assert cache_effective_qps(100.0, 0.8, 1.0) == \
            pytest.approx(500.0)
        assert cache_effective_qps(100.0, 0.5, 0.5) == \
            pytest.approx(100.0 / 0.75)
        assert cache_effective_qps(100.0, 0.0, 1.0) == 100.0

    def test_fully_absorbed_workload_is_unbounded(self):
        from repro.predict.whatif import cache_effective_qps

        assert cache_effective_qps(10.0, 1.0, 1.0) == float("inf")

    def test_validation(self):
        from repro.predict.whatif import cache_effective_qps

        with pytest.raises(ValueError, match="base_qps"):
            cache_effective_qps(0.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="hit_ratio"):
            cache_effective_qps(10.0, 1.5, 0.5)
        with pytest.raises(ValueError, match="stage_fraction"):
            cache_effective_qps(10.0, 0.5, -0.1)

    def test_preview_rows_are_monotone(self):
        from repro.predict.whatif import preview_cache_capacity

        rows = preview_cache_capacity(60.0, 0.6)
        multipliers = [row["capacity_multiplier"] for row in rows]
        assert multipliers == sorted(multipliers)
        assert multipliers[0] == pytest.approx(1.0)


class TestFullHitTraceRegression:
    """A 100% hit run must stay observable end to end."""

    def run_full_hit(self, n=10):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        server = make_server(sim, registry=registry)
        cache = make_hierarchy(sim, registry=registry)
        replayer = make_replayer(sim, server, cache=cache,
                                 registry=registry)
        cache.insert(EDGE_RESULT, fp(1), "seeded", 64)
        for index in range(n):
            request = Request("infer", cache_key=fp(1))
            sim.schedule(0.01 * index,
                         lambda r=request: replayer.submit(r))
        server.run()
        return replayer, registry

    def test_every_hit_closes_its_trace(self):
        replayer, _ = self.run_full_hit()
        closed = replayer.completed_traces()
        assert len(closed) == 10
        assert all(t.status == "ok" for t in closed)
        assert all(t.find("cache_hit") for t in closed)

    def test_hit_run_exports_a_valid_chrome_trace(self):
        from repro.serving.trace_export import (
            export_chrome_trace,
            validate_chrome_trace,
        )

        replayer, _ = self.run_full_hit()
        text = export_chrome_trace(replayer.completed_traces())
        payload = validate_chrome_trace(text)
        names = {e["name"] for e in payload["traceEvents"]}
        assert "cache_hit" in names and "cache_lookup" in names

    def test_hit_spans_render_as_intervals_even_at_zero_width(self):
        from repro.serving.trace_export import chrome_trace_events

        sim = Simulator()
        server = make_server(sim)
        cache = make_hierarchy(sim)
        replayer = ContinuumReplayer(
            server, get_link("station_ethernet"),
            edge_preprocess_time=lambda n: 0.0, image_bytes=1.0,
            cache=cache, cache_lookup_time=0.0)
        cache.insert(EDGE_RESULT, fp(1), "seeded", 64)
        request = Request("infer", cache_key=fp(1))
        replayer.submit(request)
        server.run()
        events = chrome_trace_events(replayer.completed_traces())
        hit = [e for e in events if e["name"] == "cache_hit"]
        assert hit and hit[0]["ph"] == "X"

    def test_critical_path_attributes_hits(self):
        from repro.serving.trace_export import critical_path_summary

        replayer, _ = self.run_full_hit()
        summary = critical_path_summary(replayer.completed_traces())
        assert summary["p95"]["stages"].get("cache_hit", 0.0) > 0.0
        assert summary["p95"]["tracked_fraction"] == pytest.approx(1.0)

    def test_registry_keeps_latency_samples_for_hits(self):
        _, registry = self.run_full_hit()
        histogram = registry.get("continuum_latency_seconds")
        count = sum(s.count for _, s in histogram.items())
        assert count == 10
        requests = registry.get("continuum_requests_total")
        assert requests.value(placement="edge_cache", status="ok") == 10

"""Serverless execution model: cold starts, reaping, and the bill."""

import numpy as np
import pytest

from repro.faas import (
    CostLedger,
    CostModel,
    FaaSBackend,
    FaaSFunctionConfig,
    FaaSPlatformModel,
    get_faas_platform,
    list_faas_platforms,
)
from repro.serving.events import Simulator
from repro.serving.observability import MetricsRegistry
from repro.serving.request import Request
from repro.serving.tracectx import TraceContext


def make_platform(**overrides) -> FaaSPlatformModel:
    params = dict(name="test", cold_start_base_seconds=0.5,
                  cold_start_jitter_seconds=0.2, artifact_bytes=125e6,
                  artifact_bandwidth_bps=1e9, memory_gb=2.0)
    params.update(overrides)
    return FaaSPlatformModel(**params)


def make_backend(seed=0, registry=None, **config_overrides):
    sim = Simulator()
    backend = FaaSBackend(sim, registry=registry, seed=seed)
    params = dict(name="fn", service_time=lambda n: 0.01 * n,
                  platform=make_platform(), concurrency_limit=2,
                  keep_alive_seconds=10.0)
    params.update(config_overrides)
    backend.register(FaaSFunctionConfig(**params))
    return sim, backend


class TestPlatformModel:
    def test_expected_cold_start_is_sandbox_plus_init(self):
        platform = make_platform()
        assert platform.init_seconds == pytest.approx(1.0)
        assert platform.expected_cold_start_seconds == pytest.approx(
            1.5)

    def test_sample_without_rng_degrades_to_expected(self):
        platform = make_platform()
        sandbox, init = platform.sample_cold_start(None)
        assert sandbox == pytest.approx(0.5)
        assert init == pytest.approx(1.0)

    def test_zero_jitter_consumes_no_randomness(self):
        platform = make_platform(cold_start_jitter_seconds=0.0)
        rng = np.random.default_rng(5)
        witness = np.random.default_rng(5)
        platform.sample_cold_start(rng)
        assert rng.random() == witness.random()

    def test_jitter_draws_stay_within_the_half_width(self):
        platform = make_platform()
        rng = np.random.default_rng(1)
        for _ in range(50):
            sandbox, _ = platform.sample_cold_start(rng)
            assert 0.3 <= sandbox <= 0.7

    def test_validation(self):
        with pytest.raises(ValueError, match="jitter"):
            make_platform(cold_start_jitter_seconds=0.6)
        with pytest.raises(ValueError, match="bandwidth"):
            make_platform(artifact_bandwidth_bps=0.0)
        with pytest.raises(ValueError, match="memory"):
            make_platform(memory_gb=0.0)

    def test_preset_lookup(self):
        assert "lambda_like" in list_faas_platforms()
        assert get_faas_platform("LAMBDA_LIKE").name == "lambda_like"
        with pytest.raises(KeyError, match="available"):
            get_faas_platform("nope")


class TestCostModel:
    def test_billed_seconds_rounds_up_to_the_quantum(self):
        model = CostModel()
        assert model.billed_seconds(0.0101) == pytest.approx(0.011)
        assert model.billed_seconds(0.0) == pytest.approx(0.001)

    def test_invocation_cost_is_request_plus_compute(self):
        model = CostModel(gb_second_price=1e-5, invocation_price=2e-7)
        cost = model.invocation_cost(0.1, memory_gb=2.0)
        assert cost == pytest.approx(2e-7 + 0.1 * 2.0 * 1e-5)

    def test_cost_rates(self):
        model = CostModel(gb_second_price=1e-5, invocation_price=0.0,
                          provisioned_gb_second_price=2e-6)
        rate = model.serverless_cost_per_second(10.0, 0.1, 2.0)
        assert rate == pytest.approx(10.0 * 0.1 * 2.0 * 1e-5)
        pool = model.provisioned_pool_cost_per_second(3, 2.0)
        assert pool == pytest.approx(3 * 2.0 * 2e-6)

    def test_ledger_accumulates_and_summarizes(self):
        ledger = CostLedger(CostModel(gb_second_price=1e-5,
                                      invocation_price=1e-7))
        ledger.charge_invocation(0.1, 2.0)
        ledger.charge_init(1.0, 2.0)
        ledger.charge_provisioned(100.0, 2.0)
        summary = ledger.summary()
        assert summary["invocations"] == 1
        assert summary["gb_seconds"] == pytest.approx(0.2 + 2.0)
        assert summary["provisioned_gb_seconds"] == pytest.approx(200.0)
        assert summary["total_usd"] == pytest.approx(
            ledger.compute_cost + ledger.invocation_cost +
            ledger.provisioned_cost)

    def test_validation(self):
        with pytest.raises(ValueError, match="quantum"):
            CostModel(billing_quantum_seconds=0.0)
        with pytest.raises(ValueError, match="gb_second_price"):
            CostModel(gb_second_price=-1.0)


class TestFunctionConfig:
    @pytest.mark.parametrize("keep_alive", [-1.0, float("nan")])
    def test_keep_alive_must_be_a_nonnegative_number(self, keep_alive):
        with pytest.raises(ValueError, match="keep_alive_seconds"):
            make_backend(keep_alive_seconds=keep_alive)

    @pytest.mark.parametrize("seconds", [-0.5, float("nan")])
    def test_bad_service_time_is_named(self, seconds):
        sim, backend = make_backend(seed=None,
                                    service_time=lambda n: seconds)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        with pytest.raises(ValueError, match="service time for 1 images"):
            sim.run()


class TestColdAndWarmStarts:
    def test_first_request_pays_the_cold_start(self):
        sim, backend = make_backend(seed=None)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        sim.run()
        response = backend.responses[0]
        # Expected-value regime: sandbox 0.5 + init 1.0 + execute 0.01.
        assert response.latency == pytest.approx(1.51)
        assert response.request.cold_start

    def test_second_request_within_keep_alive_runs_warm(self):
        sim, backend = make_backend(seed=None)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        sim.schedule(5.0, lambda: backend.submit(Request("fn")))
        sim.run()
        warm = backend.responses[1]
        assert warm.latency == pytest.approx(0.01)
        assert not warm.request.cold_start
        stats = backend.function_stats("fn")
        assert stats.cold_starts == 1
        assert stats.warm_starts == 1

    def test_keep_alive_expiry_forces_a_second_cold_start(self):
        sim, backend = make_backend(seed=None, keep_alive_seconds=3.0)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        sim.schedule(30.0, lambda: backend.submit(Request("fn")))
        sim.run()
        stats = backend.function_stats("fn")
        assert stats.cold_starts == 2
        assert stats.reaps == 2
        assert backend.total_instances() == 0

    def test_infinite_keep_alive_never_reaps(self):
        sim, backend = make_backend(seed=None,
                                    keep_alive_seconds=float("inf"))
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        sim.schedule(1e6, lambda: backend.submit(Request("fn")))
        sim.run()
        stats = backend.function_stats("fn")
        assert (stats.cold_starts, stats.warm_starts, stats.reaps) == (
            1, 1, 0)
        assert backend.total_instances() == 1
        assert sim.now < float("inf")

    def test_scale_to_zero_after_run_drains(self):
        sim, backend = make_backend(seed=None)
        for t in (0.0, 0.1, 0.2):
            sim.schedule(t, lambda: backend.submit(Request("fn")))
        sim.run()
        # run() drains daemon reap timers too: the pool is empty and
        # every spawn has a matching reap.
        assert backend.total_instances() == 0
        stats = backend.function_stats("fn")
        assert stats.reaps == stats.cold_starts

    def test_concurrency_limit_queues_fifo(self):
        sim, backend = make_backend(
            seed=None, concurrency_limit=1,
            service_time=lambda n: 1.0)
        order = []
        backend.on_response(
            lambda r: order.append(r.request.request_id))
        ids = []
        for t in (0.0, 0.1, 0.2):
            def submit():
                request = Request("fn")
                ids.append(request.request_id)
                backend.submit(request)
            sim.schedule(t, submit)
        sim.run()
        assert order == ids
        stats = backend.function_stats("fn")
        assert stats.cold_starts == 1 and stats.warm_starts == 2

    def test_bounded_queue_rejects_overflow(self):
        sim, backend = make_backend(
            seed=None, concurrency_limit=1, max_queue_depth=1,
            service_time=lambda n: 10.0)
        for t in (0.0, 0.1, 0.2, 0.3):
            sim.schedule(t, lambda: backend.submit(Request("fn")))
        sim.run()
        statuses = sorted(r.status for r in backend.responses)
        assert statuses.count("rejected") == 2
        assert backend.function_stats("fn").rejected == 2


class TestDeterminism:
    def run_latencies(self, seed):
        sim, backend = make_backend(seed=seed)
        for t in (0.0, 0.05, 30.0, 31.0, 60.0):
            sim.schedule(t, lambda: backend.submit(Request("fn")))
        sim.run()
        return [r.latency for r in backend.responses]

    def test_seeded_replays_are_identical(self):
        assert self.run_latencies(3) == self.run_latencies(3)

    def test_different_seeds_draw_different_jitter(self):
        assert self.run_latencies(3) != self.run_latencies(4)

    def test_expected_regime_uses_no_randomness(self):
        latencies = self.run_latencies(None)
        assert latencies == self.run_latencies(None)
        # Every cold start lands exactly on the expected value.
        platform = make_platform()
        cold = platform.expected_cold_start_seconds + 0.01
        assert latencies[0] == pytest.approx(cold)


class TestSpansAndMetrics:
    def test_cold_request_carries_cold_start_init_execute_spans(self):
        sim, backend = make_backend(seed=None)
        trace = TraceContext(trace_id=1, start=0.0)
        request = Request("fn", trace=trace)
        sim.schedule(0.0, lambda: backend.submit(request))
        sim.run()
        names = [s.name for s in trace.spans if s.name != "request"]
        assert names == ["cold_start", "init", "execute"]
        by_name = {s.name: s for s in trace.spans}
        assert by_name["cold_start"].end == pytest.approx(0.5)
        assert by_name["init"].end == pytest.approx(1.5)
        assert by_name["execute"].category == "execute"

    def test_warm_request_has_only_the_execute_span(self):
        sim, backend = make_backend(seed=None)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        trace = TraceContext(trace_id=2, start=5.0)
        sim.schedule(5.0, lambda: backend.submit(
            Request("fn", trace=trace)))
        sim.run()
        names = [s.name for s in trace.spans if s.name != "request"]
        assert names == ["execute"]

    def test_queued_request_records_queue_wait(self):
        sim, backend = make_backend(
            seed=None, concurrency_limit=1,
            service_time=lambda n: 1.0)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        trace = TraceContext(trace_id=3, start=0.1)
        sim.schedule(0.1, lambda: backend.submit(
            Request("fn", trace=trace)))
        sim.run()
        queue_span = next(s for s in trace.spans
                          if s.name == "queue_wait")
        assert queue_span.end > queue_span.start

    def test_reap_instants_land_on_the_lifecycle_trace(self):
        sim, backend = make_backend(seed=None, keep_alive_seconds=2.0)
        lifecycle = TraceContext(trace_id=99, start=0.0)
        backend.attach_lifecycle_trace(lifecycle)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        sim.run()
        reaps = [s for s in lifecycle.spans if s.name == "reap"]
        assert len(reaps) == 1
        assert reaps[0].args["function"] == "fn"

    def test_prometheus_families(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        sim2, backend = sim, FaaSBackend(sim, registry=registry,
                                         seed=None)
        backend.register(FaaSFunctionConfig(
            "fn", lambda n: 0.01, platform=make_platform(),
            keep_alive_seconds=2.0))
        for t in (0.0, 1.6, 30.0):
            sim.schedule(t, lambda: backend.submit(Request("fn")))
        sim.run()
        assert registry.get("faas_cold_starts_total").value(
            function="fn") == 2
        assert registry.get("faas_reaps_total").value(
            function="fn") == 2
        assert registry.get("faas_gb_seconds_total").value(
            function="fn") > 0
        assert registry.get("faas_warm_instances").value(
            function="fn") == 0
        histogram = registry.get("request_latency_seconds")
        assert histogram is not None

    def test_bound_lifecycle_counters_match_stats(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        backend = FaaSBackend(sim, registry=registry, seed=None)
        backend.register(FaaSFunctionConfig(
            "fn", lambda n: 1.0, platform=make_platform(),
            concurrency_limit=1, keep_alive_seconds=1.0,
            max_queue_depth=1))
        # Cold at 0.0 (runs 1.5-2.5), queued at 0.1 (runs 2.5-3.5),
        # rejected at 0.2, warm at 4.0 (runs 4.0-5.0); the instance is
        # reaped at 6.0 and prewarmed again at 8.0.
        for t in (0.0, 0.1, 0.2, 4.0):
            sim.schedule(t, lambda: backend.submit(Request("fn")))
        sim.schedule(8.0, lambda: backend.set_provisioned_concurrency(
            "fn", 1))
        sim.run(until=20.0)
        stats = backend.function_stats("fn")
        invocations = registry.get("faas_invocations_total")
        assert invocations.value(function="fn", start="cold") == 1
        assert invocations.value(function="fn", start="warm") == \
            stats.invocations - 1 == 2
        assert registry.get("faas_queue_rejections_total").value(
            function="fn") == stats.rejected == 1
        assert registry.get("faas_prewarms_total").value(
            function="fn") == stats.prewarms == 1
        # Binding a handle creates no series: only updated label sets
        # reach the scrape.
        assert invocations.label_sets() == [
            (("function", "fn"), ("start", "cold")),
            (("function", "fn"), ("start", "warm"))]

    def test_gb_second_meter_bills_init_and_execute(self):
        sim, backend = make_backend(seed=None)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        sim.run()
        model = backend.cost.model
        expected = (model.gb_seconds(1.5, 2.0) +
                    model.gb_seconds(0.01, 2.0))
        assert backend.cost.gb_seconds == pytest.approx(expected)
        assert backend.cost.invocations == 1


class TestDrain:
    def test_drain_rejects_new_work_and_empties_the_pool(self):
        sim, backend = make_backend(seed=None)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        sim.schedule(2.0, backend.begin_drain)
        sim.schedule(2.5, lambda: backend.submit(Request("fn")))
        sim.run()
        statuses = [r.status for r in backend.responses]
        assert statuses == ["ok", "rejected"]
        assert backend.is_drained
        assert backend.total_instances() == 0

    def test_drain_finishes_queued_work_first(self):
        sim, backend = make_backend(
            seed=None, concurrency_limit=1,
            service_time=lambda n: 1.0)
        for t in (0.0, 0.1, 0.2):
            sim.schedule(t, lambda: backend.submit(Request("fn")))
        sim.schedule(0.3, backend.begin_drain)
        assert not backend.is_drained
        sim.run()
        ok = [r for r in backend.responses if r.status == "ok"]
        assert len(ok) == 3
        assert backend.is_drained

    def test_drain_settles_pinned_cost_on_the_ledger(self):
        sim, backend = make_backend(seed=None)
        backend.set_provisioned_concurrency("fn", 1)
        sim.schedule(100.0, backend.begin_drain)
        sim.run()
        assert backend.is_drained
        # 100 s pinned x 2 GB accrued *on the ledger itself*, not
        # just in the open-pin projection of cost_summary().
        assert backend.cost.provisioned_gb_seconds == pytest.approx(
            100.0 * 2.0)
        summary = backend.cost_summary()
        assert summary["provisioned_gb_seconds"] == pytest.approx(
            100.0 * 2.0)

    def test_raising_the_floor_while_draining_is_a_noop(self):
        sim, backend = make_backend(seed=None)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        sim.schedule(2.0, backend.begin_drain)
        # A still-armed policy tick after begin_drain must not spawn
        # pinned instances that would stall the drain forever.
        sim.schedule(2.1, lambda: backend.set_provisioned_concurrency(
            "fn", 2))
        sim.run()
        assert backend.function_stats("fn").prewarms == 0
        assert backend.total_instances() == 0
        assert backend.is_drained

    def test_prewarm_in_flight_at_drain_is_reaped_once_warm(self):
        sim, backend = make_backend(seed=None)
        backend.set_provisioned_concurrency("fn", 1)
        # Drain lands mid-cold-start: the pinned prewarm must still
        # settle its pin and reap when initialization completes.
        sim.schedule(0.2, backend.begin_drain)
        sim.run()
        assert backend.total_instances() == 0
        assert backend.function_stats("fn").reaps == 1
        assert backend.is_drained
        assert backend.cost.provisioned_gb_seconds == pytest.approx(
            0.2 * 2.0)


class TestProvisionedConcurrency:
    def test_prewarmed_instances_absorb_cold_starts(self):
        sim, backend = make_backend(seed=None)
        backend.set_provisioned_concurrency("fn", 2)
        sim.schedule(5.0, lambda: backend.submit(Request("fn")))
        sim.schedule(5.01, lambda: backend.submit(Request("fn")))
        sim.run()
        stats = backend.function_stats("fn")
        assert stats.prewarms == 2
        assert stats.cold_starts == 0
        assert stats.warm_starts == 2

    def test_pinned_instances_survive_keep_alive(self):
        sim, backend = make_backend(seed=None, keep_alive_seconds=1.0)
        backend.set_provisioned_concurrency("fn", 1)
        sim.schedule(50.0, lambda: backend.submit(Request("fn")))
        sim.run()
        stats = backend.function_stats("fn")
        assert stats.cold_starts == 0
        assert backend.total_instances() == 1

    def test_pinned_time_accrues_at_the_provisioned_rate(self):
        sim, backend = make_backend(seed=None)
        backend.set_provisioned_concurrency("fn", 1)
        sim.schedule(100.0, lambda: None)
        sim.run()
        summary = backend.cost_summary()
        assert summary["provisioned_gb_seconds"] == pytest.approx(
            100.0 * 2.0)
        assert summary["provisioned_usd"] > 0

    def test_lowering_the_floor_lets_instances_age_out(self):
        sim, backend = make_backend(seed=None, keep_alive_seconds=5.0)
        backend.set_provisioned_concurrency("fn", 1)

        def lower():
            backend.set_provisioned_concurrency("fn", 0)

        sim.schedule(10.0, lower)
        sim.run()
        assert backend.total_instances() == 0
        assert backend.function_stats("fn").reaps == 1

    def test_initializing_prewarms_are_not_busy(self):
        sim, backend = make_backend(seed=None)
        backend.set_provisioned_concurrency("fn", 1)
        probes = []
        # t=0.1 is mid-sandbox (cold start takes 1.5 s): the prewarm
        # is live but serves nobody, so it is neither busy nor warm.
        sim.schedule(0.1, lambda: probes.append(
            (backend.busy_instances(), backend.total_instances(),
             backend.warm_instances("fn"))))
        sim.run()
        assert probes == [(0, 1, 0)]

    def test_cold_starting_request_counts_as_busy(self):
        sim, backend = make_backend(seed=None)
        sim.schedule(0.0, lambda: backend.submit(Request("fn")))
        probes = []
        sim.schedule(0.1, lambda: probes.append(
            backend.busy_instances()))
        sim.run()
        assert probes == [1]

    def test_floor_cannot_exceed_the_concurrency_limit(self):
        sim, backend = make_backend(seed=None, concurrency_limit=2)
        with pytest.raises(ValueError, match="concurrency limit"):
            backend.set_provisioned_concurrency("fn", 3)


class TestDuckTypeSurface:
    def test_scaling_layer_surface(self):
        sim, backend = make_backend(seed=None)
        assert backend.model_names() == ["fn"]
        assert backend.queue_depth() == 0
        assert backend.queued_images() == 0
        assert backend.busy_instances() == 0
        assert backend.total_instances() == 0
        stats = backend.instance_stats("fn")
        assert len(stats) == 1
        assert stats[0].busy_seconds == 0.0
        assert stats[0].fault_seconds == 0.0

    def test_mixed_fleet_behind_one_balancer(self):
        from repro.scale.balancer import (
            JoinShortestQueuePolicy,
            LoadBalancer,
        )
        from repro.serving.server import ModelConfig, TritonLikeServer

        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        server = TritonLikeServer(sim, registry=registry)
        server.register(ModelConfig("fn", lambda n: 0.01 * n))
        faas = FaaSBackend(sim, registry=registry, seed=None)
        faas.register(FaaSFunctionConfig(
            "fn", lambda n: 0.01 * n, platform=make_platform(),
            keep_alive_seconds=5.0))
        balancer = LoadBalancer([server, faas],
                                policy=JoinShortestQueuePolicy(),
                                registry=registry)
        for t in (0.0, 0.01, 0.02, 0.03):
            sim.schedule(t, lambda: balancer.submit(Request("fn")))
        sim.run()
        responses = balancer.collect()
        assert len(responses) == 4
        assert all(r.status == "ok" for r in responses)
        # Both execution models actually served traffic.
        assert len(server.responses) > 0
        assert len(faas.responses) > 0

    def test_autoscaler_reads_faas_utilization(self):
        from repro.scale.autoscaler import Autoscaler, AutoscalerConfig
        from repro.scale.balancer import LoadBalancer

        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        faas = FaaSBackend(sim, registry=registry, seed=None)
        faas.register(FaaSFunctionConfig(
            "fn", lambda n: 0.5, platform=make_platform(),
            keep_alive_seconds=60.0))
        balancer = LoadBalancer([faas], registry=registry)
        autoscaler = Autoscaler(
            balancer, replica_factory=lambda: None,
            config=AutoscalerConfig(slo_p95_seconds=10.0,
                                    max_replicas=1))
        for t in (0.0, 0.1, 0.2):
            sim.schedule(t, lambda: balancer.submit(Request("fn")))
        autoscaler.start()
        sim.run()
        # Windowed utilization folded the FaaS aggregate stats in
        # without crashing, and the latency window saw completions.
        assert autoscaler.utilization() >= 0.0

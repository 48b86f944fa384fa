"""Tests for the elastic tier: admission control, drain, autoscaler."""

import pytest

from repro.analysis.report import render_scaling_timeline
from repro.hardware.platform import A100, JETSON
from repro.predict.capacity import CapacityPlanner, WorkloadSpec
from repro.scale.admission import (
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.scale.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    replica_ceiling,
)
from repro.scale.balancer import LoadBalancer, RoundRobinPolicy
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.metrics import summarize_responses
from repro.serving.observability import MetricsRegistry
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer
from repro.serving.traces import ArrivalTrace, TraceReplayer, step_trace


def _server(sim, service=0.01, registry=None, delay=0.002,
            max_batch=8):
    server = TritonLikeServer(sim, registry=registry)
    server.register(ModelConfig(
        "m", lambda n: service,
        batcher=BatcherConfig(max_batch_size=max_batch,
                              max_queue_delay=delay)))
    return server


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=3)
        assert [bucket.try_take(0.0) for _ in range(4)] == \
            [True, True, True, False]
        # 10 tokens/s: one token back after 0.1 s.
        assert bucket.try_take(0.1)
        assert not bucket.try_take(0.1)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        bucket.try_take(0.0)
        assert bucket.available(1000.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestAdmissionController:
    def test_disabled_admits_everything(self):
        controller = AdmissionController(AdmissionConfig())
        for t in range(100):
            assert controller.admit(float(t), queued_requests=10 ** 6
                                    ).admitted

    def test_rate_limit_sheds_with_reason(self):
        controller = AdmissionController(AdmissionConfig(
            rate_per_second=1.0, burst=2))
        decisions = [controller.admit(0.0, 0) for _ in range(3)]
        assert [d.admitted for d in decisions] == [True, True, False]
        assert decisions[-1].reason == "rate"

    def test_queue_shedding_takes_priority_over_tokens(self):
        controller = AdmissionController(AdmissionConfig(
            rate_per_second=100.0, burst=1, max_queued_requests=5))
        shed = controller.admit(0.0, queued_requests=5)
        assert not shed.admitted and shed.reason == "queue"
        # The shed request must not have burned the token.
        assert controller.admit(0.0, queued_requests=0).admitted

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(rate_per_second=-1)
        with pytest.raises(ValueError):
            AdmissionConfig(burst=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queued_requests=-1)
        with pytest.raises(ValueError, match="rate_per_second"):
            AdmissionConfig(rate_per_second=float("nan"))


class TestServerDrain:
    def test_drain_refuses_new_but_finishes_inflight(self):
        sim = Simulator()
        server = _server(sim, service=0.05)
        for _ in range(4):
            server.submit(Request("m"))
        server.begin_drain()
        server.submit(Request("m"))  # refused at the door
        responses = server.run()
        assert len(responses) == 5
        by_status = sorted(r.status for r in responses)
        assert by_status.count("ok") == 4
        assert by_status.count("rejected") == 1
        assert server.is_drained
        assert server.metrics.get(
            "drain_rejections_total").total() == 1

    def test_is_drained_false_while_working(self):
        sim = Simulator()
        server = _server(sim, service=0.05)
        server.submit(Request("m"))
        server.begin_drain()
        assert not server.is_drained
        server.run()
        assert server.is_drained

    def test_active_server_is_never_drained(self):
        server = _server(Simulator())
        assert not server.is_drained


class TestElasticPool:
    def test_add_backend_receives_routes(self):
        sim = Simulator()
        balancer = LoadBalancer([_server(sim)], RoundRobinPolicy())
        balancer.add_backend(_server(sim))
        for _ in range(4):
            balancer.submit(Request("m"))
        balancer.run()
        assert balancer.routing_counts() == [2, 2]

    def test_add_rejects_foreign_simulator_and_duplicates(self):
        sim = Simulator()
        backend = _server(sim)
        balancer = LoadBalancer([backend])
        with pytest.raises(ValueError, match="share"):
            balancer.add_backend(_server(Simulator()))
        with pytest.raises(ValueError, match="already"):
            balancer.add_backend(backend)

    def test_drained_backend_stops_receiving_routes(self):
        sim = Simulator()
        a, b = _server(sim), _server(sim)
        balancer = LoadBalancer([a, b], RoundRobinPolicy())
        balancer.drain_backend(b)
        for _ in range(4):
            balancer.submit(Request("m"))
        balancer.run()
        assert balancer.routing_counts() == [4, 0]

    def test_cannot_drain_last_active(self):
        sim = Simulator()
        a, b = _server(sim), _server(sim)
        balancer = LoadBalancer([a, b])
        balancer.drain_backend(a)
        with pytest.raises(ValueError, match="last active"):
            balancer.drain_backend(b)

    def test_release_requires_finished_drain(self):
        sim = Simulator()
        a, b = _server(sim, service=0.05), _server(sim, service=0.05)
        balancer = LoadBalancer([a, b], RoundRobinPolicy())
        for _ in range(4):
            balancer.submit(Request("m"))
        balancer.drain_backend(b)
        with pytest.raises(RuntimeError, match="in-flight"):
            balancer.release_backend(b)
        with pytest.raises(ValueError, match="draining"):
            balancer.release_backend(a)

    def test_scale_in_loses_no_inflight_responses(self):
        sim = Simulator()
        a, b = _server(sim, service=0.05), _server(sim, service=0.05)
        balancer = LoadBalancer([a, b], RoundRobinPolicy())
        for _ in range(6):
            balancer.submit(Request("m"))
        balancer.drain_backend(b)
        first = balancer.run()
        balancer.release_backend(b)
        # b's in-flight work completed and was collected before (or at)
        # release; nothing vanished with the replica.
        total = first + balancer.run()
        assert len(total) == 6
        assert all(r.ok for r in total)
        assert balancer.backends == [a]


class TestReplicaCeiling:
    def test_reuses_capacity_plan(self, resnet50):
        workload = WorkloadSpec(images_per_second=3000,
                                latency_slo_seconds=0.1)
        plan = CapacityPlanner(workload).plan(resnet50, JETSON)
        assert replica_ceiling(plan) == plan.devices
        assert replica_ceiling(plan, safety_factor=1.5) >= \
            replica_ceiling(plan)

    def test_infeasible_plan_rejected(self, vit_base):
        workload = WorkloadSpec(images_per_second=100,
                                latency_slo_seconds=1e-5)
        plan = CapacityPlanner(workload).plan(vit_base, JETSON)
        with pytest.raises(ValueError, match="infeasible"):
            replica_ceiling(plan)

    def test_safety_factor_validated(self, resnet50):
        workload = WorkloadSpec(images_per_second=3000,
                                latency_slo_seconds=0.1)
        plan = CapacityPlanner(workload).plan(resnet50, A100)
        with pytest.raises(ValueError, match="safety"):
            replica_ceiling(plan, safety_factor=0.5)


class TestAutoscalerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(slo_p95_seconds=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(slo_p95_seconds=0.1, interval=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(slo_p95_seconds=0.1, min_replicas=2,
                             max_replicas=1)
        with pytest.raises(ValueError):
            AutoscalerConfig(slo_p95_seconds=0.1,
                             scale_in_utilization=1.5)

    @pytest.mark.parametrize("field", [
        "slo_p95_seconds", "interval", "scale_out_queue_depth",
        "scale_in_utilization", "scale_in_p95_margin", "cooldown_seconds"])
    def test_nan_rejected(self, field):
        kwargs = {"slo_p95_seconds": 0.1, field: float("nan")}
        with pytest.raises(ValueError, match=field):
            AutoscalerConfig(**kwargs)


def _autoscaled_run(trace: ArrivalTrace, slo=0.1, max_replicas=6,
                    service=0.02):
    """Step-load harness: shared registry, one starting replica."""
    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)

    def factory():
        return _server(sim, service=service, registry=registry)

    balancer = LoadBalancer([factory()], RoundRobinPolicy(),
                            registry=registry)
    autoscaler = Autoscaler(balancer, factory, AutoscalerConfig(
        slo_p95_seconds=slo, interval=0.25, max_replicas=max_replicas,
        cooldown_seconds=0.5))
    replayer = TraceReplayer(balancer, "m")
    replayer.schedule(trace)
    autoscaler.start()
    responses = balancer.run()
    return balancer, autoscaler, replayer, responses


class TestAutoscalerIntegration:
    # One replica serves batches of <= 8 in 20 ms: ~400 img/s capacity.
    # The step offers 1200 rps, so ~3 replicas are needed to hold it.
    @pytest.fixture(scope="class")
    def trace(self):
        return step_trace(duration=24.0, base_rate=40.0,
                          step_rate=1200.0, step_start=4.0,
                          step_end=12.0, seed=7)

    @pytest.fixture(scope="class")
    def run(self, trace):
        return _autoscaled_run(trace)

    def test_scales_out_under_step_and_back_down(self, run):
        _, autoscaler, _, _ = run
        actions = [e.action for e in autoscaler.events]
        assert "scale_out" in actions
        assert "drain" in actions and "release" in actions
        peak = max(e.replicas for e in autoscaler.events)
        assert peak >= 3

    def test_p95_recovers_under_slo_after_scale_out(self, run):
        _, autoscaler, _, _ = run
        last_out = max(e.time for e in autoscaler.events
                       if e.action == "scale_out")
        # After the pool stops growing, the controller's own windowed
        # p95 readings return below the SLO before the trace ends.
        later = [e for e in autoscaler.events if e.time > last_out]
        assert later, "no events after the last scale-out"
        assert any(e.p95_seconds is not None
                   and e.p95_seconds <= 0.1 for e in later)

    def test_no_request_lost_across_scale_events(self, run):
        balancer, _, replayer, responses = run
        assert len(responses) == replayer.submitted
        assert all(r.ok for r in responses)
        # Nothing still queued or executing anywhere.
        assert balancer.queue_depth() == 0
        for backend in balancer.backends:
            assert backend.busy_instances() == 0

    def test_drains_back_toward_minimum(self, run):
        balancer, autoscaler, _, _ = run
        peak = max(e.replicas for e in autoscaler.events)
        assert len(balancer.active_backends) < peak
        assert not balancer.draining_backends

    def test_registry_records_scale_events(self, run):
        balancer, autoscaler, _, _ = run
        events = balancer.metrics.get("autoscale_events_total")
        outs = sum(1 for e in autoscaler.events
                   if e.action == "scale_out")
        assert events.value(action="scale_out") == outs
        assert balancer.metrics.get("autoscale_replicas").value() == \
            len(balancer.active_backends)

    def test_ceiling_is_respected(self, trace):
        balancer, autoscaler, _, _ = _autoscaled_run(trace,
                                                     max_replicas=2)
        assert max(e.replicas for e in autoscaler.events) <= 2
        assert len(balancer.backends) <= 2

    def test_deterministic_event_log(self, trace, run):
        _, first, _, _ = run
        _, second, _, _ = _autoscaled_run(trace)
        strip = [(e.time, e.action, e.replicas, e.reason)
                 for e in first.events]
        assert strip == [(e.time, e.action, e.replicas, e.reason)
                         for e in second.events]


class TestAdmissionAtTheBalancer:
    def test_overload_sheds_instead_of_queueing_unboundedly(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        server = _server(sim, service=0.1, registry=registry)
        balancer = LoadBalancer(
            [server], registry=registry,
            admission=AdmissionController(AdmissionConfig(
                max_queued_requests=10)))
        for i in range(100):
            sim.schedule_at(i * 1e-4,
                            lambda: balancer.submit(Request("m")))
        responses = balancer.run()
        rejected = [r for r in responses if r.status == "rejected"]
        assert len(responses) == 100
        assert rejected, "expected shedding under overload"
        assert registry.get("admission_rejected_total").value(
            reason="queue") == len(rejected)
        # Shed requests answer instantly — graceful degradation.
        assert all(r.latency == 0.0 for r in rejected)

    def test_token_bucket_paces_sustained_overrate(self):
        sim = Simulator()
        server = _server(sim, service=0.001)
        balancer = LoadBalancer(
            [server],
            admission=AdmissionController(AdmissionConfig(
                rate_per_second=50.0, burst=5)))
        # 200 rps offered for one second against a 50 rps limit.
        for i in range(200):
            sim.schedule_at(i / 200.0,
                            lambda: balancer.submit(Request("m")))
        responses = balancer.run()
        admitted = [r for r in responses if r.ok]
        # burst + rate * 1s, within rounding.
        assert 50 <= len(admitted) <= 56
        shed = balancer.metrics.get("admission_rejected_total")
        assert shed.value(reason="rate") == 200 - len(admitted)


class TestScalingTimelineRendering:
    def test_renders_events_and_flags_breaches(self):
        trace = step_trace(duration=16.0, base_rate=40.0,
                           step_rate=1200.0, step_start=2.0,
                           step_end=8.0, seed=3)
        _, autoscaler, _, _ = _autoscaled_run(trace)
        text = render_scaling_timeline(autoscaler.events,
                                       slo_seconds=0.1)
        assert "scale_out" in text
        assert "!" in text  # at least one annotated SLO breach
        lines = text.splitlines()
        assert len(lines) == len(autoscaler.events) + 1

    def test_empty_events(self):
        assert render_scaling_timeline([]) == "(no scale events)\n"

    def test_width_validated(self):
        with pytest.raises(ValueError):
            render_scaling_timeline([], width=2)


class TestSummaryAccounting:
    def test_admitted_equals_completed_under_autoscaling(self):
        trace = step_trace(duration=16.0, base_rate=40.0,
                           step_rate=800.0, step_start=2.0,
                           step_end=8.0, seed=11)
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)

        def factory():
            return _server(sim, service=0.02, registry=registry)

        balancer = LoadBalancer(
            [factory()], RoundRobinPolicy(), registry=registry,
            admission=AdmissionController(AdmissionConfig(
                max_queued_requests=200)))
        autoscaler = Autoscaler(balancer, factory, AutoscalerConfig(
            slo_p95_seconds=0.1, interval=0.25, max_replicas=4,
            cooldown_seconds=0.5))
        replayer = TraceReplayer(balancer, "m")
        replayer.schedule(trace)
        autoscaler.start()
        responses = balancer.run()
        assert len(responses) == replayer.submitted
        ok = [r for r in responses if r.ok]
        shed = registry.get("admission_rejected_total").total()
        assert len(ok) + shed == replayer.submitted
        assert summarize_responses(ok).count == len(ok)

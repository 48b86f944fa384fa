"""Tests for repro.scale — data parallelism and load balancing."""

import pytest

from repro.hardware.platform import A100
from repro.scale.balancer import (
    JoinShortestQueuePolicy,
    LoadBalancer,
    RoundRobinPolicy,
)
from repro.scale.parallel import DataParallelGroup
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.metrics import summarize_responses
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer


class TestDataParallelGroup:
    @pytest.fixture(scope="class")
    def group(self, vit_small):
        return DataParallelGroup(vit_small, A100)

    def test_single_replica_matches_engine(self, group, vit_small):
        from repro.engine.latency import LatencyModel

        point = group.point(1, 64)
        assert point.throughput == pytest.approx(
            LatencyModel(vit_small, A100).throughput(64))
        assert point.scaling_efficiency == 1.0

    def test_two_gpu_node_near_doubles(self, group):
        # The Table 1 nodes' second GPU: ~2x at ~98% efficiency.
        one = group.point(1, 64)
        two = group.point(2, 64)
        assert two.throughput == pytest.approx(2 * one.throughput
                                               * group.efficiency(2))
        assert group.efficiency(2) > 0.95

    def test_efficiency_monotonically_decays(self, group):
        effs = [group.efficiency(n) for n in (1, 2, 4, 8, 16)]
        assert effs == sorted(effs, reverse=True)

    def test_scaling_curve_throughput_increases(self, group):
        curve = group.scaling_curve(8)
        throughputs = [p.throughput for p in curve]
        assert throughputs == sorted(throughputs)

    def test_validation(self, vit_small):
        with pytest.raises(ValueError):
            DataParallelGroup(vit_small, A100, coordination_overhead=-1)
        group = DataParallelGroup(vit_small, A100)
        with pytest.raises(ValueError):
            group.efficiency(0)
        with pytest.raises(ValueError):
            group.scaling_curve(0)


def _make_backend(sim, service=0.01):
    server = TritonLikeServer(sim)
    server.register(ModelConfig(
        "m", lambda n: service,
        batcher=BatcherConfig(max_batch_size=8, max_queue_delay=0.001)))
    return server


class TestLoadBalancer:
    def test_round_robin_balances_exactly(self):
        sim = Simulator()
        backends = [_make_backend(sim) for _ in range(3)]
        balancer = LoadBalancer(backends, RoundRobinPolicy())
        for _ in range(9):
            balancer.submit(Request("m"))
        balancer.run()
        assert balancer.routing_counts() == [3, 3, 3]

    def test_all_requests_answered(self):
        sim = Simulator()
        backends = [_make_backend(sim) for _ in range(2)]
        balancer = LoadBalancer(backends)
        for _ in range(10):
            balancer.submit(Request("m"))
        responses = balancer.run()
        assert len(responses) == 10

    def test_jsq_prefers_idle_backend(self):
        sim = Simulator()
        slow = _make_backend(sim, service=1.0)
        fast = _make_backend(sim, service=1.0)
        balancer = LoadBalancer([slow, fast], JoinShortestQueuePolicy())
        # Pre-load the first backend directly.
        for _ in range(5):
            slow.submit(Request("m"))
        balancer.submit(Request("m"))
        assert balancer.routing_counts() == [0, 1]

    def test_two_backends_double_throughput(self, vit_tiny):
        from repro.engine.latency import LatencyModel

        latency = LatencyModel(vit_tiny, A100)

        def run(n_backends):
            sim = Simulator()
            backends = []
            for _ in range(n_backends):
                server = TritonLikeServer(sim)
                server.register(ModelConfig(
                    "m", lambda k: latency.latency(max(1, k)),
                    batcher=BatcherConfig(max_batch_size=256,
                                          max_queue_delay=0.002)))
                backends.append(server)
            balancer = LoadBalancer(backends, RoundRobinPolicy())
            for i in range(4000):
                sim.schedule_at(i / 30000.0,
                                lambda: balancer.submit(Request("m")))
            responses = balancer.run()
            return summarize_responses(responses, warmup_fraction=0.1)

        single = run(1)
        double = run(2)
        # One A100 saturates near ~20k img/s; two keep up with 30k.
        assert double.throughput_ips > 1.3 * single.throughput_ips

    def test_backends_must_share_simulator(self):
        a = _make_backend(Simulator())
        b = _make_backend(Simulator())
        with pytest.raises(ValueError, match="share"):
            LoadBalancer([a, b])

    def test_empty_backends_rejected(self):
        with pytest.raises(ValueError):
            LoadBalancer([])

    def test_run_returns_only_new_responses_each_call(self):
        # Regression: run() used to re-extend the cumulative response
        # log of every backend on every call, so a second run() replayed
        # all earlier completions as duplicates.
        sim = Simulator()
        balancer = LoadBalancer([_make_backend(sim)])
        for _ in range(3):
            balancer.submit(Request("m"))
        first = balancer.run()
        for _ in range(2):
            balancer.submit(Request("m"))
        second = balancer.run()
        assert len(first) == 3
        assert len(second) == 2
        ids = [r.request.request_id for r in first + second]
        assert len(ids) == len(set(ids)), "duplicated responses"
        assert len(balancer.all_responses()) == 5

    def test_run_responses_ordered_by_completion(self):
        sim = Simulator()
        backends = [_make_backend(sim, service=0.01),
                    _make_backend(sim, service=0.05)]
        balancer = LoadBalancer(backends, RoundRobinPolicy())
        for _ in range(8):
            balancer.submit(Request("m"))
        responses = balancer.run()
        times = [r.completion_time for r in responses]
        assert times == sorted(times)


class TestRoundRobinResize:
    def test_rotation_survives_backend_addition(self):
        # Regression: the rotation was a global counter taken modulo the
        # *current* pool size, so growing the pool mid-stream permuted
        # the cycle and could starve the new backend entirely.
        sim = Simulator()
        backends = [_make_backend(sim) for _ in range(3)]
        balancer = LoadBalancer(backends, RoundRobinPolicy())
        for _ in range(4):  # A B C A
            balancer.submit(Request("m"))
        balancer.add_backend(_make_backend(sim))
        for _ in range(3):  # resumes after A: B C D
            balancer.submit(Request("m"))
        balancer.run()
        assert balancer.routing_counts() == [2, 2, 2, 1]

    def test_rotation_survives_drain(self):
        sim = Simulator()
        backends = [_make_backend(sim) for _ in range(3)]
        balancer = LoadBalancer(backends, RoundRobinPolicy())
        for _ in range(2):  # A B
            balancer.submit(Request("m"))
        balancer.drain_backend(backends[1])
        for _ in range(4):  # C A C A — cycle over the two active
            balancer.submit(Request("m"))
        balancer.run()
        assert balancer.routing_counts() == [3, 1, 2]

    def test_balance_across_add_and_remove(self):
        sim = Simulator()
        backends = [_make_backend(sim) for _ in range(2)]
        balancer = LoadBalancer(backends, RoundRobinPolicy())
        for _ in range(4):
            balancer.submit(Request("m"))
        extra = _make_backend(sim)
        balancer.add_backend(extra)
        for _ in range(6):
            balancer.submit(Request("m"))
        balancer.drain_backend(extra)
        balancer.run()
        balancer.release_backend(extra)
        for _ in range(4):
            balancer.submit(Request("m"))
        balancer.run()
        # Every phase stayed balanced: 2+2(+2), then +2 each survivor.
        assert balancer.routing_counts() == [6, 6]
        assert len(balancer.all_responses()) == 14


class TestJoinShortestQueueTieBreak:
    def test_ties_rotate_instead_of_pinning_first(self):
        # Regression: equal-load ties always resolved to index 0, so a
        # lightly loaded pool funnelled every request to one backend.
        sim = Simulator()
        backends = [_make_backend(sim, service=0.001) for _ in range(3)]
        balancer = LoadBalancer(backends, JoinShortestQueuePolicy())
        # Space arrivals out so each completes before the next: every
        # decision sees all queues equal (a pure tie).
        for i in range(9):
            sim.schedule_at(i * 0.1,
                            lambda: balancer.submit(Request("m")))
        balancer.run()
        assert balancer.routing_counts() == [3, 3, 3]

    def test_load_still_dominates_tiebreak(self):
        sim = Simulator()
        busy = _make_backend(sim, service=1.0)
        idle_a = _make_backend(sim, service=1.0)
        idle_b = _make_backend(sim, service=1.0)
        balancer = LoadBalancer([busy, idle_a, idle_b],
                                JoinShortestQueuePolicy())
        for _ in range(5):
            busy.submit(Request("m"))
        balancer.submit(Request("m"))
        balancer.submit(Request("m"))
        assert balancer.routing_counts()[0] == 0
        assert sorted(balancer.routing_counts()[1:]) == [1, 1]

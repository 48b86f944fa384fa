"""SLO-burn provisioned-concurrency policy and the what-if crossover."""

import pytest

from repro.faas import FaaSBackend, FaaSFunctionConfig, FaaSPlatformModel
from repro.predict.whatif import compare_serverless
from repro.scale.autoscaler import FaaSConcurrencyPolicy, FaaSPolicyConfig
from repro.serving.events import Simulator
from repro.serving.request import Request
from repro.serving.traces import sparse_diurnal_trace


PLATFORM = FaaSPlatformModel(
    name="test", cold_start_base_seconds=0.5,
    cold_start_jitter_seconds=0.0, artifact_bytes=125e6,
    artifact_bandwidth_bps=1e9, memory_gb=2.0)


def make_policy(config, horizon=12.0):
    """Backend + policy with a foreground heartbeat through ``horizon``.

    The policy tick is a daemon event and re-arms only while
    foreground work pends, so tests pin the loop alive with no-op
    foreground events — the same sampler discipline the autoscaler
    tests rely on.
    """
    sim = Simulator()
    backend = FaaSBackend(sim, seed=None)
    backend.register(FaaSFunctionConfig(
        "fn", lambda n: 0.01, platform=PLATFORM,
        concurrency_limit=8, keep_alive_seconds=60.0))
    policy = FaaSConcurrencyPolicy(backend, "fn", config=config)
    t = 0.0
    while t <= horizon:
        sim.schedule(t, lambda: None)
        t += 0.5
    return sim, backend, policy


class TestPolicyConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            FaaSPolicyConfig(interval=0.0)
        with pytest.raises(ValueError, match="min_provisioned"):
            FaaSPolicyConfig(min_provisioned=-1)
        with pytest.raises(ValueError, match="max provisioned"):
            FaaSPolicyConfig(min_provisioned=2, max_provisioned=1)
        with pytest.raises(ValueError, match="step"):
            FaaSPolicyConfig(step=0)
        with pytest.raises(ValueError, match="hold_seconds"):
            FaaSPolicyConfig(hold_seconds=-1.0)

    @pytest.mark.parametrize("field, message", [
        ("interval", "interval"), ("hold_seconds", "hold_seconds")])
    def test_nan_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            FaaSPolicyConfig(**{field: float("nan")})


class TestProvisionRelease:
    def test_start_applies_the_minimum_floor(self):
        sim, backend, policy = make_policy(
            FaaSPolicyConfig(interval=1.0, min_provisioned=1,
                             max_provisioned=2), horizon=2.0)
        policy.start()
        sim.run()
        assert backend.provisioned_concurrency("fn") == 1
        assert backend.function_stats("fn").prewarms == 1

    def test_alerts_raise_the_floor_step_by_step_to_max(self):
        sim, backend, policy = make_policy(
            FaaSPolicyConfig(interval=1.0, max_provisioned=2,
                             hold_seconds=1e9))
        policy.start()
        for t in (0.5, 1.5, 2.5):
            sim.schedule(t, policy.notify_slo_alert)
        sim.run()
        # Third alert is a no-op: the floor is already at max.
        assert backend.provisioned_concurrency("fn") == 2
        actions = [(e.action, e.provisioned) for e in policy.events]
        assert actions == [("provision", 1), ("provision", 2)]
        assert all(e.reason == "slo burn-rate"
                   for e in policy.events)

    def test_sustained_calm_releases_back_to_min(self):
        sim, backend, policy = make_policy(
            FaaSPolicyConfig(interval=1.0, max_provisioned=2,
                             hold_seconds=4.0), horizon=12.0)
        policy.start()
        for t in (0.5, 1.5):
            sim.schedule(t, policy.notify_slo_alert)
        sim.run()
        assert backend.provisioned_concurrency("fn") == 0
        actions = [e.action for e in policy.events]
        assert actions == ["provision", "provision",
                           "release", "release"]
        releases = [e for e in policy.events
                    if e.action == "release"]
        assert all(e.reason == "sustained calm" for e in releases)
        # The hold window actually gated the decay: last alert landed
        # at the t=2.0 tick, so no release before t=6.0.
        assert releases[0].time >= 6.0

    def test_fresh_alert_resets_the_calm_clock(self):
        sim, backend, policy = make_policy(
            FaaSPolicyConfig(interval=1.0, max_provisioned=1,
                             hold_seconds=4.0), horizon=9.0)
        policy.start()
        sim.schedule(0.5, policy.notify_slo_alert)
        sim.schedule(4.5, policy.notify_slo_alert)
        sim.run()
        releases = [e for e in policy.events
                    if e.action == "release"]
        assert len(releases) == 1
        assert releases[0].time >= 9.0

    def test_metrics_track_events_and_floor(self):
        sim, backend, policy = make_policy(
            FaaSPolicyConfig(interval=1.0, max_provisioned=2,
                             hold_seconds=1e9), horizon=4.0)
        policy.start()
        sim.schedule(0.5, policy.notify_slo_alert)
        sim.run()
        metrics = backend.metrics
        assert metrics.get("faas_policy_events_total").value(
            action="provision") == 1
        assert metrics.get("faas_provisioned_concurrency").value(
            function="fn") == 1

    def test_stop_halts_the_loop(self):
        sim, backend, policy = make_policy(
            FaaSPolicyConfig(interval=1.0, max_provisioned=2,
                             hold_seconds=1e9))
        policy.start()
        sim.schedule(1.5, policy.stop)
        sim.schedule(2.5, policy.notify_slo_alert)
        sim.run()
        assert policy.events == []

    def test_double_start_rejected(self):
        sim, backend, policy = make_policy(FaaSPolicyConfig())
        policy.start()
        with pytest.raises(RuntimeError, match="already started"):
            policy.start()

    def test_prewarmed_floor_serves_requests_warm(self):
        sim, backend, policy = make_policy(
            FaaSPolicyConfig(interval=1.0, min_provisioned=1,
                             max_provisioned=1), horizon=6.0)
        policy.start()
        sim.schedule(5.0, lambda: backend.submit(Request("fn")))
        sim.run()
        stats = backend.function_stats("fn")
        assert stats.cold_starts == 0
        assert stats.warm_starts == 1


class TestCompareServerless:
    def sparse(self):
        return sparse_diurnal_trace(duration=7200.0, peak_rate=6.0,
                                    night_rate=0.02, seed=1)

    def test_validation(self):
        trace = self.sparse()
        with pytest.raises(ValueError, match="execute_seconds"):
            compare_serverless(trace, execute_seconds=0.0,
                               memory_gb=1.0,
                               replica_cost_per_hour=0.02,
                               replica_qps_capacity=10.0)
        with pytest.raises(ValueError, match="memory_gb"):
            compare_serverless(trace, execute_seconds=0.02,
                               memory_gb=0.0,
                               replica_cost_per_hour=0.02,
                               replica_qps_capacity=10.0)
        with pytest.raises(ValueError, match="capacity"):
            compare_serverless(trace, execute_seconds=0.02,
                               memory_gb=1.0,
                               replica_cost_per_hour=0.02,
                               replica_qps_capacity=0.0)

    def test_break_even_matches_the_replica_rate(self):
        report = compare_serverless(
            self.sparse(), execute_seconds=0.02, memory_gb=4.0,
            replica_cost_per_hour=0.02, replica_qps_capacity=50.0)
        per_second = 0.02 / 3600.0
        assert report["break_even_qps"] * \
            report["per_invocation_usd"] == pytest.approx(per_second)

    def test_sparse_trace_favors_serverless_with_a_crossover(self):
        report = compare_serverless(
            self.sparse(), execute_seconds=0.02, memory_gb=4.0,
            replica_cost_per_hour=0.02, replica_qps_capacity=50.0)
        assert report["cheaper"] == "serverless"
        assert report["peak_rate"] > report["break_even_qps"]
        # Some daylight bins cross over to provisioned-cheaper while
        # the nighttime floor stays serverless-cheaper.
        assert 0 < report["crossover_hours"] < 2.0
        verdicts = {row["serverless_cheaper"]
                    for row in report["bins"]}
        assert verdicts == {True, False}

    def test_dense_trace_favors_provisioned(self):
        dense = sparse_diurnal_trace(duration=7200.0, peak_rate=60.0,
                                     night_rate=50.0, seed=1)
        report = compare_serverless(
            dense, execute_seconds=0.02, memory_gb=4.0,
            replica_cost_per_hour=0.02, replica_qps_capacity=100.0)
        assert report["cheaper"] == "provisioned"
        assert report["crossover_hours"] == 0.0

    def test_totals_integrate_the_bin_rates(self):
        report = compare_serverless(
            self.sparse(), execute_seconds=0.02, memory_gb=4.0,
            replica_cost_per_hour=0.02, replica_qps_capacity=50.0,
            bins=12)
        bin_seconds = 7200.0 / 12
        expected = sum(row["serverless_usd_per_s"] * bin_seconds
                       for row in report["bins"])
        assert report["serverless_total_usd"] == pytest.approx(
            expected)
        assert report["provisioned_total_usd"] == pytest.approx(
            report["replicas"] * 0.02 / 3600.0 * 7200.0)

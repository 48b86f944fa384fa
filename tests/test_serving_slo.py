"""Tests for repro.serving.slo — error budgets and burn-rate alerts."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scale.autoscaler import Autoscaler, AutoscalerConfig
from repro.scale.balancer import LoadBalancer, RoundRobinPolicy
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.observability import MetricsRegistry
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer
from repro.serving.slo import BurnAlert, SLOConfig, SLOMonitor

THRESHOLD = 1.0 / 60.0  # the paper's 60 QPS frame budget


def _config(**overrides):
    defaults = dict(latency_threshold_seconds=THRESHOLD,
                    objective=0.99, interval=0.25,
                    fast_window_seconds=1.0, slow_window_seconds=5.0,
                    fast_burn_threshold=14.4, slow_burn_threshold=6.0,
                    min_window_samples=5, rearm_seconds=5.0)
    defaults.update(overrides)
    return SLOConfig(**defaults)


class TestSLOConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(latency_threshold_seconds=0.0)
        with pytest.raises(ValueError):
            _config(objective=1.0)
        with pytest.raises(ValueError):
            _config(interval=0.0)
        with pytest.raises(ValueError):
            _config(slow_window_seconds=0.5)  # slower than fast
        with pytest.raises(ValueError):
            _config(fast_burn_threshold=0.0)
        with pytest.raises(ValueError):
            _config(min_window_samples=0)
        with pytest.raises(ValueError):
            _config(rearm_seconds=-1.0)

    @pytest.mark.parametrize("field", [
        "latency_threshold_seconds", "objective", "interval",
        "fast_window_seconds", "slow_window_seconds",
        "fast_burn_threshold", "slow_burn_threshold", "rearm_seconds",
    ])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            _config(**{field: float("nan")})


class TestBurnAlert:
    def test_budget_remaining(self):
        alert = BurnAlert(time=1.0, fast_burn_rate=20.0,
                          slow_burn_rate=10.0, window_error_rate=0.2,
                          budget_consumed=0.25)
        assert alert.budget_remaining == 0.75


def _monitor(sim, registry, **overrides):
    return SLOMonitor(sim, registry, _config(**overrides),
                      histogram_name="request_latency_seconds")


def _histogram(registry):
    # Bucket boundary at the threshold: conservative counting is exact.
    return registry.histogram(
        "request_latency_seconds", buckets=(0.005, THRESHOLD, 0.1, 1.0))


class TestViolationCounting:
    def test_conservative_bucket_split(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        histogram = _histogram(registry)
        monitor = _monitor(sim, registry)
        for value in (0.001, 0.01, THRESHOLD, 0.05, 0.5):
            histogram.observe(value, model="m")
        violations, total = monitor._cumulative()
        assert total == 5
        # <= threshold is good (three obs); above it violates (two).
        assert violations == 2

    def test_observations_in_threshold_bucket_count_as_violations(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        # No bucket boundary at the threshold: everything in the
        # bucket containing it must count as violating (never
        # under-report).
        histogram = registry.histogram("request_latency_seconds",
                                       buckets=(0.005, 0.1, 1.0))
        monitor = _monitor(sim, registry)
        histogram.observe(0.01)  # under threshold, same bucket as over
        violations, total = monitor._cumulative()
        assert (violations, total) == (1, 1)

    def test_missing_histogram_reads_zero(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        monitor = _monitor(sim, registry)
        assert monitor._cumulative() == (0, 0)


class TestBurnRateAlerting:
    def _run_overload(self, good_seconds, violate_seconds,
                      rate=40.0, duration=4.0, **overrides):
        """Scripted load: good completions, then a violation storm."""
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        histogram = _histogram(registry)
        monitor = _monitor(sim, registry, **overrides)

        def observe(value):
            return lambda: histogram.observe(value, model="m")

        steps = int(duration * rate)
        for i in range(steps):
            t = (i + 1) / rate
            value = (0.25 if good_seconds <= t < violate_seconds
                     else 0.001)
            sim.schedule_at(t, observe(value))
        monitor.start()
        sim.run()
        return monitor

    def test_overload_fires_alert(self):
        monitor = self._run_overload(good_seconds=1.0,
                                     violate_seconds=3.0)
        assert monitor.alerts
        first = monitor.alerts[0]
        # The storm starts at t=1; both windows must fill first.
        assert 1.0 < first.time <= 3.0
        assert first.fast_burn_rate >= 14.4
        assert first.slow_burn_rate >= 6.0
        assert 0.0 < first.window_error_rate <= 1.0

    def test_healthy_run_never_alerts(self):
        monitor = self._run_overload(good_seconds=99.0,
                                     violate_seconds=99.0)
        assert monitor.alerts == []
        assert monitor.budget_consumed() == 0.0

    def test_rearm_suppresses_repeat_alerts(self):
        throttled = self._run_overload(1.0, 3.0, rearm_seconds=60.0)
        noisy = self._run_overload(1.0, 3.0, rearm_seconds=0.0)
        assert len(throttled.alerts) == 1
        assert len(noisy.alerts) > len(throttled.alerts)

    def test_callbacks_receive_alerts(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        histogram = _histogram(registry)
        monitor = _monitor(sim, registry)
        seen = []
        monitor.on_alert(seen.append)
        for i in range(40):
            sim.schedule_at(0.1 + i * 0.05,
                            lambda: histogram.observe(0.5))
        monitor.start()
        sim.run()
        assert seen == monitor.alerts and seen

    def test_gauges_track_burn_and_budget(self):
        monitor = self._run_overload(1.0, 3.0)
        registry = monitor.registry
        assert registry.get("slo_burn_alerts_total").total() == \
            len(monitor.alerts)
        assert registry.get("slo_error_budget_remaining").value() < 1.0

    def test_min_window_samples_gates_noise(self):
        # Two violating completions are not evidence of an overload.
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        histogram = _histogram(registry)
        monitor = _monitor(sim, registry, min_window_samples=5)
        for t in (0.1, 0.6):
            sim.schedule_at(t, lambda: histogram.observe(0.5))
        monitor.start()
        sim.run()
        assert monitor.alerts == []

    def test_double_start_rejected(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        monitor = _monitor(sim, registry)
        sim.schedule(1.0, lambda: None)
        monitor.start()
        with pytest.raises(RuntimeError, match="already started"):
            monitor.start()


class _ScanReference:
    """SLO evaluation with each window summed by a scan over its ticks.

    This is how :class:`SLOMonitor` computed its windows before they
    became running sums: every tick rescans the retained ticks and
    keeps those with ``time > now - seconds``.  It is fed the same
    per-tick deltas the monitor reads off its histogram.
    """

    def __init__(self, config):
        self.config = config
        self.ticks = deque()
        self.cum_violations = self.cum_total = 0
        self.last_alert_time = None
        self.alerts = []

    def _window(self, now, seconds):
        cutoff = now - seconds
        violations = total = 0
        for time, v, t in self.ticks:
            if time > cutoff:
                violations += v
                total += t
        return violations, total

    def _burn(self, violations, total):
        if total == 0:
            return 0.0
        return (violations / total) / (1.0 - self.config.objective)

    def evaluate(self, now, d_viol, d_total):
        """``(fast burn, slow burn, budget consumed)`` after one tick."""
        cfg = self.config
        self.cum_violations += d_viol
        self.cum_total += d_total
        self.ticks.append((now, d_viol, d_total))
        horizon = now - cfg.slow_window_seconds
        while self.ticks and self.ticks[0][0] <= horizon:
            self.ticks.popleft()
        fast_viol, fast_total = self._window(now, cfg.fast_window_seconds)
        fast = self._burn(fast_viol, fast_total)
        slow = self._burn(*self._window(now, cfg.slow_window_seconds))
        consumed = (0.0 if self.cum_total == 0 else self.cum_violations
                    / (self.cum_total * (1.0 - cfg.objective)))
        if not (fast >= cfg.fast_burn_threshold
                and slow >= cfg.slow_burn_threshold
                and fast_total >= cfg.min_window_samples):
            self.last_alert_time = None
        elif self.last_alert_time is None or \
                now - self.last_alert_time >= cfg.rearm_seconds:
            self.last_alert_time = now
            self.alerts.append(BurnAlert(
                time=now, fast_burn_rate=fast, slow_burn_rate=slow,
                window_error_rate=fast_viol / fast_total,
                budget_consumed=consumed))
        return fast, slow, consumed


class TestRunningWindows:
    """The running-sum windows agree with a scan on every tick."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_match_the_scan_reference(self, data):
        interval = data.draw(st.sampled_from([0.1, 0.25, 1.0]), "interval")
        # Windows are often exact multiples of the interval, so a tick
        # lands exactly on the eviction boundary; fast == slow is drawn
        # as well.
        fast = interval * data.draw(st.integers(1, 5), "fast ticks") + \
            data.draw(st.sampled_from([0.0, 0.0, interval / 3]), "skew")
        slow = fast + interval * data.draw(st.integers(0, 5), "extra")
        config = _config(
            interval=interval, fast_window_seconds=fast,
            slow_window_seconds=slow,
            fast_burn_threshold=data.draw(st.sampled_from([1.0, 14.4])),
            slow_burn_threshold=data.draw(st.sampled_from([1.0, 6.0])),
            min_window_samples=data.draw(st.integers(1, 4)),
            rearm_seconds=data.draw(
                st.sampled_from([0.0, interval, 2.0 * interval, 5.0])))
        # Per tick: gap since the previous tick (in intervals), then
        # violating and good completions observed during the gap.
        ticks = data.draw(st.lists(
            st.tuples(st.sampled_from([1, 1, 1, 2, 3]),
                      st.integers(0, 3), st.integers(0, 3)),
            min_size=1, max_size=40), "ticks")

        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        histogram = _histogram(registry)
        monitor = SLOMonitor(sim, registry, config)
        reference = _ScanReference(config)
        gauges = [registry.gauge(name) for name in (
            "slo_fast_burn_rate", "slo_slow_burn_rate",
            "slo_error_budget_remaining")]
        got, want = [], []

        def tick(index):
            _, violations, good = ticks[index]
            for _ in range(violations):
                histogram.observe(0.5, model="m")
            for _ in range(good):
                histogram.observe(0.001, model="m")
            monitor.evaluate_now()
            got.append((tuple(g.value() for g in gauges),
                        monitor.budget_consumed(), list(monitor.alerts)))
            fast_burn, slow_burn, consumed = reference.evaluate(
                sim.now, violations, violations + good)
            want.append(((fast_burn, slow_burn, 1.0 - consumed),
                         consumed, list(reference.alerts)))
            if index + 1 < len(ticks):
                sim.schedule(ticks[index + 1][0] * interval,
                             lambda: tick(index + 1))

        sim.schedule(ticks[0][0] * interval, lambda: tick(0))
        sim.run()
        assert len(got) == len(ticks)
        assert got == want


class TestAutoscalerConsumesAlerts:
    def test_burn_alert_triggers_scale_out(self):
        """Regression: the burn alert alone must grow the pool.

        The p95 threshold and queue threshold are set unreachable, so
        the only possible scale-out signal is the SLO monitor's alert.
        """
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)

        def replica_factory():
            server = TritonLikeServer(sim, registry=registry)
            server.register(ModelConfig(
                "m", lambda n: 0.25,
                batcher=BatcherConfig(max_batch_size=4,
                                      max_queue_delay=0.002)))
            return server

        balancer = LoadBalancer([replica_factory()],
                                policy=RoundRobinPolicy(),
                                registry=registry)
        autoscaler = Autoscaler(balancer, replica_factory,
                                AutoscalerConfig(
                                    slo_p95_seconds=1e6,
                                    scale_out_queue_depth=1e9,
                                    interval=0.25, breach_intervals=2,
                                    cooldown_seconds=0.0,
                                    max_replicas=2))
        monitor = SLOMonitor(sim, registry, _config(),
                             histogram_name="request_latency_seconds")
        monitor.on_alert(autoscaler.notify_slo_alert)

        # Overload: every completion takes 0.25 s against a 16.7 ms
        # threshold, plenty of traffic for both windows.
        for i in range(120):
            sim.schedule_at(0.05 * i,
                            lambda: balancer.submit(Request("m")))
        autoscaler.start()
        monitor.start()
        balancer.run()

        assert monitor.alerts, "overload must fire a burn alert"
        outs = [e for e in autoscaler.events if e.action == "scale_out"]
        assert outs, "autoscaler must consume the alert"
        assert outs[0].reason == "slo burn-rate"
        assert outs[0].time >= monitor.alerts[0].time

    def test_alert_does_not_scale_without_traffic_reasons(self):
        # No alert, unreachable thresholds: the pool must stay put.
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)

        def replica_factory():
            server = TritonLikeServer(sim, registry=registry)
            server.register(ModelConfig(
                "m", lambda n: 0.001,
                batcher=BatcherConfig(enabled=False)))
            return server

        balancer = LoadBalancer([replica_factory()],
                                policy=RoundRobinPolicy(),
                                registry=registry)
        autoscaler = Autoscaler(balancer, replica_factory,
                                AutoscalerConfig(
                                    slo_p95_seconds=1e6,
                                    scale_out_queue_depth=1e9,
                                    interval=0.25,
                                    cooldown_seconds=0.0))
        for i in range(20):
            sim.schedule_at(0.05 * i,
                            lambda: balancer.submit(Request("m")))
        autoscaler.start()
        balancer.run()
        assert not [e for e in autoscaler.events
                    if e.action == "scale_out"]

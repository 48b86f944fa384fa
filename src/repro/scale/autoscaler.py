"""Closed-loop replica autoscaling over the load balancer.

The observability layer (:mod:`repro.serving.observability`) measures
queue depth, latency, and utilization *while they happen*; this module
closes the loop: a :class:`Autoscaler` runs as a periodic control task
on the simulator clock, watches those signals over a
:class:`~repro.scale.balancer.LoadBalancer`, and resizes the replica
pool against a p95 latency SLO —

* **scale-out** when the SLO is breached or queues grow for
  ``breach_intervals`` consecutive evaluation ticks (a new replica from
  ``replica_factory`` joins the pool immediately);
* **scale-in** when the pool has been calm for ``idle_intervals``
  ticks: the newest replica is *drained* — it stops receiving routes
  but finishes every in-flight batch — and only released from the pool
  once :attr:`~repro.serving.server.TritonLikeServer.is_drained`, so
  scale-in never loses a request.

The p95 signal is read the way a production controller would read it:
windowed deltas of the ``request_latency_seconds`` histogram buckets
(per tick, across every attached backend's registry), not a walk over
completed response objects.  The replica ceiling should come from the
capacity planner (:func:`replica_ceiling`): the autoscaler reacts to
load, the planner bounds what reacting is allowed to cost.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

from repro.predict.capacity import DeploymentPlan
from repro.scale.balancer import LoadBalancer
from repro.serving.observability import Histogram, MetricsRegistry
from repro.serving.server import TritonLikeServer


def replica_ceiling(plan: DeploymentPlan,
                    safety_factor: float = 1.0) -> int:
    """Max-replica bound for the autoscaler from a capacity plan.

    The planner already answers "how many devices hold this workload's
    peak within the SLO"; the autoscaler must not provision past that
    answer times a ``safety_factor`` (>= 1) of slack.  Raises on an
    infeasible plan — no replica count will meet the SLO, so bounding a
    scale-out loop with it would be meaningless.
    """
    if safety_factor < 1.0:
        raise ValueError("safety_factor must be >= 1")
    if not plan.meets_slo or plan.devices < 1:
        raise ValueError(
            f"plan for {plan.model!r} on {plan.platform!r} is "
            "infeasible; cannot derive a replica ceiling")
    return max(1, math.ceil(plan.devices * safety_factor))


@dataclasses.dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop policy knobs.

    Breach = windowed p95 above ``slo_p95_seconds`` *or* queued
    requests per active replica above ``scale_out_queue_depth``; calm =
    p95 under ``scale_in_p95_margin`` of the SLO (or no traffic), pool
    utilization under ``scale_in_utilization``, and a near-empty queue.
    Sustained breach scales out, sustained calm drains the newest
    replica; ``cooldown_seconds`` separates consecutive actions so one
    burst cannot thrash the pool.
    """

    slo_p95_seconds: float
    interval: float = 0.25
    min_replicas: int = 1
    max_replicas: int = 8
    breach_intervals: int = 2
    idle_intervals: int = 4
    scale_out_queue_depth: float = 8.0
    scale_in_utilization: float = 0.3
    scale_in_p95_margin: float = 0.7
    cooldown_seconds: float = 1.0
    #: Minimum completions in a tick window for the p95 estimate to be
    #: trusted (tiny windows make noisy quantiles).
    min_window_samples: int = 5

    def __post_init__(self) -> None:
        # The `not x > 0` / `not x >= 0` forms reject NaN too.
        if not self.slo_p95_seconds > 0:
            raise ValueError("slo_p95_seconds must be positive")
        if not self.interval > 0:
            raise ValueError("interval must be positive")
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.breach_intervals < 1 or self.idle_intervals < 1:
            raise ValueError("streak lengths must be >= 1")
        if not self.scale_out_queue_depth > 0:
            raise ValueError("scale_out_queue_depth must be positive")
        if not 0 < self.scale_in_utilization < 1:
            raise ValueError("scale_in_utilization must be in (0, 1)")
        if not 0 < self.scale_in_p95_margin <= 1:
            raise ValueError("scale_in_p95_margin must be in (0, 1]")
        if not self.cooldown_seconds >= 0:
            raise ValueError("cooldown_seconds must be >= 0")
        if self.min_window_samples < 1:
            raise ValueError("min_window_samples must be >= 1")


@dataclasses.dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action, with the signals that triggered it."""

    time: float
    #: "scale_out" (replica added), "drain" (replica stops receiving
    #: routes), or "release" (drained replica left the pool).
    action: str
    #: Active replicas *after* the action.
    replicas: int
    reason: str
    #: Windowed p95 at decision time (None: too few samples).
    p95_seconds: float | None
    queue_per_replica: float
    utilization: float


class Autoscaler:
    """The simulator-clock control loop resizing a balancer's pool.

    ``replica_factory`` builds one fresh backend on the balancer's
    simulator per scale-out (the caller wires model configs and shares
    the metrics registry as desired).  ``registry`` (control-plane
    metrics: event counters, replica/p95 gauges) defaults to the
    balancer's own registry, so one scrape shows data plane and control
    plane together.
    """

    def __init__(self, balancer: LoadBalancer,
                 replica_factory: Callable[[], TritonLikeServer],
                 config: AutoscalerConfig,
                 registry: MetricsRegistry | None = None):
        self.balancer = balancer
        self.replica_factory = replica_factory
        self.config = config
        self.events: list[ScaleEvent] = []
        self._running = False
        self._breach_streak = 0
        self._idle_streak = 0
        self._slo_alert_pending = False
        self._last_action_time = -math.inf
        #: Per-registry cumulative latency-bucket snapshot from the
        #: previous tick (keyed by registry identity so backends sharing
        #: one registry are not double counted).
        self._snapshots: dict[int, list[int]] = {}
        #: Per-backend cumulative occupied-seconds at the previous tick.
        self._busy_snapshots: dict[int, float] = {}
        self._last_window_start = 0.0
        m = registry if registry is not None else balancer.metrics
        self._c_events = m.counter(
            "autoscale_events_total", "Autoscaler actions by kind.")
        self._g_replicas = m.gauge(
            "autoscale_replicas", "Active replicas under the balancer.")
        self._g_p95 = m.gauge(
            "autoscale_window_p95_seconds",
            "Windowed p95 latency the autoscaler last acted on.")
        self._g_replicas.set(len(balancer.active_backends))

    # ------------------------------------------------------------------
    # Observability signals
    # ------------------------------------------------------------------
    def _latency_histograms(self) -> dict[int, Histogram]:
        """The latency histogram of each distinct backend registry."""
        out: dict[int, Histogram] = {}
        for backend in self.balancer.backends:
            metric = backend.metrics.get("request_latency_seconds")
            if isinstance(metric, Histogram):
                out[id(backend.metrics)] = metric
        return out

    @staticmethod
    def _bucket_totals(histogram: Histogram) -> list[int]:
        """Cumulative per-bucket counts summed across label sets."""
        totals = [0] * (len(histogram.buckets) + 1)
        for _, series in histogram.items():
            for i, count in enumerate(series.bucket_counts):
                totals[i] += count
        return totals

    def window_p95(self) -> float | None:
        """p95 latency over completions since the previous tick.

        Estimated from histogram bucket deltas the Prometheus way:
        the upper bound of the bucket containing the 95th percentile
        (conservative — never under-reports a breach).  None when the
        window holds fewer than ``min_window_samples`` completions.
        """
        deltas: list[int] | None = None
        bounds: tuple[float, ...] = ()
        fresh: dict[int, list[int]] = {}
        for key, histogram in self._latency_histograms().items():
            totals = self._bucket_totals(histogram)
            fresh[key] = totals
            previous = self._snapshots.get(key,
                                           [0] * len(totals))
            window = [t - p for t, p in zip(totals, previous)]
            if deltas is None:
                deltas = window
                bounds = histogram.buckets
            else:
                deltas = [a + b for a, b in zip(deltas, window)]
        self._snapshots = fresh
        if deltas is None:
            return None
        total = sum(deltas)
        if total < self.config.min_window_samples:
            return None
        threshold = 0.95 * total
        running = 0
        for bound, count in zip((*bounds, float("inf")), deltas):
            running += count
            if running >= threshold:
                return bound
        return float("inf")  # pragma: no cover - loop always returns

    def queue_per_replica(self) -> float:
        """Queued requests per active replica (the growth signal)."""
        active = self.balancer.active_backends
        queued = sum(b.queue_depth() for b in active)
        return queued / len(active) if active else 0.0

    @staticmethod
    def _occupied_seconds(backend: TritonLikeServer) -> float:
        """Cumulative busy + fault-occupied seconds across instances."""
        return sum(stats.busy_seconds + stats.fault_seconds
                   for model in backend.model_names()
                   for stats in backend.instance_stats(model))

    def utilization(self) -> float:
        """Occupied fraction of the active pool since the last tick.

        Windowed from the instances' cumulative busy/fault seconds
        (fault-detection windows count as occupied, matching
        :meth:`~repro.serving.instance.InstanceStats.utilization`)
        rather than sampled instantaneously — a single tick catching a
        momentarily busy instance must not veto a whole scale-in.
        """
        now = self.balancer.sim.now
        elapsed = now - self._last_window_start
        self._last_window_start = now
        active = self.balancer.active_backends
        fresh = {id(b): self._occupied_seconds(b) for b in active}
        # A backend first seen this window contributes everything it
        # has accumulated so far (it was created within the window).
        occupied = sum(total - self._busy_snapshots.get(key, 0.0)
                       for key, total in fresh.items())
        self._busy_snapshots = fresh
        instances = sum(b.total_instances() for b in active)
        if elapsed <= 0 or instances == 0:
            return 0.0
        return min(1.0, occupied / (elapsed * instances))

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the control loop at the current virtual time."""
        if self._running:
            raise RuntimeError("autoscaler already started")
        self._running = True
        # Baseline the signal windows so the first tick only covers
        # activity after start().
        self.window_p95()
        self.utilization()
        self.balancer.sim.schedule(self.config.interval, self._tick,
                                   daemon=True)

    def stop(self) -> None:
        """Stop the loop after the current tick."""
        self._running = False

    def notify_slo_alert(self, alert=None) -> None:
        """Feed an SLO burn-rate alert in as a scale-out signal.

        Wire via ``monitor.on_alert(autoscaler.notify_slo_alert)``.  A
        :class:`~repro.serving.slo.BurnAlert` already encodes a
        *sustained* multi-window budget burn, so the next tick treats it
        as a full breach streak rather than a single breached interval —
        the pool grows one cooldown sooner than the raw p95 path would
        allow.
        """
        self._slo_alert_pending = True

    def _record(self, action: str, reason: str,
                p95: float | None, queue: float, util: float) -> None:
        active = len(self.balancer.active_backends)
        self.events.append(ScaleEvent(
            time=self.balancer.sim.now, action=action, replicas=active,
            reason=reason, p95_seconds=p95, queue_per_replica=queue,
            utilization=util))
        self._c_events.inc(action=action)
        self._g_replicas.set(active)

    def _release_drained(self, p95: float | None, queue: float,
                         util: float) -> None:
        for backend in list(self.balancer.draining_backends):
            if backend.is_drained:
                self.balancer.release_backend(backend)
                self._record("release", "drain complete", p95, queue,
                             util)

    def _tick(self) -> None:
        if not self._running:
            return
        cfg = self.config
        p95 = self.window_p95()
        queue = self.queue_per_replica()
        util = self.utilization()
        if p95 is not None:
            self._g_p95.set(p95)
        self._release_drained(p95, queue, util)

        slo_breach = p95 is not None and p95 > cfg.slo_p95_seconds
        queue_breach = queue > cfg.scale_out_queue_depth
        burn_alerted = self._slo_alert_pending
        self._slo_alert_pending = False
        if slo_breach or queue_breach or burn_alerted:
            self._breach_streak += 1
            if burn_alerted:
                # A multi-window burn alert already proves sustained
                # breach; don't make it wait out the streak again.
                self._breach_streak = max(self._breach_streak,
                                          cfg.breach_intervals)
            self._idle_streak = 0
        else:
            self._breach_streak = 0
            calm_latency = (p95 is None
                            or p95 <= cfg.scale_in_p95_margin
                            * cfg.slo_p95_seconds)
            # Calm queues: well under the breach threshold (a quarter),
            # not strictly empty — batching always holds a few requests.
            calm_queue = queue <= cfg.scale_out_queue_depth / 4
            if (calm_latency and util <= cfg.scale_in_utilization
                    and calm_queue):
                self._idle_streak += 1
            else:
                self._idle_streak = 0

        now = self.balancer.sim.now
        cooled = now - self._last_action_time >= cfg.cooldown_seconds
        active = len(self.balancer.active_backends)
        if (self._breach_streak >= cfg.breach_intervals and cooled
                and active < cfg.max_replicas):
            self.balancer.add_backend(self.replica_factory())
            reason = ("p95 breach" if slo_breach
                      else "queue growth" if queue_breach
                      else "slo burn-rate")
            self._record("scale_out", reason, p95, queue, util)
            self._last_action_time = now
            self._breach_streak = 0
        elif (self._idle_streak >= cfg.idle_intervals and cooled
                and active > cfg.min_replicas):
            victim = self.balancer.active_backends[-1]
            self.balancer.drain_backend(victim)
            self._record("drain", "sustained calm", p95, queue, util)
            self._last_action_time = now
            self._idle_streak = 0

        # Re-arm only while the simulation still has *workload* events
        # pending: when only other control loops' daemon ticks remain,
        # every in-flight batch has finished, so finish any pending
        # drains and let the run end (sampler discipline).
        if self.balancer.sim.peek_foreground_time() is not None:
            self.balancer.sim.schedule(cfg.interval, self._tick,
                                       daemon=True)
        else:
            self._release_drained(p95, queue, util)
            self._running = False


# ----------------------------------------------------------------------
# Serverless: provisioned-concurrency floor control
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FaaSPolicyConfig:
    """Knobs for :class:`FaaSConcurrencyPolicy`.

    The policy raises a function's provisioned-concurrency floor by
    ``step`` on every pending SLO burn alert (cold-start storms burn
    the latency budget, and pinned-warm instances are the serverless
    remedy) and decays it back one ``step`` after ``hold_seconds`` of
    calm — paying the provisioned GB-second rate only while the alerts
    say it buys latency.
    """

    interval: float = 0.25
    min_provisioned: int = 0
    max_provisioned: int = 4
    step: int = 1
    hold_seconds: float = 30.0

    def __post_init__(self) -> None:
        if not self.interval > 0:  # NaN compares false too
            raise ValueError("evaluation interval must be positive")
        if self.min_provisioned < 0:
            raise ValueError("min provisioned must be >= 0")
        if self.max_provisioned < self.min_provisioned:
            raise ValueError("max provisioned must be >= min")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if not self.hold_seconds >= 0:
            raise ValueError("hold_seconds must be >= 0")


@dataclasses.dataclass(frozen=True)
class FaaSPolicyEvent:
    """One provisioned-concurrency change and why it happened."""

    time: float
    #: "provision" (floor raised) or "release" (floor decayed).
    action: str
    #: Provisioned floor *after* the action.
    provisioned: int
    reason: str


class FaaSConcurrencyPolicy:
    """SLO-burn-driven provisioned concurrency for one function.

    The replica :class:`Autoscaler` answers breaches by adding servers;
    on a :class:`~repro.faas.backend.FaaSBackend` the equivalent lever
    is the provisioned-concurrency floor — pinned always-warm
    instances that requests hit without a cold start.  Wire
    ``monitor.on_alert(policy.notify_slo_alert)`` exactly as with the
    replica autoscaler; the policy runs as a periodic daemon tick on
    the backend's simulator and follows the same sampler discipline
    (re-arms only while foreground work pends).
    """

    def __init__(self, backend, function: str,
                 config: FaaSPolicyConfig | None = None,
                 registry: MetricsRegistry | None = None):
        self.backend = backend
        self.function = function
        self.config = config if config is not None else FaaSPolicyConfig()
        self.events: list[FaaSPolicyEvent] = []
        self._running = False
        self._alert_pending = False
        self._last_alert_time: float | None = None
        metrics = registry if registry is not None else backend.metrics
        self._c_events = metrics.counter(
            "faas_policy_events_total",
            "Provisioned-concurrency changes by action.")
        self._g_provisioned = metrics.gauge(
            "faas_provisioned_concurrency",
            "Current pinned-warm floor per function.")

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the control loop at the current virtual time."""
        if self._running:
            raise RuntimeError("policy already started")
        self._running = True
        floor = self.config.min_provisioned
        if self.backend.provisioned_concurrency(self.function) < floor:
            self.backend.set_provisioned_concurrency(self.function,
                                                     floor)
        self._g_provisioned.labels(function=self.function).set(
            self.backend.provisioned_concurrency(self.function))
        self.backend.sim.schedule(self.config.interval, self._tick,
                                  daemon=True)

    def stop(self) -> None:
        """Stop the loop after the current tick."""
        self._running = False

    def notify_slo_alert(self, alert=None) -> None:
        """Feed an SLO burn-rate alert in as a provision signal."""
        self._alert_pending = True

    # ------------------------------------------------------------------
    def _record(self, action: str, provisioned: int,
                reason: str) -> None:
        self.events.append(FaaSPolicyEvent(
            time=self.backend.sim.now, action=action,
            provisioned=provisioned, reason=reason))
        self._c_events.inc(action=action)
        self._g_provisioned.labels(function=self.function).set(
            provisioned)

    def _tick(self) -> None:
        if not self._running:
            return
        cfg = self.config
        now = self.backend.sim.now
        current = self.backend.provisioned_concurrency(self.function)
        alerted = self._alert_pending
        self._alert_pending = False
        if alerted:
            self._last_alert_time = now
            target = min(cfg.max_provisioned, current + cfg.step)
            if target != current:
                self.backend.set_provisioned_concurrency(
                    self.function, target)
                self._record("provision", target, "slo burn-rate")
        elif (current > cfg.min_provisioned
                and (self._last_alert_time is None
                     or now - self._last_alert_time
                     >= cfg.hold_seconds)):
            target = max(cfg.min_provisioned, current - cfg.step)
            self.backend.set_provisioned_concurrency(self.function,
                                                     target)
            self._record("release", target, "sustained calm")
        if self.backend.sim.peek_foreground_time() is not None:
            self.backend.sim.schedule(cfg.interval, self._tick,
                                      daemon=True)
        else:
            self._running = False

"""`FaaSBackend`: the serverless execution model on the sim clock.

Where :class:`~repro.serving.server.TritonLikeServer` models a
provisioned replica — instances exist before traffic and batch
aggressively — this backend models Functions-as-a-Service: per-function
instances spawn *on demand*, each serves one request at a time, idle
instances are reaped after a keep-alive window (scale-to-zero), and
every finished execution feeds a :class:`~repro.faas.cost.CostLedger`
in GB-seconds.  The request that triggers a spawn is bound to it and
pays the cold start (sandbox provisioning + artifact initialization);
requests arriving while all instances are busy and the concurrency
limit is reached wait in a per-function FIFO queue.

The backend speaks the same duck-type surface the scaling layer
expects of a server (``submit`` / ``queue_depth`` / ``queued_images``
/ ``busy_instances`` / ``total_instances`` / ``model_names`` /
``instance_stats`` / ``begin_drain`` / ``is_drained`` / ``responses``),
so a :class:`~repro.scale.balancer.LoadBalancer` can route a mixed
fleet — provisioned replicas plus FaaS overflow — without knowing
which is which.  ``instance_stats`` returns one *aggregate* record per
function rather than per (ephemeral) instance: reaped instances must
not take their busy-seconds with them, or the autoscaler's utilization
window would leak.

Determinism follows the dual-regime contract of
:mod:`repro.faas.platform`: construct with ``seed=None`` for the
planner regime (expected-value cold starts, no RNG) or an integer seed
for the replay regime (cold-start jitter drawn in event order from one
``numpy`` generator).  Keep-alive reap timers are scheduled as daemon
events — they fire in deterministic order but never keep a drained
simulation's control loops alive (``peek_foreground_time`` ignores
them).
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.faas.cost import CostLedger, CostModel
from repro.faas.platform import FaaSPlatformModel
from repro.serving.frontend import ServingFrontend
from repro.serving.observability import (
    BoundCounter,
    BoundGauge,
    MetricsRegistry,
)
from repro.serving.request import Request


@dataclasses.dataclass(frozen=True)
class FaaSFunctionConfig:
    """One deployed function: code, platform, and lifecycle knobs.

    ``service_time`` maps an image count to execution seconds (same
    convention as ``ModelConfig``).  ``concurrency_limit`` caps live
    instances (the platform's per-function concurrency quota);
    arrivals beyond it queue, and beyond ``max_queue_depth`` (0 =
    unbounded) are rejected.  ``keep_alive_seconds`` is how long an
    idle instance stays warm before the reaper takes it — 0 reaps
    immediately after each response (pure scale-to-zero), and ``inf``
    never reaps (no reap timer is armed).
    """

    name: str
    service_time: Callable[[int], float]
    platform: FaaSPlatformModel
    concurrency_limit: int = 8
    keep_alive_seconds: float = 60.0
    max_queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.concurrency_limit < 1:
            raise ValueError("concurrency limit must be >= 1")
        if not self.keep_alive_seconds >= 0:  # NaN compares false too
            raise ValueError("keep-alive must be >= 0")
        if self.max_queue_depth < 0:
            raise ValueError("max queue depth must be >= 0")


@dataclasses.dataclass
class FunctionStats:
    """Aggregate lifetime accounting for one function.

    ``busy_seconds`` / ``fault_seconds`` mirror the per-instance
    records a provisioned server exposes (the autoscaler sums both);
    FaaS sandboxes fail by vanishing rather than occupying a slot, so
    ``fault_seconds`` stays 0 here.
    """

    invocations: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    prewarms: int = 0
    reaps: int = 0
    rejected: int = 0
    busy_seconds: float = 0.0
    fault_seconds: float = 0.0
    init_seconds: float = 0.0
    peak_instances: int = 0


class _Instance:
    """One live sandbox.

    ``state`` is ``"init"`` (cold-starting with a request bound),
    ``"prewarm"`` (initializing ahead of traffic, no request),
    ``"idle"`` (warm, waiting), or ``"busy"`` (executing).
    """

    __slots__ = ("name", "state", "pinned", "idle_since", "reap_event",
                 "pinned_since")

    def __init__(self, name: str):
        self.name = name
        self.state = "init"
        self.pinned = False
        self.idle_since = 0.0
        self.pinned_since = 0.0
        self.reap_event = None


class _Function:
    """Per-function runtime state: instances, queue, stats, metrics."""

    __slots__ = ("config", "instances", "queue", "stats", "next_id",
                 "provisioned_target", "metrics")

    def __init__(self, config: FaaSFunctionConfig,
                 metrics: _FunctionHandles):
        self.config = config
        self.instances: list[_Instance] = []
        self.queue: deque = deque()
        self.stats = FunctionStats()
        self.next_id = 0
        self.provisioned_target = 0
        self.metrics = metrics


class _FunctionHandles(NamedTuple):
    """Per-function metric handles, bound once at registration so the
    request path never re-sorts a label key."""

    cold: BoundCounter
    reaps: BoundCounter
    gb_seconds: BoundCounter
    warm: BoundGauge
    invoked_cold: BoundCounter
    invoked_warm: BoundCounter
    rejections: BoundCounter
    prewarms: BoundCounter


class FaaSBackend(ServingFrontend):
    """Serverless request execution with cold starts and reaping
    (request accounting comes from
    :class:`~repro.serving.frontend.ServingFrontend`)."""

    def __init__(self, sim, registry: MetricsRegistry | None = None,
                 cost_model: CostModel | None = None,
                 seed: int | None = 0):
        super().__init__(sim, registry)
        self.cost = CostLedger(cost_model if cost_model is not None
                               else CostModel())
        self._rng = None if seed is None else np.random.default_rng(seed)
        #: Optional :class:`~repro.serving.tracectx.TraceContext` for
        #: lifecycle events that belong to no request (instance reaps,
        #: prewarm spawns); see :meth:`attach_lifecycle_trace`.
        self.lifecycle_trace = None
        self._functions: dict[str, _Function] = {}
        m = self.metrics
        self._c_cold = m.counter(
            "faas_cold_starts_total",
            "Request-blocking cold starts per function.")
        self._c_invocations = m.counter(
            "faas_invocations_total",
            "Finished invocations per function and start kind.")
        self._c_reaps = m.counter(
            "faas_reaps_total",
            "Idle instances reaped after keep-alive per function.")
        self._c_gb_seconds = m.counter(
            "faas_gb_seconds_total",
            "Billed on-demand GB-seconds per function.")
        self._c_prewarms = m.counter(
            "faas_prewarms_total",
            "Instances spawned ahead of traffic by provisioned "
            "concurrency.")
        self._c_rejections = m.counter(
            "faas_queue_rejections_total",
            "Requests refused because the function queue was full.")
        self._g_warm = m.gauge(
            "faas_warm_instances",
            "Initialized (idle or busy) instances per function.")

    # ------------------------------------------------------------------
    # Repository management
    # ------------------------------------------------------------------
    def register(self, config: FaaSFunctionConfig) -> None:
        """Deploy a function (no instances spawn until traffic does)."""
        if config.name in self._functions:
            raise ValueError(
                f"function {config.name!r} already registered")
        handles = _FunctionHandles(
            cold=self._c_cold.labels(function=config.name),
            reaps=self._c_reaps.labels(function=config.name),
            gb_seconds=self._c_gb_seconds.labels(function=config.name),
            warm=self._g_warm.labels(function=config.name),
            invoked_cold=self._c_invocations.labels(
                function=config.name, start="cold"),
            invoked_warm=self._c_invocations.labels(
                function=config.name, start="warm"),
            rejections=self._c_rejections.labels(function=config.name),
            prewarms=self._c_prewarms.labels(function=config.name),
        )
        handles.warm.set(0)
        self._functions[config.name] = _Function(config, handles)

    def model_names(self) -> list[str]:
        """Deployed function names (server duck-type surface)."""
        return sorted(self._functions)

    def attach_lifecycle_trace(self, trace) -> None:
        """Record requestless lifecycle events (reaps, prewarms) as
        instants on ``trace``."""
        self.lifecycle_trace = trace

    def function_stats(self, name: str) -> FunctionStats:
        """Aggregate lifetime stats for one function."""
        return self._functions[name].stats

    # ------------------------------------------------------------------
    # Scaling-layer surface
    # ------------------------------------------------------------------
    def queue_depth(self, model: str | None = None) -> int:
        """Requests waiting for an instance (per function or total)."""
        if model is not None:
            return len(self._functions[model].queue)
        return sum(len(fn.queue) for fn in self._functions.values())

    def queued_images(self, model: str | None = None) -> int:
        """Images in queued requests (per function or total)."""
        if model is not None:
            return sum(req.num_images
                       for req, _ in self._functions[model].queue)
        return sum(req.num_images for fn in self._functions.values()
                   for req, _ in fn.queue)

    def busy_instances(self, model: str | None = None) -> int:
        """Instances occupied by a request (executing or cold-starting
        with a request bound to them).  Requestless provisioned-
        concurrency prewarms are still initializing but serve nobody,
        so they are excluded."""
        fns = ([self._functions[model]] if model is not None
               else self._functions.values())
        return sum(1 for fn in fns for inst in fn.instances
                   if inst.state in ("init", "busy"))

    def total_instances(self, model: str | None = None) -> int:
        """Live instances, warm or initializing."""
        if model is not None:
            return len(self._functions[model].instances)
        return sum(len(fn.instances) for fn in self._functions.values())

    def warm_instances(self, model: str) -> int:
        """Initialized (idle or busy) instances of one function."""
        return sum(1 for inst in self._functions[model].instances
                   if inst.state in ("idle", "busy"))

    def instance_stats(self, model: str) -> list[FunctionStats]:
        """One aggregate record per function (see module docstring)."""
        return [self._functions[model].stats]

    def provisioned_concurrency(self, model: str) -> int:
        """Current pinned-warm floor for one function."""
        return self._functions[model].provisioned_target

    # ------------------------------------------------------------------
    # Drain protocol
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new work; finish the queues, then reap everything."""
        self.draining = True
        for fn in self._functions.values():
            fn.provisioned_target = 0
            for inst in list(fn.instances):
                # Settle (charge + clear) the pin rather than just
                # clearing it: the GB-seconds accrued since pinning
                # must land on the ledger before the instance goes.
                self._settle_pin(fn, inst)
                if inst.state == "idle":
                    self._reap(fn, inst)

    @property
    def is_drained(self) -> bool:
        """True once draining and all queues and sandboxes are empty."""
        if not self.draining:
            return False
        return all(not fn.queue and not fn.instances
                   for fn in self._functions.values())

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept a request at the current virtual time.

        Routes to a warm idle instance when one exists, spawns a cold
        one while under the concurrency limit, queues otherwise (and
        rejects when the bounded queue overflows).  A request for a
        function that is not deployed raises ``KeyError`` before it is
        counted.
        """
        fn = self._functions.get(request.model_name)
        if fn is None:
            raise KeyError(f"unknown function {request.model_name!r}; "
                           f"deployed: {self.model_names()}")
        if not self._admit(request):
            return
        idle = self._pick_idle(fn)
        if idle is not None:
            fn.stats.warm_starts += 1
            self._dispatch(fn, idle, request)
            return
        if len(fn.instances) < fn.config.concurrency_limit:
            self._spawn(fn, request)
            return
        if fn.config.max_queue_depth and \
                len(fn.queue) >= fn.config.max_queue_depth:
            fn.stats.rejected += 1
            fn.metrics.rejections.inc()
            self._respond(request, status="rejected")
            return
        span = None
        if request.trace is not None:
            span = request.trace.begin(
                "queue_wait", self.sim.now, category="queue",
                stage=fn.config.name)
        fn.queue.append((request, span))

    def _pick_idle(self, fn: _Function) -> _Instance | None:
        """Warmest idle instance (most recently used keeps the pool
        small: LRU instances age out through keep-alive)."""
        best = None
        for inst in fn.instances:
            if inst.state == "idle":
                if best is None or inst.idle_since > best.idle_since:
                    best = inst
        return best

    # ------------------------------------------------------------------
    # Instance lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, fn: _Function, request: Request | None,
               pinned: bool = False) -> _Instance:
        """Start a sandbox; dispatch ``request`` once initialized.

        With ``request=None`` this is a provisioned-concurrency
        prewarm: the instance initializes, pins, and waits for
        traffic without any request paying its cold start.
        """
        inst = _Instance(f"{fn.config.name}#{fn.next_id}")
        fn.next_id += 1
        if request is None:
            inst.state = "prewarm"
        inst.pinned = pinned
        if pinned:
            inst.pinned_since = self.sim.now
        fn.instances.append(inst)
        fn.stats.peak_instances = max(fn.stats.peak_instances,
                                      len(fn.instances))
        sandbox, init = fn.config.platform.sample_cold_start(self._rng)
        fn.stats.init_seconds += sandbox + init
        handles = fn.metrics
        if request is not None:
            fn.stats.cold_starts += 1
            handles.cold.inc()
            request.cold_start = True
        else:
            fn.stats.prewarms += 1
            handles.prewarms.inc()
            if self.lifecycle_trace is not None:
                self.lifecycle_trace.instant(
                    "prewarm", self.sim.now, category="faas",
                    function=fn.config.name, instance=inst.name)
        trace = request.trace if request is not None else None
        cold_span = None
        if trace is not None:
            cold_span = trace.begin(
                "cold_start", self.sim.now, category="faas",
                function=fn.config.name, instance=inst.name,
                sandbox_seconds=sandbox)
        # Initialization (artifact fetch + load) is billed: the
        # sandbox is already running the function's code.
        init_gb = self.cost.charge_init(
            sandbox + init, fn.config.platform.memory_gb)
        handles.gb_seconds.inc(init_gb)

        def provisioned() -> None:
            if cold_span is not None:
                trace.end(cold_span, self.sim.now)
            init_span = None
            if trace is not None:
                init_span = trace.begin(
                    "init", self.sim.now, category="faas",
                    function=fn.config.name, instance=inst.name,
                    artifact_bytes=fn.config.platform.artifact_bytes)

            def initialized() -> None:
                if init_span is not None:
                    trace.end(init_span, self.sim.now)
                handles.warm.set(self.warm_instances(fn.config.name) + 1)
                if request is not None:
                    self._dispatch(fn, inst, request)
                else:
                    self._make_idle(fn, inst)

            self.sim.schedule(init, initialized)

        self.sim.schedule(sandbox, provisioned)
        return inst

    def _dispatch(self, fn: _Function, inst: _Instance,
                  request: Request) -> None:
        """Execute one request on an initialized instance."""
        if inst.reap_event is not None:
            self.sim.cancel(inst.reap_event)
            inst.reap_event = None
        inst.state = "busy"
        duration = fn.config.service_time(request.num_images)
        if not duration >= 0:  # NaN compares false too
            raise ValueError(
                f"service time for {request.num_images} images is "
                f"negative or NaN ({duration})")
        start = self.sim.now
        if request.first_start is None:
            request.first_start = start
        span = None
        if request.trace is not None:
            span = request.trace.begin(
                "execute", start, category="execute",
                stage=fn.config.name, instance=inst.name,
                attempt=0, batch_images=request.num_images)

        def finish() -> None:
            fn.stats.invocations += 1
            fn.stats.busy_seconds += duration
            if span is not None:
                request.trace.end(span, self.sim.now)
            handles = fn.metrics
            if request.cold_start:
                handles.invoked_cold.inc()
            else:
                handles.invoked_warm.inc()
            gb = self.cost.charge_invocation(
                duration, fn.config.platform.memory_gb)
            handles.gb_seconds.inc(gb)
            self._respond(request)
            self._make_idle(fn, inst)

        self.sim.schedule(duration, finish)

    def _make_idle(self, fn: _Function, inst: _Instance) -> None:
        """Return an instance to the warm pool, or hand it queued
        work, or (when draining / keep-alive 0) reap it."""
        if fn.queue:
            queued, qspan = fn.queue.popleft()
            if qspan is not None:
                queued.trace.end(qspan, self.sim.now)
            fn.stats.warm_starts += 1
            self._dispatch(fn, inst, queued)
            return
        inst.state = "idle"
        inst.idle_since = self.sim.now
        if self.draining:
            # Draining wins over pinning: reap unconditionally (the
            # reap settles any open pin) so is_drained can hold.
            self._reap(fn, inst)
            return
        if inst.pinned:
            return
        keep_alive = fn.config.keep_alive_seconds
        if keep_alive == 0.0:
            self._reap(fn, inst)
            return
        if keep_alive == math.inf:
            return
        idle_mark = inst.idle_since

        def maybe_reap() -> None:
            inst.reap_event = None
            if inst.state == "idle" and not inst.pinned and \
                    inst.idle_since == idle_mark:
                self._reap(fn, inst)

        inst.reap_event = self.sim.schedule(keep_alive, maybe_reap,
                                            daemon=True)

    def _reap(self, fn: _Function, inst: _Instance) -> None:
        """Tear a warm instance down (scale-to-zero step)."""
        if inst.reap_event is not None:
            self.sim.cancel(inst.reap_event)
            inst.reap_event = None
        fn.instances.remove(inst)
        fn.stats.reaps += 1
        self._settle_pin(fn, inst)
        handles = fn.metrics
        handles.reaps.inc()
        handles.warm.set(self.warm_instances(fn.config.name))
        if self.lifecycle_trace is not None:
            self.lifecycle_trace.instant(
                "reap", self.sim.now, category="faas",
                function=fn.config.name, instance=inst.name,
                idle_seconds=self.sim.now - inst.idle_since)

    def _settle_pin(self, fn: _Function, inst: _Instance) -> None:
        """Close out provisioned-rate accrual for an unpinned/reaped
        instance."""
        if inst.pinned:
            self.cost.charge_provisioned(
                self.sim.now - inst.pinned_since,
                fn.config.platform.memory_gb)
            inst.pinned = False
            inst.pinned_since = 0.0

    # ------------------------------------------------------------------
    # Provisioned concurrency
    # ------------------------------------------------------------------
    def set_provisioned_concurrency(self, model: str,
                                    target: int) -> None:
        """Pin ``target`` always-warm instances for one function.

        Raising the floor pins live instances first and prewarms the
        remainder (no request pays those cold starts); lowering it
        unpins the newest pins, which then age out through the normal
        keep-alive window.  Pinned time accrues on the cost ledger at
        the provisioned GB-second rate.  While the backend drains this
        is a no-op: a late policy tick must not stall the drain.
        """
        if target < 0:
            raise ValueError("provisioned concurrency must be >= 0")
        if self.draining:
            # A still-armed policy tick must not resurrect pinned
            # instances after begin_drain: they would never be
            # reaped and the drain could stall forever.
            return
        fn = self._functions[model]
        if target > fn.config.concurrency_limit:
            raise ValueError(
                "provisioned concurrency cannot exceed the "
                f"concurrency limit ({fn.config.concurrency_limit})")
        fn.provisioned_target = target
        pinned = [inst for inst in fn.instances if inst.pinned]
        if len(pinned) > target:
            for inst in pinned[target - len(pinned):]:
                self._settle_pin(fn, inst)
                if inst.state == "idle":
                    # Restart the idle clock so the unpinned instance
                    # gets a full keep-alive window before reaping.
                    self._make_idle(fn, inst)
            return
        needed = target - len(pinned)
        for inst in fn.instances:
            if needed == 0:
                break
            if not inst.pinned:
                inst.pinned = True
                inst.pinned_since = self.sim.now
                if inst.reap_event is not None:
                    self.sim.cancel(inst.reap_event)
                    inst.reap_event = None
                needed -= 1
        for _ in range(needed):
            if len(fn.instances) >= fn.config.concurrency_limit:
                break
            self._spawn(fn, None, pinned=True)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def cost_summary(self) -> dict:
        """Ledger snapshot including still-open pinned accrual.

        Open pins are priced to the current clock without mutating the
        ledger, so the summary is safe to read mid-run.
        """
        open_pinned = sum(
            (self.sim.now - inst.pinned_since) *
            fn.config.platform.memory_gb
            for fn in self._functions.values()
            for inst in fn.instances if inst.pinned)
        summary = self.cost.summary()
        summary["provisioned_gb_seconds"] += open_pinned
        summary["provisioned_usd"] = (
            summary["provisioned_gb_seconds"] *
            self.cost.model.provisioned_gb_second_price)
        summary["total_usd"] = (summary["compute_usd"] +
                                summary["invocation_usd"] +
                                summary["provisioned_usd"])
        return summary

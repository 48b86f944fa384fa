"""The Triton-like frontend: model repository, routing, dispatch.

"The HARVEST inference pipeline follows a modular design that decouples
the frontend—which handles diverse task requests—from the backend, which
executes model inference" (Section 3).  :class:`TritonLikeServer` owns a
model repository of :class:`ModelConfig` entries, each with its own
dynamic batcher and one or more backend instances; requests optionally
flow through a preprocessing model first (an ensemble of two backends,
"a single request may trigger multiple backend calls").
"""

from __future__ import annotations

import dataclasses

from repro.bounds import within
from repro.serving.batcher import (
    BatcherConfig,
    DynamicBatcher,
    QueueFullError,
)
from repro.serving.events import Event, Simulator
from repro.serving.frontend import ServingFrontend
from repro.serving.instance import BackendInstance, ServiceTimeFn
from repro.serving.observability import MetricsRegistry
from repro.serving.request import Request, Response


@dataclasses.dataclass
class ModelConfig:
    """One repository entry.

    ``instances`` is Triton's instance-group count: how many copies of
    the backend serve this model concurrently (the paper's
    "multi-instance strategies" recommendation).
    ``preprocess_model`` names another repository entry every request
    must pass through first (ensemble routing).
    """

    name: str
    service_time: ServiceTimeFn
    batcher: BatcherConfig = dataclasses.field(default_factory=BatcherConfig)
    instances: int = 1
    preprocess_model: str | None = None
    #: Optional failure process (see :mod:`repro.serving.faults`).
    fault_model: object | None = None
    #: Retries per request at this stage before it fails outright.
    max_retries: int = 2

    def __post_init__(self) -> None:
        within("instances", self.instances, "[1, inf)")
        within("max_retries", self.max_retries, "[0, inf)")


@dataclasses.dataclass(frozen=True)
class EnsembleConfig:
    """A shared-preprocessing fan-out entry.

    "A single request may trigger multiple backend calls to support
    different downstream tasks, which can reuse shared preprocessing
    steps when applicable" (Section 3): one request preprocesses once,
    then every consumer model runs on the shared result; the response
    completes when all consumers have finished.
    """

    name: str
    preprocess_model: str
    consumers: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.consumers:
            raise ValueError("an ensemble needs at least one consumer")
        if len(set(self.consumers)) != len(self.consumers):
            raise ValueError("duplicate consumers in ensemble")


class TritonLikeServer(ServingFrontend):
    """The serving frontend + scheduler (request accounting comes from
    :class:`~repro.serving.frontend.ServingFrontend`)."""

    def __init__(self, sim: Simulator | None = None,
                 registry: MetricsRegistry | None = None):
        super().__init__(sim if sim is not None else Simulator(), registry)
        self._models: dict[str, ModelConfig] = {}
        self._ensembles: dict[str, EnsembleConfig] = {}
        self._batchers: dict[str, DynamicBatcher] = {}
        self._instances: dict[str, list[BackendInstance]] = {}
        #: The live queue-delay timer event per stage (a stage has at
        #: most one armed), so a policy swap can cancel + re-arm it (see
        #: :meth:`reconfigure_batcher`).
        self._timer_events: dict[str, Event] = {}
        self._pending_fanout: dict[int, int] = {}
        #: Rejected-branch count per in-flight fan-out request.
        self._rejected_fanout: dict[int, int] = {}
        #: Optional :class:`~repro.cache.tiers.CacheHierarchy` holding
        #: the cloud preprocessed-tensor tier (see :meth:`attach_cache`).
        self.cache = None
        self._cache_tensor_bytes = 0.0
        m = self.metrics
        self._c_rejections = m.counter(
            "rejections_total", "Queue-full rejections per stage.")
        self._g_draining = m.gauge(
            "server_draining", "1 while the server is draining.")
        self._c_retries = m.counter(
            "retries_total", "Retry dispatches per stage.")
        self._c_exhausted = m.counter(
            "retry_exhausted_total",
            "Requests failed after the retry budget per stage.")

    # ------------------------------------------------------------------
    # Repository management
    # ------------------------------------------------------------------
    def register(self, config: ModelConfig) -> None:
        """Load a model into the repository."""
        if config.name in self._models:
            raise ValueError(f"model {config.name!r} already registered")
        if (config.preprocess_model is not None
                and config.preprocess_model not in self._models):
            raise ValueError(
                f"preprocess model {config.preprocess_model!r} must be "
                "registered before its consumer")
        self._models[config.name] = config
        self._batchers[config.name] = DynamicBatcher(
            config.batcher, metrics=self.metrics, stage=config.name)
        self._instances[config.name] = [
            BackendInstance(f"{config.name}#{i}", config.service_time,
                            self.sim, fault_model=config.fault_model,
                            metrics=self.metrics)
            for i in range(config.instances)
        ]

    def register_ensemble(self, config: EnsembleConfig) -> None:
        """Load a shared-preprocessing ensemble.

        The preprocessing model and every consumer must already be
        registered; the ensemble name must not collide with a model.
        """
        if config.name in self._models or config.name in self._ensembles:
            raise ValueError(f"name {config.name!r} already registered")
        for member in (config.preprocess_model, *config.consumers):
            if member not in self._models:
                raise ValueError(
                    f"ensemble member {member!r} is not a registered "
                    "model")
        self._ensembles[config.name] = config

    def unregister(self, name: str) -> None:
        """Unload an idle model from the repository (Triton's unload).

        Refuses while the model still has queued or executing work, or
        while another registered model or ensemble references it (as a
        preprocess stage or consumer) — unloading those would strand
        in-flight routing.  Any armed queue-delay timer is cancelled.
        """
        self._loaded(name)
        if len(self._batchers[name]) or self.busy_instances(name):
            raise RuntimeError(
                f"model {name!r} still has queued or executing work")
        for other, config in self._models.items():
            if other != name and config.preprocess_model == name:
                raise ValueError(
                    f"model {name!r} is the preprocess stage of "
                    f"{other!r}")
        for ensemble in self._ensembles.values():
            if name == ensemble.preprocess_model or \
                    name in ensemble.consumers:
                raise ValueError(
                    f"model {name!r} is a member of ensemble "
                    f"{ensemble.name!r}")
        self._disarm(name)
        del self._models[name]
        del self._batchers[name]
        del self._instances[name]

    def model_names(self) -> list[str]:
        """Models loaded in the repository."""
        return sorted(self._models)

    def _loaded(self, model: str) -> ModelConfig:
        """A loaded model's entry; an unknown name raises KeyError."""
        if model not in self._models:
            raise KeyError(f"unknown model {model!r}")
        return self._models[model]

    def _disarm(self, stage: str) -> None:
        """Cancel the stage's armed queue-delay timer, if any."""
        stale = self._timer_events.pop(stage, None)
        if stale is not None:
            self.sim.cancel(stale)

    def attach_cache(self, cache, tensor_bytes: float = 602112.0) -> None:
        """Enable the cloud preprocessed-tensor cache on this server.

        ``cache`` is a :class:`~repro.cache.tiers.CacheHierarchy`; its
        ``cloud_tensor`` tier is consulted when a fingerprinted request
        (``request.cache_key``) routes through a preprocess stage — a
        hit enqueues straight into the consumer model(s), skipping the
        preprocess queue and execution, and every completed preprocess
        output is inserted for the frames that follow.
        ``tensor_bytes`` is the per-image size charged for a cached
        tensor (default: a 224x224x3 float32 activation).
        """
        self.cache = cache
        self._cache_tensor_bytes = float(
            within("tensor_bytes", tensor_bytes, "(0, inf)"))

    def _cache_lookup_tensor(self, request: Request) -> bool:
        """Whether the cloud tensor tier already holds this frame."""
        if self.cache is None or request.cache_key is None:
            return False
        from repro.cache.tiers import CLOUD_TENSOR

        value = self.cache.lookup(CLOUD_TENSOR, request.cache_key,
                                  trace=request.trace, now=self.sim.now)
        return value is not None

    def _cache_insert_tensor(self, request: Request) -> None:
        """Make a completed preprocess output reusable."""
        if self.cache is None or request.cache_key is None:
            return
        from repro.cache.tiers import CLOUD_TENSOR

        self.cache.insert(
            CLOUD_TENSOR, request.cache_key, value=request.request_id,
            size_bytes=self._cache_tensor_bytes * request.num_images)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept a frontend request at the current virtual time.

        A draining server refuses new work outright (the request gets an
        immediate ``rejected`` response).  A request for a model or
        ensemble that is not loaded raises ``KeyError`` before it is
        counted.
        """
        ensemble = self._ensembles.get(request.model_name)
        if ensemble is None and request.model_name not in self._models:
            raise KeyError(
                f"unknown model {request.model_name!r}; loaded: "
                f"{self.model_names()} + ensembles "
                f"{sorted(self._ensembles)}")
        if not self._admit(request):
            return
        if ensemble is not None:
            if self._cache_lookup_tensor(request):
                # Shared preprocessing already cached: fan out now.
                self._pending_fanout[request.request_id] = len(
                    ensemble.consumers)
                for consumer in ensemble.consumers:
                    self._enqueue(consumer, request)
            else:
                self._enqueue(ensemble.preprocess_model, request)
            return
        config = self._models[request.model_name]
        first_stage = config.preprocess_model or request.model_name
        if (config.preprocess_model is not None
                and self._cache_lookup_tensor(request)):
            first_stage = request.model_name
        self._enqueue(first_stage, request)

    def _enqueue(self, stage: str, request: Request) -> None:
        try:
            self._batchers[stage].enqueue(request, self.sim.now)
        except QueueFullError:
            self._reject(stage, request)
            return
        self._pump(stage)

    def _reject(self, stage: str, request: Request) -> None:
        """Backpressure path; fan-out branches degrade rather than hang."""
        self._c_rejections.inc(stage=stage)
        if request.trace is not None:
            request.trace.instant("queue_reject", self.sim.now,
                                  category="serving", stage=stage)
        remaining = self._pending_fanout.get(request.request_id)
        if remaining is None:
            self._respond(request, status="rejected")
            return
        # One ensemble branch rejected: account it as done and track how
        # many branches bounced; the final status distinguishes a fully
        # rejected fan-out ("rejected") from one where some consumers
        # still produced results ("degraded").
        rejected = self._rejected_fanout.get(request.request_id, 0) + 1
        if remaining <= 1:
            del self._pending_fanout[request.request_id]
            self._rejected_fanout.pop(request.request_id, None)
            consumers = self._ensembles[request.model_name].consumers
            status = ("rejected" if rejected >= len(consumers)
                      else "degraded")
            self._respond(request, status=status)
        else:
            self._rejected_fanout[request.request_id] = rejected
            self._pending_fanout[request.request_id] = remaining - 1

    def _pump(self, stage: str) -> None:
        """Dispatch ready batches to free instances; arm the delay timer."""
        batcher = self._batchers[stage]
        while batcher.ready(self.sim.now):
            instance = self._free_instance(stage)
            if instance is None:
                return  # all instances busy; completion will re-pump
            batch = batcher.form_batch(self.sim.now)
            instance.execute(
                batch,
                lambda done, s=stage: self._stage_complete(s, done),
                on_failure=lambda failed, s=stage: self._stage_failed(
                    s, failed))
        self._arm_timer(stage)

    def _arm_timer(self, stage: str) -> None:
        """Wake up when the oldest queued request's delay budget expires."""
        batcher = self._batchers[stage]
        deadline = batcher.next_deadline()
        if deadline is None or stage in self._timer_events:
            return

        def fire() -> None:
            self._timer_events.pop(stage, None)
            self._pump(stage)

        self._timer_events[stage] = self.sim.schedule(
            max(0.0, deadline - self.sim.now), fire)

    def _free_instance(self, stage: str) -> BackendInstance | None:
        for instance in self._instances[stage]:
            if not instance.busy:
                return instance
        return None

    def _stage_complete(self, stage: str, batch: list[Request]) -> None:
        for request in batch:
            for next_stage in self._next_stages(stage, request):
                self._enqueue(next_stage, request)
        self._pump(stage)  # the freed instance can take more work

    def _next_stages(self, stage: str, request: Request) -> list[str]:
        """Route a request after ``stage``; emits the response when done."""
        ensemble = self._ensembles.get(request.model_name)
        if ensemble is not None:
            if stage == ensemble.preprocess_model:
                # Shared preprocessing done: fan out to every consumer.
                self._cache_insert_tensor(request)
                self._pending_fanout[request.request_id] = len(
                    ensemble.consumers)
                return list(ensemble.consumers)
            if request.request_id not in self._pending_fanout:
                # The request already terminated (a sibling branch
                # failed past its retry budget); drop the late result.
                return []
            remaining = self._pending_fanout[request.request_id] - 1
            if remaining:
                self._pending_fanout[request.request_id] = remaining
                return []
            del self._pending_fanout[request.request_id]
            degraded = self._rejected_fanout.pop(request.request_id,
                                                 0) > 0
            self._respond(request,
                          status="degraded" if degraded else "ok")
            return []

        config = self._models[request.model_name]
        if (config.preprocess_model is not None
                and stage == config.preprocess_model):
            self._cache_insert_tensor(request)
            return [request.model_name]
        self._respond(request)
        return []

    def _stage_failed(self, stage: str, batch: list[Request]) -> None:
        """Retry failed executions; exhaust the budget -> failed status."""
        config = self._models[stage]
        for request in batch:
            attempts = request.retries.get(stage, 0) + 1
            request.retries[stage] = attempts
            if attempts <= config.max_retries:
                self._c_retries.inc(stage=stage)
                self._enqueue(stage, request)
            else:
                self._c_exhausted.inc(stage=stage)
                pending = self._pending_fanout.pop(request.request_id,
                                                   None)
                if pending is not None:
                    self._rejected_fanout.pop(request.request_id, None)
                self._respond(request, status="failed")
        self._pump(stage)  # the instance is free again

    # ------------------------------------------------------------------
    # Drain lifecycle (graceful scale-in)
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop accepting new frontend requests; keep serving in-flight.

        Everything already queued or executing — including ensemble
        branches, retries, and armed batch timers — runs to completion;
        only *new* :meth:`submit` calls are refused.  Idempotent.
        """
        self.draining = True
        self._g_draining.set(1.0)

    @property
    def is_drained(self) -> bool:
        """Whether a draining server has finished all in-flight work.

        False while not draining: an active server is never "drained".
        """
        return (self.draining
                and self.queue_depth() == 0
                and self.busy_instances() == 0
                and not self._pending_fanout)

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> list[Response]:
        """Drive the simulation; returns all responses so far."""
        self.sim.run(until=until)
        return self.responses

    def instance_stats(self, model: str) -> list:
        """Per-instance utilization records for a model."""
        return [inst.stats for inst in self._instances[model]]

    def reconfigure_batcher(self, model: str,
                            config: BatcherConfig) -> None:
        """Swap a model's batching policy live (queued work is kept).

        Any armed queue-delay timer was scheduled under the *old*
        policy's deadline; cancel it so the pump below re-arms from the
        new config — otherwise a shorter ``max_queue_delay`` silently
        keeps the old, later deadline until it fires.
        """
        self._loaded(model)
        self._disarm(model)
        self._batchers[model].config = config
        self._pump(model)

    def batcher_config(self, model: str) -> BatcherConfig:
        """The live batching policy of a model."""
        self._loaded(model)
        return self._batchers[model].config

    def model_config(self, model: str) -> ModelConfig:
        """The repository entry for a loaded model."""
        return self._loaded(model)

    def inject_faults(self, model: str, fault_model) -> None:
        """Attach a :class:`~repro.serving.faults.FaultModel` to a
        loaded model's instances (chaos testing of a live repository)."""
        self._loaded(model).fault_model = fault_model
        for instance in self._instances[model]:
            instance.fault_model = fault_model

    def queued_images(self, model: str | None = None) -> int:
        """Images waiting in queue (one model, or all when None)."""
        if model is not None:
            return self._batchers[model].queued_images
        return sum(b.queued_images for b in self._batchers.values())

    def busy_instances(self, model: str | None = None) -> int:
        """Backend instances currently executing."""
        names = [model] if model is not None else list(self._instances)
        return sum(1 for name in names
                   for inst in self._instances[name] if inst.busy)

    def queue_depth(self, model: str | None = None) -> int:
        """Requests waiting in queue (one model, or all when None)."""
        if model is not None:
            return len(self._batchers[model])
        return sum(len(b) for b in self._batchers.values())

    def total_instances(self, model: str | None = None) -> int:
        """Instance-group size (one model, or the whole pool)."""
        names = [model] if model is not None else list(self._instances)
        return sum(len(self._instances[name]) for name in names)

    def inflight_batches(self) -> int:
        """Batches executing right now (each busy instance holds one)."""
        return self.busy_instances()

    def inflight_images(self, model: str | None = None) -> int:
        """Images inside currently-executing batches."""
        names = [model] if model is not None else list(self._instances)
        return sum(inst.current_images for name in names
                   for inst in self._instances[name])

    # ------------------------------------------------------------------
    # Hybrid fluid/DES state handoff (see :mod:`repro.serving.fluid`)
    # ------------------------------------------------------------------
    def handoff_out(self, model: str) -> list:
        """Detach a model's queued work for a fluid stretch.

        Returns the batcher's :class:`~repro.serving.batcher.
        QueuedRequest` records (original enqueue times and open wait
        spans intact) and cancels the armed queue-delay timer — the
        fluid integrator owns the queue until :meth:`handoff_in`.
        In-flight batches are *not* touched: their completion events
        stay on the heap and fire normally, which is what carries the
        in-flight leg of the state across the boundary.
        """
        self._loaded(model)
        self._disarm(model)
        return self._batchers[model].extract_queue()

    def handoff_in(self, model: str, queued: list,
                   new_enqueues: int = 0) -> None:
        """Re-attach queue state after a fluid stretch and resume.

        ``queued`` is the exit backlog in enqueue-time order — restored
        originals from :meth:`handoff_out` and/or records synthesized
        for arrivals that landed during the stretch (``new_enqueues``
        of them, for the enqueue counter).  Pumping restarts dispatch
        and re-arms the queue-delay timer from the restored state.
        """
        self._loaded(model)
        self._batchers[model].restore_queue(queued,
                                            new_enqueues=new_enqueues)
        self._pump(model)

    def record_fluid_summary(self, model: str, *,
                             submitted_requests: int = 0,
                             submitted_images: int = 0,
                             completed_requests: int = 0,
                             completed_images: int = 0,
                             latencies=None,
                             busy_seconds: float = 0.0) -> None:
        """Fold a fluid-integrated stretch into the serving metrics.

        The fluid regime never materializes per-request objects, so the
        engine reports the stretch in aggregate: submission/response
        counters move in bulk, latency samples ingest through the
        histogram's vectorized path, and the integrated busy time is
        spread evenly across the instance pool so utilization
        accounting matches what the DES would have recorded.
        """
        self._loaded(model)
        self._record_bulk(model, submitted_requests, submitted_images,
                          completed_requests, completed_images, latencies)
        if busy_seconds:
            instances = self._instances[model]
            share = busy_seconds / len(instances)
            for instance in instances:
                instance.stats.busy_seconds += share

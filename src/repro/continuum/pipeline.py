"""End-to-end pipeline performance (Fig. 8).

The e2e experiment co-locates a preprocessing instance and a model engine
on one device and streams batches through both.  Steady-state behaviour
under Triton's decoupled backends:

* stages overlap (batch *k* preprocesses while batch *k−1* infers), so
  **throughput is the slower stage's throughput**;
* a single request still traverses both stages, so **request latency is
  the sum of the stage batch latencies**;
* on memory-constrained devices the resident preprocessing buffers shrink
  the engine's feasible batch ("Combined memory consumption from
  preprocessing and inference constrains the model engine's available
  batch size" — the Fig. 8 batch labels), which lowers engine throughput
  and produces the Jetson's "inverted performance dynamics".
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Callable

from repro.bounds import within
from repro.continuum.network import NetworkLink
from repro.data.datasets import DatasetSpec
from repro.engine import calibration
from repro.engine.latency import LatencyModel
from repro.engine.oom import max_batch_size
from repro.hardware.platform import PlatformSpec
from repro.models.graph import ModelGraph
from repro.preprocessing.frameworks import DALI, PreprocessFramework
from repro.serving.observability import (
    DEFAULT_BUCKETS,
    HandleCache,
    ensure_registry,
)
from repro.serving.request import Request, Response
from repro.serving.tracectx import TraceContext


def e2e_batch_size(platform: PlatformSpec, graph: ModelGraph,
                   batch_sizes: tuple[int, ...] | None = None) -> int:
    """The largest batch usable end to end (the Fig. 8 x-labels).

    Uses the paper's anchored values when available; otherwise falls back
    to the memory model with the e2e-reduced budget (unified memory) or
    the full budget (discrete GPUs, capped at the paper's BS 64 e2e
    operating point).
    """
    key = (platform.name.lower(), graph.name.lower())
    anchored = calibration.E2E_BATCH_SIZES.get(key)
    if anchored is not None:
        return anchored
    budget = None
    if platform.unified_memory:
        budget = calibration.JETSON_E2E_ENGINE_BUDGET_BYTES
    grid = batch_sizes or calibration.batch_grid(platform.name)
    return min(64, max_batch_size(graph, platform, grid,
                                  budget_bytes=budget))


@dataclasses.dataclass(frozen=True)
class EndToEndResult:
    """One Fig. 8 cell: (platform, model, dataset) at its e2e batch."""

    platform: str
    model: str
    dataset: str
    batch_size: int
    preprocess_latency_seconds: float
    engine_latency_seconds: float
    preprocess_throughput: float
    engine_throughput: float

    @property
    def latency_seconds(self) -> float:
        """Request latency: both stages traversed (Fig. 8 upper panels)."""
        return self.preprocess_latency_seconds + self.engine_latency_seconds

    @property
    def throughput(self) -> float:
        """Pipelined steady-state images/s (Fig. 8 lower panels)."""
        return min(self.preprocess_throughput, self.engine_throughput)

    @property
    def bottleneck(self) -> str:
        """Which stage caps throughput ("preprocess" or "engine")."""
        return ("preprocess"
                if self.preprocess_throughput <= self.engine_throughput
                else "engine")


class EndToEndPipeline:
    """Composes a preprocessing framework with an engine on one platform.

    Parameters
    ----------
    graph / platform:
        The deployed model and device.
    framework:
        Preprocessing backend.  Defaults to a DALI instance producing the
        model's input resolution (the paper's e2e configuration).
    """

    def __init__(self, graph: ModelGraph, platform: PlatformSpec,
                 framework: PreprocessFramework | None = None):
        self.graph = graph
        self.platform = platform
        if framework is None:
            framework = DALI(output_size=graph.input_shape[1])
        elif framework.output_size != graph.input_shape[1]:
            raise ValueError(
                f"framework produces {framework.output_size}px inputs but "
                f"{graph.name} expects {graph.input_shape[1]}px")
        self.framework = framework
        self.latency_model = LatencyModel(graph, platform)

    def evaluate(self, dataset: DatasetSpec,
                 batch_size: int | None = None) -> EndToEndResult:
        """Price the pipeline for one dataset (one Fig. 8 bar pair)."""
        if dataset.dataset_specific_preprocessing and \
                not self.framework.supports_warp:
            # The paper's Fig. 8 legend omits CRSA for exactly this
            # reason: its CPU-bound perspective stage is not
            # GPU-accelerated yet.
            raise ValueError(
                f"{dataset.name} needs dataset-specific preprocessing that "
                f"{self.framework.name} does not provide")
        batch = (e2e_batch_size(self.platform, self.graph)
                 if batch_size is None else batch_size)
        if batch < 1:
            raise ValueError("batch_size must be >= 1")
        pre = self.framework.estimate(dataset, self.platform,
                                      batch_size=batch)
        engine_latency = self.latency_model.latency(batch)
        return EndToEndResult(
            platform=self.platform.name,
            model=self.graph.name,
            dataset=dataset.name,
            batch_size=batch,
            preprocess_latency_seconds=pre.batch_latency_seconds,
            engine_latency_seconds=engine_latency,
            preprocess_throughput=pre.throughput,
            engine_throughput=batch / engine_latency,
        )

    def sweep_datasets(self, datasets: list[DatasetSpec],
                       batch_size: int | None = None,
                       ) -> list[EndToEndResult]:
        """Evaluate all (non-CRSA) datasets — one Fig. 8 panel group."""
        results = []
        for dataset in datasets:
            if dataset.dataset_specific_preprocessing and \
                    not self.framework.supports_warp:
                continue
            results.append(self.evaluate(dataset, batch_size))
        return results


# ----------------------------------------------------------------------
# Traced continuum replay (edge -> uplink -> cloud -> downlink)
# ----------------------------------------------------------------------
class ContinuumReplayer:
    """Drives requests end-to-end across the continuum on the sim clock.

    :class:`EndToEndPipeline` *prices* the continuum analytically; this
    class *executes* it as discrete events so every leg becomes a traced
    span: per request, an ``edge_preprocess`` span (the field device
    preparing the capture), an ``uplink`` transfer over ``link`` — any
    transport: a :class:`~repro.continuum.network.NetworkLink`, a
    :class:`~repro.continuum.uplink.SharedUplink` (co-located endpoints
    contend for the bottleneck and the uplink spans widen) or a
    :class:`~repro.continuum.uplink.StoreAndForward` buffer (outages
    delay delivery), each returning a
    :class:`~repro.continuum.network.Transfer` — the full serving path
    inside the cloud ``target`` (admission, routing, queueing, batching,
    execution — instrumented by their own layers), and a ``downlink``
    leg returning the result.  With an
    :class:`~repro.continuum.offload.OffloadPolicy` attached, requests
    the policy places on the edge are served locally instead
    (``edge_inference`` span, no network legs).

    The replayer is itself a ``submit``-able target (it has ``sim`` and
    ``submit``), so :class:`~repro.serving.traces.TraceReplayer` can
    drive it from any arrival trace.  Every request gets a fresh
    :class:`~repro.serving.tracectx.TraceContext` with ids allocated
    from a replayer-local counter — two identical runs produce
    byte-identical traces.

    ``target`` is a :class:`~repro.serving.server.TritonLikeServer` (its
    completion callback is wired automatically) or a
    :class:`~repro.scale.balancer.LoadBalancer` — for a balancer, wire
    each backend with :meth:`attach_backend` (replica factories should
    call it for autoscaled replicas too).

    With a :class:`~repro.cache.tiers.CacheHierarchy` attached (and
    requests carrying ``cache_key`` fingerprints), the edge result tier
    is consulted on entry: a hit bypasses edge preprocessing, the
    uplink, and the cloud entirely (``cache_lookup`` instant +
    ``cache_hit`` span, answered after ``cache_lookup_time``), and every
    successfully delivered cloud result is inserted for the frames that
    follow.  Requests without a fingerprint, or a replayer without a
    cache, behave exactly as before.

    ``registry`` (a private one when None) receives the end-to-end
    latency histogram, with exemplars when ``exemplars`` is set.
    """

    def __init__(self, target, link: NetworkLink,
                 edge_preprocess_time: Callable[[int], float],
                 image_bytes: float, result_bytes: float = 1024.0,
                 offload=None, registry=None,
                 latency_buckets=None, cache=None,
                 cache_lookup_time: float = 0.0002,
                 trace_sample_rate: float = 1.0,
                 exemplars: bool = False):
        within("image_bytes", image_bytes, "(0, inf)")
        within("result_bytes", result_bytes, "[0, inf)")
        within("cache_lookup_time", cache_lookup_time, "[0, inf)")
        within("trace_sample_rate", trace_sample_rate, "[0, 1]")
        self.target = target
        self.link = link
        self.edge_preprocess_time = edge_preprocess_time
        self.image_bytes = image_bytes
        self.result_bytes = result_bytes
        self.offload = offload
        #: Optional :class:`~repro.cache.tiers.CacheHierarchy`.  With an
        #: edge result tier, a fingerprinted request that hits answers
        #: locally in ``cache_lookup_time`` — no edge preprocessing, no
        #: uplink, no cloud serving path.
        self.cache = cache
        self.cache_lookup_time = cache_lookup_time
        #: Uplink payload bytes never sent thanks to edge cache hits.
        self.uplink_bytes_saved = 0.0
        #: Fraction of requests whose traces are retained.  Sampling is
        #: deterministic (a fractional accumulator, not a RNG): rate 0.1
        #: keeps exactly every 10th request's trace.  Sampled-out
        #: requests still carry a full context while in flight — every
        #: span, baggage flag, and latency metric behaves identically —
        #: but the request drops it at finalize, so a long replay
        #: retains memory only for the kept fraction.  The default of
        #: 1.0 keeps everything.
        self.trace_sample_rate = trace_sample_rate
        #: Whether end-to-end latency observations carry OpenMetrics
        #: exemplars (deterministic: every finalized request has a
        #: trace id even when its spans are sampled out).
        self._exemplars = bool(exemplars)
        self._sample_accum = 0.0
        self._next_trace_id = itertools.count(1)
        #: Every *retained* trace context, in submission order.
        self.traces: list[TraceContext] = []
        #: Responses served locally on the edge (offload policy hits).
        self.edge_responses: list[Response] = []
        #: Responses answered from the edge result cache.
        self.cache_responses: list[Response] = []
        registry = ensure_registry(registry, lambda: self.sim.now)
        self._c_uplink_saved = registry.counter(
            "cache_uplink_bytes_saved_total",
            "Uplink payload bytes avoided by edge cache hits.",
            ).labels()
        latency = registry.histogram(
            "continuum_latency_seconds",
            "End-to-end continuum latency (edge entry to result "
            "delivery).",
            buckets=(latency_buckets if latency_buckets is not None
                     else DEFAULT_BUCKETS))
        if self._exemplars:
            latency.enable_exemplars()
        requests = registry.counter(
            "continuum_requests_total",
            "Continuum requests by placement and final status.")
        #: (model, placement, status) -> bound (histogram, counter)
        #: handles for the finalize hot path.
        self._finalize_handles = HandleCache(lambda key: (
            latency.labels(model=key[0]),
            requests.labels(placement=key[1], status=key[2])))
        if hasattr(target, "on_response"):
            target.on_response(self.handle_response)

    @property
    def sim(self):
        """The shared simulator clock (TraceReplayer contract)."""
        return self.target.sim

    def attach_backend(self, server) -> None:
        """Route a balancer backend's completions through the replayer.

        Must be called for every backend under a
        :class:`~repro.scale.balancer.LoadBalancer` target (including
        replicas an autoscaler adds later) so the downlink leg runs.
        """
        server.on_response(self.handle_response)

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Enter one request into the continuum at the current time."""
        sim = self.sim
        if self.trace_sample_rate >= 1.0:
            sampled = True
        else:
            self._sample_accum += self.trace_sample_rate
            sampled = self._sample_accum >= 1.0 - 1e-9
            if sampled:
                self._sample_accum -= 1.0
        ctx = TraceContext(next(self._next_trace_id), start=sim.now)
        ctx.sampled = sampled
        ctx.baggage["model"] = request.model_name
        endpoint = getattr(request, "endpoint", None)
        if endpoint is not None:
            # Co-located field endpoints sharing one uplink tag their
            # requests so traces and reports can split by device.
            ctx.baggage["endpoint"] = endpoint
        request.trace = ctx
        request.arrival_time = sim.now
        if sampled:
            self.traces.append(ctx)
        if self.cache is not None and request.cache_key is not None:
            from repro.cache.tiers import EDGE_RESULT

            result = self.cache.lookup(EDGE_RESULT, request.cache_key,
                                       trace=ctx, now=sim.now)
            if result is not None:
                self._serve_from_cache(request)
                return
        placement = "cloud"
        if self.offload is not None:
            payload = self.image_bytes * request.num_images
            decision = self.offload.decide(payload, trace=ctx,
                                           now=sim.now)
            placement = decision.placement.value
        ctx.baggage["placement"] = placement
        pre_span = ctx.begin("edge_preprocess", sim.now,
                             category="continuum",
                             images=request.num_images)
        duration = self.edge_preprocess_time(request.num_images)
        if duration < 0:
            raise ValueError("edge preprocess time must be >= 0")
        if placement == "edge":
            sim.schedule(duration,
                         lambda: self._edge_serve(request, pre_span))
        else:
            sim.schedule(duration,
                         lambda: self._uplink(request, pre_span))

    def _serve_from_cache(self, request: Request) -> None:
        """Answer an edge-cache hit locally: no uplink, no cloud.

        The hit still produces a complete trace (a ``cache_hit`` span
        covering the lookup) and a registry latency sample, so the
        critical-path analyzer and the stage breakdown see cache-served
        requests instead of silent gaps.
        """
        ctx = request.trace
        ctx.baggage["placement"] = "edge_cache"
        span = ctx.begin("cache_hit", self.sim.now, category="cache",
                         tier="edge_result", images=request.num_images)
        saved = self.image_bytes * request.num_images
        self.uplink_bytes_saved += saved
        self._c_uplink_saved.inc(saved)

        def served() -> None:
            ctx.end(span, self.sim.now)
            ctx.close(self.sim.now, status="ok")
            self.cache_responses.append(
                Response(request, self.sim.now, status="ok"))
            self._finalize(ctx, request)

        self.sim.schedule(self.cache_lookup_time, served)

    def _edge_serve(self, request: Request, pre_span) -> None:
        ctx = request.trace
        ctx.end(pre_span, self.sim.now)
        span = ctx.begin("edge_inference", self.sim.now,
                         category="continuum")

        def done() -> None:
            ctx.end(span, self.sim.now)
            ctx.close(self.sim.now, status="ok")
            self.edge_responses.append(
                Response(request, self.sim.now, status="ok"))
            self._finalize(ctx, request)

        self.sim.schedule(self.offload.edge_latency(), done)

    def _uplink(self, request: Request, pre_span) -> None:
        ctx = request.trace
        ctx.end(pre_span, self.sim.now)
        ctx.baggage["awaiting_downlink"] = True
        payload = self.image_bytes * request.num_images

        def arrived() -> None:
            self.target.submit(request)
            # A synchronous rejection (admission shed, drain refusal,
            # queue-full) closes the trace before submit returns and
            # never reaches the completion callback's downlink leg.
            if ctx.closed and ctx.baggage.get("awaiting_downlink"):
                ctx.baggage.pop("awaiting_downlink", None)
                self._finalize(ctx, request)

        self.link.schedule_transfer(self.sim, payload, arrived,
                                    trace=ctx, direction="uplink")

    def handle_response(self, response: Response) -> None:
        """Cloud completion: run the downlink leg, then finish the trace.

        Rejected responses skip the downlink (nothing was computed; the
        refusal is assumed to piggyback on the connection teardown).
        """
        ctx = response.request.trace
        if ctx is None or not ctx.baggage.pop("awaiting_downlink", False):
            return
        if response.status == "rejected":
            self._finalize(ctx, response.request)
            return

        def delivered() -> None:
            ctx.close(self.sim.now, status=response.status)
            if (self.cache is not None and response.status == "ok"
                    and response.request.cache_key is not None):
                from repro.cache.tiers import EDGE_RESULT

                # A delivered result becomes reusable for every
                # near-identical frame that follows (bytes: the stored
                # result payload, floored so 0-byte results still key).
                self.cache.insert(EDGE_RESULT,
                                  response.request.cache_key,
                                  value=response,
                                  size_bytes=max(1.0, self.result_bytes))
            self._finalize(ctx, response.request)

        self.link.schedule_transfer(self.sim, self.result_bytes,
                                    delivered, trace=ctx,
                                    direction="downlink")

    def _finalize(self, ctx: TraceContext, request: Request) -> None:
        handles = self._finalize_handles[
            str(ctx.baggage.get("model")),
            str(ctx.baggage.get("placement")), str(ctx.status)]
        if self._exemplars:
            handles[0].observe(ctx.latency, trace_id=str(ctx.trace_id))
        else:
            handles[0].observe(ctx.latency)
        handles[1].inc()
        if not ctx.sampled:
            # Metrics recorded above; the request drops its reference
            # so the discarded spans become garbage.
            request.trace = None

    # ------------------------------------------------------------------
    def completed_traces(self) -> list[TraceContext]:
        """Closed traces in submission order (the export input)."""
        return [t for t in self.traces if t.closed]

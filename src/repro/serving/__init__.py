"""Serving substrate: a Triton-like server on a discrete-event simulator.

"Backend request orchestration is currently provided by the NVIDIA Triton
Server" (Section 3).  The experiments depend on Triton's *scheduling
semantics* — dynamic batching, request queueing, concurrent backend
instances, and frontend/backend decoupling — rather than its
implementation, so this package reproduces those semantics exactly on a
deterministic discrete-event core:

* :mod:`repro.serving.events` — the simulator (event heap, virtual clock);
* :mod:`repro.serving.request` — request/response types;
* :mod:`repro.serving.batcher` — Triton's dynamic batcher (max batch,
  max queue delay, preferred sizes);
* :mod:`repro.serving.instance` — backend instances wrapping a service
  -time model (an engine or a preprocessing framework);
* :mod:`repro.serving.server` — the frontend: model repository, ensemble
  routing (preprocess → infer), submission API;
* :mod:`repro.serving.client` — open-loop (Poisson) and closed-loop load
  generators;
* :mod:`repro.serving.fluid` — hybrid fluid/DES replay: a regime
  controller that fast-forwards deep-saturation stretches with a
  vectorized Lindley recursion and hands queue state back losslessly;
* :mod:`repro.serving.metrics` — latency percentiles and throughput
  accounting;
* :mod:`repro.serving.observability` — live Prometheus-style registry
  (counters/gauges/histograms on the simulator clock) and the
  time-series sampler driving queue-depth/utilization timelines;
* :mod:`repro.serving.tracectx` — distributed-tracing contexts carried
  by requests across continuum and serving layers;
* :mod:`repro.serving.trace_export` — Chrome/Perfetto trace-event JSON
  export, critical-path analysis over those contexts, and the
  exemplar-joined tail-latency attribution report;
* :mod:`repro.serving.profiler` — sim-time cost attribution
  across the component hierarchy, derived after a run from its
  registry and spans, with folded-stack and speedscope export;
* :mod:`repro.serving.slo` — error budgets and multi-window burn-rate
  alerting over the registry's latency histograms.
"""

from repro.serving.events import Simulator, Event
from repro.serving.request import Request, Response
from repro.serving.batcher import (
    BatcherConfig,
    DynamicBatcher,
    QueueFullError,
)
from repro.serving.instance import BackendInstance, ServiceTimeFn
from repro.serving.server import (
    EnsembleConfig,
    ModelConfig,
    TritonLikeServer,
)
from repro.serving.client import (
    OpenLoopClient,
    ClosedLoopClient,
)
from repro.serving.fluid import (
    FluidConfig,
    FluidInterval,
    HybridReplayer,
    render_regime_timeline,
)
from repro.serving.metrics import LatencyStats, summarize_responses
from repro.serving.faults import FaultModel
from repro.serving.traces import (
    ArrivalTrace,
    TraceReplayer,
    burst_trace,
    diurnal_trace,
)
from repro.serving.exporter import (
    export_metrics,
    export_registry,
    parse_exemplars,
    parse_metrics,
)
from repro.serving.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SamplePoint,
    TimeSeriesSampler,
)
from repro.serving.profiler import SimProfiler, profile_run
from repro.serving.tracectx import SpanRecord, TraceContext
from repro.serving.trace_export import (
    critical_path,
    critical_path_summary,
    explain_tail,
    export_chrome_trace,
    render_attribution,
    render_critical_path,
    render_gantt,
    validate_chrome_trace,
)
from repro.serving.slo import BurnAlert, SLOConfig, SLOMonitor

__all__ = [
    "Simulator",
    "Event",
    "Request",
    "Response",
    "BatcherConfig",
    "DynamicBatcher",
    "QueueFullError",
    "BackendInstance",
    "ServiceTimeFn",
    "EnsembleConfig",
    "ModelConfig",
    "TritonLikeServer",
    "OpenLoopClient",
    "ClosedLoopClient",
    "FluidConfig",
    "FluidInterval",
    "HybridReplayer",
    "render_regime_timeline",
    "LatencyStats",
    "summarize_responses",
    "FaultModel",
    "ArrivalTrace",
    "TraceReplayer",
    "burst_trace",
    "diurnal_trace",
    "export_metrics",
    "export_registry",
    "parse_exemplars",
    "parse_metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SamplePoint",
    "TimeSeriesSampler",
    "SimProfiler",
    "profile_run",
    "SpanRecord",
    "TraceContext",
    "critical_path",
    "critical_path_summary",
    "explain_tail",
    "export_chrome_trace",
    "render_attribution",
    "render_critical_path",
    "render_gantt",
    "validate_chrome_trace",
    "BurnAlert",
    "SLOConfig",
    "SLOMonitor",
]

"""Request-scoped distributed tracing across the compute continuum.

The paper's core contribution is decomposing where time goes across the
continuum — dataset preprocessing, network transfer, queueing, batching,
inference — and "Beyond Inference" (arXiv:2403.12981) shows the server
-side share routinely dominates.  This module records that
decomposition per request: a :class:`TraceContext` created at the
client rides the :class:`~repro.serving.request.Request` through
every layer — admission, balancing, queueing, batch dispatch, backend
execution, retries, shed attempts, and the continuum's transfer legs —
and each layer appends named child spans stamped on the simulator
clock.

The result feeds :mod:`repro.serving.trace_export`: Chrome/Perfetto
trace-event JSON, a critical-path analysis over the span DAG, and a
per-request Gantt view.

Span naming conventions (what instrumented layers emit):

=================  ==========  =========================================
name               category    emitted by
=================  ==========  =========================================
``request``        request     the root span (client open, server close)
``edge_preprocess``  continuum  :class:`~repro.continuum.pipeline.ContinuumReplayer`
``edge_inference``   continuum  offload-to-edge local serve path
``uplink``/``downlink``  network  :meth:`~repro.continuum.network.NetworkLink.schedule_transfer`
``queue_wait``     queue       :class:`~repro.serving.batcher.DynamicBatcher`
``execute``        execute     :class:`~repro.serving.instance.BackendInstance`
``admission``      admission   :class:`~repro.scale.admission.AdmissionController` (instant)
``route``          balancer    :class:`~repro.scale.balancer.LoadBalancer` (instant)
``batch_dispatch``  queue      batcher, at dispatch (instant, batch size)
``offload_decision``  continuum  :class:`~repro.continuum.offload.OffloadPolicy` (instant)
``cache_lookup``   cache      :class:`~repro.cache.tiers.CacheTier` (instant, tier + outcome)
``cache_hit``      cache      edge-cache serve path (covers the lookup-to-answer interval)
``cold_start``     faas       :class:`~repro.faas.backend.FaaSBackend` sandbox setup
``init``           faas       FaaS artifact fetch (follows ``cold_start``)
``prewarm``        faas       provisioned-concurrency spawn (lifecycle instant)
``reap``           faas       keep-alive expiry (lifecycle instant, idle seconds)
=================  ==========  =========================================

Retried executions carry an ``attempt`` arg: the number of times the
stage has failed for this request (``Request.retries``), so the first
try is 0.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(slots=True)
class SpanRecord:
    """One named interval (or instant) within a trace.

    ``end`` is None while the span is open; instants have
    ``end == start``.  ``args`` carry span-local attributes (stage name,
    attempt index, payload bytes, ...) that the Perfetto exporter
    forwards verbatim.  Slotted: a traced run allocates one of these per
    span per request, so the dict-free layout is the difference between
    tracing being a rounding error and tracing dominating the profile.
    """

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start: float
    end: float | None = None
    args: dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def closed(self) -> bool:
        """Whether the span has ended."""
        return self.end is not None


class TraceContext:
    """The per-request span accumulator propagated through the stack.

    Deterministic by construction: span ids are allocated sequentially
    within the context, and every timestamp comes from the simulator
    clock via the instrumenting layer — two identical runs produce
    byte-identical traces.  ``baggage`` carries cross-layer annotations
    (e.g. the continuum replayer marks requests that owe a downlink
    leg).
    """

    def __init__(self, trace_id: int, start: float = 0.0,
                 root_name: str = "request"):
        self.trace_id = trace_id
        self.baggage: dict[str, object] = {}
        self.spans: list[SpanRecord] = []
        self._next_span_id = 0
        #: Whether the trace is retained (False on the sampled-out path;
        #: purely informational — the owner decides what to keep).
        self.sampled = True
        #: Final status stamped at :meth:`close` ("ok", "rejected", ...).
        self.status: str | None = None
        self.root = self.begin(root_name, start, category="request")

    # ------------------------------------------------------------------
    def begin(self, name: str, at: float, category: str = "span",
              parent: SpanRecord | None = None,
              **args: object) -> SpanRecord:
        """Open a child span at virtual time ``at``; returns the record.

        ``parent`` defaults to the root span (the span model is flat:
        every stage hangs off the request, which keeps the critical-path
        sweep simple and the Perfetto rendering readable).
        """
        parent_id = None
        if self.spans:  # the root itself has no parent
            parent_id = (parent.span_id if parent is not None
                         else self.root.span_id)
        span = SpanRecord(span_id=self._next_span_id,
                          parent_id=parent_id, name=name,
                          category=category, start=at, args=dict(args))
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def end(self, span: SpanRecord, at: float) -> None:
        """Close an open span at virtual time ``at``."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already closed")
        if at < span.start:
            raise ValueError(
                f"span {span.name!r} cannot end before it starts")
        span.end = at

    def instant(self, name: str, at: float, category: str = "mark",
                **args: object) -> SpanRecord:
        """Record a zero-duration event (decision points, dispatches)."""
        span = self.begin(name, at, category=category, **args)
        span.end = at
        return span

    def close(self, at: float, status: str = "ok") -> None:
        """Close (or extend) the root span and stamp the final status.

        Re-closing with a later time is allowed: the server closes the
        root when it responds, and the continuum replayer re-closes it
        after the downlink leg completes — last close wins, monotonic.
        """
        if self.root.end is not None and at < self.root.end:
            raise ValueError("trace cannot close earlier than it already "
                             "closed")
        self.root.end = at
        self.status = status

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the root span has ended."""
        return self.root.end is not None

    @property
    def start(self) -> float:
        """Virtual time the trace opened."""
        return self.root.start

    @property
    def latency(self) -> float:
        """Root span duration (end-to-end, including continuum legs)."""
        return self.root.duration

    def children(self) -> list[SpanRecord]:
        """Every span except the root, in creation order."""
        return [s for s in self.spans if s is not self.root]

    def find(self, name: str) -> list[SpanRecord]:
        """All spans with the given name, in creation order."""
        return [s for s in self.spans if s.name == name]


def attach(request, ctx: TraceContext) -> TraceContext:
    """Bind a context to a request (sets ``request.trace``)."""
    request.trace = ctx
    return ctx


def span_of(request) -> TraceContext | None:
    """The request's trace context, or None when tracing is off."""
    return getattr(request, "trace", None)

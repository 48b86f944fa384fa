"""The serving front door: admission and response accounting.

Triton splits the frontend that accepts and answers requests from the
backends that execute them (Section 3).  :class:`ServingFrontend` is
that frontend's bookkeeping, written once for
:class:`~repro.serving.server.TritonLikeServer` and
:class:`~repro.faas.backend.FaaSBackend`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.serving.observability import (
    HandleCache,
    MetricsRegistry,
    ensure_registry,
)
from repro.serving.request import Request, Response


class ServingFrontend:
    """Request admission, drain refusal and response accounting.

    Owns ``requests_submitted_total``, ``images_submitted_total``,
    ``responses_total``, ``images_completed_total``,
    ``drain_rejections_total`` and ``request_latency_seconds``; a
    subclass registers only its own families.
    """

    def __init__(self, sim, registry: MetricsRegistry | None = None):
        self.sim = sim
        #: Live metrics registry stamped on the simulator clock (see
        #: :mod:`repro.serving.observability`).
        self.metrics = ensure_registry(registry, lambda: self.sim.now)
        #: A draining backend stops accepting *new* requests but
        #: finishes everything already queued or executing.
        self.draining = False
        self.responses: list[Response] = []
        self._on_response: Callable[[Response], None] | None = None
        #: Whether completed-request latency observations carry
        #: exemplars (see :meth:`enable_exemplars`).
        self._exemplars = False
        m = self.metrics
        requests = m.counter(
            "requests_submitted_total", "Requests accepted by model.")
        images = m.counter(
            "images_submitted_total", "Images accepted by model.")
        responses = m.counter(
            "responses_total", "Completed responses by model and status.")
        images_done = m.counter(
            "images_completed_total",
            "Images in completed responses by model and status.")
        self._c_drain_rejections = m.counter(
            "drain_rejections_total",
            "Requests refused because the server was draining.")
        self._h_latency = m.histogram(
            "request_latency_seconds",
            "End-to-end latency of completed requests per model.")
        self._submitted = HandleCache(lambda model: (
            requests.labels(model=model), images.labels(model=model)))
        self._completed = HandleCache(lambda key: (
            responses.labels(model=key[0], status=key[1]),
            images_done.labels(model=key[0], status=key[1]),
            self._h_latency.labels(model=key[0])))

    def on_response(self, callback: Callable[[Response], None]) -> None:
        """Register a completion callback (e.g. closed-loop clients)."""
        self._on_response = callback

    def enable_exemplars(self) -> None:
        """Record request-latency exemplars for traced requests.

        Enables exemplars on the ``request_latency_seconds`` family;
        each completed traced request then stamps its
        ``(latency, trace_id, sim_time)`` witness on the bucket it
        lands in, linking the aggregate histogram back to a concrete
        trace (see :func:`repro.serving.trace_export.explain_tail`).
        """
        self._exemplars = True
        self._h_latency.enable_exemplars()

    def _admit(self, request: Request) -> bool:
        """Stamp the arrival; count it, or refuse it while draining.

        Returns whether the backend should route the request.  Routing
        layers stop sending before a drain begins, so the
        drain-rejection counter doubles as a drain-correctness alarm.
        """
        request.arrival_time = self.sim.now
        if self.draining:
            self._c_drain_rejections.inc(model=request.model_name)
            if request.trace is not None:
                request.trace.instant("drain_reject", self.sim.now,
                                      category="serving",
                                      model=request.model_name)
            self._respond(request, status="rejected")
            return False
        handles = self._submitted[request.model_name]
        handles[0].inc()
        handles[1].inc(request.num_images)
        return True

    def _respond(self, request: Request, status: str = "ok") -> None:
        response = Response(request, self.sim.now, status=status)
        if request.trace is not None:
            # Close the root at backend completion; the continuum
            # replayer re-closes after the downlink leg (close() allows
            # monotonic extension).
            request.trace.close(self.sim.now, status=status)
        self.responses.append(response)
        handles = self._completed[request.model_name, status]
        handles[0].inc()
        handles[1].inc(request.num_images)
        if self._exemplars and request.trace is not None:
            handles[2].observe(response.latency,
                               trace_id=str(request.trace.trace_id))
        else:
            handles[2].observe(response.latency)
        if self._on_response is not None:
            self._on_response(response)

    def _record_bulk(self, model: str, submitted_requests: int,
                     submitted_images: int, completed_requests: int,
                     completed_images: int, latencies=None) -> None:
        """Count a stretch of ``ok`` traffic that had no requests."""
        if submitted_requests:
            handles = self._submitted[model]
            handles[0].inc(submitted_requests)
            handles[1].inc(submitted_images)
        if completed_requests:
            handles = self._completed[model, "ok"]
            handles[0].inc(completed_requests)
            handles[1].inc(completed_images)
            if latencies is not None:
                handles[2].observe_many(latencies)

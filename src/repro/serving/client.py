"""Load generators for the serving experiments.

* :class:`OpenLoopClient` — Poisson arrivals at a fixed rate, the online
  -inference streaming pattern (Section 2.2.1): requests arrive whether or
  not the server keeps up, so queues grow when the offered load exceeds
  capacity.
* :class:`ClosedLoopClient` — a fixed number of in-flight requests, each
  reissued on completion: the offline batch-processing pattern
  (Section 2.2.2) and the standard way to measure peak throughput.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.serving.request import Request, Response
from repro.serving.server import TritonLikeServer
from repro.serving.tracectx import TraceContext


class OpenLoopClient:
    """Poisson-arrival request stream.

    With ``trace=True`` every issued request carries a fresh
    :class:`~repro.serving.tracectx.TraceContext` (ids from a
    client-local counter, so runs replay byte-identically); the serving
    layers add their spans and the contexts accumulate in ``traces``.
    """

    def __init__(self, server: TritonLikeServer, model_name: str,
                 rate_per_second: float, num_requests: int,
                 images_per_request: int = 1, seed: int = 0,
                 trace: bool = False):
        if not rate_per_second > 0:  # NaN compares false too
            raise ValueError(
                f"rate_per_second must be positive, got {rate_per_second}")
        if num_requests < 1:
            raise ValueError("need at least one request")
        self.server = server
        self.model_name = model_name
        self.images_per_request = images_per_request
        self.trace = trace
        self.traces: list[TraceContext] = []
        self._next_trace_id = itertools.count(1)
        self._c_issued = server.metrics.counter(
            "client_requests_issued_total",
            "Requests issued by load generators, by client kind.",
            ).labels(client="open_loop", model=model_name)
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate_per_second, size=num_requests)
        self.arrival_times = np.cumsum(gaps)

    def start(self) -> None:
        """Schedule every arrival on the server's simulator."""
        for t in self.arrival_times:
            self.server.sim.schedule_at(float(t), self._issue)

    def _issue(self) -> None:
        self._c_issued.inc()
        request = Request(self.model_name,
                          num_images=self.images_per_request)
        if self.trace:
            ctx = TraceContext(next(self._next_trace_id),
                               start=self.server.sim.now)
            ctx.baggage["model"] = self.model_name
            request.trace = ctx
            self.traces.append(ctx)
        self.server.submit(request)


class ClosedLoopClient:
    """Fixed-concurrency request loop."""

    def __init__(self, server: TritonLikeServer, model_name: str,
                 concurrency: int, num_requests: int,
                 images_per_request: int = 1):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if num_requests < concurrency:
            raise ValueError("num_requests must cover the initial window")
        self.server = server
        self.model_name = model_name
        self.concurrency = concurrency
        self.images_per_request = images_per_request
        self._remaining = num_requests
        self.completed: list[Response] = []
        self._c_issued = server.metrics.counter(
            "client_requests_issued_total",
            "Requests issued by load generators, by client kind.",
            ).labels(client="closed_loop", model=model_name)

    def start(self) -> None:
        """Prime the window and chain re-issues on completions."""
        self.server.on_response(self._handle_response)
        for _ in range(self.concurrency):
            self._issue()

    def _issue(self) -> None:
        if self._remaining <= 0:
            return
        self._remaining -= 1
        self._c_issued.inc()
        self.server.submit(Request(self.model_name,
                                   num_images=self.images_per_request))

    def _handle_response(self, response: Response) -> None:
        if response.request.model_name == self.model_name:
            self.completed.append(response)
            self._issue()

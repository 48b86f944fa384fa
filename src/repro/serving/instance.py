"""Backend instances: the execution units hosted by the server.

"The backend hosts model instances, each dedicated to a specific inference
task ... preprocessing routines are also encapsulated as separate backend
engine instances" (Section 3).  A :class:`BackendInstance` wraps any
service-time function — an :class:`~repro.engine.engine.InferenceEngine`
latency model, a preprocessing framework estimate, or a test stub — and
serves one batch at a time on the simulator clock.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.serving.events import Simulator
from repro.serving.observability import ensure_registry
from repro.serving.request import Request

#: Maps a batch image count to its backend execution time in seconds.
ServiceTimeFn = Callable[[int], float]


@dataclasses.dataclass
class InstanceStats:
    """Utilization accounting for one instance."""

    batches_served: int = 0
    images_served: int = 0
    busy_seconds: float = 0.0
    failures: int = 0
    #: Time the instance was occupied by executions that ended in
    #: failure (the fault-detection window).  The slot is just as
    #: unavailable as during successful service, so utilization folds
    #: it in — otherwise fault injection *lowers* reported utilization
    #: while the instance is actually saturated.
    fault_seconds: float = 0.0

    def utilization(self, elapsed: float) -> float:
        """Occupied fraction of the elapsed window (busy + faulted)."""
        if elapsed <= 0:
            return 0.0
        return (self.busy_seconds + self.fault_seconds) / elapsed


class BackendInstance:
    """One backend execution slot (a model or preprocessing instance).

    ``fault_model`` (see :mod:`repro.serving.faults`) makes executions
    fail probabilistically; failed batches occupy the instance for the
    detection window, then fire ``on_failure`` instead of
    ``on_complete``.  ``metrics`` receives the per-stage execution
    families (a private registry when None).
    """

    def __init__(self, name: str, service_time: ServiceTimeFn,
                 sim: Simulator, fault_model=None, metrics=None):
        self.name = name
        self.service_time = service_time
        self.sim = sim
        self.busy = False
        #: Images in the batch executing right now (0 while idle) — the
        #: hybrid fluid engine reads this to seed its backlog state with
        #: in-flight work at a regime switch.
        self.current_images = 0
        self.stats = InstanceStats()
        self.fault_model = fault_model
        self._stage = stage = name.split("#")[0]
        metrics = ensure_registry(metrics, lambda: sim.now)
        # Bound label handles: the stage label is fixed for the
        # instance's lifetime, so every per-batch update skips the
        # label-key build entirely.
        self._h_exec = metrics.histogram(
            "execution_seconds",
            "Successful backend execution time per stage.",
            ).labels(stage=stage)
        self._c_batches = metrics.counter(
            "batches_executed_total",
            "Successful batch executions per stage.",
            ).labels(stage=stage)
        self._c_images = metrics.counter(
            "images_executed_total",
            "Images in successful executions per stage.",
            ).labels(stage=stage)
        self._c_failures = metrics.counter(
            "execution_failures_total",
            "Failed backend executions per stage.",
            ).labels(stage=stage)
        self._c_fault_seconds = metrics.counter(
            "fault_seconds_total",
            "Instance time lost to failed executions per stage.",
            ).labels(stage=stage)

    def execute(self, batch: list[Request],
                on_complete: Callable[[list[Request]], None],
                on_failure: Callable[[list[Request]], None] | None = None,
                ) -> None:
        """Serve a batch; fires ``on_complete(batch)`` when done."""
        if self.busy:
            raise RuntimeError(f"instance {self.name} is already busy")
        if not batch:
            raise ValueError("cannot execute an empty batch")
        images = sum(r.num_images for r in batch)
        duration = self.service_time(images)
        if not duration >= 0:  # NaN compares false too
            raise ValueError(
                f"service time for {images} images is negative or NaN "
                f"({duration})")
        self.busy = True
        self.current_images = images
        start = self.sim.now
        trace_spans = []
        for request in batch:
            if request.first_start is None:
                request.first_start = start
            if request.trace is not None:
                # Each attempt gets its own span; a retry's ``attempt``
                # is the number of failures this stage has seen.
                trace_spans.append((request, request.trace.begin(
                    "execute", start, category="execute",
                    stage=self._stage, instance=self.name,
                    attempt=request.retries.get(self._stage, 0),
                    batch_images=images)))

        fails = (self.fault_model is not None
                 and on_failure is not None
                 and self.fault_model.draw_failure())
        if fails:
            detect = self.fault_model.detect_seconds

            def fail() -> None:
                self.busy = False
                self.current_images = 0
                self.stats.failures += 1
                self.stats.fault_seconds += detect
                # Close the attempt's span at detection time: the slot
                # was occupied, and the trace must show it (instead of
                # the wait reading as queueing).
                for request, span in trace_spans:
                    span.args["outcome"] = "fault"
                    request.trace.end(span, self.sim.now)
                self._c_failures.inc()
                self._c_fault_seconds.inc(detect)
                on_failure(batch)

            self.sim.schedule(detect, fail)
            return

        def finish() -> None:
            self.busy = False
            self.current_images = 0
            self.stats.batches_served += 1
            self.stats.images_served += images
            self.stats.busy_seconds += duration
            for request, span in trace_spans:
                request.trace.end(span, self.sim.now)
            self._h_exec.observe(duration)
            self._c_batches.inc()
            self._c_images.inc(images)
            on_complete(batch)

        self.sim.schedule(duration, finish)

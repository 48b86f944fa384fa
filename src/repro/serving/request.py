"""Request and response types flowing through the serving layer."""

from __future__ import annotations

import dataclasses
import itertools

_request_ids = itertools.count(1)


@dataclasses.dataclass
class Request:
    """One frontend inference request.

    ``num_images`` is the request's payload size; the dynamic batcher may
    coalesce several requests into one backend execution.  ``stages_left``
    tracks the remaining ensemble stages (e.g. preprocess → infer).
    """

    model_name: str
    num_images: int = 1
    arrival_time: float = 0.0
    #: Scheduling priority (higher = more urgent); Triton's priority
    #: levels.  Real-time requests outrank offline batch work queued on
    #: the same model.
    priority: int = 0
    request_id: int = dataclasses.field(
        default_factory=lambda: next(_request_ids))
    #: Virtual time the first backend execution started (None until
    #: then); later attempts and stages leave it alone.
    first_start: float | None = None
    #: Failed executions per stage, bumped by the server's retry path.
    retries: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Whether a FaaS backend spawned a sandbox for this request.
    cold_start: bool = False
    #: Optional distributed-tracing context (see
    #: :mod:`repro.serving.tracectx`).  None = tracing off: every
    #: instrumentation point is a no-op and the request behaves exactly
    #: as before.
    trace: object | None = None
    #: Optional perceptual fingerprint of the request's frame (a
    #: :class:`~repro.cache.keys.FrameFingerprint`).  None = caching
    #: off for this request: every cache consultation point is a no-op.
    cache_key: object | None = None

    def __post_init__(self) -> None:
        if self.num_images < 1:
            raise ValueError("a request must carry at least one image")


@dataclasses.dataclass(frozen=True)
class Response:
    """A completed (or rejected/failed) request."""

    request: Request
    completion_time: float
    #: "ok", "rejected" (queue-full backpressure), "failed" (backend
    #: fault that exhausted its retries), or "degraded" (an ensemble
    #: fan-out where at least one branch was rejected but others still
    #: produced results — distinguishable from a full rejection).
    status: str = "ok"

    @property
    def ok(self) -> bool:
        """Whether the request completed successfully."""
        return self.status == "ok"

    @property
    def degraded(self) -> bool:
        """Whether this is a partial ensemble result."""
        return self.status == "degraded"

    @property
    def latency(self) -> float:
        """End-to-end seconds from arrival to completion."""
        return self.completion_time - self.request.arrival_time

    @property
    def queue_delay(self) -> float:
        """Seconds spent queued before the first backend execution."""
        first_start = self.request.first_start
        if first_start is None:
            first_start = self.completion_time
        return first_start - self.request.arrival_time

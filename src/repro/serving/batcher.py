"""Triton-style dynamic batcher.

Triton's dynamic batching collects individually-arriving requests into
larger backend executions, trading queue delay for batch efficiency —
exactly the throughput/latency knob the paper's Fig. 6 analysis tunes.
Semantics reproduced:

* a batch is dispatched immediately when ``max_batch_size`` images are
  queued and an instance is free;
* otherwise dispatch waits at most ``max_queue_delay`` seconds from the
  oldest queued request (then ships whatever is queued);
* optional ``preferred_batch_sizes`` round the dispatch size down to the
  largest preferred size that fits (Triton's preferred-size behaviour);
* with batching disabled the batcher degrades to FIFO single-request
  dispatch (the ablation baseline).
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.serving.observability import ensure_registry
from repro.serving.request import Request


class QueueFullError(RuntimeError):
    """Raised when a bounded queue rejects a request (overload policy)."""

    def __init__(self, model: str, limit: int):
        self.model = model
        self.limit = limit
        super().__init__(
            f"queue for {model!r} is full ({limit} images); request "
            "rejected")


@dataclasses.dataclass(frozen=True)
class BatcherConfig:
    """Dynamic batching policy.

    ``max_queue_size`` bounds queued *images* (Triton's
    ``max_queue_size`` queue policy): past it, new requests are rejected
    immediately rather than queued — the backpressure behaviour an
    overloaded online deployment needs instead of unbounded latency.
    ``0`` means unbounded.
    """

    max_batch_size: int = 64
    max_queue_delay: float = 0.005
    preferred_batch_sizes: tuple[int, ...] = ()
    enabled: bool = True
    max_queue_size: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if not self.max_queue_delay >= 0:  # NaN compares false too
            raise ValueError("max_queue_delay must be >= 0")
        if any(p < 1 or p > self.max_batch_size
               for p in self.preferred_batch_sizes):
            raise ValueError(
                "preferred batch sizes must lie in [1, max_batch_size]")
        if self.max_queue_size < 0:
            raise ValueError("max_queue_size must be >= 0 (0 = unbounded)")


@dataclasses.dataclass
class QueuedRequest:
    request: Request
    enqueue_time: float
    #: Open ``queue_wait`` span when the request carries a trace
    #: context (closed at dispatch).
    wait_span: object | None = None


class DynamicBatcher:
    """The queue + batch-forming policy for one model.

    The batcher emits enqueue counters, a queue-wait histogram, and a
    dispatched-batch-size histogram into ``metrics`` (the server passes
    its registry and the model name as ``stage``; without one they go
    to a private registry).
    """

    #: Image-count buckets for the dispatched-batch-size histogram.
    SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

    def __init__(self, config: BatcherConfig, metrics=None,
                 stage: str | None = None):
        self.config = config
        self._queue: deque[QueuedRequest] = deque()
        #: Running image count across queued requests, maintained at
        #: enqueue/dispatch so the per-event ``ready`` checks and the
        #: time-series sampler never walk the queue.
        self._queued_images = 0
        self._stage = stage if stage is not None else ""
        metrics = ensure_registry(metrics)
        # Stage is fixed per batcher: bind the label handles once so
        # the per-request enqueue/dispatch updates skip label-key
        # construction.
        self._c_enqueued = metrics.counter(
            "batcher_enqueued_total", "Requests queued per stage.",
            ).labels(stage=self._stage)
        self._h_wait = metrics.histogram(
            "queue_wait_seconds",
            "Enqueue-to-dispatch wait per stage.",
            ).labels(stage=self._stage)
        self._h_size = metrics.histogram(
            "batch_size_images", "Dispatched batch size per stage.",
            buckets=self.SIZE_BUCKETS).labels(stage=self._stage)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def queued_images(self) -> int:
        """Images waiting across queued requests."""
        return self._queued_images

    def enqueue(self, request: Request, now: float) -> None:
        """Queue a request; raises QueueFullError past the bound."""
        limit = self.config.max_queue_size
        if limit and self._queued_images + request.num_images > limit:
            raise QueueFullError(request.model_name, limit)
        queued = QueuedRequest(request, now)
        if request.trace is not None:
            queued.wait_span = request.trace.begin(
                "queue_wait", now, category="queue", stage=self._stage)
        self._queue.append(queued)
        self._queued_images += request.num_images
        self._c_enqueued.inc()

    # ------------------------------------------------------------------
    # Fluid-regime state handoff
    # ------------------------------------------------------------------
    def extract_queue(self) -> list[QueuedRequest]:
        """Detach every queued request (hybrid-engine handoff out).

        The fluid integrator absorbs the detached work into its backlog
        state; open ``queue_wait`` spans stay open on the returned
        records so the engine can close them at their fluid completion
        times.  No metrics fire — the requests were already counted at
        their original enqueue.
        """
        queued = list(self._queue)
        self._queue.clear()
        self._queued_images = 0
        return queued

    def restore_queue(self, queued: list[QueuedRequest],
                      new_enqueues: int = 0) -> None:
        """Re-attach queued requests (hybrid-engine handoff in).

        ``queued`` must be in nondecreasing enqueue-time order and the
        live queue must be empty (the stage was detached for the fluid
        stretch); original enqueue times are preserved so queue-delay
        timers and wait accounting pick up exactly where the DES left
        off.  ``new_enqueues`` counts the entries synthesized by the
        fluid engine (arrivals that happened *during* the stretch) into
        the enqueue counter; restored originals were already counted.
        """
        if self._queue:
            raise RuntimeError(
                "restore_queue on a non-empty queue would reorder "
                "waiting requests")
        times = [q.enqueue_time for q in queued]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError(
                "restored queue must be in enqueue-time order")
        self._queue.extend(queued)
        self._queued_images = sum(q.request.num_images for q in queued)
        if new_enqueues:
            self._c_enqueued.inc(new_enqueues)

    # ------------------------------------------------------------------
    def ready(self, now: float) -> bool:
        """Whether a batch should be dispatched right now."""
        if not self._queue:
            return False
        if not self.config.enabled:
            return True
        if self._queued_images >= self.config.max_batch_size:
            return True
        oldest = self._queue[0].enqueue_time
        # One-ulp tolerance: the server's delay timer fires at exactly
        # oldest + max_queue_delay, and (now - oldest) can round below the
        # configured delay, which would re-arm a zero-delay timer forever.
        return now >= oldest + self.config.max_queue_delay - 1e-12

    def next_deadline(self) -> float | None:
        """Virtual time at which the queue-delay timer fires."""
        if not self._queue or not self.config.enabled:
            return None
        return self._queue[0].enqueue_time + self.config.max_queue_delay

    def form_batch(self, now: float | None = None) -> list[Request]:
        """Pop the next batch (requests never split across batches).

        Dequeue order is (priority desc, arrival) — Triton's priority
        levels: urgent real-time requests jump queued offline work, FIFO
        within a level.  Pass ``now`` (the server does) to record each
        popped request's queue wait into the metrics registry.
        """
        if not self._queue:
            raise RuntimeError("form_batch on an empty queue")
        ordered = sorted(
            range(len(self._queue)),
            key=lambda i: (-self._queue[i].request.priority, i))
        if not self.config.enabled:
            picked = [ordered[0]]
        else:
            target = self._pick_target_size()
            picked = []
            images = 0
            for index in ordered:
                request = self._queue[index].request
                if picked and images + request.num_images > target:
                    break
                picked.append(index)
                images += request.num_images
        batch = [self._queue[i].request for i in picked]
        batch_images = sum(r.num_images for r in batch)
        if now is not None:
            for index in picked:
                self._h_wait.observe(
                    now - self._queue[index].enqueue_time)
            self._h_size.observe(batch_images)
        for index in picked:
            queued = self._queue[index]
            if queued.wait_span is not None:
                dispatch = now if now is not None else queued.enqueue_time
                queued.request.trace.end(queued.wait_span, dispatch)
                queued.request.trace.instant(
                    "batch_dispatch", dispatch, category="queue",
                    stage=self._stage, batch_images=batch_images)
        for index in sorted(picked, reverse=True):
            del self._queue[index]
        self._queued_images -= batch_images
        return batch

    def _pick_target_size(self) -> int:
        limit = min(self._queued_images, self.config.max_batch_size)
        preferred = [p for p in self.config.preferred_batch_sizes
                     if p <= limit]
        return max(preferred) if preferred else limit

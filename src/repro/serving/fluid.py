"""Hybrid fluid/DES engine for million-endpoint farm traces.

The exact tuple-heap DES (:mod:`repro.serving.events`) prices every
queued request individually — perfect for transients, wasteful in deep
saturation where a backlog of thousands of requests drains through a
fully-busy instance pool at a *deterministic* aggregate rate.  The
paper's continuum sweeps hit exactly that regime when a whole region's
growing-season uplink lands on one cloud tier.

:class:`HybridReplayer` replays an arrival trace like
:class:`~repro.serving.traces.TraceReplayer`, but watches the serving
state through an explicit regime controller:

* **DES regime** — arrivals submit one by one; batching, queue-delay
  timers, priorities, and instance scheduling run exactly as before.
* **Fluid entry** — once the queue has held at least
  ``enter_queued_images`` with every instance busy for
  ``sustain_seconds``, the engine detaches the queue
  (:meth:`~repro.serving.server.TritonLikeServer.handoff_out`) and
  advances the whole saturated stretch with a vectorized Lindley
  recursion over the pending arrival vector::

      C_k = P_k + max(V0, max_{j<=k}(A_j - P_{j-1}))

  where ``A`` are arrival times, ``P`` the cumulative per-request
  service demand at the pool's saturated rate, and ``V0`` the virtual
  unfinished-work level seeded from in-flight images at entry.  One
  ``np.maximum.accumulate`` replaces millions of heap operations.
* **Fluid exit** — the recursion also yields the backlog each arrival
  observes; the first future arrival that sees at most
  ``exit_queued_images`` of backlog marks the regime boundary.  Work
  completing before that instant is folded into the serving metrics in
  aggregate (:meth:`~repro.serving.server.TritonLikeServer.
  record_fluid_summary`); work still in the virtual queue is
  re-materialized with its original arrival times and restored via
  :meth:`~repro.serving.server.TritonLikeServer.handoff_in`, so the DES
  picks up a byte-faithful queue state and drains the transition
  exactly.

The handoff is lossless: extracted requests keep their enqueue times
and open trace spans, in-flight batches complete on their already
scheduled heap events, and conservation (DES responses + fluid
completions == trace arrivals) is an invariant the tests assert.

Assumptions (validated at construction): the model is single-stage (no
preprocess chain or ensemble fan-out) and fault-free — multi-stage
routing and retry paths have per-request state the aggregate recursion
cannot represent.  The engine also assumes it is the model's only
traffic source during a fluid stretch.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.bounds import within
from repro.serving.batcher import QueuedRequest
from repro.serving.request import Request
from repro.serving.server import TritonLikeServer
from repro.serving.tracectx import TraceContext
from repro.serving.traces import ArrivalTrace


@dataclasses.dataclass(frozen=True)
class FluidConfig:
    """Regime-controller policy for :class:`HybridReplayer`.

    Entry requires *sustained* saturation — at least
    ``enter_queued_images`` queued with every instance busy for
    ``sustain_seconds`` — so a single burst spike keeps exact DES
    treatment.  Exit hands back to the DES at the first arrival that
    observes at most ``exit_queued_images`` of virtual backlog, leaving
    the drain transient to the exact engine.  Stretches shorter than
    ``min_fluid_arrivals`` remaining arrivals never switch: the regime
    change costs a queue handoff each way, which only pays off over a
    long saturated run.
    """

    enter_queued_images: int = 512
    sustain_seconds: float = 0.5
    exit_queued_images: int = 64
    min_fluid_arrivals: int = 256

    def __post_init__(self) -> None:
        within("enter_queued_images", self.enter_queued_images, "[1, inf)")
        within("exit_queued_images", self.exit_queued_images, "[0, inf)")
        if self.exit_queued_images >= self.enter_queued_images:
            raise ValueError(
                "exit threshold must sit below the entry threshold "
                "(hysteresis keeps the controller from oscillating)")
        within("sustain_seconds", self.sustain_seconds, "[0, inf)")
        within("min_fluid_arrivals", self.min_fluid_arrivals, "[1, inf)")


@dataclasses.dataclass(frozen=True)
class FluidInterval:
    """One fluid-integrated stretch (reporting + test introspection)."""

    #: Virtual time the controller switched to the fluid regime.
    entered: float
    #: Virtual time the DES resumed (queue restored just before it).
    resumed: float
    #: Requests whose completion the recursion integrated in aggregate.
    integrated_requests: int
    #: Requests re-materialized into the live queue at exit.
    restored_requests: int
    #: Queued + in-flight images absorbed at entry.
    entry_backlog_images: int


class HybridReplayer:
    """Replay an arrival trace, switching to fluid flow in saturation.

    Drop-in sibling of :class:`~repro.serving.traces.TraceReplayer`
    for single-stage models: :meth:`schedule` arms the trace as an
    :class:`~repro.serving.events.EventStream`, every arrival submits a
    request through the exact DES path, and the regime controller
    (see :class:`FluidConfig`) fast-forwards deep-saturation stretches
    analytically.  ``server.run()`` drives the replay as usual.
    """

    def __init__(self, server: TritonLikeServer, model_name: str,
                 images_per_request: int = 1, time_scale: float = 1.0,
                 config: FluidConfig | None = None):
        within("images_per_request", images_per_request, "[1, inf)")
        within("time_scale", time_scale, "(0, inf)")
        model = server.model_config(model_name)  # KeyError if unknown
        if model.preprocess_model is not None:
            raise ValueError(
                "hybrid fluid replay needs a single-stage model; "
                f"{model_name!r} routes through "
                f"{model.preprocess_model!r} first")
        if model.fault_model is not None:
            raise ValueError(
                "hybrid fluid replay assumes fault-free service; "
                f"{model_name!r} has a fault model attached")
        self.server = server
        self.model_name = model_name
        self.images_per_request = images_per_request
        self.time_scale = time_scale
        self.config = config if config is not None else FluidConfig()
        batcher = server.batcher_config(model_name)
        batch_images = (batcher.max_batch_size if batcher.enabled
                        else images_per_request)
        batch_seconds = model.service_time(batch_images)
        if batch_seconds <= 0:
            raise ValueError(
                "saturated service time must be positive to define a "
                "fluid rate")
        #: Saturated pool throughput in images/second: every instance
        #: continuously serving full batches.
        self.mu_images = model.instances * batch_images / batch_seconds
        # The recursion charges each request only its aggregate-rate
        # share g/mu; in the DES it additionally rides inside a batch
        # whose execution takes t(B).  Re-add the in-batch residency so
        # fluid latencies line up with exact ones.
        self._latency_offset = max(
            0.0, batch_seconds - images_per_request / self.mu_images)
        self._stream = None
        self._times = np.empty(0)
        self._sat_since: float | None = None
        #: Per-stretch records, in entry order.
        self.intervals: list[FluidInterval] = []
        #: Requests completed analytically (no Response materialized).
        self.fluid_completed = 0
        self._fluid_latencies: list[np.ndarray] = []
        #: Requests submitted through the exact DES path.
        self.submitted = 0
        #: Regime boundary instants (``fluid_enter`` / ``fluid_exit``),
        #: so HybridReplayer runs export a visible regime timeline
        #: instead of silently folding stretches away.
        self.timeline = TraceContext(0, start=0.0,
                                     root_name="regime_timeline")
        metrics = server.metrics
        self._c_intervals = metrics.counter(
            "fluid_intervals_total",
            "Fluid-regime stretches entered per model.",
        ).labels(model=model_name)
        self._c_folded = metrics.counter(
            "fluid_folded_arrivals_total",
            "Arrivals integrated analytically instead of fired "
            "through the DES, per model.",
        ).labels(model=model_name)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def schedule(self, trace: ArrivalTrace):
        """Arm the trace (scaled by ``time_scale``); returns the stream.

        Like :meth:`TraceReplayer.schedule`, the whole trace registers
        as one :class:`~repro.serving.events.EventStream`; returns None
        for an empty trace.  A replayer replays one trace.
        """
        if self._stream is not None:
            raise RuntimeError("this replayer already has a trace armed")
        times = np.asarray(trace.arrival_times, dtype=float)
        if self.time_scale != 1.0:
            times = times * self.time_scale
        self._times = times
        if times.size == 0:
            return None
        self._stream = self.server.sim.add_stream(times, self._on_arrival)
        return self._stream

    def _on_arrival(self, index: int) -> None:
        """Stream callback: exact submission + regime-entry check."""
        self.submitted += 1
        self.server.submit(Request(self.model_name,
                                   num_images=self.images_per_request))
        self._check_entry()

    def _check_entry(self) -> None:
        """Switch to fluid flow once saturation has been sustained."""
        server, model, cfg = self.server, self.model_name, self.config
        saturated = (
            server.queued_images(model) >= cfg.enter_queued_images
            and server.busy_instances(model)
            == server.total_instances(model))
        if not saturated:
            self._sat_since = None
            return
        now = server.sim.now
        if self._sat_since is None:
            self._sat_since = now
        if now - self._sat_since < cfg.sustain_seconds:
            return
        if self._stream.remaining < cfg.min_fluid_arrivals:
            return
        self._enter_fluid()

    # ------------------------------------------------------------------
    # The fluid stretch
    # ------------------------------------------------------------------
    def _enter_fluid(self) -> None:
        """Integrate the saturated stretch and arm the exit handoff."""
        server, model, cfg = self.server, self.model_name, self.config
        sim = server.sim
        t0 = sim.now
        queued = server.handoff_out(model)
        inflight = server.inflight_images(model)
        self._sat_since = None

        # Pending-arrival vectors: the detached queue (original arrival
        # times) followed by every not-yet-fired trace arrival.
        start = self._stream.index
        future = self._times[start:]
        nq = len(queued)
        arr_q = np.fromiter((q.request.arrival_time for q in queued),
                            dtype=float, count=nq)
        img_q = np.fromiter((q.request.num_images for q in queued),
                            dtype=float, count=nq)
        arrivals = np.concatenate([arr_q, future])
        images = np.concatenate(
            [img_q, np.full(future.size, float(self.images_per_request))])

        # Lindley recursion, closed form.  service[k] is request k's
        # demand at the saturated rate; prefix[k] its cumulative start
        # offset.  V0 seeds the virtual unfinished work with in-flight
        # images, whose completion events stay on the heap.
        service = images / self.mu_images
        prefix = np.cumsum(service)
        v0 = t0 + inflight / self.mu_images
        level = np.maximum(
            np.maximum.accumulate(arrivals - (prefix - service)), v0)
        completion = prefix + level

        # Backlog (images of virtual work ahead) observed by each
        # arrival; the regime exits at the first *future* arrival whose
        # backlog has drained to the exit threshold.
        vprev = np.concatenate(([v0], completion[:-1]))
        backlog = np.maximum(vprev - arrivals, 0.0) * self.mu_images
        below = np.flatnonzero(backlog[nq:] <= cfg.exit_queued_images)
        if below.size:
            k_star = nq + int(below[0])
            resume_time = float(arrivals[k_star])
        else:
            # The trace ends saturated: integrate everything and resume
            # an idle server once the virtual backlog has fully drained.
            k_star = int(arrivals.size)
            resume_time = float(completion[-1])

        # Completion split: strictly increasing C, so requests done by
        # resume_time form a prefix; the rest are still in the virtual
        # queue and get re-materialized.
        n_complete = int(np.searchsorted(completion[:k_star], resume_time,
                                         side="right"))
        latencies = (completion[:n_complete] - arrivals[:n_complete]
                     + self._latency_offset)
        # Close the detached originals that completed inside the
        # stretch at their analytic completion times.
        for j in range(min(nq, n_complete)):
            record = queued[j]
            done = float(completion[j])
            if record.wait_span is not None:
                record.request.trace.end(record.wait_span, done)
            if record.request.trace is not None:
                record.request.trace.close(done, status="ok")

        # Aggregate accounting: arrivals the stream never fired count
        # as submitted here; detached originals were already counted at
        # their real submission.
        n_new = k_star - nq
        server.record_fluid_summary(
            model,
            submitted_requests=n_new,
            submitted_images=int(images[nq:k_star].sum()),
            completed_requests=n_complete,
            completed_images=int(images[:n_complete].sum()),
            latencies=latencies,
            busy_seconds=float(service[:n_complete].sum()))
        self.fluid_completed += n_complete
        self._fluid_latencies.append(latencies)

        # Exit backlog: surviving originals keep their QueuedRequest
        # records (enqueue times + open spans); arrivals that landed
        # during the stretch are synthesized with their true arrival
        # times so downstream latency accounting is exact.
        restored = list(queued[n_complete:])
        n_synth = 0
        for j in range(max(nq, n_complete), k_star):
            when = float(arrivals[j])
            request = Request(model, num_images=int(images[j]),
                              arrival_time=when)
            restored.append(QueuedRequest(request, when))
            n_synth += 1

        # Jump the stream past the integrated arrivals, then restore
        # the queue *at* the exit instant.  Heap events outrank stream
        # firings on ties, so the handoff lands before arrival k_star
        # fires through the exact path.
        self._stream.jump(start + n_new)
        sim.schedule_at(
            resume_time,
            lambda: server.handoff_in(model, restored,
                                      new_enqueues=n_synth))
        entry_backlog = int(img_q.sum()) + inflight
        self.intervals.append(FluidInterval(
            entered=t0, resumed=resume_time,
            integrated_requests=n_complete,
            restored_requests=len(restored),
            entry_backlog_images=entry_backlog))
        self._c_intervals.inc()
        self._c_folded.inc(n_new)
        self.timeline.instant(
            "fluid_enter", t0, category="regime",
            queued_requests=nq, backlog_images=entry_backlog)
        self.timeline.instant(
            "fluid_exit", resume_time, category="regime",
            integrated_requests=n_complete,
            restored_requests=len(restored))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """Total completions: DES responses + fluid-integrated ones."""
        return len(self.server.responses) + self.fluid_completed

    def latencies(self) -> np.ndarray:
        """End-to-end latencies across both regimes (ok responses)."""
        des = np.fromiter(
            (r.latency for r in self.server.responses if r.ok),
            dtype=float)
        return np.concatenate([des, *self._fluid_latencies])

    def latency_summary(self) -> dict[str, float]:
        """Count/mean/p50/p95/p99 over both regimes' latencies."""
        values = self.latencies()
        if values.size == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0,
                    "p95": 0.0, "p99": 0.0}
        p50, p95, p99 = np.quantile(values, [0.5, 0.95, 0.99])
        return {"count": int(values.size),
                "mean": float(values.mean()),
                "p50": float(p50), "p95": float(p95), "p99": float(p99)}


def render_regime_timeline(replayer: HybridReplayer,
                           width: int = 48) -> str:
    """Deterministic text view of a hybrid run's regime history.

    A strip of ``width`` cells covers ``[0, end]`` ('#' = the cell lies
    mostly inside a fluid stretch, '+' = partially, '.' = exact DES),
    followed by one table row per :class:`FluidInterval` — making the
    stretches the engine folded away visible at a glance.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    intervals = replayer.intervals
    sim_end = replayer.server.sim.now
    if not intervals:
        return (f"regime timeline: exact DES throughout "
                f"({sim_end:g} sim-s, 0 fluid stretches)\n")
    end = max(sim_end, max(iv.resumed for iv in intervals))
    fluid_total = sum(iv.resumed - iv.entered for iv in intervals)
    share = fluid_total / end if end > 0 else 0.0
    plural = "es" if len(intervals) != 1 else ""
    lines = [
        f"regime timeline: {len(intervals)} fluid stretch{plural}, "
        f"{fluid_total:.3f} of {end:.3f} sim-s fluid ({share:.0%})",
    ]
    cells = []
    for i in range(width):
        a = end * i / width
        b = end * (i + 1) / width
        overlap = sum(max(0.0, min(iv.resumed, b) - max(iv.entered, a))
                      for iv in intervals)
        frac = overlap / (b - a) if b > a else 0.0
        cells.append("#" if frac >= 0.5 else "+" if frac > 0.0 else ".")
    lines.append("".join(cells))
    lines.append("('#'=fluid, '+'=mixed, '.'=exact DES)")
    header = (f"{'entered':>10} {'resumed':>10} {'span s':>9} "
              f"{'integrated':>10} {'restored':>9} {'backlog':>8}")
    lines.append(header)
    for iv in intervals:
        lines.append(
            f"{iv.entered:>10.3f} {iv.resumed:>10.3f} "
            f"{iv.resumed - iv.entered:>9.3f} "
            f"{iv.integrated_requests:>10d} "
            f"{iv.restored_requests:>9d} "
            f"{iv.entry_backlog_images:>8d}")
    return "\n".join(lines) + "\n"

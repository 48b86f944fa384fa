"""Arrival-trace generation and replay.

Farm inference demand is not Poisson-at-a-constant-rate: scouting flights
land batches of imagery mid-morning, ground vehicles stream during field
hours, and nights are quiet.  This module generates such traces
(deterministic, seeded) and replays them into a server or load balancer:

* :func:`diurnal_trace` — a field-hours demand curve (a half-sine arc
  over daylight) sampled as a non-homogeneous Poisson process via
  thinning;
* :func:`burst_trace` — idle background load with survey-upload bursts
  (the offline scenario's arrival pattern seen from the cluster);
* :func:`step_trace` — a flat base rate with one sustained step to a
  higher rate (the canonical autoscaler test input: the controller must
  scale out under the step and drain back after it);
* :class:`TraceReplayer` — schedules a trace against any ``submit``-able
  target on the simulator clock.

Trace generation is version 2: thinning draws its exponential gaps and
acceptance uniforms in NumPy blocks (a million-arrival trace generates
in well under a second) instead of two scalar draws per candidate.  The
sampled distribution is identical but the per-seed realization differs
from v1, so generated trace names carry a ``/v2`` suffix.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from repro.bounds import within
from repro.serving.request import Request
from repro.serving.tracectx import TraceContext


@dataclasses.dataclass(frozen=True)
class ArrivalTrace:
    """A sequence of request arrival times (seconds from start)."""

    name: str
    arrival_times: tuple[float, ...]
    duration: float

    def __post_init__(self) -> None:
        # mean_rate and rate_histogram divide by the duration.
        within("duration", self.duration, "(0, inf)")
        times = self.arrival_times
        if times:
            arr = np.asarray(times, dtype=float)
            if arr.size > 1 and bool(np.any(np.diff(arr) < 0)):
                raise ValueError("arrival times must be nondecreasing")
            if float(arr[-1]) > self.duration:
                raise ValueError(
                    "arrivals extend past the trace duration")

    def __len__(self) -> int:
        return len(self.arrival_times)

    @property
    def mean_rate(self) -> float:
        """Average arrivals per second over the trace."""
        return len(self.arrival_times) / self.duration

    def rate_histogram(self, bins: int = 24) -> list[float]:
        """Requests/second per time bin (for reports and tests)."""
        within("bins", bins, "[1, inf)")
        edges = np.linspace(0.0, self.duration, bins + 1)
        counts, _ = np.histogram(self.arrival_times, bins=edges)
        width = self.duration / bins
        return [float(c) / width for c in counts]


#: Candidate block size for vectorized thinning (draws per RNG call).
_THINNING_BLOCK = 16384


def _thinning(rate_fn, peak_rate: float, duration: float,
              rng: np.random.Generator,
              block: int = _THINNING_BLOCK) -> list[float]:
    """Sample a non-homogeneous Poisson process by thinning.

    Candidates come from a homogeneous process at ``peak_rate`` and are
    accepted with probability ``rate_fn(t) / peak_rate``; ``rate_fn``
    must evaluate elementwise on an ndarray (and tolerate times past
    ``duration`` — the last block overshoots).  Gaps and acceptance
    uniforms are drawn one block at a time instead of two scalar draws
    per candidate, which is what makes million-arrival traces cheap.
    """
    chunks: list[np.ndarray] = []
    t = 0.0
    while t < duration:
        gaps = rng.exponential(1.0 / peak_rate, size=block)
        candidates = t + np.cumsum(gaps)
        accepted = rng.random(block) * peak_rate < rate_fn(candidates)
        t = float(candidates[-1])
        keep = candidates[accepted & (candidates < duration)]
        if keep.size:
            chunks.append(keep)
    if not chunks:
        return []
    return np.concatenate(chunks).tolist()


def diurnal_trace(duration: float = 86400.0, peak_rate: float = 50.0,
                  base_rate: float = 0.5,
                  daylight: tuple[float, float] = (6 * 3600, 20 * 3600),
                  seed: int = 0) -> ArrivalTrace:
    """Field-hours demand: a half-sine arc between dawn and dusk.

    The rate rises from ``base_rate`` at dawn along ``sin(pi * phase)``
    to ``peak_rate`` requests/s at solar noon and falls back to
    ``base_rate`` overnight.
    """
    within("duration", duration, "(0, inf)")
    within("peak_rate", peak_rate, "(0, inf)")
    within("base_rate", base_rate, "[0, inf)")
    if peak_rate <= base_rate:
        raise ValueError("peak rate must exceed the base rate")
    dawn, dusk = daylight
    if not 0 <= dawn < dusk <= duration:
        raise ValueError("daylight window must fit inside the trace")

    def rate(t: np.ndarray) -> np.ndarray:
        phase = np.clip((t - dawn) / (dusk - dawn), 0.0, 1.0)
        bump = (peak_rate - base_rate) * np.sin(math.pi * phase)
        return base_rate + np.where((t >= dawn) & (t <= dusk), bump,
                                    0.0)

    rng = np.random.default_rng(seed)
    times = _thinning(rate, peak_rate, duration, rng)
    return ArrivalTrace("diurnal/v2", tuple(times), duration)


def sparse_diurnal_trace(duration: float = 86400.0,
                         peak_rate: float = 2.0,
                         night_rate: float = 0.01,
                         daylight: tuple[float, float] | None = None,
                         seed: int = 0) -> ArrivalTrace:
    """Scale-to-zero demand: a daylight arc over a near-idle night.

    :func:`diurnal_trace` keeps a base rate busy enough that a warm
    pool never drains; this variant drops to a configurable
    ``night_rate`` floor — requests/s overnight, possibly 0 — so
    inter-arrival gaps at night stretch past any realistic keep-alive
    window.  That is exactly the regime where serverless cold starts
    and scale-to-zero economics show (see ``docs/serverless.md``).

    ``daylight`` defaults to ``(0.25, 0.8)`` of the duration, so a
    shortened trace keeps the same day shape instead of pinning dawn
    at six o'clock of a day it no longer contains.
    """
    within("duration", duration, "(0, inf)")
    within("peak_rate", peak_rate, "(0, inf)")
    within("night_rate", night_rate, "[0, inf)")
    if night_rate > peak_rate:
        raise ValueError(
            f"nighttime floor ({night_rate}) cannot exceed the peak "
            f"rate ({peak_rate})")
    if daylight is None:
        daylight = (0.25 * duration, 0.8 * duration)
    dawn, dusk = daylight
    if not 0 <= dawn < dusk <= duration:
        raise ValueError("daylight window must fit inside the trace")

    def rate(t: np.ndarray) -> np.ndarray:
        phase = np.clip((t - dawn) / (dusk - dawn), 0.0, 1.0)
        bump = (peak_rate - night_rate) * np.sin(math.pi * phase)
        return night_rate + np.where((t >= dawn) & (t <= dusk), bump,
                                     0.0)

    rng = np.random.default_rng(seed)
    times = _thinning(rate, peak_rate, duration, rng)
    return ArrivalTrace("sparse_diurnal/v2", tuple(times), duration)


def burst_trace(duration: float = 3600.0, background_rate: float = 1.0,
                bursts: int = 4, burst_rate: float = 200.0,
                burst_seconds: float = 30.0,
                seed: int = 0) -> ArrivalTrace:
    """Survey-upload pattern: quiet background plus dense bursts."""
    within("duration", duration, "(0, inf)")
    within("bursts", bursts, "[0, inf)")
    within("burst_seconds", burst_seconds, "(0, inf)")
    if burst_seconds > duration:
        raise ValueError(
            f"burst_seconds ({burst_seconds}) cannot exceed the trace "
            f"duration ({duration}); burst starts would be negative")
    within("background_rate", background_rate, "[0, inf)")
    within("burst_rate", burst_rate, "(0, inf)")
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.uniform(0, duration - burst_seconds,
                                 size=bursts))

    def rate(t: np.ndarray) -> np.ndarray:
        if starts.size == 0:
            return np.full(np.shape(t), float(background_rate))
        # Burst spans share one length, so if any burst covers t the
        # nearest start at or before t does — one searchsorted pass.
        idx = np.searchsorted(starts, t, side="right") - 1
        prev = starts[np.maximum(idx, 0)]
        in_burst = (idx >= 0) & (t < prev + burst_seconds)
        return np.where(in_burst, float(burst_rate),
                        float(background_rate))

    # The thinning envelope must dominate the rate everywhere: between
    # bursts the rate is background_rate, which a nightly-upload
    # pattern can set *above* burst_rate — clipping the envelope at
    # burst_rate silently under-sampled that background.
    peak = max(background_rate, burst_rate)
    times = _thinning(rate, peak, duration, rng)
    return ArrivalTrace("burst/v2", tuple(times), duration)


def step_trace(duration: float = 60.0, base_rate: float = 5.0,
               step_rate: float = 100.0, step_start: float = 10.0,
               step_end: float = 30.0, seed: int = 0) -> ArrivalTrace:
    """Step load: ``base_rate`` with one sustained burst window.

    Arrivals follow a seeded Poisson process at ``base_rate`` outside
    ``[step_start, step_end)`` and ``step_rate`` inside it —
    deterministic for a given seed, which the autoscaler CLI and tests
    rely on for byte-identical replays.
    """
    within("duration", duration, "(0, inf)")
    within("base_rate", base_rate, "(0, inf)")
    within("step_rate", step_rate, "(0, inf)")
    if not 0 <= step_start < step_end <= duration:
        raise ValueError("step window must fit inside the trace")

    def rate(t: np.ndarray) -> np.ndarray:
        return np.where((t >= step_start) & (t < step_end),
                        float(step_rate), float(base_rate))

    rng = np.random.default_rng(seed)
    peak = max(base_rate, step_rate)
    times = _thinning(rate, peak, duration, rng)
    return ArrivalTrace("step/v2", tuple(times), duration)


class TraceReplayer:
    """Schedules a trace's requests against a serving target.

    ``target`` is anything with ``submit(request)`` and a ``sim``
    attribute (:class:`TritonLikeServer`,
    :class:`~repro.scale.balancer.LoadBalancer`, or
    :class:`~repro.continuum.pipeline.ContinuumReplayer`).

    With ``trace=True`` each submitted request carries a fresh
    :class:`~repro.serving.tracectx.TraceContext` (replayer-local ids,
    byte-identical across replays) collected in ``traces``.  Leave it
    off when the target opens its own contexts (the continuum replayer
    does).
    """

    def __init__(self, target, model_name: str,
                 images_per_request: int = 1,
                 time_scale: float = 1.0, trace: bool = False):
        within("images_per_request", images_per_request, "[1, inf)")
        within("time_scale", time_scale, "(0, inf)")
        self.target = target
        self.model_name = model_name
        self.images_per_request = images_per_request
        self.time_scale = time_scale
        self.trace = trace
        self.traces: list[TraceContext] = []
        self._next_trace_id = itertools.count(1)
        self.submitted = 0

    def schedule(self, trace: ArrivalTrace):
        """Arm every arrival on the simulator (scaled by time_scale).

        Batched injection: the whole trace registers as one
        :class:`~repro.serving.events.EventStream` instead of one
        ``schedule_at`` call (heap entry + Event) per arrival, so a
        million-arrival trace arms in one call and holds no heap
        state.  Returns the stream handle (None for an empty trace).
        """
        times = np.asarray(trace.arrival_times, dtype=float)
        if self.time_scale != 1.0:
            times = times * self.time_scale
        if times.size == 0:
            return None
        return self.target.sim.add_stream(times, self._submit_indexed)

    def _submit_indexed(self, index: int) -> None:
        """Stream callback: the arrival index is implicit in order."""
        self._submit_one()

    def _submit_one(self) -> None:
        self.submitted += 1
        request = Request(self.model_name,
                          num_images=self.images_per_request)
        if self.trace:
            ctx = TraceContext(next(self._next_trace_id),
                               start=self.target.sim.now)
            ctx.baggage["model"] = self.model_name
            request.trace = ctx
            self.traces.append(ctx)
        self.target.submit(request)

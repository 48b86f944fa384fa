"""Engine latency and throughput laws (Fig. 6).

For a batch of size ``b`` on an engine whose MFU model gives utilization
``MFU(b)``:

* throughput(b) = practical_FLOPS · MFU(b) / FLOPs_per_image
* latency(b)    = b / throughput(b)
* theoretical latency(b) = b · FLOPs_per_image / practical_FLOPS
  (the Fig. 6 dashed lines — "Under ideal conditions, latency scales
  linearly with batch size")

At small batches MFU ≈ MFU_peak · b / b_sat, so latency flattens to a
constant floor — the paper's "initial nonlinear region (preceding the
solid line), indicating computational underutilization."
"""

from __future__ import annotations

import dataclasses

from repro.engine.calibration import LATENCY_TARGET_SECONDS
from repro.engine.mfu import MFUModel
from repro.hardware.platform import PlatformSpec
from repro.models.graph import ModelGraph


@dataclasses.dataclass(frozen=True)
class EnginePoint:
    """One point of the Fig. 5/6 sweeps."""

    batch_size: int
    mfu: float
    achieved_tflops: float
    throughput: float          # images / second
    latency_seconds: float     # per batch request
    theoretical_latency_seconds: float

    @property
    def meets_60qps(self) -> bool:
        """Below the Fig. 6 red line (16.7 ms for 60 queries/second)."""
        return self.latency_seconds <= LATENCY_TARGET_SECONDS


class LatencyModel:
    """Latency/throughput curves for one (model, platform) pair.

    ``precision`` scales the compute rate by the ratio of the format's
    theoretical peak to the platform's benchmark precision (e.g. INT8 on
    the A100 doubles the BF16 rate) — the Section 3.1 "lower-precision
    formats offer faster inference" axis.  The default (None) is the
    benchmark precision, i.e. the paper's calibrated setup.
    """

    def __init__(self, graph: ModelGraph, platform: PlatformSpec,
                 mfu_model: MFUModel | None = None,
                 precision=None):
        self.graph = graph
        self.platform = platform
        self.mfu_model = (MFUModel(graph, platform) if mfu_model is None
                          else mfu_model)
        if precision is None:
            self.precision_speedup = 1.0
        else:
            from repro.hardware.precision import parse_precision

            precision = parse_precision(precision)
            if not platform.supports(precision):
                raise ValueError(
                    f"{platform.name} lacks support for {precision.value}")
            self.precision_speedup = (
                platform.theoretical_tflops[precision]
                / platform.theoretical_tflops[
                    platform.benchmark_precision])
        #: ``latency`` per batch size: a pure function of the batch and
        #: the state fixed above, and a serving replay asks for the same
        #: few sizes once per request.
        self._latency: dict[int, float] = {}

    @property
    def effective_flops(self) -> float:
        """Practical FLOPS scaled by the precision speedup."""
        return self.platform.practical_flops * self.precision_speedup

    def throughput(self, batch_size: int) -> float:
        """Images/second sustained at a batch size."""
        mfu = self.mfu_model.mfu(batch_size)
        return self.effective_flops * mfu / self.graph.flops_per_image()

    def latency(self, batch_size: int) -> float:
        """Seconds to serve one batch request."""
        seconds = self._latency.get(batch_size)
        if seconds is None:
            seconds = batch_size / self.throughput(batch_size)
            self._latency[batch_size] = seconds
        return seconds

    def theoretical_latency(self, batch_size: int) -> float:
        """The ideal (dashed-line) latency at 100% practical FLOPS."""
        return (batch_size * self.graph.flops_per_image()
                / self.effective_flops)

    def point(self, batch_size: int) -> EnginePoint:
        """Evaluate every Fig. 5/6 quantity at one batch size."""
        mfu = self.mfu_model.mfu(batch_size)
        thr = self.throughput(batch_size)
        return EnginePoint(
            batch_size=batch_size,
            mfu=mfu,
            achieved_tflops=(self.mfu_model.achieved_tflops(batch_size)
                             * self.precision_speedup),
            throughput=thr,
            latency_seconds=batch_size / thr,
            theoretical_latency_seconds=self.theoretical_latency(batch_size),
        )

    def sweep(self, batch_sizes: tuple[int, ...]) -> list[EnginePoint]:
        """Evaluate a whole batch grid (one Fig. 5/6 curve)."""
        return [self.point(b) for b in batch_sizes]

    # ------------------------------------------------------------------
    def max_batch_within_latency(
            self, batch_sizes: tuple[int, ...],
            target_seconds: float = LATENCY_TARGET_SECONDS) -> int | None:
        """Largest grid batch whose request latency meets the target.

        The Fig. 6 operating-region analysis: "The intersection with
        near-saturated performance defines an optimal operating region."
        Returns None when even batch 1 misses the target.
        """
        fitting = [b for b in batch_sizes if self.latency(b) <= target_seconds]
        return max(fitting) if fitting else None

    def optimal_operating_batch(
            self, batch_sizes: tuple[int, ...],
            target_seconds: float = LATENCY_TARGET_SECONDS,
            saturation_fraction: float = 0.9) -> int | None:
        """Smallest grid batch that is near-saturated *and* on budget.

        Returns None when saturation and the latency target cannot be met
        simultaneously (the Jetson's "considerably narrower operating
        margins").
        """
        needed = self.mfu_model.near_saturation_batch(saturation_fraction)
        candidates = [b for b in batch_sizes
                      if b >= needed and self.latency(b) <= target_seconds]
        return min(candidates) if candidates else None

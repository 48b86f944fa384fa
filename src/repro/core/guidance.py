"""Application-specific tuning guidance (Sections 3.3 and 5).

The paper's takeaway is advisory: "For smaller models, moderate batch
sizes often suffice to utilize most platform capability and meet inference
requirements.  Beyond this threshold, increasing batch size yields
diminishing returns, making multi-instance strategies more effective for
improving responsiveness."  :class:`TuningAdvisor` turns the calibrated
models into that advice:

* :meth:`recommend_batch` — the optimal operating batch for a
  (model, platform) pair under a latency budget, with a multi-instance
  suggestion when saturation leaves headroom;
* :meth:`recommend_model` — model selection for a (dataset, platform)
  deployment: the most accurate-capable (largest) model that still meets
  the latency target end to end.
"""

from __future__ import annotations

import dataclasses

from repro.bounds import within
from repro.continuum.pipeline import EndToEndPipeline, e2e_batch_size
from repro.data.datasets import DatasetSpec
from repro.engine.calibration import LATENCY_TARGET_SECONDS, batch_grid
from repro.engine.latency import LatencyModel
from repro.engine.oom import max_batch_size
from repro.hardware.platform import PlatformSpec
from repro.models.graph import ModelGraph
from repro.models.zoo import list_models


@dataclasses.dataclass(frozen=True)
class BatchRecommendation:
    """Tuning advice for one (model, platform) deployment."""

    model: str
    platform: str
    batch_size: int | None           # None: latency target unreachable
    expected_throughput: float
    expected_latency_seconds: float
    mfu_at_batch: float
    memory_limited_batch: int
    #: True when throughput has saturated well below the memory limit, so
    #: extra capacity is better spent on a second engine instance.
    multi_instance_suggested: bool
    meets_target: bool


@dataclasses.dataclass(frozen=True)
class ModelRecommendation:
    """Ranked model choice for a (dataset, platform) deployment."""

    model: str
    batch_size: int
    throughput: float
    latency_seconds: float
    meets_target: bool
    bottleneck: str


class TuningAdvisor:
    """Generates deployment guidance from the calibrated models."""

    def __init__(self, platform: PlatformSpec,
                 latency_target_seconds: float = LATENCY_TARGET_SECONDS,
                 saturation_fraction: float = 0.9):
        within("latency_target_seconds", latency_target_seconds,
               "(0, inf)")
        within("saturation_fraction", saturation_fraction, "(0, 1)")
        self.platform = platform
        self.latency_target = latency_target_seconds
        self.saturation_fraction = saturation_fraction

    # ------------------------------------------------------------------
    def recommend_batch(self, graph: ModelGraph) -> BatchRecommendation:
        """Pick the operating batch size for a deployed model."""
        grid = batch_grid(self.platform.name)
        mem_limit = max_batch_size(graph, self.platform, grid)
        feasible = tuple(b for b in grid if b <= mem_limit)
        model = LatencyModel(graph, self.platform)

        best = model.optimal_operating_batch(
            feasible, self.latency_target, self.saturation_fraction)
        if best is None:
            # Saturation unreachable on budget: fall back to the largest
            # latency-feasible batch (the Jetson's "narrower margins").
            best = model.max_batch_within_latency(feasible,
                                                  self.latency_target)
        if best is None:
            point = model.point(1)
            return BatchRecommendation(
                model=graph.name, platform=self.platform.name,
                batch_size=None,
                expected_throughput=point.throughput,
                expected_latency_seconds=point.latency_seconds,
                mfu_at_batch=point.mfu,
                memory_limited_batch=mem_limit,
                multi_instance_suggested=False,
                meets_target=False)

        point = model.point(best)
        saturated_headroom = (
            point.mfu >= self.saturation_fraction * model.mfu_model.mfu_peak
            and mem_limit >= 2 * best)
        return BatchRecommendation(
            model=graph.name, platform=self.platform.name,
            batch_size=best,
            expected_throughput=point.throughput,
            expected_latency_seconds=point.latency_seconds,
            mfu_at_batch=point.mfu,
            memory_limited_batch=mem_limit,
            multi_instance_suggested=bool(saturated_headroom),
            meets_target=True)

    # ------------------------------------------------------------------
    def recommend_model(self, dataset: DatasetSpec,
                        ) -> list[ModelRecommendation]:
        """Rank the zoo for a dataset on this platform.

        Ordered largest-capacity first among target-meeting models (the
        accuracy/latency trade-off: prefer the most capable model that
        still meets the deadline), then the rest by throughput.
        """
        rankings = []
        for entry in list_models():
            graph = entry.graph
            pipeline = EndToEndPipeline(graph, self.platform)
            if dataset.dataset_specific_preprocessing and \
                    not pipeline.framework.supports_warp:
                continue
            batch = e2e_batch_size(self.platform, graph)
            result = pipeline.evaluate(dataset, batch)
            rankings.append(ModelRecommendation(
                model=graph.name,
                batch_size=batch,
                throughput=result.throughput,
                latency_seconds=result.latency_seconds,
                meets_target=result.latency_seconds <= self.latency_target,
                bottleneck=result.bottleneck,
            ))

        def sort_key(rec: ModelRecommendation):
            entry = next(e for e in list_models() if e.name == rec.model)
            return (not rec.meets_target,
                    -entry.graph.total_params() if rec.meets_target
                    else -rec.throughput)

        return sorted(rankings, key=sort_key)

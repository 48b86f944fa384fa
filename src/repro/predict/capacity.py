"""Capacity planning: size a deployment for a target workload.

Answers the practitioner question behind the paper's guidance sections:
*how many of which device do I need to process my farm's imagery within
my latency budget, and what does it cost in energy?*
"""

from __future__ import annotations

import dataclasses
import math

from repro.bounds import within
from repro.data.datasets import DatasetSpec
from repro.engine.oom import EngineMemoryModel
from repro.hardware.platform import PlatformSpec
from repro.models.graph import ModelGraph
from repro.predict.predictor import PerformancePredictor


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """The demand side of the plan."""

    images_per_second: float
    latency_slo_seconds: float
    dataset: DatasetSpec | None = None
    #: Sustained duty cycle (field work is bursty; 1.0 = 24/7).
    duty_cycle: float = 1.0

    def __post_init__(self) -> None:
        within("images_per_second", self.images_per_second, "(0, inf)")
        within("latency_slo_seconds", self.latency_slo_seconds,
               "(0, inf)")
        within("duty_cycle", self.duty_cycle, "(0, 1]")


@dataclasses.dataclass(frozen=True)
class DeploymentPlan:
    """One feasible sizing for (workload, model, platform)."""

    platform: str
    model: str
    batch_size: int
    instances_per_device: int
    devices: int
    throughput_per_device: float
    total_throughput: float
    latency_seconds: float
    meets_slo: bool
    watt_hours_per_day: float | None
    #: The workload demand this plan was sized for (images/second).
    demand_images_per_second: float = 0.0

    @property
    def headroom(self) -> float:
        """Provisioned / demanded throughput (>= 1 when feasible).

        An infeasible plan provisions nothing, so its headroom is 0.0;
        the same holds when the demand is unknown (never sized).
        """
        if self.demand_images_per_second <= 0:
            return 0.0
        return self.total_throughput / self.demand_images_per_second


class CapacityPlanner:
    """Sizes deployments across candidate platforms."""

    def __init__(self, workload: WorkloadSpec):
        self.workload = workload

    def plan(self, graph: ModelGraph,
             platform: PlatformSpec) -> DeploymentPlan:
        """Size one (model, platform) pair for the workload."""
        predictor = PerformancePredictor(platform)
        model = predictor.latency_model(graph)
        grid = predictor._grid()
        memory = EngineMemoryModel(graph, platform)
        max_batch = predictor._max_batch(graph, memory)

        # Largest batch meeting the SLO (throughput-optimal under it).
        feasible = [b for b in grid if b <= max_batch
                    and model.latency(b) <= self.workload.latency_slo_seconds]
        if not feasible:
            return self._infeasible(graph, platform)
        batch = max(feasible)
        per_instance = model.throughput(batch)

        # Instances per device: memory-bounded concurrent engines, with
        # aggregate throughput capped at the device's compute upper
        # bound — co-located instances share the same FLOPS, they only
        # fill each other's utilization gaps.
        budget = platform.usable_gpu_memory_bytes
        instances = max(1, int(budget // memory.engine_bytes(batch)))
        compute_cap = platform.throughput_upper_bound(
            graph.flops_per_image())
        useful = max(1, math.ceil(compute_cap / per_instance))
        instances = min(instances, useful)
        per_device = min(per_instance * instances, compute_cap)
        devices = max(1, math.ceil(self.workload.images_per_second
                                   / per_device))

        energy = self._daily_energy(graph, platform, predictor, batch,
                                    devices)
        return DeploymentPlan(
            platform=platform.name,
            model=graph.name,
            batch_size=batch,
            instances_per_device=instances,
            devices=devices,
            throughput_per_device=per_device,
            total_throughput=per_device * devices,
            latency_seconds=model.latency(batch),
            meets_slo=True,
            watt_hours_per_day=energy,
            demand_images_per_second=self.workload.images_per_second,
        )

    def _infeasible(self, graph: ModelGraph,
                    platform: PlatformSpec) -> DeploymentPlan:
        return DeploymentPlan(
            platform=platform.name, model=graph.name, batch_size=0,
            instances_per_device=0, devices=0,
            throughput_per_device=0.0, total_throughput=0.0,
            latency_seconds=float("inf"), meets_slo=False,
            watt_hours_per_day=None,
            demand_images_per_second=self.workload.images_per_second)

    def _daily_energy(self, graph, platform, predictor, batch,
                      devices) -> float | None:
        """Daily Wh: devices idle 24/7 plus the dynamic cost per image.

        The baseline draw is paid around the clock (the fleet stays
        provisioned); each processed image adds only the *incremental*
        energy above idle at the operating utilization.
        """
        profile = predictor.power_profile
        if profile is None:
            return None
        prediction = predictor.predict(graph, batch)
        dynamic_watts = (profile.watts_at(prediction.mfu)
                         - profile.watts_at(0.0))
        dynamic_j_per_image = dynamic_watts / prediction.throughput
        daily_images = (self.workload.images_per_second * 86400
                        * self.workload.duty_cycle)
        idle_wh = devices * profile.watts_at(0.0) * 24.0
        return idle_wh + daily_images * dynamic_j_per_image / 3600.0

    def compare(self, graph: ModelGraph,
                platforms: list[PlatformSpec]) -> list[DeploymentPlan]:
        """Plans across platforms, feasible-and-cheapest (devices) first."""
        plans = [self.plan(graph, p) for p in platforms]
        return sorted(plans, key=lambda p: (not p.meets_slo, p.devices))

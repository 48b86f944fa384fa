"""Multi-model placement: packing engines onto a device fleet.

A research station serves many farms' localized models ("each dedicated
to a specific inference task") from a few GPUs.  Placement is a
two-resource bin-packing problem — engine *memory* is hard (OOM), engine
*compute* is soft (co-located engines share FLOPS).  The planner packs
first-fit-decreasing by memory with a compute-utilization cap per
device, the classical heuristic with a 2-approximation guarantee.
"""

from __future__ import annotations

import dataclasses

from repro.bounds import within
from repro.engine.latency import LatencyModel
from repro.engine.oom import EngineMemoryModel
from repro.hardware.platform import PlatformSpec
from repro.models.graph import ModelGraph


@dataclasses.dataclass(frozen=True)
class ModelDemand:
    """One model to place: its engine shape and offered load."""

    graph: ModelGraph
    batch_size: int
    offered_images_per_second: float

    def __post_init__(self) -> None:
        within("batch_size", self.batch_size, "[1, inf)")
        within("offered_images_per_second",
               self.offered_images_per_second, "[0, inf)")


@dataclasses.dataclass
class DevicePlan:
    """One device's assignment."""

    index: int
    models: list[str]
    memory_bytes: float
    compute_fraction: float


@dataclasses.dataclass(frozen=True)
class PlacementPlan:
    """The fleet assignment."""

    platform: str
    devices: tuple[DevicePlan, ...]
    unplaced: tuple[str, ...]

    @property
    def device_count(self) -> int:
        """Devices used by the plan."""
        return len(self.devices)

    def device_of(self, model: str) -> int | None:
        """Device index hosting a model, or None."""
        for device in self.devices:
            if model in device.models:
                return device.index
        return None


class PlacementPlanner:
    """Packs model engines onto identical devices of one platform.

    Parameters
    ----------
    platform:
        Device type of the fleet.
    max_devices:
        Fleet size cap; demands that don't fit are reported unplaced.
    compute_cap:
        Maximum fraction of a device's practical FLOPS the placed
        models' offered loads may claim together (leave headroom for
        bursts; 0.8 default).
    """

    def __init__(self, platform: PlatformSpec, max_devices: int = 8,
                 compute_cap: float = 0.8):
        within("max_devices", max_devices, "[1, inf)")
        within("compute_cap", compute_cap, "(0, 1]")
        self.platform = platform
        self.max_devices = max_devices
        self.compute_cap = compute_cap

    def _footprint(self, demand: ModelDemand) -> tuple[float, float]:
        """(memory bytes, compute fraction) one demand claims."""
        memory = EngineMemoryModel(demand.graph, self.platform)
        mem = memory.engine_bytes(demand.batch_size)
        latency = LatencyModel(demand.graph, self.platform)
        capacity = latency.throughput(demand.batch_size)
        if capacity <= 0:
            raise ValueError(f"{demand.graph.name}: zero capacity")
        compute = demand.offered_images_per_second / capacity
        return mem, compute

    def place(self, demands: list[ModelDemand]) -> PlacementPlan:
        """First-fit-decreasing by memory, compute-capped."""
        budget = self.platform.usable_gpu_memory_bytes
        sized = []
        for demand in demands:
            mem, compute = self._footprint(demand)
            if mem > budget:
                sized.append((demand, mem, compute, False))
            else:
                sized.append((demand, mem, compute, True))
        sized.sort(key=lambda item: -item[1])

        devices: list[DevicePlan] = []
        unplaced: list[str] = []
        for demand, mem, compute, fits in sized:
            if not fits or compute > self.compute_cap:
                unplaced.append(demand.graph.name)
                continue
            target = None
            for device in devices:
                if (device.memory_bytes + mem <= budget
                        and device.compute_fraction + compute
                        <= self.compute_cap):
                    target = device
                    break
            if target is None:
                if len(devices) >= self.max_devices:
                    unplaced.append(demand.graph.name)
                    continue
                target = DevicePlan(len(devices), [], 0.0, 0.0)
                devices.append(target)
            target.models.append(demand.graph.name)
            target.memory_bytes += mem
            target.compute_fraction += compute
        return PlacementPlan(self.platform.name, tuple(devices),
                             tuple(unplaced))

"""Power and energy models for the compute continuum.

The conclusion calls for "balancing latency requirements with energy
efficiency and memory utilization"; Table 1 notes the Jetson "operates in
25W power mode".  This module prices inference energy per platform with
the standard linear utilization model,

    P(util) = P_idle + (P_board − P_idle) · util,

where utilization is the engine's MFU.  The resulting images/joule metric
shows the continuum trade-off quantitatively: the edge device loses on
throughput but wins decisively on energy per image for small models.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.bounds import within
from repro.hardware.platform import PlatformSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.models.graph import ModelGraph


@dataclasses.dataclass(frozen=True)
class PowerProfile:
    """Electrical envelope of a platform's inference node.

    Cloud figures cover the share of the node attributable to one GPU
    plus its host slice (the paper runs single-GPU experiments on
    dual-GPU nodes); the Jetson figure is its configured 25 W mode.
    """

    platform_name: str
    idle_watts: float
    board_watts: float   # full-utilization draw
    #: Fixed facility overhead multiplier (cooling, PSU losses): cloud
    #: PUE ~1.4, on-vehicle edge ~1.05.
    overhead_factor: float = 1.0

    def __post_init__(self) -> None:
        within("idle_watts", self.idle_watts, "[0, inf)")
        within("board_watts", self.board_watts, "(0, inf)")
        if self.idle_watts > self.board_watts:
            raise ValueError("need idle <= board watts")
        within("overhead_factor", self.overhead_factor, "[1, inf)")

    def watts_at(self, utilization: float) -> float:
        """Instantaneous draw at an MFU-like utilization in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        dynamic = (self.board_watts - self.idle_watts) * utilization
        return (self.idle_watts + dynamic) * self.overhead_factor


#: Default profiles.  Cloud: GPU TDP + a host-slice, PUE 1.4.
#: Jetson: the 25 W power mode with a 5 W idle floor.
POWER_PROFILES: dict[str, PowerProfile] = {
    "a100": PowerProfile("A100", idle_watts=90.0, board_watts=460.0,
                         overhead_factor=1.4),
    "v100": PowerProfile("V100", idle_watts=70.0, board_watts=360.0,
                         overhead_factor=1.4),
    "jetson": PowerProfile("Jetson", idle_watts=5.0, board_watts=25.0,
                           overhead_factor=1.05),
}


def power_profile_for(platform: "PlatformSpec | str") -> PowerProfile:
    """Power profile for a platform (by spec or name)."""
    name = platform if isinstance(platform, str) else platform.name
    try:
        return POWER_PROFILES[name.lower()]
    except KeyError:
        raise KeyError(
            f"no power profile for platform {name!r}; available: "
            f"{sorted(POWER_PROFILES)}") from None


@dataclasses.dataclass(frozen=True)
class EnergyPoint:
    """Energy metrics for one (model, platform, batch) operating point."""

    platform: str
    model: str
    batch_size: int
    watts: float
    throughput: float
    joules_per_image: float
    images_per_joule: float


class EnergyModel:
    """Energy per image for a deployed engine."""

    def __init__(self, graph: "ModelGraph", platform: PlatformSpec,
                 profile: PowerProfile | None = None):
        # Imported here: the engine layer itself imports repro.hardware,
        # so a module-level import would be circular.
        from repro.engine.latency import LatencyModel

        self.graph = graph
        self.platform = platform
        self.profile = (power_profile_for(platform) if profile is None
                        else profile)
        self.latency_model = LatencyModel(graph, platform)

    def point(self, batch_size: int) -> EnergyPoint:
        """Energy metrics at one batch size."""
        engine = self.latency_model.point(batch_size)
        watts = self.profile.watts_at(engine.mfu)
        joules = watts / engine.throughput
        return EnergyPoint(
            platform=self.platform.name,
            model=self.graph.name,
            batch_size=batch_size,
            watts=watts,
            throughput=engine.throughput,
            joules_per_image=joules,
            images_per_joule=1.0 / joules,
        )

    def sweep(self, batch_sizes: tuple[int, ...]) -> list[EnergyPoint]:
        """Energy metrics over a batch grid."""
        return [self.point(b) for b in batch_sizes]

    def best_batch(self, batch_sizes: tuple[int, ...]) -> EnergyPoint:
        """The most energy-efficient feasible operating point."""
        points = self.sweep(batch_sizes)
        return min(points, key=lambda p: p.joules_per_image)

    def field_battery_images(self, battery_wh: float,
                             batch_size: int) -> float:
        """Images classifiable on one battery charge (edge planning)."""
        if battery_wh <= 0:
            raise ValueError("battery capacity must be positive")
        point = self.point(batch_size)
        return battery_wh * 3600.0 * point.images_per_joule

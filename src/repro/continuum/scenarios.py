"""Deployment scenario specifications (Section 2.2).

Each scenario couples a platform tier with the constraints that drive
tuning: online trades latency for throughput behind a network link,
offline batches a whole field with stitching up front, real-time must hit
a camera-rate deadline on the edge.
"""

from __future__ import annotations

import dataclasses

from repro.continuum.network import NetworkLink, get_link
from repro.engine.calibration import LATENCY_TARGET_SECONDS
from repro.hardware.platform import PlatformKind, PlatformSpec


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """Base scenario: a name plus validation against a platform."""

    name: str

    def validate_platform(self, platform: PlatformSpec) -> None:
        """Raise when the platform cannot host this scenario."""


@dataclasses.dataclass(frozen=True)
class OnlineScenario(ScenarioSpec):
    """Streaming inference on demand (Section 2.2.1).

    "Data is processed and returned in real time upon being uploaded to
    the compute platform ... real-time latency is traded off for high
    throughput."
    """

    name: str = "online"
    link: NetworkLink = dataclasses.field(
        default_factory=lambda: get_link("farm_wifi"))
    #: Service-level objective on request round trip (upload + inference).
    slo_seconds: float = 0.5

    def validate_platform(self, platform: PlatformSpec) -> None:
        if platform.kind is PlatformKind.EDGE:
            # Edge online serving is allowed (the paper's "either edge or
            # cloud"), just without a network hop.
            return

    def upload_seconds(self, image_bytes: float) -> float:
        """One-way upload time of a payload over the scenario link."""
        return self.link.transfer_seconds(image_bytes)


@dataclasses.dataclass(frozen=True)
class OfflineScenario(ScenarioSpec):
    """Field-by-field batch processing (Section 2.2.2).

    "offline inference is performed after a batch of data has been
    collected ... ideal for applications requiring image stitching or
    orthomosaic generation."
    """

    name: str = "offline"
    #: Model-input tile size cut from the mosaic.
    tile_size: int = 224

    def validate_platform(self, platform: PlatformSpec) -> None:
        if platform.kind is PlatformKind.EDGE:
            raise ValueError(
                "offline field-scale processing targets cloud platforms; "
                f"{platform.name} is an edge device")


@dataclasses.dataclass(frozen=True)
class RealTimeScenario(ScenarioSpec):
    """On-the-fly decision making on the edge (Section 2.2.3).

    "From raw image preprocessing to ML model output, the entire pipeline
    must operate within strict time constraints."
    """

    name: str = "real-time"
    #: Deadline per frame batch; defaults to the Fig. 6 60-QPS line.
    deadline_seconds: float = LATENCY_TARGET_SECONDS
    camera_fps: float = 60.0
    camera_resolution: tuple[int, int] = (3840, 2160)  # the GoPro feed

    def validate_platform(self, platform: PlatformSpec) -> None:
        if platform.kind is not PlatformKind.EDGE:
            raise ValueError(
                "real-time inference runs on the edge device in the "
                f"field; {platform.name} is a {platform.kind.value} "
                "platform")

    @property
    def frame_interval_seconds(self) -> float:
        """Per-frame deadline implied by the camera rate."""
        return 1.0 / self.camera_fps

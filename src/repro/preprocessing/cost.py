"""Per-platform preprocessing cost parameters.

The Fig. 7 comparison is driven by four rates per platform — CPU decode,
CPU transform, GPU decode, GPU transform — plus fixed per-image/per-batch
overheads.  The values below are calibrated so the reproduced figure
matches the paper's *shape and magnitudes*: on the A100, DALI peaks around
12k images/s on small-image datasets (the Fig. 7a throughput axis) while
the PyTorch CPU baseline sits in the hundreds, and OpenCV-on-CRSA lands in
the hundreds of milliseconds per frame; V100 lacks the A100's hardware
JPEG engine (≈4× slower GPU decode); the Jetson's ARM cores and small GPU
scale everything down further.

Absolute bar heights for Fig. 7 are not printed in the paper, so these are
order-of-magnitude calibrations; EXPERIMENTS.md records what the model
produces next to what the figure shows.
"""

from __future__ import annotations

import dataclasses

from repro.bounds import within
from repro.hardware.platform import PlatformSpec


@dataclasses.dataclass(frozen=True)
class PlatformCostParams:
    """Preprocessing service rates for one platform."""

    platform_name: str
    #: CPU JPEG-equivalent decode rate, bytes/s per core.
    cpu_decode_bps: float
    #: CPU transform rate (resize/normalize/warp), pixels/s per core.
    cpu_transform_pps: float
    #: GPU decode rate (nvJPEG-style), bytes/s.
    gpu_decode_bps: float
    #: GPU transform rate, pixels/s.
    gpu_transform_pps: float
    #: Fixed per-image dispatch cost of CPU frameworks, seconds.
    cpu_per_image_overhead_s: float
    #: Fixed per-batch cost of the GPU pipeline (launch + schedule), seconds.
    gpu_per_batch_overhead_s: float

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float):
                within(field.name, value, "(0, inf)")


COST_PARAMS: dict[str, PlatformCostParams] = {
    "a100": PlatformCostParams(
        platform_name="A100",
        cpu_decode_bps=200e6,       # one Xeon core, libjpeg-turbo class
        cpu_transform_pps=60e6,
        gpu_decode_bps=8.0e9,       # A100 hardware JPEG engine
        gpu_transform_pps=2.4e9,
        cpu_per_image_overhead_s=0.3e-3,
        gpu_per_batch_overhead_s=4.0e-3,
    ),
    "v100": PlatformCostParams(
        platform_name="V100",
        cpu_decode_bps=180e6,
        cpu_transform_pps=55e6,
        gpu_decode_bps=0.5e9,       # CUDA-kernel JPEG decode only
        gpu_transform_pps=0.3e9,
        cpu_per_image_overhead_s=0.3e-3,
        gpu_per_batch_overhead_s=8.0e-3,
    ),
    "jetson": PlatformCostParams(
        platform_name="Jetson",
        cpu_decode_bps=80e6,        # ARM cores
        cpu_transform_pps=25e6,
        gpu_decode_bps=0.15e9,
        gpu_transform_pps=0.07e9,
        cpu_per_image_overhead_s=0.6e-3,
        gpu_per_batch_overhead_s=6.0e-3,
    ),
}


def cost_params_for(platform: "PlatformSpec | str") -> PlatformCostParams:
    """Cost parameters for a platform (by spec or name)."""
    name = platform if isinstance(platform, str) else platform.name
    try:
        return COST_PARAMS[name.lower()]
    except KeyError:
        raise KeyError(
            f"no preprocessing cost parameters for platform {name!r}; "
            f"available: {sorted(COST_PARAMS)}") from None

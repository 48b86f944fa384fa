"""Platform specifications for the three evaluated systems (Table 1).

Each :class:`PlatformSpec` carries exactly the quantities the paper's
characterization consumes:

* theoretical peak FLOPS per precision (vendor datasheet values),
* practical FLOPS measured over large GEMMs (Table 1, "Practical TFLOPS"),
* GPU memory capacity and whether it is unified with host memory,
* CPU core count (bounds CPU-side preprocessing concurrency),
* memory bandwidth (drives the roofline model).

The V100 and A100 nodes each have two GPUs but the paper uses a single GPU
("V100 and A100 experiments used only one of the two available GPUs"), so
``gpu_count`` records the node inventory while all performance fields are
per single GPU.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.bounds import within
from repro.hardware.precision import Precision, parse_precision


class PlatformKind(str, enum.Enum):
    """Coarse placement of a platform on the compute continuum."""

    CLOUD = "cloud"
    EDGE = "edge"
    HOST = "host"


class Scenario(str, enum.Enum):
    """Deployment scenarios from Section 2.2."""

    ONLINE = "online"
    OFFLINE = "offline"
    REAL_TIME = "real-time"


@dataclasses.dataclass(frozen=True)
class PlatformSpec:
    """A hardware platform on the compute continuum.

    Performance fields are per single GPU, matching the paper's single-GPU
    experiment setup.
    """

    name: str
    kind: PlatformKind
    cpu_cores: int
    gpu_name: str
    gpu_count: int
    gpu_memory_gb: float
    host_memory_gb: float
    unified_memory: bool
    theoretical_tflops: dict[Precision, float]
    practical_tflops: float
    benchmark_precision: Precision
    memory_bandwidth_gbps: float
    scenarios: tuple[Scenario, ...]
    power_watts: float | None = None
    #: Fraction of GPU memory usable by engines after runtime/context
    #: overhead (CUDA context, TensorRT workspace reservations, and — on
    #: unified-memory devices — the OS and other host processes).
    usable_memory_fraction: float = 0.92

    def __post_init__(self) -> None:
        within("gpu_memory_gb", self.gpu_memory_gb, "(0, inf)")
        within("host_memory_gb", self.host_memory_gb, "(0, inf)")
        within("practical_tflops", self.practical_tflops, "(0, inf)")
        within("memory_bandwidth_gbps", self.memory_bandwidth_gbps,
               "(0, inf)")
        within("usable_memory_fraction", self.usable_memory_fraction,
               "(0, 1]")
        if self.power_watts is not None:
            within("power_watts", self.power_watts, "(0, inf)")
        peak = self.theoretical_tflops.get(self.benchmark_precision)
        if peak is None:
            raise ValueError(
                f"benchmark precision {self.benchmark_precision} missing from "
                "theoretical_tflops"
            )
        if self.practical_tflops > peak:
            raise ValueError(
                "practical TFLOPS cannot exceed theoretical peak "
                f"({self.practical_tflops} > {peak})"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def flops_efficiency(self) -> float:
        """Practical / theoretical FLOPS at the benchmark precision.

        Table 1 reports 82.68% for the V100, 75.74% for the A100, and
        67.06% for the Jetson.
        """
        return self.practical_tflops / self.theoretical_tflops[self.benchmark_precision]

    @property
    def practical_flops(self) -> float:
        """Practical FLOPS (not TFLOPS) at the benchmark precision."""
        return self.practical_tflops * 1e12

    def peak_flops(self, precision: Precision | str) -> float:
        """Theoretical peak FLOPS for ``precision``.

        Raises :class:`KeyError` if the platform does not support the
        format (e.g. BF16 on the V100).
        """
        precision = parse_precision(precision)
        if precision not in self.theoretical_tflops:
            raise KeyError(
                f"{self.name} does not support {precision.value}; supported: "
                f"{sorted(p.value for p in self.theoretical_tflops)}"
            )
        return self.theoretical_tflops[precision] * 1e12

    def supports(self, precision: Precision | str) -> bool:
        """Whether the platform has hardware support for ``precision``."""
        return parse_precision(precision) in self.theoretical_tflops

    @property
    def usable_gpu_memory_bytes(self) -> float:
        """GPU memory available to engine + preprocessing instances."""
        return self.gpu_memory_gb * 1e9 * self.usable_memory_fraction

    def throughput_upper_bound(self, flops_per_item: float) -> float:
        """Theoretical max items/second for a model needing ``flops_per_item``.

        This is the Table 3 "Throughput UpperBound" column: practical
        platform FLOPS divided by the model's per-image FLOPs.
        """
        if flops_per_item <= 0:
            raise ValueError("flops_per_item must be positive")
        return self.practical_flops / flops_per_item

    def min_latency_seconds(self, flops_per_item: float, batch_size: int) -> float:
        """Minimum achievable latency for a batch (Section 3.1).

        Total FLOPs of the batch divided by practical platform FLOPS —
        the dashed "theoretical latency" lines of Fig. 6.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return batch_size * flops_per_item / self.practical_flops


# ----------------------------------------------------------------------
# Table 1: evaluated cloud and edge platforms
# ----------------------------------------------------------------------

A100 = PlatformSpec(
    name="A100",
    kind=PlatformKind.CLOUD,
    cpu_cores=128,
    gpu_name="NVIDIA A100 40GB",
    gpu_count=2,
    gpu_memory_gb=40.0,
    host_memory_gb=256.0,
    unified_memory=False,
    theoretical_tflops={
        Precision.FP32: 19.5,
        Precision.TF32: 156.0,
        Precision.FP16: 312.0,
        Precision.BF16: 312.0,
        Precision.INT8: 624.0,
    },
    practical_tflops=236.3,
    benchmark_precision=Precision.BF16,
    memory_bandwidth_gbps=1555.0,
    scenarios=(Scenario.ONLINE, Scenario.OFFLINE),
)

V100 = PlatformSpec(
    name="V100",
    kind=PlatformKind.CLOUD,
    cpu_cores=40,
    gpu_name="NVIDIA V100 16GB",
    gpu_count=2,
    gpu_memory_gb=16.0,
    host_memory_gb=384.0,
    unified_memory=False,
    theoretical_tflops={
        Precision.FP32: 14.0,
        Precision.FP16: 112.0,
        Precision.INT8: 112.0,
    },
    practical_tflops=92.6,
    benchmark_precision=Precision.FP16,
    memory_bandwidth_gbps=900.0,
    scenarios=(Scenario.ONLINE, Scenario.OFFLINE),
)

JETSON = PlatformSpec(
    name="Jetson",
    kind=PlatformKind.EDGE,
    cpu_cores=6,
    gpu_name="Jetson Orin Nano Super (1024 CUDA cores, 32 tensor cores)",
    gpu_count=1,
    gpu_memory_gb=8.0,
    host_memory_gb=8.0,
    unified_memory=True,
    theoretical_tflops={
        Precision.FP32: 2.1,
        Precision.FP16: 17.0,
        Precision.BF16: 17.0,
        Precision.INT8: 34.0,
    },
    practical_tflops=11.4,
    benchmark_precision=Precision.BF16,
    memory_bandwidth_gbps=102.0,
    scenarios=(Scenario.REAL_TIME,),
    power_watts=25.0,
    # Unified memory: the OS, camera stack, and host-side runtime share the
    # 8 GB pool with the engines, leaving roughly half for inference.
    usable_memory_fraction=0.52,
)

PLATFORMS: dict[str, PlatformSpec] = {
    spec.name.lower(): spec for spec in (A100, V100, JETSON)
}


def get_platform(name: str) -> PlatformSpec:
    """Look up a platform by case-insensitive name.

    >>> get_platform("a100").cpu_cores
    128
    """
    try:
        return PLATFORMS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; available: {sorted(PLATFORMS)}"
        ) from None


def list_platforms() -> list[PlatformSpec]:
    """All registered platforms, cloud first (Table 1 column order)."""
    return [A100, V100, JETSON]

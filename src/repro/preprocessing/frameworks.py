"""Preprocessing framework models: the five Fig. 7 configurations.

"Preprocessing is handled via Torchvision, OpenCV, GPU-accelerated
frameworks such as NVIDIA DALI, or custom Python scripts" (Section 3).
Fig. 7 compares: ``DALI 224@BS64``, ``DALI 96@BS64``, ``DALI 32@BS64``,
``PyTorch@BS1``, and ``CV2@BS1``.

Each framework combines a *functional* path (:meth:`run` executes the real
ops from :mod:`repro.preprocessing.ops`) with a *performance* path
(:meth:`estimate` prices the same work on a target platform using
:mod:`repro.preprocessing.cost`).  The cost decomposition is the paper's:
per-image time = decode (∝ encoded bytes, format-weighted) + transform
(∝ input pixels read + output pixels written) + fixed overhead, with the
CRSA perspective warp adding a CPU-only surcharge.
"""

from __future__ import annotations

import abc
import dataclasses
import enum

import numpy as np

from repro.bounds import within
from repro.data.datasets import DatasetSpec, ImageFormat
from repro.hardware.platform import PlatformSpec
from repro.preprocessing.cost import cost_params_for
from repro.preprocessing.pipelines import (
    PreprocessPipeline,
    crsa_pipeline,
    model_pipeline,
)

#: Output pixels are written once as float32 plus read once by the
#: normalize stage — weight 2 relative to one input-pixel read.
_OUT_PIXEL_WEIGHT = 2.0
#: Perspective warp: inverse-map + bilinear gather per input pixel is
#: ~2.5× the cost of a plain resize read.
_WARP_PIXEL_WEIGHT = 2.5


class FrameworkKind(str, enum.Enum):
    """Which processor a preprocessing framework runs on."""

    CPU = "cpu"
    GPU = "gpu"


@dataclasses.dataclass(frozen=True)
class PreprocessEstimate:
    """Performance estimate for one (framework, dataset, platform) cell."""

    framework: str
    dataset: str
    platform: str
    batch_size: int
    output_size: int
    per_image_seconds: float
    #: Device memory resident while the instance serves (buffers, queues).
    memory_bytes: float

    @property
    def batch_latency_seconds(self) -> float:
        """Latency of one batch request (the Fig. 7 upper panels)."""
        return self.per_image_seconds * self.batch_size

    @property
    def throughput(self) -> float:
        """Images/second (the Fig. 7 lower panels)."""
        return 1.0 / self.per_image_seconds


class PreprocessFramework(abc.ABC):
    """A preprocessing engine instance configuration."""

    name: str
    kind: FrameworkKind
    default_batch_size: int

    def __init__(self, output_size: int = 224):
        self.output_size = within("output_size", output_size, "[1, inf)")

    # -- functional path ------------------------------------------------
    def pipeline_for(self, dataset: DatasetSpec) -> PreprocessPipeline:
        """The executable pipeline this framework runs for a dataset."""
        if dataset.dataset_specific_preprocessing and self.supports_warp:
            return crsa_pipeline(self.output_size)
        return model_pipeline(self.output_size)

    def run(self, images: list[np.ndarray],
            dataset: DatasetSpec) -> np.ndarray:
        """Actually preprocess a batch: list of (H, W, C) → (N, C, s, s)."""
        if not images:
            raise ValueError("empty batch")
        pipeline = self.pipeline_for(dataset)
        return np.stack([pipeline(img) for img in images])

    @property
    def supports_warp(self) -> bool:
        """Whether the dataset-specific perspective stage is available.

        GPU acceleration of the CPU-bound CRSA path is the paper's listed
        future work, so only the CPU frameworks run it today.
        """
        return self.kind is FrameworkKind.CPU

    # -- performance path ------------------------------------------------
    @abc.abstractmethod
    def estimate(self, dataset: DatasetSpec, platform: PlatformSpec,
                 batch_size: int | None = None) -> PreprocessEstimate:
        """Price a batch on a platform."""

    def _mean_input_stats(self, dataset: DatasetSpec) -> tuple[float, float]:
        """(mean input pixels, mean encoded bytes) per image."""
        pixels = dataset.size_distribution.mean_pixels()
        return pixels, pixels * dataset.image_format.bytes_per_pixel

    def _decode_work_bytes(self, dataset: DatasetSpec) -> float:
        """Format-weighted decode work in JPEG-equivalent bytes."""
        _, enc = self._mean_input_stats(dataset)
        return enc * dataset.image_format.decode_cost_per_byte

    def _transform_pixels(self, dataset: DatasetSpec,
                          warped: bool) -> float:
        """Pixel-work units for the transform stage."""
        in_px, _ = self._mean_input_stats(dataset)
        work = in_px + _OUT_PIXEL_WEIGHT * self.output_size ** 2
        if warped and dataset.dataset_specific_preprocessing:
            work += _WARP_PIXEL_WEIGHT * in_px
        return work


class PyTorchCPU(PreprocessFramework):
    """Torchvision-style CPU baseline, batch size 1.

    The paper: "PyTorch serves as the CPU-based baseline, exhibiting
    varying performance across datasets—likely attributable to differences
    in image encoding formats (e.g., TIFF vs. JPEG)."  The variance comes
    through :meth:`_decode_work_bytes`: TIFF images carry ~5× the encoded
    bytes at ~1/4 the per-byte decode cost, so the two formats price
    differently per pixel.
    """

    name = "PyTorch"
    kind = FrameworkKind.CPU
    default_batch_size = 1

    #: The torchvision baseline does not run the perspective stage (plain
    #: model pipeline); OpenCV is the CPU framework used for CRSA.
    supports_warp = False

    def estimate(self, dataset: DatasetSpec, platform: PlatformSpec,
                 batch_size: int | None = None) -> PreprocessEstimate:
        batch = self.default_batch_size if batch_size is None else batch_size
        if batch < 1:
            raise ValueError("batch_size must be >= 1")
        params = cost_params_for(platform)
        per_image = (
            params.cpu_per_image_overhead_s
            + self._decode_work_bytes(dataset) / params.cpu_decode_bps
            + self._transform_pixels(dataset, warped=False)
            / params.cpu_transform_pps
        )
        in_px, enc = self._mean_input_stats(dataset)
        memory = batch * (enc + 3 * in_px  # decoded uint8
                          + 4 * 3 * self.output_size ** 2)  # float32 out
        return PreprocessEstimate(self.name, dataset.name, platform.name,
                                  batch, self.output_size, per_image,
                                  memory)


class OpenCVCPU(PreprocessFramework):
    """OpenCV CPU pipeline, batch size 1 — runs the CRSA perspective warp.

    "OpenCV, employed specifically for the CRSA dataset with heavy
    CPU-bound operations, demonstrates poor performance in real-time
    scenarios and is therefore excluded from further evaluation."
    """

    name = "CV2"
    kind = FrameworkKind.CPU
    default_batch_size = 1

    def estimate(self, dataset: DatasetSpec, platform: PlatformSpec,
                 batch_size: int | None = None) -> PreprocessEstimate:
        batch = self.default_batch_size if batch_size is None else batch_size
        if batch < 1:
            raise ValueError("batch_size must be >= 1")
        params = cost_params_for(platform)
        per_image = (
            params.cpu_per_image_overhead_s
            + self._decode_work_bytes(dataset) / params.cpu_decode_bps
            + self._transform_pixels(dataset, warped=True)
            / params.cpu_transform_pps
        )
        in_px, enc = self._mean_input_stats(dataset)
        # The warp materializes a float32 copy of the full frame.
        warp_copy = (12 * in_px if dataset.dataset_specific_preprocessing
                     else 0)
        memory = batch * (enc + 3 * in_px + warp_copy
                          + 4 * 3 * self.output_size ** 2)
        return PreprocessEstimate(self.name, dataset.name, platform.name,
                                  batch, self.output_size, per_image,
                                  memory)


class DALI(PreprocessFramework):
    """DALI-style GPU-accelerated pipeline, batch size 64.

    Fig. 7's "numerical indicators 224, 96, and 32 represent output
    resolutions ... Since image loading and decoding costs remain
    constant, smaller output images (e.g., DALI 32) achieve faster
    preprocessing speeds."
    """

    name = "DALI"
    kind = FrameworkKind.GPU
    default_batch_size = 64

    #: Pipeline queue depth: buffers for in-flight batches (DALI's
    #: ``prefetch_queue_depth`` default of 2, doubled for the separated
    #: decode/transform stages).
    QUEUE_DEPTH = 4

    def __init__(self, output_size: int = 224):
        super().__init__(output_size)
        self.name = f"DALI {output_size}"

    def estimate(self, dataset: DatasetSpec, platform: PlatformSpec,
                 batch_size: int | None = None) -> PreprocessEstimate:
        batch = self.default_batch_size if batch_size is None else batch_size
        if batch < 1:
            raise ValueError("batch_size must be >= 1")
        params = cost_params_for(platform)
        per_image = (
            params.gpu_per_batch_overhead_s / batch
            + self._decode_work_bytes(dataset) / params.gpu_decode_bps
            + self._transform_pixels(dataset, warped=False)
            / params.gpu_transform_pps
        )
        in_px, enc = self._mean_input_stats(dataset)
        per_image_buffers = enc + 3 * in_px + 4 * 3 * self.output_size ** 2
        memory = (self.QUEUE_DEPTH * batch * per_image_buffers
                  + 256e6)  # nvJPEG + pipeline workspaces
        return PreprocessEstimate(self.name, dataset.name, platform.name,
                                  batch, self.output_size, per_image,
                                  memory)


class DALIWarp(DALI):
    """DALI pipeline extended with a GPU perspective warp.

    The paper's stated future work: "GPU-accelerated optimization for
    CPU-bound frameworks remains planned as future work."  This framework
    implements it: the CRSA perspective correction runs as a GPU kernel
    (inverse map + bilinear gather — embarrassingly parallel per output
    pixel), removing the CPU bottleneck that made CV2 "unsuitable for
    real-time scenarios".  The ablation bench compares the two.
    """

    supports_warp = True

    def __init__(self, output_size: int = 224):
        super().__init__(output_size)
        self.name = f"DALI+warp {output_size}"

    def estimate(self, dataset: DatasetSpec, platform: PlatformSpec,
                 batch_size: int | None = None) -> PreprocessEstimate:
        base = super().estimate(dataset, platform, batch_size)
        if not dataset.dataset_specific_preprocessing:
            return base
        params = cost_params_for(platform)
        in_px, _ = self._mean_input_stats(dataset)
        warp_seconds = _WARP_PIXEL_WEIGHT * in_px / params.gpu_transform_pps
        per_image = base.per_image_seconds + warp_seconds
        # The warp double-buffers the full frame on device.
        extra = self.QUEUE_DEPTH * base.batch_size * 3 * in_px
        return PreprocessEstimate(
            self.name, base.dataset, base.platform, base.batch_size,
            base.output_size, per_image, base.memory_bytes + extra)


def framework_catalog(model_input_size: int = 224,
                      ) -> list[PreprocessFramework]:
    """The five Fig. 7 framework configurations, in legend order.

    ``model_input_size`` sets the output size of the CPU baselines (they
    always produce model input; DALI is swept over 224/96/32).
    """
    return [
        DALI(224),
        DALI(96),
        DALI(32),
        PyTorchCPU(model_input_size),
        OpenCVCPU(model_input_size),
    ]

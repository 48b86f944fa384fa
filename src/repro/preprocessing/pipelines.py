"""Preprocessing pipeline composition.

"Each model family is paired with its own preprocessing method, and in
some cases, the dataset itself may require task-specific preprocessing"
(Section 3).  A :class:`PreprocessPipeline` is an executable op sequence
plus the metadata the cost model needs (input pixels in, output pixels
out, op inventory).
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable

import numpy as np

from repro.bounds import within
from repro.preprocessing import ops

#: torchvision's ImageNet statistics — what the evaluated checkpoints use.
IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)

#: torchvision's 256/224 short-side resize before the center crop.
_RESIZE_RATIO = 1.143


@dataclasses.dataclass(frozen=True)
class PipelineStep:
    """One named op in a pipeline."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass(frozen=True)
class PreprocessPipeline:
    """An executable preprocessing pipeline.

    ``output_size`` is the square model-input side (224/96/32 in Fig. 7);
    ``dataset_specific`` marks pipelines that include a dataset-level
    stage (CRSA's perspective correction) before the model stage.
    ``steps`` is the op inventory, and running them in order is the
    reference result.  A call instead runs ``plan(h, w)``, the
    sampling plan of every resampling step for an ``(h, w)`` input
    folded into one (see :func:`ops.cropped_resize_plan`), and writes
    the normalized pixels straight into the ``(C, s, s)`` output: the
    same bits from scratch memory proportional to the output.
    """

    name: str
    steps: tuple[PipelineStep, ...]
    output_size: int
    dataset_specific: bool = False
    plan: Callable[[int, int], tuple[np.ndarray, ...]] = dataclasses.field(
        kw_only=True, repr=False, compare=False)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        """Run the pipeline: ``(H, W, C)`` uint8 → ``(C, s, s)`` float32."""
        if image.ndim != 3 or image.shape[2] != len(IMAGENET_MEAN):
            raise ValueError(f"expected (H, W, 3), got shape {image.shape}")
        h, w, c = image.shape
        pixels = ops.apply_plan(image.reshape(h * w, c), self.plan(h, w))
        out = np.empty((c, self.output_size, self.output_size), np.float32)
        chw = out.reshape(c, -1)
        # ops.normalize's arithmetic, one channel row at a time.
        np.divide(pixels.T, 255.0, out=chw)
        chw -= IMAGENET_MEAN[:, None]
        chw /= IMAGENET_STD[:, None]
        return out

    @property
    def op_names(self) -> tuple[str, ...]:
        """Ordered op names in the pipeline."""
        return tuple(step.name for step in self.steps)


def _resized_hw(h: int, w: int, resize_to: int) -> tuple[int, int]:
    """The frame size after resizing the short side to ``resize_to``."""
    scale = resize_to / min(h, w)
    return max(1, round(h * scale)), max(1, round(w * scale))


def model_pipeline(output_size: int,
                   resize_ratio: float = _RESIZE_RATIO) -> PreprocessPipeline:
    """The standard vision-model pipeline: resize → crop → normalize → CHW.

    ``resize_ratio`` mirrors torchvision's 256/224 convention: resize the
    short side to ``ratio × output_size`` then center-crop.
    """
    return _pipeline(f"model_{output_size}", output_size, resize_ratio,
                     perspective=False)


@functools.lru_cache(maxsize=8)
def _homography(h: int, w: int) -> np.ndarray:
    """The ground-plane rectification of an ``(h, w)`` frame, solved
    once per frame size."""
    hom = ops.ground_plane_homography(w, h)
    hom.setflags(write=False)
    return hom


def _rectify(img: np.ndarray) -> np.ndarray:
    h, w = img.shape[:2]
    return ops.warp_perspective(img, _homography(h, w), h, w)


def crsa_pipeline(output_size: int,
                  frame_hw: tuple[int, int] = (2160, 3840),
                  ) -> PreprocessPipeline:
    """The CRSA pipeline: perspective-correct the raw frame, then the
    standard model stage.

    The perspective op dominates cost on CPU ("OpenCV, employed
    specifically for the CRSA dataset with heavy CPU-bound operations,
    demonstrates poor performance in real-time scenarios").
    ``frame_hw`` is the expected capture size, whose homography is
    solved up front; a frame of any other size gets its own, solved on
    its first call.
    """
    _homography(*frame_hw)
    return _pipeline(f"crsa_{output_size}", output_size, _RESIZE_RATIO,
                     perspective=True)


def _pipeline(name: str, output_size: int, resize_ratio: float,
              perspective: bool) -> PreprocessPipeline:
    """[perspective →] resize → center crop → normalize → CHW."""
    within("output_size", output_size, "[1, inf)")
    within("resize_ratio", resize_ratio, "(0, inf)")
    resize_to = max(output_size, int(round(output_size * resize_ratio)))

    def do_resize(img: np.ndarray) -> np.ndarray:
        return ops.resize_bilinear(img, *_resized_hw(*img.shape[:2],
                                                     resize_to))

    def plan(h: int, w: int) -> tuple[np.ndarray, ...]:
        return ops.cropped_resize_plan(
            h, w, _resized_hw(h, w, resize_to), output_size,
            _homography(h, w) if perspective else None)

    steps = (
        *([PipelineStep("perspective", _rectify)] if perspective else []),
        PipelineStep("resize", do_resize),
        PipelineStep("center_crop",
                     lambda img: ops.center_crop(img, output_size,
                                                 output_size)),
        PipelineStep("normalize",
                     lambda img: ops.normalize(img, IMAGENET_MEAN,
                                               IMAGENET_STD)),
        PipelineStep("to_chw", ops.to_chw),
    )
    return PreprocessPipeline(name, steps, output_size,
                              dataset_specific=perspective, plan=plan)

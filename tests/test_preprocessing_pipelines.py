"""Tests for repro.preprocessing.pipelines."""

import numpy as np
import pytest

from repro.data.synthetic import synth_crsa_frame, synth_image
from repro.preprocessing import ops
from repro.preprocessing.pipelines import (
    IMAGENET_MEAN,
    IMAGENET_STD,
    crsa_pipeline,
    model_pipeline,
)


def _composed(pipeline, image):
    """The reference: the pipeline's steps, run in order."""
    out = image
    for step in pipeline.steps:
        out = step.fn(out)
    return out


class TestModelPipeline:
    @pytest.mark.parametrize("size", [32, 96, 224])
    def test_output_is_model_input_layout(self, size, rng):
        pipeline = model_pipeline(size)
        img = synth_image(300, 260, rng)
        out = pipeline(img)
        assert out.shape == (3, size, size)
        assert out.dtype == np.float32

    def test_small_input_upscaled(self, rng):
        # A 61x61 spittle-bug crop still produces a 224 input.
        out = model_pipeline(224)(synth_image(61, 61, rng))
        assert out.shape == (3, 224, 224)

    def test_output_standardized_range(self, rng):
        out = model_pipeline(32)(synth_image(100, 100, rng))
        # ImageNet-normalized pixels live in roughly [-2.7, 2.7].
        assert out.min() > -3.0 and out.max() < 3.0

    def test_op_sequence(self):
        pipeline = model_pipeline(96)
        assert pipeline.op_names == ("resize", "center_crop", "normalize",
                                     "to_chw")

    def test_resize_ratio_follows_torchvision_convention(self, rng):
        # 256/224 short-side convention: intermediate resize above crop.
        pipeline = model_pipeline(224)
        img = synth_image(500, 500, rng)
        resized = pipeline.steps[0].fn(img)
        assert min(resized.shape[:2]) == 256

    def test_invalid_output_size_rejected(self):
        with pytest.raises(ValueError):
            model_pipeline(0)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), 0.0,
                                       -1.143])
    def test_invalid_resize_ratio_rejected(self, ratio):
        # NaN and inf used to die in int(round(...)) with an error
        # naming no argument; 0 and negatives were accepted.
        with pytest.raises(ValueError, match="^resize_ratio must lie in"):
            model_pipeline(224, resize_ratio=ratio)

    def test_normalization_constants_are_imagenet(self):
        np.testing.assert_allclose(IMAGENET_MEAN, [0.485, 0.456, 0.406])
        np.testing.assert_allclose(IMAGENET_STD, [0.229, 0.224, 0.225])

    def test_not_dataset_specific(self):
        assert not model_pipeline(32).dataset_specific


class TestCRSAPipeline:
    def test_output_shape(self):
        frame = synth_crsa_frame(384, 216)
        out = crsa_pipeline(32, frame_hw=(216, 384))(frame)
        assert out.shape == (3, 32, 32)

    def test_perspective_stage_first(self):
        pipeline = crsa_pipeline(32)
        assert pipeline.op_names[0] == "perspective"
        assert pipeline.dataset_specific

    def test_handles_scaled_frames(self):
        # Test frames smaller than 4K recompute the homography.
        frame = synth_crsa_frame(200, 100)
        out = crsa_pipeline(32, frame_hw=(2160, 3840))(frame)
        assert out.shape == (3, 32, 32)
        assert np.isfinite(out).all()


class TestFoldedPlan:
    """A call runs one planned gather, bit-identical to the steps."""

    @pytest.mark.parametrize("make, shape", [
        (lambda: crsa_pipeline(224, frame_hw=(540, 960)), (540, 960)),
        (lambda: crsa_pipeline(224, frame_hw=(216, 384)), (216, 384)),
        (lambda: model_pipeline(32), (375, 500)),
        (lambda: model_pipeline(224), (375, 500)),
        (lambda: model_pipeline(224), (61, 61)),
    ], ids=["crsa-960x540", "crsa-384x216", "plant-32", "plant-224",
            "upscale-61"])
    def test_bit_identical_to_the_steps(self, make, shape):
        pipeline = make()
        rng = np.random.default_rng(sum(shape))
        h, w = shape
        image = (synth_crsa_frame(w, h, rng) if pipeline.dataset_specific
                 else synth_image(w, h, rng))
        for _ in range(2):  # the plan is built, then reused
            out = pipeline(image)
            ref = _composed(pipeline, image)
            assert out.dtype == ref.dtype == np.float32
            assert out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()

    def test_plans_only_the_cropped_pixels(self):
        size = 224
        plan = model_pipeline(size).plan(375, 500)
        assert len(plan) == 8  # one gather stage: the cropped resize
        assert all(len(a) == size * size for a in plan)

    def test_warps_only_the_window_the_resize_reads(self):
        h, w = 540, 960
        plan = crsa_pipeline(224, frame_hw=(h, w)).plan(h, w)
        assert len(plan) == 16  # the warp window, then the resize
        warped = len(plan[0])
        assert warped < 0.5 * h * w
        # The resize taps index that window and nothing past it.
        assert max(int(t.max()) for t in plan[8:12]) == warped - 1
        assert min(int(t.min()) for t in plan[8:12]) == 0

    def test_one_plan_and_homography_per_frame_size(self, monkeypatch):
        solved = []
        solve = ops.ground_plane_homography
        monkeypatch.setattr(ops, "ground_plane_homography",
                            lambda *a: solved.append(a) or solve(*a))
        pipeline = crsa_pipeline(32, frame_hw=(2160, 3840))
        frame = synth_crsa_frame(131, 97)
        pipeline(frame)
        assert pipeline.plan(97, 131) is pipeline.plan(97, 131)
        pipeline(frame)
        assert solved.count((131, 97)) <= 1

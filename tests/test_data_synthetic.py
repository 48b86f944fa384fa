"""Tests for repro.data.synthetic — procedural imagery."""

import hashlib

import numpy as np
import pytest

from repro.data.datasets import get_dataset
from repro.data.synthetic import (
    SyntheticSampler,
    synth_crsa_frame,
    synth_frame_sequence,
    synth_image,
    synth_labeled_images,
)


class TestSynthImage:
    def test_shape_and_dtype(self, rng):
        img = synth_image(120, 80, rng)
        assert img.shape == (80, 120, 3)
        assert img.dtype == np.uint8

    def test_vegetation_channel_balance(self, rng):
        # Green dominates red dominates blue on average.
        img = synth_image(64, 64, rng).astype(float)
        r, g, b = img[..., 0].mean(), img[..., 1].mean(), img[..., 2].mean()
        assert g > r > b

    def test_single_channel(self, rng):
        assert synth_image(10, 10, rng, channels=1).shape == (10, 10, 1)

    def test_deterministic_given_seed(self):
        a = synth_image(16, 16, np.random.default_rng(3))
        b = synth_image(16, 16, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_invalid_dims_rejected(self, rng):
        with pytest.raises(ValueError):
            synth_image(0, 10, rng)

    def test_more_channels_than_gains_rejected(self, rng):
        # There are three channel gains; a fourth channel used to come
        # back as a three-channel image.
        with pytest.raises(ValueError, match="^channels must lie in"):
            synth_image(8, 8, rng, channels=4)

    def test_not_constant(self, rng):
        img = synth_image(32, 32, rng)
        assert img.std() > 1.0


class TestCRSAFrame:
    def test_default_is_4k(self):
        # Full 4K generation is slow; check the small path and the default
        # parameters separately.
        frame = synth_crsa_frame(384, 216)
        assert frame.shape == (216, 384, 3)

    def test_grid_lines_present(self):
        frame = synth_crsa_frame(400, 200, grid_spacing=100)
        # Grid pixels carry the row color (30, 110, 40).
        mask = (frame[..., 1] == 110) & (frame[..., 0] == 30)
        assert mask.sum() > 200

    def test_rows_converge_toward_top(self):
        # Perspective: the spread of marked columns shrinks higher up.
        frame = synth_crsa_frame(600, 300, grid_spacing=120)
        mask = (frame[..., 1] == 110) & (frame[..., 0] == 30)
        top_cols = np.where(mask[10])[0]
        bottom_cols = np.where(mask[-10])[0]
        assert len(top_cols) > 0 and len(bottom_cols) > 0
        assert (top_cols.max() - top_cols.min()
                < bottom_cols.max() - bottom_cols.min())

    def test_too_small_frame_rejected(self):
        with pytest.raises(ValueError):
            synth_crsa_frame(4, 4)


class TestSyntheticSampler:
    def test_classification_samples_have_labels(self):
        sampler = SyntheticSampler(get_dataset("fruits_360"), seed=1)
        samples = sampler.sample(5)
        assert len(samples) == 5
        for img, label in samples:
            assert img.shape == (100, 100, 3)
            assert 0 <= label < 81

    def test_crsa_samples_unlabelled(self):
        sampler = SyntheticSampler(get_dataset("crsa"), seed=1, scale=0.05)
        [(img, label)] = sampler.sample(1)
        assert label is None
        assert img.shape[2] == 3

    def test_variable_sizes_vary(self):
        sampler = SyntheticSampler(get_dataset("spittle_bug"), seed=1)
        sizes = sampler.sample_sizes(50)
        assert len(np.unique(sizes[:, 0])) > 5

    def test_scale_shrinks_dimensions(self):
        full = SyntheticSampler(get_dataset("plant_village"), seed=1)
        half = SyntheticSampler(get_dataset("plant_village"), seed=1,
                                scale=0.5)
        assert half.sample_sizes(1)[0, 0] == full.sample_sizes(1)[0, 0] // 2

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSampler(get_dataset("crsa"), scale=0.0)


class TestSynthFrameSequence:
    def test_shape_dtype_and_count(self):
        spec = get_dataset("crsa")
        frames = synth_frame_sequence(spec, 5, 0.0,
                                      np.random.default_rng(0),
                                      width=64, height=48)
        assert len(frames) == 5
        for frame in frames:
            assert frame.shape == (48, 64, 3)
            assert frame.dtype == np.uint8

    def test_zero_rate_keeps_one_scene(self):
        spec = get_dataset("crsa")
        frames = synth_frame_sequence(spec, 8, 0.0,
                                      np.random.default_rng(1),
                                      width=64, height=48, jitter=2.0)
        base = frames[0].astype(np.int64)
        for frame in frames[1:]:
            delta = np.abs(frame.astype(np.int64) - base)
            assert delta.mean() < 8.0  # only sensor noise apart

    def test_unit_rate_cuts_every_frame(self):
        spec = get_dataset("crsa")
        frames = synth_frame_sequence(spec, 6, 1.0,
                                      np.random.default_rng(2),
                                      width=64, height=48)
        deltas = [np.abs(frames[i].astype(np.int64)
                         - frames[i + 1].astype(np.int64)).mean()
                  for i in range(5)]
        assert min(deltas) > 10.0

    def test_higher_rate_means_more_distinct_scenes(self):
        from repro.cache.keys import fingerprint

        spec = get_dataset("crsa")

        def distinct(rate):
            frames = synth_frame_sequence(spec, 60, rate,
                                          np.random.default_rng(3),
                                          width=64, height=48)
            kept = []
            for frame in frames:
                fp = fingerprint(frame)
                if not any(fp.distance(seen) <= 8 for seen in kept):
                    kept.append(fp)
            return len(kept)

        assert distinct(0.0) <= distinct(0.05) <= distinct(0.5)

    def test_dataset_selects_frame_generator(self):
        # CRSA scenes carry the perspective grid's dark-green rows;
        # plain field imagery does not.
        crsa = synth_frame_sequence(get_dataset("crsa"), 1, 0.0,
                                    np.random.default_rng(4),
                                    width=96, height=64, jitter=0.0)[0]
        plain = synth_frame_sequence(get_dataset("plant_village"), 1,
                                     0.0, np.random.default_rng(4),
                                     width=96, height=64, jitter=0.0)[0]
        assert not np.array_equal(crsa, plain)

    def test_deterministic_for_a_seed(self):
        spec = get_dataset("crsa")
        first = synth_frame_sequence(spec, 4, 0.3,
                                     np.random.default_rng(7),
                                     width=32, height=24)
        second = synth_frame_sequence(spec, 4, 0.3,
                                      np.random.default_rng(7),
                                      width=32, height=24)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_validation(self):
        spec = get_dataset("crsa")
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^n "):
            synth_frame_sequence(spec, 0, 0.0, rng)
        with pytest.raises(ValueError, match="scene_change_rate"):
            synth_frame_sequence(spec, 3, 1.5, rng)
        with pytest.raises(ValueError, match="jitter"):
            synth_frame_sequence(spec, 3, 0.0, rng, jitter=-1.0)

    def test_pinned_crsa_sequence(self):
        # Every pixel of a seeded sequence is pinned: the noisy frames
        # are clipped in place and must not move a bit.
        frames = synth_frame_sequence(get_dataset("crsa"), 8, 0.25,
                                      np.random.default_rng(5),
                                      width=96, height=54)
        digest = hashlib.sha256()
        for frame in frames:
            digest.update(frame.tobytes())
        assert digest.hexdigest() == (
            "f82311131d37e3f11d7b3ade5242c957"
            "b80823601b0800513843d3f6657211da")


class TestSynthLabeledImages:
    @pytest.mark.parametrize("strength", [float("nan"), -0.5,
                                          float("inf")])
    def test_bad_signal_strength_rejected(self, strength):
        with pytest.raises(ValueError, match="signal_strength"):
            synth_labeled_images(4, 3, 8, np.random.default_rng(0),
                                 signal_strength=strength)

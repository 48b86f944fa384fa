"""Tests for perceptual frame fingerprinting (repro.cache.keys)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import (
    FrameFingerprint,
    block_means,
    block_signature_bits,
    dhash_bits,
    fingerprint,
    hamming,
    luma,
)
from repro.data.datasets import get_dataset
from repro.data.synthetic import synth_frame_sequence


def _frame(seed: int = 0, width: int = 64, height: int = 48):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (height, width, 3), dtype=np.uint8)


class TestLuma:
    def test_rgb_uses_rec601_weights(self):
        frame = np.zeros((2, 2, 3), dtype=np.uint8)
        frame[..., 1] = 100  # pure green
        plane = luma(frame)
        assert plane == pytest.approx(np.full((2, 2), 58.7))

    def test_grayscale_passes_through(self):
        plane = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert np.array_equal(luma(plane), plane)

    def test_single_channel_squeezes(self):
        frame = np.ones((3, 4, 1), dtype=np.uint8) * 7
        assert np.array_equal(luma(frame), np.full((3, 4), 7.0))

    def test_other_channel_counts_average(self):
        frame = np.stack([np.zeros((2, 2)), np.full((2, 2), 10.0)],
                         axis=2)
        assert np.array_equal(luma(frame), np.full((2, 2), 5.0))

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="expected"):
            luma(np.zeros(8))


class TestBlockMeans:
    def test_exact_partition(self):
        plane = np.arange(16, dtype=np.float64).reshape(4, 4)
        means = block_means(plane, 2, 2)
        assert np.allclose(means, [[2.5, 4.5], [10.5, 12.5]])

    def test_non_divisible_resolution(self):
        # 5x7 into a 2x3 grid: every cell defined, total mean preserved
        # by area weighting of the linspace edges.
        plane = np.arange(35, dtype=np.float64).reshape(5, 7)
        means = block_means(plane, 2, 3)
        assert means.shape == (2, 3)
        assert np.all(np.diff(means, axis=1) > 0)

    def test_input_smaller_than_grid_repeats_pixels(self):
        plane = np.array([[1.0, 2.0]])
        means = block_means(plane, 4, 4)
        assert means.shape == (4, 4)
        assert set(np.unique(means)) == {1.0, 2.0}

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            block_means(np.zeros((2, 2, 3)), 2, 2)


class TestDhash:
    def test_all_black_frame_hashes_to_zero(self):
        assert dhash_bits(np.zeros((32, 32, 3), dtype=np.uint8)) == 0

    def test_uniform_frames_collide_regardless_of_level(self):
        black = np.zeros((24, 24), dtype=np.uint8)
        white = np.full((24, 24), 255, dtype=np.uint8)
        assert dhash_bits(black) == dhash_bits(white)

    def test_brightness_shift_is_invariant(self):
        frame = _frame(3).astype(np.int64)
        shifted = np.clip(frame + 20, 0, 255)
        assert dhash_bits(frame) == dhash_bits(shifted)

    def test_gradient_produces_all_ones(self):
        plane = np.tile(np.arange(64, dtype=np.float64), (64, 1))
        assert dhash_bits(plane, hash_size=4) == (1 << 16) - 1

    def test_rejects_tiny_hash_size(self):
        with pytest.raises(ValueError, match="hash_size"):
            dhash_bits(_frame(), hash_size=1)


class TestFingerprint:
    def test_non_224_resolutions_share_geometry(self):
        # A 4K frame and a thumbnail of the same scene still compare:
        # fingerprints depend on the grid, not the input resolution.
        a = fingerprint(_frame(1, width=640, height=360))
        b = fingerprint(_frame(1, width=64, height=36))
        assert a.nbits == b.nbits == 80
        assert a.distance(b) <= a.nbits

    def test_grayscale_frame_fingerprints(self):
        fp = fingerprint(_frame(2)[..., 0])
        assert isinstance(fp, FrameFingerprint)
        assert fp.packed >> 16 == fp.dhash

    def test_threshold_zero_is_exact_match(self):
        fp = fingerprint(_frame(4))
        same = fingerprint(_frame(4))
        off_by_one = FrameFingerprint(fp.dhash ^ 1, fp.blocks)
        assert fp.matches(same, threshold=0)
        assert not fp.matches(off_by_one, threshold=0)
        assert fp.matches(off_by_one, threshold=1)

    def test_negative_threshold_rejected(self):
        fp = fingerprint(_frame())
        with pytest.raises(ValueError, match="threshold"):
            fp.matches(fp, threshold=-1)

    def test_geometry_mismatch_rejected(self):
        a = fingerprint(_frame(), hash_size=8)
        b = fingerprint(_frame(), hash_size=4)
        with pytest.raises(ValueError, match="geometry"):
            a.distance(b)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="geometry"):
            FrameFingerprint(0, 0, hash_size=1)

    def test_packed_is_not_a_constructor_field(self):
        fp = FrameFingerprint(dhash=0b101, blocks=0b11)
        assert fp.packed == 0b101 << 16 | 0b11
        assert "packed" not in repr(fp)
        with pytest.raises(TypeError):
            FrameFingerprint(dhash=1, blocks=0, packed=1)

    def test_hamming_counts_bits(self):
        assert hamming(0b1010, 0b0110) == 2

    def test_block_signature_balances_bits(self):
        # Half-dark half-bright frame: exactly half the cells exceed
        # the global mean.
        plane = np.zeros((64, 64))
        plane[:, 32:] = 200.0
        bits = block_signature_bits(plane, block_grid=4)
        assert bin(bits).count("1") == 8

    def test_deterministic_across_calls(self):
        frame = _frame(9)
        assert fingerprint(frame) == fingerprint(frame)


geometries = st.tuples(st.integers(2, 9), st.integers(1, 7))


def _out_of_range(width):
    """A negative value or one wider than ``width`` bits."""
    return st.one_of(st.integers(max_value=-1),
                     st.integers(min_value=1 << width,
                                 max_value=1 << (width + 70)))


class TestFingerprintRange:
    """Signatures must fit their geometry, so packed keys stay exact."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), geometry=geometries)
    def test_out_of_range_signatures_rejected(self, data, geometry):
        hash_size, block_grid = geometry
        dhash_ok = st.integers(0, (1 << hash_size ** 2) - 1)
        blocks_ok = st.integers(0, (1 << block_grid ** 2) - 1)
        bad_dhash = data.draw(st.booleans())
        dhash = data.draw(_out_of_range(hash_size ** 2) if bad_dhash
                          else dhash_ok)
        blocks = data.draw(blocks_ok if bad_dhash
                           else _out_of_range(block_grid ** 2))
        field = "dhash" if bad_dhash else "blocks"
        with pytest.raises(ValueError, match=field):
            FrameFingerprint(dhash, blocks, hash_size, block_grid)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), geometry=geometries)
    def test_packed_distance_is_the_per_signature_sum(self, data,
                                                      geometry):
        hash_size, block_grid = geometry
        dhash = st.integers(0, (1 << hash_size ** 2) - 1)
        blocks = st.integers(0, (1 << block_grid ** 2) - 1)
        a, b = (FrameFingerprint(data.draw(dhash), data.draw(blocks),
                                 hash_size, block_grid)
                for _ in range(2))
        assert a.distance(b) == (hamming(a.dhash, b.dhash)
                                 + hamming(a.blocks, b.blocks))
        assert a.packed >> block_grid ** 2 == a.dhash


class TestSceneDiscrimination:
    """Jittered frames must match; scene cuts must not."""

    def test_sensor_noise_stays_within_small_distance(self):
        spec = get_dataset("crsa")
        rng = np.random.default_rng(7)
        frames = synth_frame_sequence(spec, 6, 0.0, rng)
        base = fingerprint(frames[0])
        for frame in frames[1:]:
            assert base.distance(fingerprint(frame)) <= 6

    def test_scene_cut_exceeds_threshold(self):
        spec = get_dataset("crsa")
        rng = np.random.default_rng(8)
        frames = synth_frame_sequence(spec, 40, 1.0, rng)
        distances = [fingerprint(frames[i]).distance(
            fingerprint(frames[i + 1])) for i in range(5)]
        assert min(distances) > 8


def _reference_block_means(plane, rows, cols):
    """The per-cell integral-image loop ``block_means`` must equal."""
    h, w = plane.shape
    integral = np.zeros((h + 1, w + 1), dtype=np.float64)
    integral[1:, 1:] = plane.cumsum(axis=0).cumsum(axis=1)
    ys = np.linspace(0, h, rows + 1).round().astype(np.int64)
    xs = np.linspace(0, w, cols + 1).round().astype(np.int64)
    out = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        y0 = min(int(ys[i]), h - 1)
        y1 = min(max(int(ys[i + 1]), y0 + 1), h)
        for j in range(cols):
            x0 = min(int(xs[j]), w - 1)
            x1 = min(max(int(xs[j + 1]), x0 + 1), w)
            total = (integral[y1, x1] - integral[y0, x1]
                     - integral[y1, x0] + integral[y0, x0])
            out[i, j] = total / ((y1 - y0) * (x1 - x0))
    return out


def _reference_pack_bits(bits):
    """Fold a boolean array into an int, MSB first, one bit at a time."""
    value = 0
    for bit in bits.ravel():
        value = (value << 1) | int(bool(bit))
    return value


def _reference_fingerprint(frame, hash_size, block_grid):
    plane = luma(frame)
    grad = _reference_block_means(plane, hash_size, hash_size + 1)
    cells = _reference_block_means(plane, block_grid, block_grid)
    return (_reference_pack_bits(grad[:, :-1] < grad[:, 1:]),
            _reference_pack_bits(cells > plane.mean()))


#: (hash_size, block_grid); (9, 7) makes an 81-bit dHash.
GEOMETRIES = [(2, 1), (5, 3), (8, 4), (9, 7)]
#: (height, width): a single pixel, frames smaller than every grid or
#: than some grids, and ordinary non-divisible resolutions.
SHAPES = [(1, 1), (1, 3), (2, 2), (3, 5), (6, 4), (9, 10), (27, 48),
          (54, 96)]
#: None = a grayscale (H, W) frame; otherwise the channel count.
CHANNELS = [None, 1, 3, 4]
#: SHA-256 of the packed keys over ``_parity_frames(seed=11)`` and all
#: of ``GEOMETRIES``, recorded from the per-cell, per-bit code.
PINNED_PACKED_SHA256 = (
    "106fb21454d158b3c22ce3b5eae3865dc0dc5b9342da6fdcf64db8b263cda864")


def _parity_frames(seed=2024):
    """Seeded frames over every shape, channel layout and dtype.

    Low-range uint8 frames make equal block means common, so the
    strict comparisons see exact ties.
    """
    rng = np.random.default_rng(seed)
    for height, width in SHAPES:
        for channels in CHANNELS:
            shape = ((height, width) if channels is None
                     else (height, width, channels))
            yield rng.integers(0, 256, shape, dtype=np.uint8)
            yield rng.integers(0, 2, shape, dtype=np.uint8)
            yield rng.random(shape) * 255.0
            yield rng.random(shape).astype(np.float32)


class TestVectorisedParity:
    """Fingerprints are bit-identical to the per-cell, per-bit code."""

    @pytest.mark.parametrize("hash_size,block_grid", GEOMETRIES)
    def test_fingerprint_bits_match_reference(self, hash_size,
                                              block_grid):
        for frame in _parity_frames():
            fp = fingerprint(frame, hash_size=hash_size,
                             block_grid=block_grid)
            assert (fp.dhash, fp.blocks) == _reference_fingerprint(
                frame, hash_size, block_grid), frame.shape
            assert fp.dhash == dhash_bits(frame, hash_size=hash_size)
            assert fp.blocks == block_signature_bits(
                frame, block_grid=block_grid)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (5, 6),
                                           (9, 10), (7, 7)])
    def test_block_means_match_reference(self, rows, cols):
        for frame in _parity_frames(seed=5):
            plane = luma(frame)
            assert np.array_equal(
                block_means(plane, rows, cols),
                _reference_block_means(plane, rows, cols)), plane.shape

    def test_packed_fingerprints_are_pinned(self):
        digest = hashlib.sha256()
        for hash_size, block_grid in GEOMETRIES:
            for frame in _parity_frames(seed=11):
                fp = fingerprint(frame, hash_size=hash_size,
                                 block_grid=block_grid)
                digest.update(f"{fp.packed:x};".encode())
        assert digest.hexdigest() == PINNED_PACKED_SHA256


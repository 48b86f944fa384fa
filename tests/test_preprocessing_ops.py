"""Tests for repro.preprocessing.ops — the real image ops."""

import tracemalloc

import numpy as np
import pytest

from repro.preprocessing import ops
from repro.preprocessing.ops import (
    center_crop,
    ground_plane_homography,
    normalize,
    resize_bilinear,
    solve_homography,
    to_chw,
    warp_perspective,
)


class TestResize:
    def test_output_shape(self, rng):
        img = rng.random((40, 60, 3)).astype(np.float32)
        assert resize_bilinear(img, 20, 30).shape == (20, 30, 3)

    def test_identity_resize_preserves_values(self, rng):
        img = rng.random((16, 16, 3)).astype(np.float32)
        np.testing.assert_allclose(resize_bilinear(img, 16, 16), img,
                                   atol=1e-5)

    def test_constant_image_stays_constant(self):
        img = np.full((10, 10, 3), 42.0, np.float32)
        out = resize_bilinear(img, 23, 7)
        np.testing.assert_allclose(out, 42.0, rtol=1e-6)

    def test_upscale_preserves_gradient_direction(self):
        ramp = np.tile(np.arange(8, dtype=np.float32)[None, :, None],
                       (8, 1, 3))
        out = resize_bilinear(ramp, 16, 16)
        assert (np.diff(out[8, :, 0]) >= -1e-5).all()

    def test_mean_preserved_downscale(self, rng):
        img = rng.random((64, 64, 3)).astype(np.float32)
        out = resize_bilinear(img, 32, 32)
        assert out.mean() == pytest.approx(img.mean(), abs=0.02)

    def test_uint8_input_accepted(self, rng):
        img = (rng.random((8, 8, 3)) * 255).astype(np.uint8)
        out = resize_bilinear(img, 4, 4)
        assert out.dtype == np.float32

    def test_invalid_inputs_rejected(self, rng):
        with pytest.raises(ValueError):
            resize_bilinear(rng.random((8, 8)), 4, 4)
        with pytest.raises(ValueError):
            resize_bilinear(rng.random((8, 8, 3)), 0, 4)


class TestCenterCrop:
    def test_crop_is_centered(self):
        img = np.zeros((10, 10, 1), np.float32)
        img[4:6, 4:6] = 1.0
        out = center_crop(img, 2, 2)
        np.testing.assert_array_equal(out, np.ones((2, 2, 1)))

    def test_full_size_crop_is_identity(self, rng):
        img = rng.random((6, 8, 3))
        np.testing.assert_array_equal(center_crop(img, 6, 8), img)

    def test_oversized_crop_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            center_crop(rng.random((4, 4, 3)), 5, 4)


class TestNormalize:
    def test_uint8_scaling_and_standardization(self):
        img = np.full((2, 2, 3), 255, np.uint8)
        mean = np.array([0.5, 0.5, 0.5])
        std = np.array([0.25, 0.5, 1.0])
        out = normalize(img, mean, std)
        np.testing.assert_allclose(out[0, 0], [2.0, 1.0, 0.5], rtol=1e-6)

    def test_mean_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            normalize(rng.random((2, 2, 3)), np.zeros(2), np.ones(2))

    def test_nonpositive_std_rejected(self, rng):
        with pytest.raises(ValueError, match="std"):
            normalize(rng.random((2, 2, 3)), np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("name, mean, std", [
        ("std", [0.0, 0.0, 0.0], [1.0, float("nan"), 1.0]),
        ("std", [0.0, 0.0, 0.0], [1.0, float("inf"), 1.0]),
        ("mean", [0.0, float("nan"), 0.0], [1.0, 1.0, 1.0]),
    ])
    def test_non_finite_stats_rejected(self, rng, name, mean, std):
        # NaN passed the old `std <= 0` check and came back as NaN
        # pixels.
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            normalize(rng.random((2, 2, 3)), np.array(mean),
                      np.array(std))

    def test_output_is_float32(self, rng):
        out = normalize((rng.random((2, 2, 3)) * 255).astype(np.uint8),
                        np.zeros(3), np.ones(3))
        assert out.dtype == np.float32


class TestToCHW:
    def test_layout_transpose(self, rng):
        img = rng.random((4, 6, 3)).astype(np.float32)
        out = to_chw(img)
        assert out.shape == (3, 4, 6)
        np.testing.assert_array_equal(out[1], img[..., 1])

    def test_contiguous_output(self, rng):
        assert to_chw(rng.random((4, 6, 3))).flags["C_CONTIGUOUS"]

    def test_wrong_rank_rejected(self, rng):
        with pytest.raises(ValueError):
            to_chw(rng.random((4, 6)))


class TestHomography:
    def test_identity_from_identical_points(self):
        pts = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], float)
        h = solve_homography(pts, pts)
        np.testing.assert_allclose(h, np.eye(3), atol=1e-9)

    def test_translation(self):
        src = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], float)
        dst = src + [5, 7]
        h = solve_homography(src, dst)
        mapped = h @ np.array([3.0, 4.0, 1.0])
        mapped /= mapped[2]
        np.testing.assert_allclose(mapped[:2], [8.0, 11.0], atol=1e-9)

    def test_maps_all_four_corners(self):
        src = np.array([[0, 0], [100, 0], [100, 50], [0, 50]], float)
        dst = np.array([[10, 5], [90, 0], [95, 60], [0, 55]], float)
        h = solve_homography(src, dst)
        for s, d in zip(src, dst):
            mapped = h @ np.array([*s, 1.0])
            np.testing.assert_allclose(mapped[:2] / mapped[2], d,
                                       atol=1e-6)

    def test_collinear_points_rejected(self):
        src = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], float)
        dst = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        with pytest.raises(ValueError, match="degenerate"):
            solve_homography(src, dst)

    def test_wrong_point_count_rejected(self):
        with pytest.raises(ValueError, match="four"):
            solve_homography(np.zeros((3, 2)), np.zeros((3, 2)))


class TestWarpPerspective:
    def test_identity_warp(self, rng):
        img = rng.random((12, 16, 3)).astype(np.float32)
        out = warp_perspective(img, np.eye(3), 12, 16)
        np.testing.assert_allclose(out, img, atol=1e-4)

    def test_translation_moves_content(self):
        img = np.zeros((10, 10, 1), np.float32)
        img[2, 2] = 1.0
        # Shift content +3 in x.
        h = np.eye(3)
        h[0, 2] = 3.0
        out = warp_perspective(img, h, 10, 10)
        assert out[2, 5, 0] == pytest.approx(1.0, abs=1e-5)

    def test_out_of_bounds_zeroed(self):
        img = np.ones((4, 4, 1), np.float32)
        h = np.eye(3)
        h[0, 2] = 100.0  # content pushed far right; sampling goes left
        out = warp_perspective(img, h, 4, 4)
        assert out.max() == 0.0

    def test_rectifies_converging_rows(self):
        # The CRSA use case: a frame with perspective-converged rows
        # becomes parallel after the ground-plane correction.
        from repro.data.synthetic import synth_crsa_frame

        frame = synth_crsa_frame(400, 200, grid_spacing=100)
        hom = ground_plane_homography(400, 200)
        out = warp_perspective(frame, hom, 200, 400)
        # After rectification, a marked row's column should be ~constant
        # between the upper and lower halves of the ground region.
        greenish = (np.abs(out[..., 1] - 110) < 25) & \
                   (np.abs(out[..., 0] - 30) < 25)
        rows = np.where(greenish.any(axis=1))[0]
        assert len(rows) > 20

    def test_bad_homography_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            warp_perspective(rng.random((4, 4, 1)), np.eye(2), 4, 4)

    def test_invalid_output_size_rejected(self, rng):
        with pytest.raises(ValueError):
            warp_perspective(rng.random((4, 4, 1)), np.eye(3), 0, 4)


class TestGroundPlaneHomography:
    def test_bottom_corners_fixed(self):
        h = ground_plane_homography(100, 50)
        for corner in ([0.0, 49.0], [99.0, 49.0]):
            mapped = h @ np.array([*corner, 1.0])
            np.testing.assert_allclose(mapped[:2] / mapped[2], corner,
                                       atol=1e-6)

    def test_horizon_stretches_to_top_corners(self):
        h = ground_plane_homography(100, 50, horizon_fraction=0.4,
                                    top_squeeze=0.5)
        mapped = h @ np.array([25.0, 20.0, 1.0])  # left horizon point
        np.testing.assert_allclose(mapped[:2] / mapped[2], [0.0, 0.0],
                                   atol=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ground_plane_homography(100, 50, horizon_fraction=0.0)
        with pytest.raises(ValueError):
            ground_plane_homography(100, 50, top_squeeze=0.0)


# ----------------------------------------------------------------------
# Sampling plans against the direct bilinear gather they replace
# ----------------------------------------------------------------------

def _gather_reference(image, xs, ys):
    """Bilinear sampling by four 2-D fancy-index gathers, edge-clamped."""
    h, w = image.shape[:2]
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)[..., None]
    fy = np.clip(ys - y0, 0.0, 1.0)[..., None]
    img = image.astype(np.float32)
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bottom = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bottom * fy


def _resize_reference(image, out_h, out_w):
    h, w = image.shape[:2]
    ys = (np.arange(out_h, dtype=np.float32) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float32) + 0.5) * (w / out_w) - 0.5
    grid_x, grid_y = np.meshgrid(xs, ys)
    return _gather_reference(image, grid_x, grid_y)


def _warp_reference(image, homography, out_h, out_w):
    grid_x, grid_y = np.meshgrid(np.arange(out_w, dtype=np.float64),
                                 np.arange(out_h, dtype=np.float64))
    coords = np.stack([grid_x, grid_y, np.ones_like(grid_x)]).reshape(3, -1)
    mapped = np.linalg.inv(homography) @ coords
    src_x = (mapped[0] / mapped[2]).reshape(out_h, out_w)
    src_y = (mapped[1] / mapped[2]).reshape(out_h, out_w)
    h, w = image.shape[:2]
    inside = ((src_x >= -0.5) & (src_x <= w - 0.5)
              & (src_y >= -0.5) & (src_y <= h - 0.5))
    return _gather_reference(image, src_x, src_y) * inside[..., None]


def _frame(rng, h, w, c=3):
    """A noise frame with no zero pixel, so a zero output means masked."""
    return rng.integers(1, 256, size=(h, w, c), dtype=np.uint8)


class TestSamplingPlans:
    @pytest.mark.parametrize("src, out", [
        ((20, 30), (47, 61)),   # upscale
        ((64, 48), (17, 11)),   # downscale
        ((1, 9), (4, 20)),      # one-pixel-high source
        ((13, 1), (5, 3)),      # one-pixel-wide source
        ((1, 1), (3, 3)),
    ])
    def test_resize_matches_gather(self, rng, src, out):
        img = _frame(rng, *src)
        got = resize_bilinear(img, *out)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, _resize_reference(img, *out),
                                   atol=1e-3)

    @pytest.mark.parametrize("src, out", [
        ((60, 80), (60, 80)),
        ((30, 40), (75, 90)),   # upscale
        ((90, 120), (20, 25)),  # downscale
    ])
    def test_ground_plane_warp_matches_gather(self, rng, src, out):
        img = _frame(rng, *src)
        hom = ground_plane_homography(src[1], src[0])
        got = warp_perspective(img, hom, *out)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, _warp_reference(img, hom, *out),
                                   atol=1e-3)

    def test_one_pixel_edge_clamps(self, rng):
        # Sub-pixel shift: the last row/column sample past the edge and
        # must clamp to the border pixels.
        img = _frame(rng, 12, 16)
        hom = np.eye(3)
        hom[0, 2], hom[1, 2] = -0.4, -0.3
        got = warp_perspective(img, hom, 12, 16)
        np.testing.assert_allclose(got, _warp_reference(img, hom, 12, 16),
                                   atol=1e-3)
        assert got[-1, -1].any()

    def test_out_of_frame_rows_are_zero(self, rng):
        img = _frame(rng, 20, 24)
        hom = np.eye(3)
        hom[1, 2] = 8.0  # content moves down; top rows sample above it
        got = warp_perspective(img, hom, 20, 24)
        np.testing.assert_allclose(got, _warp_reference(img, hom, 20, 24),
                                   atol=1e-3)
        assert not got[:7].any()
        assert got[9:].all()

    def test_distinct_homographies_get_distinct_plans(self, rng):
        img = _frame(rng, 40, 50)
        first = ground_plane_homography(50, 40)
        second = ground_plane_homography(50, 40, horizon_fraction=0.5)
        a = warp_perspective(img, first, 40, 50)
        b = warp_perspective(img, second, 40, 50)
        assert not np.allclose(a, b)
        np.testing.assert_allclose(b, _warp_reference(img, second, 40, 50),
                                   atol=1e-3)
        np.testing.assert_allclose(warp_perspective(img, first, 40, 50), a)

    def test_distinct_source_shapes_get_distinct_plans(self, rng):
        hom = ground_plane_homography(50, 40)
        small, large = _frame(rng, 40, 50), _frame(rng, 44, 56)
        for img in (small, large, small):
            np.testing.assert_allclose(
                warp_perspective(img, hom, 40, 50),
                _warp_reference(img, hom, 40, 50), atol=1e-3)
            np.testing.assert_allclose(
                resize_bilinear(img, 16, 16),
                _resize_reference(img, 16, 16), atol=1e-3)


class TestBandedPlanBuild:
    """Plans are built a band of output pixels at a time."""

    @staticmethod
    def _build(monkeypatch, img, band):
        monkeypatch.setattr(ops, "_PLAN_BAND", band)
        monkeypatch.setattr(ops, "_PLANS", ops._GridCache())
        h, w = img.shape[:2]
        warp_perspective(img, ground_plane_homography(w, h), h + 3, w - 5)
        resize_bilinear(img, 2 * h + 1, w // 2 + 1)
        return list(ops._PLANS._entries.values())

    def test_band_size_never_moves_a_bit(self, rng, monkeypatch):
        # An odd band of 37 pixels ends mid-row in every output.
        img = _frame(rng, 60, 80)
        whole = self._build(monkeypatch, img, ops._PLAN_BAND)
        banded = self._build(monkeypatch, img, 37)
        assert len(whole) == len(banded) == 2
        for plan, other in zip(whole, banded):
            for a, b in zip(plan, other, strict=True):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    def test_first_warp_peaks_near_the_plan_size(self, monkeypatch):
        # Full-frame float64 coordinate arrays used to peak at 6.3x the
        # plan; band by band the peak is the plan, the output and the
        # blend's temporaries.
        monkeypatch.setattr(ops, "_PLANS", ops._GridCache())
        h, w = 540, 960
        img = np.random.default_rng(0).integers(0, 256, (h, w, 3),
                                                dtype=np.uint8)
        hom = ground_plane_homography(w, h)
        tracemalloc.start()
        try:
            warp_perspective(img, hom, h, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [plan] = ops._PLANS._entries.values()
        assert peak < 2.5 * sum(a.nbytes for a in plan)

"""Vectorized NumPy implementations of every preprocessing op.

All ops take ``(H, W, C)`` float or uint8 arrays and are loop-free over
pixels (gather-based bilinear sampling), per the HPC guides.  The
perspective pathway is real: :func:`solve_homography` solves the 8-DOF
direct linear transform from four point correspondences and
:func:`warp_perspective` inverse-maps through it with bilinear sampling —
the op the CRSA ground-vehicle feed needs (Section 3.2).
"""

from __future__ import annotations

import numpy as np

from repro.bounds import within

Array = np.ndarray


class _GridCache:
    """Bounded FIFO cache for per-geometry sampling plans.

    A preprocessing pipeline resizes (or warps) a stream of same-shaped
    frames, and where each output pixel samples the source depends only
    on the geometry, so the plan is cached keyed by it.  Entries are
    marked read-only — downstream math never writes into them.  The
    bound keeps a long multi-resolution sweep from pinning every
    geometry it ever saw.
    """

    def __init__(self, maxsize: int = 8):
        self.maxsize = maxsize
        self._entries: dict[tuple, tuple[Array, ...]] = {}

    def get(self, key: tuple, build) -> tuple[Array, ...]:
        grids = self._entries.get(key)
        if grids is None:
            grids = build()
            for g in grids:
                g.setflags(write=False)
            if len(self._entries) >= self.maxsize:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = grids
        return grids


_PLANS = _GridCache()


def _as_float(image: Array) -> Array:
    if image.dtype == np.uint8:
        return image.astype(np.float32)
    return image


#: Output pixels per band of a sampling-plan build: the build's float64
#: scratch is a few arrays of this length, not a few full frames.
_PLAN_BAND = 1 << 16

#: Arrays per gather stage of a plan: four taps, then their weights.
_STAGE = 8


def _sampling_plan(out_h: int, out_w: int, h: int, w: int, sample,
                   top: int = 0, left: int = 0) -> tuple[Array, ...]:
    """Bilinear taps for sampling an ``(h, w)`` frame, per output pixel.

    The output is the ``out_h × out_w`` window at ``(top, left)`` of the
    sampled grid.  ``sample(rows, cols)`` maps a band of output pixels,
    given by their grid row and column indices, to the source
    coordinates ``(xs, ys)`` to sample there and a boolean ``inside``
    mask (or ``None``) that zeroes the weights of samples that must
    read as black.  The plan is four flat ``int32`` pixel indices
    (``y·w + x``) followed by their four ``float32`` corner weights,
    filled one band of ``_PLAN_BAND`` output pixels at a time; every
    step is elementwise, so neither the band nor the window changes a
    pixel's value.  Out-of-bounds samples clamp to the edge.
    """
    size = out_h * out_w
    plan = (*(np.empty(size, np.int32) for _ in range(4)),
            *(np.empty(size, np.float32) for _ in range(4)))
    for start in range(0, size, _PLAN_BAND):
        band = slice(start, min(start + _PLAN_BAND, size))
        rows, cols = np.divmod(np.arange(band.start, band.stop), out_w)
        xs, ys, inside = sample(rows + top, cols + left)
        # Clipping to [-1, w] first keeps the int cast defined for
        # far-off (even infinite) coordinates; the clamped taps are
        # unchanged.
        xs = np.clip(xs, -1, w)
        ys = np.clip(ys, -1, h)
        x0 = np.clip(np.floor(xs).astype(np.int32), 0, w - 1)
        y0 = np.clip(np.floor(ys).astype(np.int32), 0, h - 1)
        x1 = np.minimum(x0 + 1, w - 1)
        y1 = np.minimum(y0 + 1, h - 1)
        fx = np.clip(xs - x0, 0.0, 1.0)
        fy = np.clip(ys - y0, 0.0, 1.0)
        row0, row1 = y0 * w, y1 * w
        taps = (row0 + x0, row0 + x1, row1 + x0, row1 + x1)
        weights = [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy,
                   fx * fy]
        if inside is not None:
            weights = [wt * inside for wt in weights]
        for dest, values in zip(plan, (*taps, *weights)):
            dest[band] = values
    return plan


def apply_plan(pixels: Array, plan: tuple[Array, ...]) -> Array:
    """Run a plan's gather stages over ``(pixels, C)`` rows, in order.

    Each stage is ``Σₖ pixels[idxₖ] · wₖ``, the planned bilinear blend,
    and its float32 ``(taps, C)`` result is the next stage's pixels.
    """
    for s in range(0, len(plan), _STAGE):
        idx, wts = plan[s:s + 4], plan[s + 4:s + _STAGE]
        out = pixels.take(idx[0], axis=0) * wts[0][:, None]
        for k in range(1, 4):
            out += pixels.take(idx[k], axis=0) * wts[k][:, None]
        pixels = out.astype(np.float32, copy=False)
    return pixels


def _resize_sample(h: int, w: int, out_h: int, out_w: int):
    """The half-pixel-centers source coordinates of an ``(out_h,
    out_w)`` bilinear resize of an ``(h, w)`` frame."""
    scale_y, scale_x = h / out_h, w / out_w
    ys = (np.arange(out_h, dtype=np.float32) + 0.5) * scale_y - 0.5
    xs = (np.arange(out_w, dtype=np.float32) + 0.5) * scale_x - 0.5
    return lambda rows, cols: (xs[cols], ys[rows], None)


def _warp_sample(homography: Array, h: int, w: int):
    """Source coordinates of a warp of an ``(h, w)`` frame through
    ``homography`` (source → destination), with the inside mask."""
    inverse = np.linalg.inv(homography)

    def sample(rows: Array, cols: Array) -> tuple[Array, ...]:
        coords = np.stack([cols, rows, np.ones_like(cols)]).astype(
            np.float64)
        mapped = inverse @ coords
        with np.errstate(divide="ignore", invalid="ignore"):
            src_x = np.nan_to_num(mapped[0] / mapped[2], nan=-1.0)
            src_y = np.nan_to_num(mapped[1] / mapped[2], nan=-1.0)
        # Samples falling outside the source frame read as zero.
        inside = ((src_x >= -0.5) & (src_x <= w - 0.5)
                  & (src_y >= -0.5) & (src_y <= h - 0.5))
        return src_x, src_y, inside

    return sample


def _check_out_size(out_h: int, out_w: int) -> None:
    within("out_h", out_h, "[1, inf)")
    within("out_w", out_w, "[1, inf)")


def resize_bilinear(image: Array, out_h: int, out_w: int) -> Array:
    """Bilinear resize of ``(H, W, C)`` to ``(out_h, out_w, C)`` float32.

    Uses the half-pixel-centers convention (matches torchvision's
    ``antialias=False`` bilinear for upscaling).
    """
    if image.ndim != 3:
        raise ValueError(f"expected (H, W, C), got shape {image.shape}")
    _check_out_size(out_h, out_w)
    h, w = image.shape[:2]
    plan = _PLANS.get(
        ("resize", h, w, out_h, out_w),
        lambda: _sampling_plan(out_h, out_w, h, w,
                               _resize_sample(h, w, out_h, out_w)))
    return apply_plan(image.reshape(h * w, -1), plan).reshape(
        out_h, out_w, -1)


def cropped_resize_plan(h: int, w: int, resized: tuple[int, int],
                        crop: int, homography: Array | None = None,
                        ) -> tuple[Array, ...]:
    """The plan of ``center_crop(resize(image), crop, crop)``, cached.

    ``resized`` is the ``(out_h, out_w)`` of the resize, and only the
    ``crop × crop`` output pixels the crop keeps are planned.  With a
    ``homography`` the image is first ``warp_perspective``-ed to its
    own ``(h, w)``, and the plan's first stage warps only the window of
    warped pixels that the resize taps read; its second stage is the
    resize, indexed into that window.  Every pixel is bit-identical to
    running the ops in order.
    """
    out_h, out_w = resized
    if crop > out_h or crop > out_w:
        raise ValueError(
            f"crop {crop}x{crop} exceeds image {out_h}x{out_w}")
    key = ("cropped", h, w, out_h, out_w, crop,
           None if homography is None else homography.tobytes())

    def build() -> tuple[Array, ...]:
        taps = _sampling_plan(crop, crop, h, w,
                              _resize_sample(h, w, out_h, out_w),
                              (out_h - crop) // 2, (out_w - crop) // 2)
        if homography is None:
            return taps
        # The warped rows and columns the resize reads: tap 0 is each
        # output pixel's (y0, x0) corner and tap 3 its (y1, x1).
        rows0, cols0 = np.divmod(taps[0], w)
        rows1, cols1 = np.divmod(taps[3], w)
        top, left = int(rows0.min()), int(cols0.min())
        win_h = int(rows1.max()) - top + 1
        win_w = int(cols1.max()) - left + 1
        warp = _sampling_plan(win_h, win_w, h, w,
                              _warp_sample(homography, h, w), top, left)
        local = tuple((t // w - top) * win_w + (t % w - left)
                      for t in taps[:4])
        return (*warp, *local, *taps[4:])

    return _PLANS.get(key, build)


def center_crop(image: Array, crop_h: int, crop_w: int) -> Array:
    """Center crop; the image must be at least the crop size."""
    h, w = image.shape[:2]
    if crop_h > h or crop_w > w:
        raise ValueError(
            f"crop {crop_h}x{crop_w} exceeds image {h}x{w}")
    top = (h - crop_h) // 2
    left = (w - crop_w) // 2
    return image[top:top + crop_h, left:left + crop_w]


def normalize(image: Array, mean: Array, std: Array) -> Array:
    """Scale uint8 [0,255] to [0,1] then per-channel standardize."""
    mean = np.asarray(mean, dtype=np.float32)
    std = np.asarray(std, dtype=np.float32)
    for value in std.ravel():
        within("std", float(value), "(0, inf)")
    for value in mean.ravel():
        within("mean", float(value), "(-inf, inf)")
    c = image.shape[-1]
    if mean.shape != (c,) or std.shape != (c,):
        raise ValueError(
            f"mean/std must have shape ({c},), got {mean.shape}/{std.shape}")
    scaled = _as_float(image) / 255.0
    return ((scaled - mean) / std).astype(np.float32)


def to_chw(image: Array) -> Array:
    """``(H, W, C)`` → ``(C, H, W)`` (the model input layout)."""
    if image.ndim != 3:
        raise ValueError(f"expected (H, W, C), got shape {image.shape}")
    return np.ascontiguousarray(image.transpose(2, 0, 1))


# ----------------------------------------------------------------------
# Perspective transform (the CRSA dataset-specific op)
# ----------------------------------------------------------------------

def solve_homography(src: Array, dst: Array) -> Array:
    """3×3 homography mapping 4 source points to 4 destination points.

    Direct linear transform: stack the 8 linear constraints with h33 = 1
    and solve the 8×8 system.  Raises for degenerate (collinear) inputs.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != (4, 2) or dst.shape != (4, 2):
        raise ValueError("need exactly four (x, y) point pairs")
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(src, dst)):
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y]
        b[2 * i] = u
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y]
        b[2 * i + 1] = v
    try:
        h = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"degenerate point configuration: {exc}") from exc
    return np.append(h, 1.0).reshape(3, 3)


def warp_perspective(image: Array, homography: Array,
                     out_h: int, out_w: int) -> Array:
    """Warp ``image`` through ``homography`` (dst→src inverse mapping).

    ``homography`` maps *source* to *destination* coordinates (the
    :func:`solve_homography` convention); sampling inverts it.
    """
    homography = np.asarray(homography, dtype=np.float64)
    if homography.shape != (3, 3):
        raise ValueError("homography must be 3x3")
    _check_out_size(out_h, out_w)
    h, w = image.shape[:2]
    plan = _PLANS.get(
        ("warp", h, w, out_h, out_w, homography.tobytes()),
        lambda: _sampling_plan(out_h, out_w, h, w,
                               _warp_sample(homography, h, w)))
    return apply_plan(image.reshape(h * w, -1), plan).reshape(
        out_h, out_w, -1)


def ground_plane_homography(width: int, height: int,
                            horizon_fraction: float = 0.35,
                            top_squeeze: float = 0.5) -> Array:
    """The rectifying homography for a forward-tilted vehicle camera.

    Maps the trapezoidal ground region (rows converging toward the
    vanishing point, as produced by
    :func:`repro.data.synthetic.synth_crsa_frame`) to a rectangle —
    the CRSA dataset-specific correction.  ``top_squeeze`` is the
    fraction of the frame width the ground plane spans at the horizon
    row (``horizon_fraction`` from the top).
    """
    within("horizon_fraction", horizon_fraction, "(0, 1)")
    within("top_squeeze", top_squeeze, "(0, 1]")
    cx = width / 2.0
    y_top = height * horizon_fraction
    half_top = width * top_squeeze / 2.0
    src = np.array([
        [cx - half_top, y_top], [cx + half_top, y_top],
        [width - 1.0, height - 1.0], [0.0, height - 1.0],
    ])
    dst = np.array([
        [0.0, 0.0], [width - 1.0, 0.0],
        [width - 1.0, height - 1.0], [0.0, height - 1.0],
    ])
    return solve_homography(src, dst)

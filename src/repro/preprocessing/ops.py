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


def _sampling_plan(out_h: int, out_w: int, h: int, w: int,
                   sample) -> tuple[Array, ...]:
    """Bilinear taps for sampling an ``(h, w)`` frame, per output pixel.

    ``sample(rows, cols)`` maps a band of output pixels, given by their
    row and column indices, to the source coordinates ``(xs, ys)`` to
    sample there and a boolean ``inside`` mask (or ``None``) that
    zeroes the weights of samples that must read as black.  The plan
    is four flat ``int32`` pixel indices (``y·w + x``) followed by
    their four ``float32`` corner weights, filled one band of
    ``_PLAN_BAND`` output pixels at a time; every step is elementwise,
    so the band size never changes a value.  Out-of-bounds samples
    clamp to the edge.
    """
    size = out_h * out_w
    plan = (*(np.empty(size, np.int32) for _ in range(4)),
            *(np.empty(size, np.float32) for _ in range(4)))
    for start in range(0, size, _PLAN_BAND):
        band = slice(start, min(start + _PLAN_BAND, size))
        rows, cols = np.divmod(np.arange(band.start, band.stop), out_w)
        xs, ys, inside = sample(rows, cols)
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


def _apply_plan(image: Array, plan: tuple[Array, ...],
                out_h: int, out_w: int) -> Array:
    """``Σₖ pixels[idxₖ] · wₖ``: the planned bilinear blend, float32."""
    h, w = image.shape[:2]
    flat = image.reshape(h * w, -1)
    out = flat.take(plan[0], axis=0) * plan[4][:, None]
    for k in range(1, 4):
        out += flat.take(plan[k], axis=0) * plan[4 + k][:, None]
    return out.astype(np.float32, copy=False).reshape(out_h, out_w, -1)


def resize_bilinear(image: Array, out_h: int, out_w: int) -> Array:
    """Bilinear resize of ``(H, W, C)`` to ``(out_h, out_w, C)`` float32.

    Uses the half-pixel-centers convention (matches torchvision's
    ``antialias=False`` bilinear for upscaling).
    """
    if image.ndim != 3:
        raise ValueError(f"expected (H, W, C), got shape {image.shape}")
    if min(out_h, out_w) < 1:
        raise ValueError("output size must be positive")
    h, w = image.shape[:2]

    def build() -> tuple[Array, ...]:
        scale_y, scale_x = h / out_h, w / out_w
        ys = (np.arange(out_h, dtype=np.float32) + 0.5) * scale_y - 0.5
        xs = (np.arange(out_w, dtype=np.float32) + 0.5) * scale_x - 0.5
        return _sampling_plan(out_h, out_w, h, w,
                              lambda rows, cols: (xs[cols], ys[rows], None))

    plan = _PLANS.get(("resize", h, w, out_h, out_w), build)
    return _apply_plan(image, plan, out_h, out_w)


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
    if np.any(std <= 0):
        raise ValueError("std must be positive")
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
    if min(out_h, out_w) < 1:
        raise ValueError("output size must be positive")
    h, w = image.shape[:2]

    def build() -> tuple[Array, ...]:
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

        return _sampling_plan(out_h, out_w, h, w, sample)

    plan = _PLANS.get(
        ("warp", h, w, out_h, out_w, homography.tobytes()), build)
    return _apply_plan(image, plan, out_h, out_w)


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
    if not 0.0 < horizon_fraction < 1.0:
        raise ValueError("horizon_fraction must be in (0, 1)")
    if not 0.0 < top_squeeze <= 1.0:
        raise ValueError("top_squeeze must be in (0, 1]")
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

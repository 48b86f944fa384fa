"""Orthomosaic stitching and tiling for the offline drone workflow.

Fig. 3a: "drone images are first stitched using OpenDroneMap, followed by
tiling and offline processing via the HARVEST inference pipeline,
ultimately generating fine-grained heatmaps".  This module provides a
real (if simplified) version of that front end:

* :func:`plan_survey` — lays out an overlapping flight grid over a field;
* :func:`stitch_mosaic` — feather-blends overlapping captures onto a
  canvas at their known offsets (translation-only orthomosaic — drone
  surveys fly nadir at fixed altitude, so translation is the dominant
  alignment term);
* :func:`tile_mosaic` — cuts the mosaic into model-input tiles;
* :class:`StitchCostModel` — prices full-scale ODM runs (which are hours
  of CPU the offline scenario budgets for).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.bounds import within


@dataclasses.dataclass(frozen=True)
class TilePlacement:
    """One capture placed on the mosaic canvas."""

    image: np.ndarray  # (H, W, C)
    x: int             # left edge on the canvas
    y: int             # top edge on the canvas

    def __post_init__(self) -> None:
        if self.image.ndim != 3:
            raise ValueError("placement image must be (H, W, C)")
        within("x", self.x, "[0, inf)")
        within("y", self.y, "[0, inf)")


def plan_survey(field_w: int, field_h: int, capture_w: int, capture_h: int,
                overlap: float = 0.3) -> list[tuple[int, int]]:
    """Grid of capture origins covering a field with the given overlap.

    Drone surveys fly with 60-80% forward/side overlap in practice; the
    default is conservative so tests stay small.  The last row/column is
    clamped to the field edge so coverage is complete.
    """
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    if capture_w > field_w or capture_h > field_h:
        raise ValueError("capture larger than the field")
    step_x = max(1, int(capture_w * (1.0 - overlap)))
    step_y = max(1, int(capture_h * (1.0 - overlap)))
    xs = list(range(0, max(field_w - capture_w, 0) + 1, step_x))
    ys = list(range(0, max(field_h - capture_h, 0) + 1, step_y))
    if xs[-1] != field_w - capture_w:
        xs.append(field_w - capture_w)
    if ys[-1] != field_h - capture_h:
        ys.append(field_h - capture_h)
    return [(x, y) for y in ys for x in xs]


def stitch_mosaic(placements: list[TilePlacement],
                  canvas_w: int, canvas_h: int) -> np.ndarray:
    """Feather-blend placements onto a canvas; returns (H, W, C) uint8.

    Each capture contributes with a weight that tapers toward its edges
    (triangular feathering), so overlapping seams blend smoothly instead
    of leaving hard steps.
    """
    if not placements:
        raise ValueError("need at least one placement")
    channels = placements[0].image.shape[2]
    acc = np.zeros((canvas_h, canvas_w, channels), dtype=np.float64)
    weight = np.zeros((canvas_h, canvas_w, 1), dtype=np.float64)
    for placement in placements:
        img = placement.image.astype(np.float64)
        h, w = img.shape[:2]
        if placement.y + h > canvas_h or placement.x + w > canvas_w:
            raise ValueError(
                f"placement at ({placement.x}, {placement.y}) of size "
                f"{w}x{h} falls off the {canvas_w}x{canvas_h} canvas")
        wy = 1.0 - np.abs(np.linspace(-1, 1, h))[:, None]
        wx = 1.0 - np.abs(np.linspace(-1, 1, w))[None, :]
        fw = np.maximum(wy * wx, 1e-4)[..., None]
        ys = slice(placement.y, placement.y + h)
        xs = slice(placement.x, placement.x + w)
        acc[ys, xs] += img * fw
        weight[ys, xs] += fw
    covered = weight[..., 0] > 0
    out = np.zeros_like(acc)
    out[covered] = acc[covered] / weight[covered]
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def tile_mosaic(mosaic: np.ndarray, tile_size: int,
                drop_partial: bool = False) -> list[tuple[int, int, np.ndarray]]:
    """Cut a mosaic into (x, y, tile) model inputs.

    Edge tiles are padded to the full tile size unless ``drop_partial``.
    """
    if mosaic.ndim != 3:
        raise ValueError("mosaic must be (H, W, C)")
    if tile_size < 1:
        raise ValueError("tile_size must be positive")
    h, w = mosaic.shape[:2]
    tiles = []
    for y in range(0, h, tile_size):
        for x in range(0, w, tile_size):
            tile = mosaic[y:y + tile_size, x:x + tile_size]
            th, tw = tile.shape[:2]
            if (th, tw) != (tile_size, tile_size):
                if drop_partial:
                    continue
                padded = np.zeros((tile_size, tile_size, mosaic.shape[2]),
                                  dtype=mosaic.dtype)
                padded[:th, :tw] = tile
                tile = padded
            tiles.append((x, y, tile))
    return tiles


@dataclasses.dataclass(frozen=True)
class StitchCostModel:
    """Prices a full-resolution ODM-style stitch on CPU.

    OpenDroneMap runs feature extraction + matching + blending; observed
    full-pipeline rates are on the order of single-digit megapixels per
    second per core.  The offline scenario uses this to budget the
    stitching stage ahead of inference.
    """

    pixels_per_second_per_core: float = 3e6
    fixed_overhead_seconds: float = 30.0

    def __post_init__(self) -> None:
        within("pixels_per_second_per_core",
               self.pixels_per_second_per_core, "(0, inf)")
        within("fixed_overhead_seconds", self.fixed_overhead_seconds,
               "[0, inf)")

    def stitch_seconds(self, total_capture_pixels: float,
                       cpu_cores: int) -> float:
        """Wall time to stitch the given capture pixels on N cores."""
        if total_capture_pixels < 0:
            raise ValueError("pixel count must be non-negative")
        if cpu_cores < 1:
            raise ValueError("need at least one core")
        rate = self.pixels_per_second_per_core * cpu_cores
        return self.fixed_overhead_seconds + total_capture_pixels / rate

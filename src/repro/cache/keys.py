"""Perceptual frame fingerprinting for content-aware caching.

A fixed-mount field camera (the CRSA raw-capture scenario) produces
overwhelmingly redundant consecutive frames: the scene only changes when
a vehicle passes, lighting shifts, or the camera pans.  Exact byte
equality never fires on real sensors — thermal noise alone flips pixels
— so cache keys must be *perceptual*: two frames that look the same
must map to fingerprints within a small Hamming distance.

Two complementary signatures over the downsampled luma plane:

* **dHash** (difference hash): row-wise gradient signs over an
  ``hash_size x (hash_size + 1)`` block-mean grid.  Robust to global
  brightness/contrast shifts, sensitive to structural change.
* **block-mean signature**: each cell of a ``block_grid x block_grid``
  partition compared against the frame's mean luma.  Catches large
  uniform changes (a cloud shadow, a tarp over half the field) that
  leave local gradients untouched.

Both are bit strings; a :class:`FrameFingerprint` concatenates them and
matching is a single Hamming-distance test with a tunable threshold
(``threshold=0`` degenerates to exact fingerprint equality).  Everything
is plain NumPy and fully deterministic.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from repro.bounds import within


def luma(frame: np.ndarray) -> np.ndarray:
    """The luminance plane of a frame as float64 ``(H, W)``.

    Accepts grayscale ``(H, W)``, single-channel ``(H, W, 1)``, RGB
    ``(H, W, 3)`` (Rec. 601 weights), or any other channel count
    (plain channel mean).  RGB channels are weighted as they are: each
    multiply casts its channel to float64 element by element, exactly
    as a float64 copy of the frame would, without making one.
    """
    arr = np.asarray(frame)
    if arr.ndim not in (2, 3):
        raise ValueError(
            f"expected a (H, W) or (H, W, C) array, got shape "
            f"{arr.shape}")
    if arr.ndim == 3 and arr.shape[2] == 3:
        plane = np.multiply(arr[..., 0], 0.299, dtype=np.float64)
        plane += np.multiply(arr[..., 1], 0.587, dtype=np.float64)
        plane += np.multiply(arr[..., 2], 0.114, dtype=np.float64)
        return plane
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 2:
        return arr
    if arr.shape[2] == 1:
        return arr[..., 0]
    return arr.mean(axis=2)


def _edges(n: int, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of each of ``cells`` cells over ``n`` pixels.

    Degenerate cells (an axis shorter than the grid) borrow the nearest
    pixel so every cell stays defined and non-empty.
    """
    edges = np.linspace(0, n, cells + 1).round().astype(np.int64)
    start = np.minimum(edges[:-1], n - 1)
    return start, np.minimum(np.maximum(edges[1:], start + 1), n)


class _Plan(NamedTuple):
    """Where the cells of some grids lie in a row-subset integral table.

    The table's row 0 is zeros, and its row ``i + 1`` is the column
    prefix sums through plane row ``sums[i]``, prefixed along the row:
    the integral image's row ``sums[i] + 1``.  ``sums`` ascends and
    ends at the last plane row, so the table ends with the plane's
    total.  ``corners`` holds the flat indices of every cell's four
    corners in the table, grid after grid, in the order of the
    four-term sum, and ``areas`` the cell areas.  Every array is
    read-only: plans are shared.
    """

    sums: np.ndarray
    corners: np.ndarray
    areas: np.ndarray


@functools.lru_cache(maxsize=64)
def _plan(h: int, w: int, grids: tuple[tuple[int, int], ...]) -> _Plan:
    """The plan of ``(rows, cols)`` grids over an ``(h, w)`` plane."""
    y_edges = [_edges(h, rows) for rows, _ in grids]
    # Not np.unique: it imports numpy.ma, about 1 MB of resident memory.
    rows = np.array(sorted({int(y) for pair in y_edges for edges in pair
                            for y in edges}))
    corners, areas = [], []
    for (y0, y1), (_, cols) in zip(y_edges, grids):
        x0, x1 = _edges(w, cols)
        top = np.searchsorted(rows, y0)[:, None] * (w + 1)
        bottom = np.searchsorted(rows, y1)[:, None] * (w + 1)
        corners.append(np.stack([bottom + x1, top + x1, bottom + x0,
                                 top + x0]).reshape(4, -1))
        areas.append(np.outer(y1 - y0, x1 - x0).ravel())
    plan = _Plan(rows[1:] - 1, np.concatenate(corners, axis=1),
                 np.concatenate(areas).astype(np.float64))
    for array in plan:
        array.flags.writeable = False
    return plan


def _grid_means(plane: np.ndarray,
                *grids: tuple[int, int]) -> list[np.ndarray]:
    """Every cell mean of each ``(rows, cols)`` grid of a 2-D plane.

    The column prefix sums are taken once; only the rows the grids
    read are then prefixed along each row, into a zero-bordered table.
    Each entry equals the full integral image's, and each cell is the
    same four-term sum over the integral image, so the means are those
    of a per-cell loop bit for bit.  The last entry of the table is the
    plane's total, which is finite unless some pixel is not: a frame
    with a NaN or infinite pixel is refused here rather than hashed
    like a black frame.
    """
    if plane.ndim != 2:
        raise ValueError("block_means needs a 2-D plane")
    h, w = plane.shape
    if h < 1 or w < 1:
        raise ValueError("plane must be non-empty")
    plan = _plan(h, w, grids)
    table = np.zeros((plan.sums.size + 1, w + 1), dtype=np.float64)
    table[1:, 1:] = plane.cumsum(axis=0)[plan.sums].cumsum(axis=1)
    table = table.ravel()
    if not math.isfinite(table[-1]):
        raise ValueError(
            f"pixels must be finite, but the plane sums to {table[-1]}")
    cell = table[plan.corners]
    means = (cell[0] - cell[1] - cell[2] + cell[3]) / plan.areas
    split, start = [], 0
    for rows, cols in grids:
        split.append(means[start:start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return split


def block_means(plane: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Area-mean downsample of a 2-D plane to ``(rows, cols)``.

    Cell boundaries come from ``np.linspace`` over each axis, so any
    input resolution works (no divisibility requirement) and the result
    is deterministic.  Inputs smaller than the grid repeat pixels.
    Every cell is four reads of one integral image, whatever its size.
    """
    within("rows", rows, "[1, inf)")
    within("cols", cols, "[1, inf)")
    return _grid_means(plane, (rows, cols))[0]


def _pack_bits(bits: np.ndarray) -> int:
    """Fold a boolean array into an int, MSB first."""
    bits = bits.ravel()
    value = int.from_bytes(np.packbits(bits).tobytes(), "big")
    return value >> (-bits.size % 8)


def _dhash_of(means: np.ndarray) -> int:
    return _pack_bits(means[:, :-1] < means[:, 1:])


def _blocks_of(means: np.ndarray, plane: np.ndarray) -> int:
    return _pack_bits(means > plane.mean())


def dhash_bits(frame: np.ndarray, hash_size: int = 8) -> int:
    """The dHash of a frame: ``hash_size**2`` gradient-sign bits.

    Downsamples luma to ``hash_size x (hash_size + 1)`` block means and
    emits one bit per horizontally adjacent pair (left < right).  An
    all-uniform frame (e.g. all black) hashes to 0 — valid, and equal
    to every other uniform frame's hash, which is exactly the wanted
    semantics for a content-addressed cache.
    """
    within("hash_size", hash_size, "[2, inf)")
    return _dhash_of(
        _grid_means(luma(frame), (hash_size, hash_size + 1))[0])


def block_signature_bits(frame: np.ndarray, block_grid: int = 4) -> int:
    """Block-mean signature: one bit per cell (above frame mean).

    ``block_grid**2`` bits comparing each cell of a ``block_grid``
    square partition against the global mean luma.
    """
    within("block_grid", block_grid, "[1, inf)")
    plane = luma(frame)
    return _blocks_of(_grid_means(plane, (block_grid, block_grid))[0],
                      plane)


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two fingerprint words."""
    return (a ^ b).bit_count()


@dataclasses.dataclass(frozen=True)
class FrameFingerprint:
    """A frame's perceptual identity: dHash + block-mean signature.

    Hashable, and keyed by its packed bits, so fingerprints can key
    dicts and feed the TinyLFU frequency sketch directly.  ``dhash``
    must fit in ``hash_size**2`` bits and ``blocks`` in
    ``block_grid**2``; under that invariant the two signatures occupy
    disjoint bits of :attr:`packed`, so the Hamming distance of two
    same-geometry fingerprints is one XOR and popcount of their packed
    keys.
    """

    dhash: int
    blocks: int
    hash_size: int = 8
    block_grid: int = 4
    #: Both signatures folded into one integer key (computed once).
    packed: int = dataclasses.field(init=False, repr=False,
                                    compare=False)

    def __post_init__(self) -> None:
        if self.hash_size < 2 or self.block_grid < 1:
            raise ValueError("invalid fingerprint geometry")
        dhash_width = self.hash_size ** 2
        block_width = self.block_grid ** 2
        if not 0 <= self.dhash < 1 << dhash_width:
            raise ValueError(
                f"dhash must be a non-negative {dhash_width}-bit value")
        if not 0 <= self.blocks < 1 << block_width:
            raise ValueError(
                f"blocks must be a non-negative {block_width}-bit value")
        object.__setattr__(self, "packed",
                           (self.dhash << block_width) | self.blocks)

    @property
    def nbits(self) -> int:
        """Total bit width of the fingerprint."""
        return self.hash_size ** 2 + self.block_grid ** 2

    def distance(self, other: "FrameFingerprint") -> int:
        """Hamming distance to another fingerprint (same geometry)."""
        if (self.hash_size, self.block_grid) != (other.hash_size,
                                                 other.block_grid):
            raise ValueError(
                "cannot compare fingerprints of different geometry: "
                f"{self.hash_size}/{self.block_grid} vs "
                f"{other.hash_size}/{other.block_grid}")
        return hamming(self.packed, other.packed)

    def matches(self, other: "FrameFingerprint", threshold: int) -> bool:
        """Whether ``other`` is within ``threshold`` differing bits.

        ``threshold=0`` is exact-match mode: only bit-identical
        fingerprints hit.
        """
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        return self.distance(other) <= threshold


def fingerprint(frame: np.ndarray, hash_size: int = 8,
                block_grid: int = 4) -> FrameFingerprint:
    """Fingerprint one frame (any resolution, grayscale or color).

    One pass: the luma plane and its column prefix sums are computed
    once, and one table of the integral rows either grid reads serves
    both the dHash and the block-signature grids.
    """
    within("hash_size", hash_size, "[2, inf)")
    within("block_grid", block_grid, "[1, inf)")
    plane = luma(frame)
    gradient, cells = _grid_means(plane, (hash_size, hash_size + 1),
                                  (block_grid, block_grid))
    return FrameFingerprint(
        dhash=_dhash_of(gradient),
        blocks=_blocks_of(cells, plane),
        hash_size=hash_size,
        block_grid=block_grid,
    )

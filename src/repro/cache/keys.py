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

import numpy as np


def luma(frame: np.ndarray) -> np.ndarray:
    """The luminance plane of a frame as float64 ``(H, W)``.

    Accepts grayscale ``(H, W)``, single-channel ``(H, W, 1)``, RGB
    ``(H, W, 3)`` (Rec. 601 weights), or any other channel count
    (plain channel mean).
    """
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim == 2:
        return arr
    if arr.ndim != 3:
        raise ValueError(
            f"expected a (H, W) or (H, W, C) array, got shape "
            f"{arr.shape}")
    if arr.shape[2] == 1:
        return arr[..., 0]
    if arr.shape[2] == 3:
        return (0.299 * arr[..., 0] + 0.587 * arr[..., 1]
                + 0.114 * arr[..., 2])
    return arr.mean(axis=2)


def _integral(plane: np.ndarray) -> np.ndarray:
    """The zero-padded integral image of a non-empty 2-D plane."""
    if plane.ndim != 2:
        raise ValueError("block_means needs a 2-D plane")
    h, w = plane.shape
    if h < 1 or w < 1:
        raise ValueError("plane must be non-empty")
    integral = np.zeros((h + 1, w + 1), dtype=np.float64)
    integral[1:, 1:] = plane.cumsum(axis=0).cumsum(axis=1)
    return integral


def _cell_means(integral: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Every ``(rows, cols)`` cell mean of an integral image at once."""
    h, w = integral.shape[0] - 1, integral.shape[1] - 1
    ys = np.linspace(0, h, rows + 1).round().astype(np.int64)
    xs = np.linspace(0, w, cols + 1).round().astype(np.int64)
    # Degenerate cells (input smaller than the grid) borrow the nearest
    # pixel so every cell stays defined and non-empty.
    y0 = np.minimum(ys[:-1], h - 1)
    y1 = np.minimum(np.maximum(ys[1:], y0 + 1), h)
    x0 = np.minimum(xs[:-1], w - 1)
    x1 = np.minimum(np.maximum(xs[1:], x0 + 1), w)
    total = (integral[np.ix_(y1, x1)] - integral[np.ix_(y0, x1)]
             - integral[np.ix_(y1, x0)] + integral[np.ix_(y0, x0)])
    return total / np.outer(y1 - y0, x1 - x0)


def block_means(plane: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Area-mean downsample of a 2-D plane to ``(rows, cols)``.

    Cell boundaries come from ``np.linspace`` over each axis, so any
    input resolution works (no divisibility requirement) and the result
    is deterministic.  Inputs smaller than the grid repeat pixels.
    Every cell is four reads of one integral image, whatever its size.
    """
    return _cell_means(_integral(plane), rows, cols)


def _pack_bits(bits: np.ndarray) -> int:
    """Fold a boolean array into an int, MSB first."""
    bits = bits.ravel()
    value = int.from_bytes(np.packbits(bits).tobytes(), "big")
    return value >> (-bits.size % 8)


def _dhash_of(integral: np.ndarray, hash_size: int) -> int:
    means = _cell_means(integral, hash_size, hash_size + 1)
    return _pack_bits(means[:, :-1] < means[:, 1:])


def _blocks_of(plane: np.ndarray, integral: np.ndarray,
               block_grid: int) -> int:
    means = _cell_means(integral, block_grid, block_grid)
    return _pack_bits(means > plane.mean())


def dhash_bits(frame: np.ndarray, hash_size: int = 8) -> int:
    """The dHash of a frame: ``hash_size**2`` gradient-sign bits.

    Downsamples luma to ``hash_size x (hash_size + 1)`` block means and
    emits one bit per horizontally adjacent pair (left < right).  An
    all-uniform frame (e.g. all black) hashes to 0 — valid, and equal
    to every other uniform frame's hash, which is exactly the wanted
    semantics for a content-addressed cache.
    """
    if hash_size < 2:
        raise ValueError("hash_size must be >= 2")
    return _dhash_of(_integral(luma(frame)), hash_size)


def block_signature_bits(frame: np.ndarray, block_grid: int = 4) -> int:
    """Block-mean signature: one bit per cell (above frame mean).

    ``block_grid**2`` bits comparing each cell of a ``block_grid``
    square partition against the global mean luma.
    """
    if block_grid < 1:
        raise ValueError("block_grid must be >= 1")
    plane = luma(frame)
    return _blocks_of(plane, _integral(plane), block_grid)


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

    One pass: the luma plane and its integral image are computed once
    and serve both the dHash and the block-signature grids.
    """
    if hash_size < 2:
        raise ValueError("hash_size must be >= 2")
    plane = luma(frame)
    integral = _integral(plane)
    if block_grid < 1:
        raise ValueError("block_grid must be >= 1")
    return FrameFingerprint(
        dhash=_dhash_of(integral, hash_size),
        blocks=_blocks_of(plane, integral, block_grid),
        hash_size=hash_size,
        block_grid=block_grid,
    )

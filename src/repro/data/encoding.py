"""Image encoding: the nominal size model for JPEG/TIFF/raw payloads.

The characterization needs encoded byte counts (decode cost and network
transfer scale with them), not bit-exact JPEG files.
:func:`encoded_bytes` provides that size model.
"""

from __future__ import annotations

from repro.data.datasets import ImageFormat


def encoded_bytes(width: int, height: int,
                  image_format: ImageFormat) -> float:
    """Nominal encoded size of an RGB image in the given format."""
    if min(width, height) < 1:
        raise ValueError("image dimensions must be positive")
    return width * height * image_format.bytes_per_pixel

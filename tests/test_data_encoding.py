"""Tests for repro.data.encoding — the encoded-size model."""

import pytest

from repro.data.datasets import ImageFormat
from repro.data.encoding import encoded_bytes


class TestEncodedBytes:
    def test_jpeg_size_model(self):
        assert encoded_bytes(100, 100, ImageFormat.JPEG) == \
            pytest.approx(100 * 100 * 0.45)

    def test_raw_is_uncompressed(self):
        assert encoded_bytes(10, 10, ImageFormat.RAW) == 300.0

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            encoded_bytes(0, 10, ImageFormat.JPEG)

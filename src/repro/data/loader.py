"""Batched streaming loader over synthetic datasets.

The frontend of the HARVEST pipeline "is responsible for transmitting or
locally reading input data and generating requests to the backend"
(Section 3).  :class:`DataLoader` plays that role for experiments: it
streams deterministic batches of (image, label) samples drawn from a
dataset's size distribution, optionally pre-encoded for transfer-cost
modelling.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np

from repro.bounds import within
from repro.data.datasets import DatasetSpec
from repro.data.encoding import encoded_bytes
from repro.data.synthetic import SyntheticSampler


@dataclasses.dataclass
class Sample:
    """One loaded sample."""

    image: np.ndarray  # (H, W, C) uint8
    label: int | None
    encoded_nbytes: float

    @property
    def pixels(self) -> int:
        """Pixel count of the decoded image."""
        return self.image.shape[0] * self.image.shape[1]


class DataLoader:
    """Deterministic batch iterator over a synthetic dataset.

    Parameters
    ----------
    spec:
        The dataset to stream.
    batch_size:
        Samples per batch; the final batch of an epoch may be short.
    epoch_size:
        Samples per epoch.  Defaults to the dataset's Table 2 sample
        count; experiments usually pass something much smaller.
    scale:
        Pixel-dimension scale factor forwarded to the sampler (test
        speed-ups; relative size statistics are preserved).
    """

    def __init__(self, spec: DatasetSpec, batch_size: int = 1,
                 epoch_size: int | None = None, seed: int = 0,
                 scale: float = 1.0):
        self.spec = spec
        self.batch_size = within("batch_size", batch_size, "[1, inf)")
        self.epoch_size = within(
            "epoch_size", spec.samples if epoch_size is None else epoch_size,
            "[1, inf)")
        self._sampler = SyntheticSampler(spec, seed=seed, scale=scale)

    def __len__(self) -> int:
        """Number of batches per epoch."""
        return -(-self.epoch_size // self.batch_size)

    def __iter__(self) -> Iterator[list[Sample]]:
        remaining = self.epoch_size
        while remaining > 0:
            take = min(self.batch_size, remaining)
            remaining -= take
            batch = []
            for image, label in self._sampler.sample(take):
                h, w = image.shape[:2]
                batch.append(Sample(
                    image=image, label=label,
                    encoded_nbytes=encoded_bytes(w, h,
                                                 self.spec.image_format)))
            yield batch

    def size_statistics(self, n: int = 2048) -> dict[str, float]:
        """Summary stats of the size distribution (for reports)."""
        sizes = self._sampler.sample_sizes(n)
        pixels = sizes[:, 0] * sizes[:, 1]
        return {
            "mean_width": float(sizes[:, 0].mean()),
            "mean_height": float(sizes[:, 1].mean()),
            "mean_pixels": float(pixels.mean()),
            "p95_pixels": float(np.percentile(pixels, 95)),
        }

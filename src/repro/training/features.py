"""Frozen-backbone feature extraction.

Farm-side adaptation keeps the pretrained backbone fixed and trains only
a head — the "agile deployment with fast training times" path.  The
extractor batches images through the functional model's penultimate
layer, resizing through the standard preprocessing pipeline first.
"""

from __future__ import annotations

import numpy as np

from repro.bounds import within
from repro.models.functional import FunctionalModel, build_functional
from repro.preprocessing.pipelines import model_pipeline


class FeatureExtractor:
    """Embeds images with a frozen backbone.

    Parameters
    ----------
    model_name:
        Zoo name; the backbone's weights are the (seeded) pretrained
        stand-ins.
    batch_size:
        Forward-pass batching (memory/runtime control on the host).
    """

    def __init__(self, model_name: str, seed: int = 0,
                 batch_size: int = 32):
        within("batch_size", batch_size, "[1, inf)")
        self.model: FunctionalModel = build_functional(model_name,
                                                       seed=seed)
        self.model_name = model_name
        self.batch_size = batch_size
        self.input_size = self.model.input_shape[1]
        self._pipeline = model_pipeline(self.input_size)

    @property
    def feature_dim(self) -> int:
        """Embedding width (192/384/768 for the ViTs, 2048 for ResNet50)."""
        probe = np.zeros((1, *self.model.input_shape), np.float32)
        return self.model.features(probe).shape[1]

    def preprocess(self, images: "list[np.ndarray] | np.ndarray",
                   ) -> np.ndarray:
        """(H, W, C) uint8 images -> model-input batch (N, C, s, s)."""
        if isinstance(images, np.ndarray) and images.ndim == 4:
            images = list(images)
        if not len(images):
            raise ValueError("empty image set")
        return np.stack([self._pipeline(img) for img in images])

    def extract(self, images: "list[np.ndarray] | np.ndarray",
                ) -> np.ndarray:
        """Embeddings ``(N, D)`` for raw images (preprocess + forward)."""
        batch = self.preprocess(images)
        chunks = []
        for start in range(0, batch.shape[0], self.batch_size):
            chunk = batch[start:start + self.batch_size]
            chunks.append(self.model.features(chunk))
        features = np.concatenate(chunks, axis=0)
        # Standardize: linear probes behave far better on zero-mean,
        # unit-scale features (and it costs one pass).
        mean = features.mean(axis=0, keepdims=True)
        std = features.std(axis=0, keepdims=True) + 1e-6
        return ((features - mean) / std).astype(np.float32)

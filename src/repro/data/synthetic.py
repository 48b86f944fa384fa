"""Procedural image generation.

Pixel content never influences the performance characterization, but the
functional pipeline (decode → resize → crop → normalize → model forward)
needs real arrays to chew on.  Images are generated as smoothed random
fields with a green-dominant channel balance — cheap, deterministic, and
statistically "photo-like" enough that resize/normalize behave like they
would on field imagery.

:func:`synth_crsa_frame` additionally draws a perspective-distorted ground
grid so the CRSA perspective-correction op has real structure to rectify
(tests verify straightened grid lines).
"""

from __future__ import annotations

import numpy as np

from repro.bounds import within
from repro.data.datasets import DatasetSpec


def _smooth(field: np.ndarray, passes: int = 2) -> np.ndarray:
    """Cheap separable box smoothing via shifted adds (no scipy needed)."""
    out = field
    for _ in range(passes):
        out = (out
               + np.roll(out, 1, axis=0) + np.roll(out, -1, axis=0)
               + np.roll(out, 1, axis=1) + np.roll(out, -1, axis=1)) / 5.0
    return out


def synth_image(width: int, height: int,
                rng: np.random.Generator,
                channels: int = 3) -> np.ndarray:
    """A synthetic field photo: ``(H, W, C)`` uint8.

    Smoothed noise per channel with vegetation-like channel gains
    (G > R > B) plus mild per-pixel texture.
    """
    within("width", width, "[1, inf)")
    within("height", height, "[1, inf)")
    within("channels", channels, "[1, 3]")
    base = _smooth(rng.random((height, width)))
    texture = rng.random((height, width)) * 0.15
    gains = np.array([0.55, 0.85, 0.35][:channels])
    offsets = np.array([40.0, 60.0, 30.0][:channels])
    img = (base + texture)[..., None] * gains * 255.0 * 0.7 + offsets
    return np.clip(img, 0, 255).astype(np.uint8)


def synth_crsa_frame(width: int = 3840, height: int = 2160,
                     rng: np.random.Generator | None = None,
                     grid_spacing: int = 240) -> np.ndarray:
    """A raw ground-vehicle camera frame: ``(H, W, 3)`` uint8.

    Soil-toned background with a perspective-converged grid: vertical
    field rows that fan toward a vanishing point at the horizon, as an
    uncorrected downward-angled camera sees them.  The perspective
    transform in :mod:`repro.preprocessing.ops` rectifies these to
    parallel verticals.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    within("width", width, "[8, inf)")
    within("height", height, "[8, inf)")
    frame = synth_image(width, height, rng)
    # Soil tint: damp the green channel.
    frame = frame.astype(np.float32)
    frame[..., 1] *= 0.75
    frame[..., 0] *= 1.1

    # Rows converging toward the vanishing point (cx, -0.6*H above frame).
    cx = width / 2.0
    vp_y = -0.6 * height
    ys = np.arange(height, dtype=np.float32)
    t = (ys - vp_y) / (height - vp_y)  # 0 at vanishing point, 1 at bottom
    for ground_x in range(grid_spacing // 2, width, grid_spacing):
        xs = cx + (ground_x - cx) * t  # straight line toward the VP
        cols = np.clip(np.rint(xs).astype(np.int64), 0, width - 1)
        frame[ys.astype(np.int64), cols] = (30.0, 110.0, 40.0)
        frame[ys.astype(np.int64), np.clip(cols + 1, 0, width - 1)] = (
            30.0, 110.0, 40.0)
    return np.clip(frame, 0, 255).astype(np.uint8)


def synth_frame_sequence(spec: DatasetSpec, n: int,
                         scene_change_rate: float,
                         rng: np.random.Generator,
                         width: int = 320, height: int = 180,
                         jitter: float = 3.0) -> list[np.ndarray]:
    """Temporally correlated frames from a fixed-mount field camera.

    The CRSA raw-capture scenario: consecutive frames are jittered
    copies of the current *scene* (per-pixel sensor noise of amplitude
    ``jitter``), and with probability ``scene_change_rate`` per frame
    the scene cuts to a freshly generated one (a vehicle passing, the
    camera panning, dawn).  The expected number of distinct scenes is
    ``1 + scene_change_rate * (n - 1)``, so cache hit ratios decay
    monotonically as the rate rises.

    ``spec`` selects the frame generator: datasets with
    dataset-specific preprocessing (CRSA) get perspective-grid frames,
    others get plain field imagery.  Frames are ``(height, width, 3)``
    uint8; the defaults are a 6x-downscaled 4K capture so fingerprinting
    stays cheap in tests and the CLI.
    """
    within("n", n, "[1, inf)")
    within("scene_change_rate", scene_change_rate, "[0, 1]")
    within("jitter", jitter, "[0, inf)")

    def new_scene() -> np.ndarray:
        child = np.random.default_rng(rng.integers(2 ** 32))
        if spec.dataset_specific_preprocessing:
            return synth_crsa_frame(width, height, child).astype(
                np.float32)
        return synth_image(width, height, child).astype(np.float32)

    scene = new_scene()
    frames: list[np.ndarray] = []
    for index in range(n):
        if index > 0 and rng.random() < scene_change_rate:
            scene = new_scene()
        noisy = scene + rng.uniform(-jitter, jitter, scene.shape)
        frames.append(np.clip(noisy, 0, 255, out=noisy).astype(np.uint8))
    return frames


def synth_labeled_images(n: int, classes: int, image_size: int,
                         rng: np.random.Generator,
                         signal_strength: float = 1.0,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Class-conditional images: ``((N, H, W, C) uint8, (N,) labels)``.

    Each class carries a distinct, learnable signature — a class-specific
    channel balance plus a class-frequency horizontal stripe pattern —
    over the usual smoothed-noise background.  The signatures are what a
    localized model (or a linear probe on frozen features) must pick up;
    ``signal_strength`` scales their amplitude relative to the noise
    (0 = unlearnable, 1 = clearly separable).

    This is the stand-in for a farm's labeled imagery in the
    fine-tuning experiments (the paper: "enabling landholders to easily
    train localized AI models with their own data").
    """
    within("n", n, "[1, inf)")
    within("classes", classes, "[2, inf)")
    within("image_size", image_size, "[4, inf)")
    within("signal_strength", signal_strength, "[0, inf)")
    class_rng = np.random.default_rng(12345)  # fixed class signatures
    gains = class_rng.uniform(0.4, 1.0, size=(classes, 3))
    frequencies = class_rng.integers(1, max(2, image_size // 4),
                                     size=classes)
    phases = class_rng.uniform(0, 2 * np.pi, size=classes)

    labels = rng.integers(0, classes, size=n)
    rows = np.arange(image_size)[None, :, None, None]  # (1, H, 1, 1)
    base = rng.random((n, image_size, image_size, 1))
    texture = rng.random((n, image_size, image_size, 3)) * 0.2

    stripe = np.sin(2 * np.pi * frequencies[labels][:, None, None, None]
                    * rows / image_size + phases[labels][:, None, None,
                                                         None])
    signal = signal_strength * (0.25 * stripe
                                + 0.5 * gains[labels][:, None, None, :])
    images = (base * 0.4 + texture + signal) * 160.0 + 40.0
    return (np.clip(images, 0, 255).astype(np.uint8),
            labels.astype(np.int64))


class SyntheticSampler:
    """Draws (image, label, size) samples for a :class:`DatasetSpec`.

    Deterministic given the seed; sizes follow the dataset's Fig. 4
    distribution, labels are uniform over the class set.
    """

    def __init__(self, spec: DatasetSpec, seed: int = 0,
                 scale: float = 1.0):
        """``scale`` < 1 shrinks generated pixel dimensions (test speed)
        while preserving the *relative* size distribution."""
        within("scale", scale, "(0, 1]")
        self.spec = spec
        self.scale = scale
        self._rng = np.random.default_rng(seed)

    def sample_sizes(self, n: int) -> np.ndarray:
        """Draw n (width, height) pairs from the dataset distribution."""
        sizes = self.spec.size_distribution.sample(n, self._rng)
        if self.scale != 1.0:
            sizes = np.maximum((sizes * self.scale).astype(np.int64), 8)
        return sizes

    def sample(self, n: int) -> list[tuple[np.ndarray, int | None]]:
        """``n`` (image, label) pairs; labels None for unlabelled CRSA."""
        sizes = self.sample_sizes(n)
        out = []
        for w, h in sizes:
            if self.spec.dataset_specific_preprocessing:
                img = synth_crsa_frame(int(w), int(h), self._rng)
                label = None
            else:
                img = synth_image(int(w), int(h), self._rng)
                label = int(self._rng.integers(self.spec.classes))
            out.append((img, label))
        return out

"""Image-size distributions (Fig. 4).

Fig. 4 plots per-dataset 2D densities of (width, height) with the modal
size labelled: uniform-size datasets (Plant Village 256×256, Fruits-360
100×100, Corn Growth Stage 224×224, CRSA 3840×2160) collapse to a point,
while Weed Detection in Soybean (mode 233×233) and Sugar Cane-Spittle Bug
(mode 61×61) "vary significantly".

Variable sizes are modelled as a correlated log-normal around the mode,
truncated to a plausible pixel range — reproducing the figure's visual:
a dense cloud at the mode with a tail toward larger crops (object-detection
crops scale with object distance, hence the long tail).
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import math

import numpy as np

from repro.bounds import within


class ImageSizeDistribution(abc.ABC):
    """Distribution over per-image (width, height) in pixels."""

    @property
    @abc.abstractmethod
    def mode(self) -> tuple[int, int]:
        """The most common (width, height) — the Fig. 4 label."""

    @property
    @abc.abstractmethod
    def is_uniform(self) -> bool:
        """True when every image has the same size."""

    @abc.abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` sizes; returns an ``(n, 2)`` int array of (w, h)."""

    def mean_pixels(self, n: int = 4096, seed: int = 0) -> float:
        """Monte-Carlo mean pixel count (exact for uniform sizes)."""
        sizes = self.sample(n, np.random.default_rng(seed))
        return float(np.mean(sizes[:, 0] * sizes[:, 1]))


@dataclasses.dataclass(frozen=True)
class FixedSize(ImageSizeDistribution):
    """Every image is exactly ``width × height``."""

    width: int
    height: int

    def __post_init__(self) -> None:
        within("width", self.width, "[1, inf)")
        within("height", self.height, "[1, inf)")

    @property
    def mode(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def is_uniform(self) -> bool:
        return True

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        return np.full((n, 2), (self.width, self.height), dtype=np.int64)

    def mean_pixels(self, n: int = 4096, seed: int = 0) -> float:
        return float(self.width * self.height)


@dataclasses.dataclass(frozen=True)
class VariableSize(ImageSizeDistribution):
    """Correlated log-normal size cloud around a modal size.

    Parameters
    ----------
    mode_width, mode_height:
        The most common size (the Fig. 4 label).
    sigma:
        Log-scale spread; ~0.35 reproduces the Weed-Soybean cloud,
        ~0.45 the wider Spittle-Bug cloud.
    correlation:
        Width/height log correlation (crops are near-square: ~0.8).
    min_side, max_side:
        Truncation bounds in pixels (Fig. 4 axes run 0..400-ish).
    """

    mode_width: int
    mode_height: int
    sigma: float = 0.35
    correlation: float = 0.8
    min_side: int = 16
    max_side: int = 420

    def __post_init__(self) -> None:
        within("correlation", self.correlation, "[0, 1]")
        within("sigma", self.sigma, "(0, inf)")
        if not (self.min_side <= self.mode_width <= self.max_side
                and self.min_side <= self.mode_height <= self.max_side):
            raise ValueError("mode must lie inside the truncation bounds")

    @property
    def mode(self) -> tuple[int, int]:
        return (self.mode_width, self.mode_height)

    @property
    def is_uniform(self) -> bool:
        return False

    # The draw is fully seeded and the distribution is frozen, so equal
    # arguments always produce the same float: redraw it only once.
    @functools.lru_cache(maxsize=256)
    def mean_pixels(self, n: int = 4096, seed: int = 0) -> float:
        return super().mean_pixels(n, seed)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        # Log-normal with its *mode* at the labelled size: the density
        # mode of a multivariate log-normal exp(N(mu, Sigma)) is
        # exp(mu - Sigma·1), so mu = log(mode) + sigma^2 (1 + rho).
        mu = (np.log([self.mode_width, self.mode_height])
              + self.sigma ** 2 * (1.0 + self.correlation))
        cov = self.sigma ** 2 * np.array(
            [[1.0, self.correlation], [self.correlation, 1.0]])
        z = rng.multivariate_normal(mu, cov, size=n)
        sizes = np.exp(z)
        sizes = np.clip(np.rint(sizes), self.min_side, self.max_side)
        return sizes.astype(np.int64)


def density_grid(sizes: np.ndarray, bins: int = 40,
                 extent: tuple[int, int] = (0, 420),
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2D histogram density of an ``(n, 2)`` size sample (Fig. 4 panel).

    Returns ``(density, w_edges, h_edges)`` with density normalized to a
    max of 1.0 (the figure's colorbar runs 0.2..1.0).
    """
    if sizes.ndim != 2 or sizes.shape[1] != 2:
        raise ValueError("sizes must be (n, 2)")
    if len(sizes) == 0:
        raise ValueError("need at least one size sample")
    hist, w_edges, h_edges = np.histogram2d(
        sizes[:, 0], sizes[:, 1], bins=bins,
        range=[list(extent), list(extent)])
    peak = hist.max()
    if peak > 0:
        hist = hist / peak
    return hist, w_edges, h_edges


def empirical_mode(sizes: np.ndarray, bin_width: int = 8) -> tuple[int, int]:
    """Estimate the modal (w, h) from samples via the densest 2D bin.

    Used by the Fig. 4 harness to print the label the paper shows
    ("233x233", "61x61").
    """
    hist, w_edges, h_edges = density_grid(
        sizes, bins=max(2, math.ceil(420 / bin_width)))
    wi, hi = np.unravel_index(np.argmax(hist), hist.shape)
    w = int((w_edges[wi] + w_edges[wi + 1]) / 2)
    h = int((h_edges[hi] + h_edges[hi + 1]) / 2)
    return (w, h)

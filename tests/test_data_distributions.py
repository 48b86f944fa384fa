"""Tests for repro.data.distributions — the Fig. 4 size models."""

import numpy as np
import pytest

from repro.data.distributions import (
    FixedSize,
    VariableSize,
    density_grid,
    empirical_mode,
)


class TestFixedSize:
    def test_every_sample_is_the_mode(self, rng):
        dist = FixedSize(256, 256)
        sizes = dist.sample(100, rng)
        assert (sizes == 256).all()

    def test_mode_and_uniform_flag(self):
        dist = FixedSize(100, 50)
        assert dist.mode == (100, 50)
        assert dist.is_uniform

    def test_mean_pixels_is_exact(self):
        assert FixedSize(100, 50).mean_pixels() == 5000.0

    def test_zero_samples_ok(self, rng):
        assert FixedSize(10, 10).sample(0, rng).shape == (0, 2)

    def test_negative_n_rejected(self, rng):
        with pytest.raises(ValueError):
            FixedSize(10, 10).sample(-1, rng)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            FixedSize(0, 10)


class TestVariableSize:
    def test_samples_respect_truncation(self, rng):
        dist = VariableSize(61, 61, sigma=0.45, min_side=16, max_side=420)
        sizes = dist.sample(5000, rng)
        assert sizes.min() >= 16
        assert sizes.max() <= 420

    def test_mode_recovery_weed_soybean(self):
        # Fig. 4a labels the Weed-Soybean mode as 233x233.
        dist = VariableSize(233, 233, sigma=0.16)
        sizes = dist.sample(40000, np.random.default_rng(0))
        w, h = empirical_mode(sizes, bin_width=6)
        assert w == pytest.approx(233, rel=0.12)
        assert h == pytest.approx(233, rel=0.12)

    def test_mode_recovery_spittle_bug(self):
        # Fig. 4b labels the Spittle-Bug mode as 61x61.
        dist = VariableSize(61, 61, sigma=0.45)
        sizes = dist.sample(40000, np.random.default_rng(0))
        w, h = empirical_mode(sizes, bin_width=6)
        assert w == pytest.approx(61, abs=10)
        assert h == pytest.approx(61, abs=10)

    def test_width_height_correlated(self, rng):
        dist = VariableSize(100, 100, sigma=0.4, correlation=0.8)
        sizes = dist.sample(5000, rng)
        r = np.corrcoef(np.log(sizes[:, 0]), np.log(sizes[:, 1]))[0, 1]
        assert r > 0.6

    def test_zero_correlation_decorrelates(self, rng):
        dist = VariableSize(100, 100, sigma=0.4, correlation=0.0)
        sizes = dist.sample(5000, rng)
        r = np.corrcoef(np.log(sizes[:, 0]), np.log(sizes[:, 1]))[0, 1]
        assert abs(r) < 0.1

    def test_not_uniform(self):
        assert not VariableSize(61, 61).is_uniform

    def test_validation(self):
        with pytest.raises(ValueError):
            VariableSize(61, 61, sigma=0.0)
        with pytest.raises(ValueError):
            VariableSize(61, 61, correlation=1.5)
        with pytest.raises(ValueError):
            VariableSize(500, 500, max_side=420)

    def test_deterministic_given_rng_seed(self):
        dist = VariableSize(61, 61)
        a = dist.sample(10, np.random.default_rng(5))
        b = dist.sample(10, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_mean_pixels_drawn_once_and_exact(self, monkeypatch):
        # A size no other test uses, so the memo starts cold.
        dist = VariableSize(97, 89, sigma=0.3)
        sizes = dist.sample(4096, np.random.default_rng(0))
        fresh = float(np.mean(sizes[:, 0] * sizes[:, 1]))
        draws = []
        original = VariableSize.sample

        def counting(self, n, rng):
            draws.append(n)
            return original(self, n, rng)

        monkeypatch.setattr(VariableSize, "sample", counting)
        assert dist.mean_pixels() == fresh
        assert VariableSize(97, 89, sigma=0.3).mean_pixels() == fresh
        assert draws == [4096]
        assert dist.mean_pixels(n=512, seed=3) != fresh
        assert draws == [4096, 512]


class TestDensityGrid:
    def test_density_normalized_to_unit_peak(self, rng):
        sizes = VariableSize(100, 100).sample(2000, rng)
        density, _, _ = density_grid(sizes)
        assert density.max() == pytest.approx(1.0)

    def test_shapes(self, rng):
        sizes = VariableSize(100, 100).sample(500, rng)
        density, w_edges, h_edges = density_grid(sizes, bins=10)
        assert density.shape == (10, 10)
        assert len(w_edges) == len(h_edges) == 11

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            density_grid(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            density_grid(np.zeros((0, 2)))

    def test_fixed_size_collapses_to_single_cell(self, rng):
        sizes = FixedSize(100, 100).sample(100, rng)
        density, _, _ = density_grid(sizes)
        assert (density > 0).sum() == 1

"""Tests for the RWKV-motivated linear-attention extension."""

import numpy as np
import pytest

from repro.models.functional import init_vit_weights, vit_forward
from repro.models.linear_attention import (
    LinearAttentionMatmul,
    attention_cost_crossover,
    build_linear_vit,
    linear_attention,
    linear_vit_forward,
)
from repro.models.layers import AttentionMatmul, LayerCategory
from repro.models.vit import VIT_CONFIGS, ViTConfig, build_vit


class TestLinearAttentionLayer:
    def test_macs_linear_in_tokens(self):
        # The Section 3.1 motivation: no quadratic term.
        small = LinearAttentionMatmul("l", tokens=64, dim=96, heads=3)
        large = LinearAttentionMatmul("l", tokens=128, dim=96, heads=3)
        assert large.macs() == 2 * small.macs()

    def test_cheaper_than_softmax_beyond_head_dim(self):
        softmax = AttentionMatmul("s", tokens=257, dim=192, heads=3)
        linear = LinearAttentionMatmul("l", tokens=257, dim=192, heads=3)
        assert linear.macs() < softmax.macs()

    def test_softmax_wins_at_short_sequences(self):
        # Crossover at T = head_dim: below it the state update costs
        # more than the score matrix.
        softmax = AttentionMatmul("s", tokens=33, dim=192, heads=3)
        linear = LinearAttentionMatmul("l", tokens=33, dim=192, heads=3)
        assert softmax.macs() < linear.macs()

    def test_parameter_free_attention_category(self):
        layer = LinearAttentionMatmul("l", tokens=16, dim=8, heads=2)
        assert layer.params() == 0
        assert layer.category is LayerCategory.ATTENTION

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            LinearAttentionMatmul("l", tokens=16, dim=9, heads=2)


class TestBuilder:
    def test_same_parameters_as_softmax_vit(self, vit_tiny):
        linear = build_linear_vit("vit_tiny")
        assert linear.total_params() == vit_tiny.total_params()

    def test_fewer_macs_than_softmax_vit(self, vit_tiny):
        linear = build_linear_vit("vit_tiny")
        assert linear.total_macs() < vit_tiny.total_macs()

    def test_no_softmax_layers(self):
        linear = build_linear_vit("vit_tiny")
        names = [l.name for l in linear.layers]
        assert not any("softmax" in n for n in names)
        attn = [l for l in linear.layers
                if isinstance(l, LinearAttentionMatmul)]
        assert len(attn) == 12

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError):
            build_linear_vit("vit_huge")


class TestFunctional:
    @pytest.fixture(scope="class")
    def mini_cfg(self):
        return ViTConfig("mini", img_size=16, patch_size=4, dim=24,
                         depth=2, heads=2, num_classes=5)

    def test_linear_attention_shapes(self, rng):
        qkv = rng.standard_normal((2, 7, 24)).astype(np.float32)
        out = linear_attention(qkv, heads=2)
        assert out.shape == (2, 7, 8)
        assert np.isfinite(out).all()

    def test_output_is_convex_combination_of_values(self, rng):
        # With positive kernel weights, outputs lie within the value
        # range per feature.
        qkv = rng.standard_normal((1, 9, 12)).astype(np.float64)
        v = qkv[..., 8:]
        out = linear_attention(qkv, heads=1)
        assert (out <= v.max(axis=1, keepdims=True) + 1e-9).all()
        assert (out >= v.min(axis=1, keepdims=True) - 1e-9).all()

    def test_forward_pass(self, mini_cfg, rng):
        weights = init_vit_weights(mini_cfg)
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        out = linear_vit_forward(mini_cfg, weights, x)
        assert out.shape == (2, 5)
        assert np.isfinite(out).all()

    def test_same_weights_different_mixing(self, mini_cfg, rng):
        # Shared weights with a different mixing op: outputs differ but
        # both are finite and similarly scaled.
        weights = init_vit_weights(mini_cfg)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        soft = vit_forward(mini_cfg, weights, x)
        lin = linear_vit_forward(mini_cfg, weights, x)
        assert not np.allclose(soft, lin)
        assert np.abs(lin).max() < 100 * max(np.abs(soft).max(), 1.0)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            linear_attention(rng.standard_normal((1, 4, 10)), heads=2)
        cfg = VIT_CONFIGS["vit_tiny"]
        with pytest.raises(ValueError, match="expected input"):
            linear_vit_forward(cfg, init_vit_weights(cfg),
                               np.zeros((1, 3, 8, 8), np.float32))


class TestCrossover:
    def test_crossover_table(self):
        rows = attention_cost_crossover()
        assert rows[0]["linear_wins"] is False  # T=33 < head_dim
        assert all(r["linear_wins"] for r in rows[1:])

    def test_quadratic_vs_linear_growth(self):
        rows = attention_cost_crossover(token_counts=(256, 1024))
        softmax_ratio = rows[1]["softmax_gmacs"] / rows[0]["softmax_gmacs"]
        linear_ratio = rows[1]["linear_gmacs"] / rows[0]["linear_gmacs"]
        assert softmax_ratio == pytest.approx(16, rel=0.01)
        assert linear_ratio == pytest.approx(4, rel=0.01)

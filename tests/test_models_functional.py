"""Tests for repro.models.functional — the real NumPy execution path."""

import numpy as np
import pytest

from repro.models.functional import (
    MacTally,
    _resnet_block_configs,
    attention,
    batchnorm2d,
    build_functional,
    conv2d,
    gelu,
    global_avgpool,
    im2col,
    init_resnet50_weights,
    layernorm,
    linear,
    maxpool2d,
    relu,
    resnet50_forward,
    softmax,
    vit_forward,
)
from repro.models.resnet import build_resnet50
from repro.models.vit import VIT_CONFIGS, ViTConfig, build_vit
from repro.models.workspace import WeightPack


class TestLowLevelOps:
    def test_linear_matches_manual(self, rng):
        x = rng.standard_normal((2, 3)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        np.testing.assert_allclose(linear(x, w, b), x @ w.T + b, rtol=1e-5)

    def test_linear_epilogue_exact_packed_and_unpacked(self, rng):
        x = rng.standard_normal((5, 7, 16)).astype(np.float32)
        w = rng.standard_normal((12, 16)).astype(np.float32)
        b = rng.standard_normal(12).astype(np.float32)
        expected = x @ w.T + b
        np.testing.assert_array_equal(linear(x, w, b), expected)
        packed = linear(x, w, b, pack=WeightPack({"fc.weight": w}))
        np.testing.assert_array_equal(packed, expected)

    def test_linear_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="features"):
            linear(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_im2col_identity_kernel(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        patches, oh, ow = im2col(x, kernel=1, stride=1, padding=0)
        assert (oh, ow) == (4, 4)
        np.testing.assert_allclose(patches.reshape(4, 4), x[0, 0])

    def test_conv2d_matches_naive(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float64)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float64)
        out = conv2d(x, w, stride=1, padding=1)
        # Naive reference at a few positions.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for oc in range(3):
            for i, j in [(0, 0), (2, 3), (4, 4)]:
                ref = np.sum(padded[0, :, i:i + 3, j:j + 3] * w[oc])
                assert out[0, oc, i, j] == pytest.approx(ref)

    def test_conv2d_stride(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        w = rng.standard_normal((1, 1, 2, 2))
        assert conv2d(x, w, stride=2).shape == (1, 1, 4, 4)

    def test_conv2d_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="channels"):
            conv2d(np.zeros((1, 3, 4, 4)), np.zeros((2, 4, 1, 1)))

    def test_relu(self):
        np.testing.assert_array_equal(
            relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_gelu_fixed_points(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-4)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.standard_normal((3, 5))
        np.testing.assert_allclose(softmax(x).sum(axis=-1), 1.0, rtol=1e-6)

    def test_softmax_stable_for_large_logits(self):
        out = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_layernorm_standardizes(self, rng):
        x = rng.standard_normal((4, 16)).astype(np.float64) * 5 + 3
        out = layernorm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, rtol=1e-3)

    def test_batchnorm_inference_mode(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float64)
        gamma, beta = np.full(3, 2.0), np.full(3, 1.0)
        mean, var = np.zeros(3), np.ones(3)
        out = batchnorm2d(x, gamma, beta, mean, var, eps=0.0)
        np.testing.assert_allclose(out, x * 2.0 + 1.0)

    def test_maxpool_reduces_and_takes_max(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = maxpool2d(x, kernel=2, stride=2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_global_avgpool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        np.testing.assert_allclose(global_avgpool(x),
                                   x.mean(axis=(2, 3)))

    def test_attention_output_shape(self, rng):
        qkv = rng.standard_normal((2, 5, 24)).astype(np.float32)
        assert attention(qkv, heads=2).shape == (2, 5, 8)

    def test_attention_uniform_values_average(self):
        # With identical tokens, attention returns the (identical) value.
        qkv = np.tile(np.arange(12, dtype=np.float64), (1, 4, 1))
        out = attention(qkv, heads=1)
        np.testing.assert_allclose(out, qkv[..., 8:], rtol=1e-6)

    def test_attention_invalid_heads(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            attention(rng.standard_normal((1, 2, 30)), heads=4)


class TestViTForward:
    @pytest.fixture(scope="class")
    def tiny_cfg(self):
        return ViTConfig("mini_vit", img_size=16, patch_size=4, dim=24,
                         depth=2, heads=2, num_classes=5)

    def test_logit_shape(self, tiny_cfg, rng):
        from repro.models.functional import init_vit_weights

        w = init_vit_weights(tiny_cfg)
        x = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
        assert vit_forward(tiny_cfg, w, x).shape == (3, 5)

    def test_deterministic_given_seed(self, tiny_cfg, rng):
        from repro.models.functional import init_vit_weights

        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        a = vit_forward(tiny_cfg, init_vit_weights(tiny_cfg, seed=7), x)
        b = vit_forward(tiny_cfg, init_vit_weights(tiny_cfg, seed=7), x)
        np.testing.assert_array_equal(a, b)

    def test_wrong_input_shape_rejected(self, tiny_cfg):
        from repro.models.functional import init_vit_weights

        w = init_vit_weights(tiny_cfg)
        with pytest.raises(ValueError, match="expected input"):
            vit_forward(tiny_cfg, w, np.zeros((1, 3, 8, 8), np.float32))

    def test_mac_tally_matches_analytic_graph(self):
        # The MACs actually executed must equal the analytic accounting.
        cfg = VIT_CONFIGS["vit_tiny"]
        model = build_functional("vit_tiny")
        tally = MacTally()
        model(np.zeros((1, 3, 32, 32), np.float32), tally=tally)
        graph = build_vit("vit_tiny")
        assert tally.macs == pytest.approx(graph.total_macs(), rel=1e-9)
        assert cfg.tokens == 257  # the token count behind the match


class TestResNetForward:
    def test_logit_shape_small_input(self, rng):
        w = init_resnet50_weights(img_size=64, num_classes=7)
        x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        out = resnet50_forward(w, x, img_size=64)
        assert out.shape == (2, 7)

    def test_wrong_input_shape_rejected(self):
        w = init_resnet50_weights(img_size=64)
        with pytest.raises(ValueError, match="expected input"):
            resnet50_forward(w, np.zeros((1, 3, 32, 32), np.float32),
                             img_size=64)

    def test_mac_tally_matches_analytic_graph_small(self, rng):
        w = init_resnet50_weights(img_size=64, num_classes=10)
        x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
        tally = MacTally()
        resnet50_forward(w, x, img_size=64, tally=tally)
        graph = build_resnet50(img_size=64, num_classes=10)
        # Analytic MACs count conv + fc; the tally counts the same ops.
        assert tally.macs == pytest.approx(graph.total_macs(), rel=1e-9)


def _randomized_resnet(rng, img_size: int, num_classes: int):
    """ResNet50 weights with non-identity BN statistics.

    The initializer's identity stats (γ=1, β=0, mean=0, var=1) would
    hide a wrong scale or shift in the folded operands.
    """
    w = init_resnet50_weights(img_size=img_size, num_classes=num_classes)
    for key, value in w.items():
        shape = value.shape
        if key.endswith(".gamma"):
            w[key] = rng.uniform(0.5, 1.5, shape).astype(np.float32)
        elif key.endswith(".beta") or key.endswith(".mean"):
            w[key] = rng.normal(0.0, 0.2, shape).astype(np.float32)
        elif key.endswith(".var"):
            w[key] = rng.uniform(0.5, 2.0, shape).astype(np.float32)
    w["fc.bias"] = rng.normal(0.0, 0.1, num_classes).astype(np.float32)
    return w


def _nchw_resnet50(w, x, img_size, tally):
    """The NCHW reference: conv2d -> batchnorm2d -> relu, maxpool2d."""
    def conv_bn(t, prefix, stride=1, padding=0, act=True):
        t = conv2d(t, w[f"{prefix}.conv"], stride=stride, padding=padding,
                   tally=tally)
        t = batchnorm2d(t, w[f"{prefix}.bn.gamma"], w[f"{prefix}.bn.beta"],
                        w[f"{prefix}.bn.mean"], w[f"{prefix}.bn.var"])
        return relu(t) if act else t

    y = maxpool2d(conv_bn(x, "stem", stride=2, padding=3), kernel=3,
                  stride=2, padding=1)
    for name, cfg in _resnet_block_configs(img_size):
        identity = y
        y = conv_bn(y, f"{name}.1")
        y = conv_bn(y, f"{name}.2", stride=cfg.stride, padding=1)
        y = conv_bn(y, f"{name}.3", act=False)
        if cfg.has_downsample:
            identity = conv_bn(identity, f"{name}.downsample",
                               stride=cfg.stride, act=False)
        y = relu(y + identity)
    pooled = global_avgpool(y)
    return pooled, linear(pooled, w["fc.weight"], w["fc.bias"], tally=tally)


class TestResNetNHWCParity:
    """The channels-last, BN-folded forward against the NCHW reference."""

    IMG = 64

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(11)
        w = _randomized_resnet(rng, self.IMG, num_classes=10)
        x = rng.standard_normal((2, 3, self.IMG, self.IMG)).astype(
            np.float32)
        ref_tally = MacTally()
        features, logits = _nchw_resnet50(w, x, self.IMG, ref_tally)
        return w, x, features, logits, ref_tally.macs

    def test_logits_and_macs_match(self, case):
        w, x, _, logits, macs = case
        tally = MacTally()
        out = resnet50_forward(w, x, img_size=self.IMG, tally=tally,
                               pack=WeightPack(w))
        np.testing.assert_allclose(out, logits, rtol=1e-4, atol=1e-5)
        assert tally.macs == macs

    def test_features_match(self, case):
        w, x, features, _, _ = case
        out = resnet50_forward(w, x, img_size=self.IMG,
                               return_features=True)
        assert out.shape == features.shape == (2, 2048)
        np.testing.assert_allclose(out, features, rtol=1e-4, atol=1e-5)

    def test_facade_features_and_logits_match(self):
        # build_functional's pack folded identity BN stats; replacing the
        # arrays makes it fold the randomized ones on first use.
        model = build_functional("resnet50", num_classes=10)
        rng = np.random.default_rng(12)
        model.weights.update(_randomized_resnet(rng, 224, num_classes=10))
        x = rng.standard_normal((1, *model.input_shape)).astype(np.float32)
        ref_tally, tally = MacTally(), MacTally()
        features, logits = _nchw_resnet50(model.weights, x, 224, ref_tally)
        np.testing.assert_allclose(model(x, tally), logits, rtol=1e-4,
                                   atol=1e-5)
        assert tally.macs == ref_tally.macs
        np.testing.assert_allclose(model.features(x), features, rtol=1e-4,
                                   atol=1e-5)

    def test_pack_refolds_replaced_weights(self, case):
        w, x, _, _, _ = case
        w = dict(w)
        pack = WeightPack(w)
        before = resnet50_forward(w, x, img_size=self.IMG, pack=pack)
        w["layer2.0.2.bn.beta"] = w["layer2.0.2.bn.beta"] + 1.0
        fresh = resnet50_forward(w, x, img_size=self.IMG)
        refolded = resnet50_forward(w, x, img_size=self.IMG, pack=pack)
        np.testing.assert_array_equal(refolded, fresh)
        assert not np.allclose(refolded, before)


class TestFacade:
    def test_build_functional_weight_count_matches_graph(self, vit_small):
        model = build_functional("vit_small")
        assert model.weight_elements() == vit_small.total_params()

    def test_resnet_weight_count_matches_graph(self, resnet50):
        model = build_functional("resnet50")
        assert model.weight_elements() == resnet50.total_params()

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_functional("alexnet")

    def test_num_classes_override(self):
        model = build_functional("vit_tiny", num_classes=3)
        out = model(np.zeros((1, 3, 32, 32), np.float32))
        assert out.shape == (1, 3)

    def test_end_to_end_vit_tiny(self, rng):
        model = build_functional("vit_tiny")
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        out = model(x)
        assert out.shape == (1, 39)
        assert np.isfinite(out).all()

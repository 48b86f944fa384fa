"""Tests for repro.models.workspace — scratch arena and packed operands."""

import numpy as np
import pytest

from repro.models.functional import build_functional, linear
from repro.models.workspace import WeightPack, WorkspaceArena


class TestWorkspaceArena:
    def test_same_slot_reuses_memory(self):
        arena = WorkspaceArena()
        first = arena.take((4, 8), np.float32, "patches")
        again = arena.take((4, 8), np.float32, "patches")
        smaller = arena.take((3, 5), np.float32, "patches")
        assert np.shares_memory(first, again)
        assert np.shares_memory(first, smaller)
        assert smaller.shape == (3, 5) and smaller.flags.c_contiguous
        assert len(arena) == 1

    def test_larger_request_grows_slot(self):
        arena = WorkspaceArena()
        arena.take((4, 8), np.float32, "padded")
        assert arena.nbytes == 4 * 8 * 4
        big = arena.take((16, 16), np.float32, "padded")
        assert big.shape == (16, 16)
        assert arena.nbytes == 16 * 16 * 4
        assert len(arena) == 1
        assert np.shares_memory(big, arena.take((2, 2), np.float32,
                                                "padded"))

    def test_distinct_slots_and_dtypes_never_alias(self):
        arena = WorkspaceArena()
        views = [arena.take((6, 6), np.float32, slot)
                 for slot in ("padded", "patches", "split", "scores")]
        views.append(arena.take((6, 6), np.float64, "padded"))
        for i, a in enumerate(views):
            for b in views[i + 1:]:
                assert not np.shares_memory(a, b)
        assert len(arena) == 5

    def test_resnet_arena_bounded_by_largest_layer(self):
        # The arena holds one image's im2col scratch and activations:
        # "padded", "patches" and the three "act" slots, each the size
        # of its largest layer, whatever the batch.
        model = build_functional("resnet50")
        x = np.random.default_rng(0).standard_normal(
            (4, *model.input_shape)).astype(np.float32)
        model(x[:1])
        one_image = model.pack.arena.nbytes
        model(x)
        arena = model.pack.arena
        assert arena.nbytes == one_image
        assert len(arena) <= 5
        assert arena.nbytes <= 21e6


class TestWeightPack:
    @pytest.mark.parametrize("name", ["vit_tiny", "resnet50"])
    def test_linear_operands_share_weight_memory(self, name):
        model = build_functional(name)
        linears = [w for k, w in model.weights.items()
                   if k.endswith(".weight") and w.ndim == 2]
        assert linears
        for w in linears:
            operand = model.pack.linear_operand(w)
            assert operand.flags.c_contiguous
            assert np.shares_memory(operand, w)
            np.testing.assert_array_equal(operand, w.T)

    def test_conv_operands_share_weight_memory(self):
        # The GEMM operand is the kernel's own channels-last memory, so
        # ResNet-50 holds one copy of each conv kernel.
        model = build_functional("resnet50")
        convs = [k[:-5] for k in model.weights if k.endswith(".conv")]
        assert len(convs) == 53
        for prefix in convs:
            operand, _, _ = model.pack.conv_bn_operand(prefix)
            assert np.shares_memory(operand,
                                    model.weights[f"{prefix}.conv"])

    def test_nchw_conv_is_copied_once_when_packed(self):
        # A kernel that is not channels-last (a test's array, a
        # replaced weight) gets one contiguous operand.
        rng = np.random.default_rng(2)
        conv = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        weights = {"c.conv": conv, "c.bn.gamma": np.ones(4, np.float32),
                   "c.bn.beta": np.zeros(4, np.float32),
                   "c.bn.mean": np.zeros(4, np.float32),
                   "c.bn.var": np.ones(4, np.float32)}
        operand, _, _ = WeightPack(weights).conv_bn_operand("c")
        assert operand.flags.c_contiguous
        assert not np.shares_memory(operand, conv)
        np.testing.assert_array_equal(
            operand, conv.transpose(2, 3, 1, 0).reshape(-1, 4))

    def test_replaced_weight_never_gets_a_stale_operand(self):
        # A replaced weight used to free its id for the next allocation,
        # which then resolved to the old array's packed operand.
        rng = np.random.default_rng(0)
        weights = {f"{k}.weight": rng.standard_normal((4, 4)).astype(
            np.float32) for k in "ab"}
        pack = WeightPack(weights)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        for i in range(200):
            key = f"{'ab'[i % 2]}.weight"
            del weights[key]
            new = rng.standard_normal((4, 4)).astype(np.float32)
            weights[key] = new
            np.testing.assert_array_equal(linear(x, new, pack=pack),
                                          x @ new.T)
            assert pack.linear_operand(new) is None

    def test_replaced_conv_weight_falls_back(self):
        rng = np.random.default_rng(1)
        weights = {"patch.weight": rng.standard_normal(
            (2, 3, 2, 2)).astype(np.float32)}
        pack = WeightPack(weights)
        assert pack.conv_operand(weights["patch.weight"]) is not None
        replacement = weights["patch.weight"].copy()
        weights["patch.weight"] = replacement
        assert pack.conv_operand(replacement) is None

    @pytest.mark.parametrize("name", ["vit_tiny", "resnet50"])
    def test_quantized_model_packs_only_live_weights(self, name):
        # Quantization replaces weights in place; a pack built before
        # then held every replaced float weight alive.
        from repro.models.quantization import quantized_model

        model = quantized_model(name)
        pack = model.pack
        sources = [w for w, _ in pack._linear_t.values()]
        sources += [w for w, _ in pack._conv_mat.values()]
        sources += [w for entry in pack._conv_bn.values()
                    for w in entry[0]]
        assert sources
        for w in sources:
            assert any(w is v for v in model.weights.values())
        for key, w in model.weights.items():
            if key.endswith(".weight") and w.ndim == 2:
                assert pack.linear_operand(w) is not None

"""Tests for repro.models.graph."""

import pytest

from repro.engine.latency import LatencyModel
from repro.hardware.platform import A100, JETSON
from repro.models.graph import ModelGraph
from repro.models.layers import (
    Activation,
    AttentionMatmul,
    LayerCategory,
    LayerSpec,
    Linear,
)
from repro.models.zoo import MODEL_ZOO


def tiny_graph():
    return ModelGraph("toy", "transformer", (3, 8, 8), [
        Linear("fc1", in_features=16, out_features=32, tokens=4),
        AttentionMatmul("attn", tokens=4, dim=16, heads=2),
        Activation("gelu", kind="gelu", shape=(4, 32)),
        Linear("fc2", in_features=32, out_features=16, tokens=4),
    ])


class TestConstruction:
    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ModelGraph("bad", "cnn", (3, 8, 8), [
                Linear("fc", 4, 4), Linear("fc", 4, 4)])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ModelGraph("bad", "cnn", (3, 8, 8), [])

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="architecture"):
            ModelGraph("bad", "rnn", (3, 8, 8), [Linear("fc", 4, 4)])

    def test_iteration_and_len(self):
        graph = tiny_graph()
        assert len(graph) == 4
        assert [l.name for l in graph] == ["fc1", "attn", "gelu", "fc2"]


class TestAccounting:
    def test_total_params_is_layer_sum(self):
        graph = tiny_graph()
        assert graph.total_params() == sum(
            l.params() for l in graph.layers)

    def test_total_macs_includes_attention(self):
        graph = tiny_graph()
        attn_macs = 2 * 16 * 16  # 2 T^2 D
        assert graph.total_macs() == pytest.approx(
            4 * 16 * 32 + attn_macs + 4 * 32 * 16)

    def test_reported_gflops_excludes_attention_matmuls(self):
        # The Table 3 profiler convention.
        graph = tiny_graph()
        expected = (4 * 16 * 32 + 4 * 32 * 16) / 1e9
        assert graph.reported_gflops() == pytest.approx(expected)

    def test_flops_per_image_is_reported_convention(self):
        graph = tiny_graph()
        assert graph.flops_per_image() == pytest.approx(
            graph.reported_gflops() * 1e9)

    def test_compute_breakdown_sums_to_one(self):
        breakdown = tiny_graph().compute_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_mlp_attention_split_sums_to_one(self):
        mlp, attn = tiny_graph().mlp_attention_split()
        assert mlp + attn == pytest.approx(1.0)
        assert mlp > attn  # dense matmuls dominate

    def test_split_raises_without_matmuls(self):
        graph = ModelGraph("act-only", "cnn", (3, 8, 8), [
            Activation("a", kind="relu", shape=(3, 8, 8))])
        with pytest.raises(ValueError, match="no matmul"):
            graph.mlp_attention_split()


class TestMemoryAccounting:
    def test_weight_bytes_scale_with_precision(self):
        graph = tiny_graph()
        assert graph.weight_bytes(2) == 2 * graph.total_params()
        assert graph.weight_bytes(4) == 2 * graph.weight_bytes(2)

    def test_peak_vs_sum_activations(self):
        graph = tiny_graph()
        assert (graph.peak_activation_elements()
                <= graph.sum_activation_elements())

    def test_reuse_footprint_smaller_than_no_reuse(self):
        graph = tiny_graph()
        assert (graph.activation_bytes_per_image(2, reuse=True)
                <= graph.activation_bytes_per_image(2, reuse=False))

    def test_ping_pong_is_twice_the_peak(self):
        graph = tiny_graph()
        assert graph.activation_bytes_per_image(2, reuse=True) == \
            2 * 2 * graph.peak_activation_elements()


def _layer_classes(cls=LayerSpec):
    for sub in cls.__subclasses__():
        yield sub
        yield from _layer_classes(sub)


class TestStoredTotals:
    """The totals are computed once at construction; every accessor must
    return exactly what a fresh walk over the layers would."""

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_bit_identical_to_fresh_walk(self, name):
        graph = MODEL_ZOO[name].graph
        layers = graph.layers
        reported = sum(l.macs() for l in layers
                       if l.category is not LayerCategory.ATTENTION)
        peak = max(l.activation_elements() for l in layers)
        total = sum(l.activation_elements() for l in layers)
        assert graph.total_params() == sum(l.params() for l in layers)
        assert graph.total_macs() == sum(l.macs() for l in layers)
        assert graph.reported_gflops() == reported / 1e9
        assert graph.flops_per_image() == (reported / 1e9) * 1e9
        assert graph.weight_bytes(2) == float(
            sum(l.params() for l in layers)) * 2
        assert graph.peak_activation_elements() == peak
        assert graph.sum_activation_elements() == total
        assert graph.activation_bytes_per_image(2) == float(2 * peak) * 2
        assert graph.activation_bytes_per_image(
            4, reuse=False) == float(total) * 4

    def test_latency_makes_no_layer_walk(self, monkeypatch):
        models = [LatencyModel(MODEL_ZOO["vit_base"].graph, JETSON),
                  LatencyModel(MODEL_ZOO["resnet50"].graph, A100)]
        calls = []
        for cls in _layer_classes():
            if "macs" not in vars(cls):
                continue
            original = vars(cls)["macs"]

            def counting(self, _original=original):
                calls.append(1)
                return _original(self)

            monkeypatch.setattr(cls, "macs", counting)
        for i in range(1000):
            models[i % 2].latency(1 + i % 64)
        assert not calls


class TestSummary:
    def test_summary_fields(self, vit_tiny):
        s = vit_tiny.summary()
        assert s.name == "vit_tiny"
        assert s.architecture == "transformer"
        assert s.params == vit_tiny.total_params()
        assert s.params_millions == pytest.approx(s.params / 1e6)

    def test_layer_table_covers_all_layers(self, vit_tiny):
        table = vit_tiny.layer_table()
        assert len(table) == len(vit_tiny)
        assert {"name", "category", "params", "macs",
                "elementwise_flops", "output_shape"} == set(table[0])

    def test_repr_mentions_name_and_size(self, vit_tiny):
        text = repr(vit_tiny)
        assert "vit_tiny" in text and "5.40M" in text

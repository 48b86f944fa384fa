"""Tests for the per-layer roofline analysis."""

import pytest

from repro.analysis.layer_roofline import (
    model_layer_roofline,
    roofline_summary,
)
from repro.hardware.platform import A100, JETSON


class TestLayerRoofline:
    def test_time_fractions_sum_to_one(self, resnet50):
        points = model_layer_roofline(resnet50, A100, batch_size=64)
        assert sum(p.time_fraction for p in points) == pytest.approx(1.0)

    def test_batching_raises_compute_bound_share(self, vit_tiny):
        # The Fig. 5 mechanism from first principles: batch amortizes
        # weight traffic, moving matmuls toward the compute roof.
        small = roofline_summary(vit_tiny, A100, batch_size=1)
        large = roofline_summary(vit_tiny, A100, batch_size=256)
        assert large["compute_bound_time_fraction"] > \
            small["compute_bound_time_fraction"]

    def test_resnet_time_dominated_by_convs(self, resnet50):
        summary = roofline_summary(resnet50, A100, batch_size=64)
        by_cat = summary["time_by_category"]
        assert by_cat["conv"] == max(by_cat.values())

    def test_vit_time_dominated_by_linear(self, vit_small):
        summary = roofline_summary(vit_small, A100, batch_size=64)
        by_cat = summary["time_by_category"]
        assert by_cat["linear"] == max(by_cat.values())

    def test_normalization_layers_are_bandwidth_bound(self, vit_small):
        points = model_layer_roofline(vit_small, A100, batch_size=64)
        norms = [p for p in points if p.category == "norm"]
        assert norms
        assert all(not p.compute_bound for p in norms)

    def test_edge_device_more_compute_bound(self, resnet50):
        # The Jetson's compute/bandwidth ratio is lower, so more layers
        # hit its (lower) compute roof at the same batch.
        cloud = roofline_summary(resnet50, A100, batch_size=64)
        edge = roofline_summary(resnet50, JETSON, batch_size=64)
        assert edge["compute_bound_time_fraction"] >= \
            cloud["compute_bound_time_fraction"]

    def test_invalid_batch_rejected(self, vit_tiny):
        with pytest.raises(ValueError):
            model_layer_roofline(vit_tiny, A100, batch_size=0)

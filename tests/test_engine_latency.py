"""Tests for repro.engine.latency — the Fig. 6 laws."""

import pytest

from repro.engine.calibration import LATENCY_TARGET_SECONDS, batch_grid
from repro.engine.latency import LatencyModel
from repro.hardware.platform import A100, JETSON, V100


class TestLatencyCurve:
    def test_latency_increases_with_batch(self, vit_small):
        model = LatencyModel(vit_small, A100)
        lats = [model.latency(b) for b in (1, 4, 16, 64, 256, 1024)]
        assert lats == sorted(lats)

    def test_actual_latency_above_theoretical(self, all_models):
        # The solid lines sit above the dashed ideal everywhere.
        for graph in all_models:
            model = LatencyModel(graph, A100)
            for b in (1, 8, 64, 512):
                assert model.latency(b) > model.theoretical_latency(b)

    def test_theoretical_latency_linear_in_batch(self, vit_tiny):
        model = LatencyModel(vit_tiny, V100)
        assert model.theoretical_latency(128) == pytest.approx(
            128 * model.theoretical_latency(1))

    def test_initial_nonlinear_region(self, vit_tiny):
        # "low MFU at small batch sizes creates an initial nonlinear
        # region": latency grows far slower than batch at the start.
        model = LatencyModel(vit_tiny, A100)
        assert model.latency(8) < 2.0 * model.latency(1)

    def test_asymptotically_linear(self, vit_tiny):
        model = LatencyModel(vit_tiny, A100)
        assert model.latency(1024) == pytest.approx(
            2 * model.latency(512), rel=0.05)

    def test_point_consistency(self, resnet50):
        model = LatencyModel(resnet50, JETSON)
        point = model.point(16)
        assert point.latency_seconds == pytest.approx(
            16 / point.throughput)
        assert point.achieved_tflops == pytest.approx(
            JETSON.practical_tflops * point.mfu)

    def test_sweep_returns_grid_points(self, vit_base):
        model = LatencyModel(vit_base, A100)
        grid = (1, 2, 4, 8)
        points = model.sweep(grid)
        assert tuple(p.batch_size for p in points) == grid


class TestExactLaw:
    """latency(b) is b / (FLOPS · MFU(b) / FLOPs_per_image), evaluated in
    exactly this order: the simulators' digests depend on every bit."""

    @pytest.mark.parametrize("name, platform, precision", [
        ("resnet50", A100, None),
        ("vit_base", JETSON, None),
        ("resnet50", A100, "int8"),
    ])
    def test_latency_matches_the_law_exactly(self, name, platform,
                                             precision):
        from repro.models.zoo import MODEL_ZOO

        graph = MODEL_ZOO[name].graph
        model = LatencyModel(graph, platform, precision=precision)
        for b in range(1, 65):
            assert model.latency(b) == b / (
                model.effective_flops * model.mfu_model.mfu(b)
                / graph.flops_per_image())


class TestOperatingRegion:
    """Section 4.1: "On A100 hardware, this requires batch sizes exceeding
    16; on V100, batch size 8 suffices."""

    def test_a100_needs_larger_batch_than_its_latency_budget_alone(self):
        from repro.models.vit import build_vit

        graph = build_vit("vit_tiny")
        model = LatencyModel(graph, A100)
        grid = batch_grid("a100")
        optimal = model.optimal_operating_batch(grid,
                                                saturation_fraction=0.8)
        assert optimal is not None and optimal >= 16

    def test_v100_saturates_with_smaller_batch_than_a100(self, vit_small):
        a100 = LatencyModel(vit_small, A100)
        v100 = LatencyModel(vit_small, V100)
        a_opt = a100.optimal_operating_batch(batch_grid("a100"),
                                             saturation_fraction=0.8)
        v_opt = v100.optimal_operating_batch(batch_grid("v100"),
                                             saturation_fraction=0.8)
        assert v_opt <= a_opt

    def test_meets_60qps_flag(self, vit_base):
        model = LatencyModel(vit_base, A100)
        points = model.sweep(batch_grid("a100"))
        ok = [p for p in points if p.meets_60qps]
        too_slow = [p for p in points if not p.meets_60qps]
        assert ok and too_slow
        assert max(p.batch_size for p in ok) < min(
            p.batch_size for p in too_slow)

    def test_max_batch_within_latency(self, vit_base):
        model = LatencyModel(vit_base, A100)
        best = model.max_batch_within_latency(batch_grid("a100"))
        assert model.latency(best) <= LATENCY_TARGET_SECONDS
        grid = batch_grid("a100")
        nxt = grid[grid.index(best) + 1]
        assert model.latency(nxt) > LATENCY_TARGET_SECONDS

    def test_unreachable_target_returns_none(self, vit_base):
        model = LatencyModel(vit_base, JETSON)
        assert model.max_batch_within_latency((8, 16),
                                              target_seconds=1e-6) is None

    def test_jetson_narrow_margins_for_vit_base(self, vit_base):
        # ViT Base on the Jetson cannot reach saturation within 16.7 ms.
        model = LatencyModel(vit_base, JETSON)
        optimal = model.optimal_operating_batch(
            (1, 2, 4, 8), saturation_fraction=0.9)
        assert optimal is None

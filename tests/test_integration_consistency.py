"""Cross-subsystem consistency: different views of one quantity agree.

The reproduction exposes most quantities through several independent code
paths (study tables, figure series, engine facades, predictors, SVG
charts).  These tests pin them together so a refactor cannot silently
fork the numbers.
"""

import pytest

from repro.analysis.figures import fig5, fig6, fig8
from repro.core.study import CharacterizationStudy
from repro.engine.engine import InferenceEngine
from repro.engine.latency import LatencyModel
from repro.hardware.platform import A100, JETSON, get_platform
from repro.models.zoo import get_model
from repro.predict.predictor import PerformancePredictor


@pytest.fixture(scope="module")
def study_tables():
    study = CharacterizationStudy()
    return {
        "engine": study.engine_scaling(),
        "e2e": study.end_to_end(),
    }


class TestFigureVsStudyConsistency:
    def test_fig5_series_match_engine_table(self, study_tables):
        table = study_tables["engine"].where(platform="A100",
                                             model="vit_small")
        series = next(s for s in fig5("a100") if s.name == "ViT Small")
        assert list(series.x) == table.column("batch_size")
        for y, row_tflops in zip(series.y,
                                 table.column("achieved_tflops")):
            assert y == pytest.approx(row_tflops)

    def test_fig6_series_match_engine_table(self, study_tables):
        table = study_tables["engine"].where(platform="Jetson",
                                             model="resnet50")
        series = next(s for s in fig6("jetson") if s.name == "ResNet50")
        for y_ms, row_ms in zip(series.y, table.column("latency_ms")):
            assert y_ms == pytest.approx(row_ms)

    def test_fig8_series_match_e2e_table(self, study_tables):
        table = study_tables["e2e"].where(platform="Jetson",
                                          model="vit_base")
        series = next(s for s in fig8("jetson")
                      if s.name == "vit_base@BS2 throughput")
        by_dataset = dict(zip(series.x, series.y))
        for row in table.rows:
            assert by_dataset[row["dataset"]] == pytest.approx(
                row["throughput"])


class TestFacadeVsModelConsistency:
    def test_engine_facade_matches_latency_model(self, vit_small):
        engine = InferenceEngine(vit_small, A100)
        model = LatencyModel(vit_small, A100)
        for batch in (1, 16, 256):
            assert engine.infer(batch).latency_seconds == pytest.approx(
                model.latency(batch))

    def test_predictor_matches_study_on_calibrated_platform(
            self, study_tables, resnet50):
        predictor = PerformancePredictor(JETSON)
        prediction = predictor.predict(resnet50, 64)
        row = study_tables["engine"].where(
            platform="Jetson", model="resnet50").rows[-1]
        assert row["batch_size"] == 64
        assert prediction.throughput == pytest.approx(row["throughput"])

    def test_anchor_throughputs_identical_everywhere(self):
        # Three independent paths to the same paper anchor.
        from repro.engine.calibration import anchor_for

        graph = get_model("vit_base").graph
        batch, paper = anchor_for("v100", "vit_base")
        v100 = get_platform("v100")
        paths = [
            LatencyModel(graph, v100).throughput(batch),
            InferenceEngine(graph, v100).infer(batch).throughput,
            PerformancePredictor(v100).predict(graph, batch).throughput,
        ]
        for value in paths:
            assert value == pytest.approx(paper, rel=1e-3)


class TestChartsVsFigures:
    def test_svg_renders_from_identical_series(self):
        # The SVG path consumes fig5() directly; a parse-back of legend
        # labels must cover the zoo.
        import xml.etree.ElementTree as ET

        from repro.viz.charts import render_figure_svg

        root = ET.fromstring(render_figure_svg("fig5", "V100"))
        labels = [el.text for el in root.iter()
                  if el.tag.endswith("text") and el.text]
        for name in ("ViT Tiny", "ViT Small", "ViT Base", "ResNet50"):
            assert name in labels

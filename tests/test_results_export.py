"""Tests for machine-readable exports and precision-scaled engines."""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.core.results import ResultTable
from repro.core.study import CharacterizationStudy
from repro.engine.latency import LatencyModel
from repro.hardware.platform import A100, V100
from repro.hardware.precision import Precision


class TestResultTableExport:
    @pytest.fixture(scope="class")
    def table(self):
        return CharacterizationStudy().table3()

    def test_json_roundtrip(self, table):
        restored = ResultTable.from_json(table.to_json())
        assert restored.title == table.title
        assert restored.rows == json.loads(table.to_json())["rows"]
        assert len(restored.rows) == 4

    def test_csv_has_header_and_rows(self, table):
        lines = table.to_csv().strip().splitlines()
        assert lines[0].startswith("model,")
        assert len(lines) == 1 + 4

    def test_csv_parses_back(self, table):
        import csv
        import io

        rows = list(csv.DictReader(io.StringIO(table.to_csv())))
        assert rows[0]["model"] == "ViT Tiny"
        assert float(rows[0]["paper_gflops_per_image"]) == 1.37

    def test_from_json_validates(self):
        with pytest.raises(ValueError):
            ResultTable.from_json('{"rows": []}')
        with pytest.raises(json.JSONDecodeError):
            ResultTable.from_json("{nope")

    def test_cli_structured_export(self, capsys):
        from repro.cli import main

        assert main(["report", "table2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "Plant Village" in out
        assert out.splitlines()[0].startswith("dataset,")

    def test_cli_export_to_file(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "t1.json"
        assert main(["report", "table1", "--format", "json",
                     "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert len(doc["rows"]) == 3


class TestPrecisionScaledEngine:
    def test_int8_doubles_a100_throughput(self, vit_small):
        base = LatencyModel(vit_small, A100)
        int8 = LatencyModel(vit_small, A100, precision=Precision.INT8)
        assert int8.throughput(64) == pytest.approx(
            2.0 * base.throughput(64))
        assert int8.latency(64) == pytest.approx(base.latency(64) / 2)

    def test_benchmark_precision_is_identity(self, vit_small):
        base = LatencyModel(vit_small, A100)
        explicit = LatencyModel(vit_small, A100,
                                precision=Precision.BF16)
        assert explicit.throughput(64) == pytest.approx(
            base.throughput(64))

    def test_fp32_slows_the_engine(self, resnet50):
        base = LatencyModel(resnet50, A100)
        fp32 = LatencyModel(resnet50, A100, precision=Precision.FP32)
        assert fp32.throughput(64) < 0.1 * base.throughput(64)

    def test_unsupported_precision_rejected(self, vit_small):
        with pytest.raises(ValueError):
            LatencyModel(vit_small, V100, precision=Precision.BF16)

    def test_point_scales_achieved_tflops(self, vit_small):
        int8 = LatencyModel(vit_small, A100, precision=Precision.INT8)
        base = LatencyModel(vit_small, A100)
        assert int8.point(64).achieved_tflops == pytest.approx(
            2 * base.point(64).achieved_tflops)

    def test_engine_facade_uses_requested_precision(self, vit_small):
        from repro.engine.engine import InferenceEngine

        bf16 = InferenceEngine(vit_small, A100)
        int8 = InferenceEngine(vit_small, A100,
                               precision=Precision.INT8)
        assert int8.infer(64).latency_seconds == pytest.approx(
            bf16.infer(64).latency_seconds / 2)


class TestTraceSvg:
    def test_renders_and_parses(self):
        from repro.serving.batcher import BatcherConfig
        from repro.serving.request import Request
        from repro.serving.server import ModelConfig, TritonLikeServer
        from repro.serving.tracectx import TraceContext
        from repro.viz.charts import render_trace_svg

        server = TritonLikeServer()
        server.register(ModelConfig("pre", lambda n: 0.002,
                                    batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig("mdl", lambda n: 0.004,
                                    batcher=BatcherConfig(enabled=False),
                                    preprocess_model="pre"))
        request = Request("mdl", trace=TraceContext(1))
        server.submit(request)
        server.run()
        svg = render_trace_svg(request.trace)
        root = ET.fromstring(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        labels = [e.text for e in root.iter() if e.tag.endswith("text")]
        # Background plus one bar per interval span: two zero-length
        # queue waits and the two executions.
        assert len(rects) == 1 + 4
        assert labels[0] == "request 1 (ok) — 6.00 ms, untracked 0.00 ms"
        assert labels[1:] == ["queue_wait", "pre#0", "queue_wait", "mdl#0"]

    def test_empty_trace_rejected(self):
        from repro.serving.tracectx import TraceContext
        from repro.viz.charts import render_trace_svg

        trace = TraceContext(1)
        trace.instant("queue_reject", 0.0)
        trace.close(0.0, status="rejected")
        with pytest.raises(ValueError, match="no spans"):
            render_trace_svg(trace)

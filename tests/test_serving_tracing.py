"""Per-request stage decomposition from trace spans, and its Gantt view."""

import pytest

from repro.analysis.report import registry_stage_breakdown
from repro.serving.batcher import BatcherConfig
from repro.serving.faults import FaultModel
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer
from repro.serving.trace_export import critical_path, \
    critical_path_summary, gantt_rows, render_gantt
from repro.serving.tracectx import TraceContext


def traced(server, model):
    """Submit a traced request for ``model`` and return it."""
    request = Request(model, arrival_time=server.sim.now)
    request.trace = TraceContext(request.request_id, start=server.sim.now)
    server.submit(request)
    return request


def execute_spans(request):
    return request.trace.find("execute")


def execute_totals(requests):
    """{stage: [count, total seconds]} over the requests' execute spans."""
    totals: dict[str, list] = {}
    for request in requests:
        for span in execute_spans(request):
            entry = totals.setdefault(span.args["stage"], [0, 0.0])
            entry[0] += 1
            entry[1] += span.duration
    return totals


@pytest.fixture()
def two_stage_request():
    server = TritonLikeServer()
    server.register(ModelConfig("pre", lambda n: 0.002,
                                batcher=BatcherConfig(enabled=False)))
    server.register(ModelConfig("mdl", lambda n: 0.005,
                                batcher=BatcherConfig(enabled=False),
                                preprocess_model="pre"))
    request = traced(server, "mdl")
    server.run()
    return request


class TestTraceOf:
    def test_spans_cover_both_stages(self, two_stage_request):
        spans = execute_spans(two_stage_request)
        assert [s.args["instance"] for s in spans] == ["pre#0", "mdl#0"]
        assert spans[0].duration == pytest.approx(0.002)
        assert spans[1].duration == pytest.approx(0.005)

    def test_latency_decomposes(self, two_stage_request):
        trace = two_stage_request.trace
        assert trace.latency == pytest.approx(0.007)
        assert critical_path(trace).get("untracked", 0.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_spans_ordered_by_start(self, two_stage_request):
        starts = [s.start for _, s in gantt_rows(two_stage_request.trace)]
        assert starts == sorted(starts)

    def test_queueing_shows_up(self):
        server = TritonLikeServer()
        server.register(ModelConfig("m", lambda n: 0.01,
                                    batcher=BatcherConfig(enabled=False)))
        traced(server, "m")
        second = traced(server, "m")  # waits behind the first
        responses = server.run()
        assert responses[1].queue_delay == pytest.approx(0.01)
        assert second.first_start == pytest.approx(0.01)
        [wait] = second.trace.find("queue_wait")
        assert wait.duration == pytest.approx(0.01)


class TestRetriedSpans:
    def _retried(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 0.01,
            batcher=BatcherConfig(enabled=False),
            fault_model=FaultModel(1.0, detect_seconds=0.2, seed=1),
            max_retries=1))
        request = traced(server, "m")

        def clear():  # exactly one failure, then the retry succeeds
            server._models["m"].fault_model.failure_probability = 0.0

        server.sim.schedule(0.1, clear)
        [response] = server.run()
        assert response.status == "ok"
        return server, request

    def test_each_attempt_keeps_its_own_span(self):
        # Regression: the retry used to overwrite the first attempt's
        # record, dropping the failed attempt from the trace.
        _, request = self._retried()
        spans = execute_spans(request)
        assert [label for label, s in gantt_rows(request.trace)
                if s.name == "execute"] == ["m#0", "m#0@1"]
        assert [s.args["attempt"] for s in spans] == [0, 1]
        assert request.retries == {"m": 1}
        # Failed attempt spans the 0.2 s detection window; the retry
        # spans the 0.01 s service time.
        assert spans[0].duration == pytest.approx(0.2)
        assert spans[1].duration == pytest.approx(0.01)

    def test_detection_window_not_misread_as_queueing(self):
        # Regression: with the failed attempt's span lost, the 0.2 s
        # detection window was booked as queueing.
        _, request = self._retried()
        path = critical_path(request.trace)
        assert path.get("untracked", 0.0) == pytest.approx(0.0, abs=1e-9)
        assert path["execute"] == pytest.approx(0.21)

    def test_breakdown_surfaces_retried_attempts(self):
        server, request = self._retried()
        assert execute_totals([request])["m"] == [2, pytest.approx(0.21)]
        breakdown = registry_stage_breakdown(server.metrics)
        # The registry counts successful executions only.
        assert breakdown["m"]["count"] == 1
        assert breakdown["m"]["retried_attempts"] == 1
        assert breakdown["m"]["total_seconds"] == pytest.approx(0.01)
        assert breakdown["queued"]["retried_attempts"] == 0

    def test_span_model_collapses_instance_and_attempt(self):
        _, request = self._retried()
        assert all(s.args["stage"] == "m" for s in execute_spans(request))


class TestRendering:
    def test_gantt_includes_all_stages(self, two_stage_request):
        text = render_gantt(two_stage_request.trace)
        lines = text.splitlines()
        assert lines[0].startswith(
            f"request {two_stage_request.trace.trace_id} (ok): 7.00 ms")
        assert "pre#0" in text and "mdl#0" in text
        # The 2 ms preprocess takes 17 of 60 columns from the origin;
        # inference follows it.
        [pre] = [line for line in lines if "pre#0" in line]
        [mdl] = [line for line in lines if "mdl#0" in line]
        assert pre.split()[1] == "#" * 17
        assert mdl.split()[1].startswith("." * 17 + "#")

    def test_gantt_width_validated(self, two_stage_request):
        with pytest.raises(ValueError):
            render_gantt(two_stage_request.trace, width=5)

    def test_gantt_zero_duration_trace_degenerates(self):
        # Regression: a request shed the instant it arrived has a
        # zero-duration root; scaling bars against the total would
        # divide by zero.  It must render as a one-column chart.
        trace = TraceContext(9, start=0.5)
        span = trace.begin("execute", 0.5, instance="m#0", attempt=0)
        trace.end(span, 0.5)
        trace.close(0.5, status="rejected")
        lines = render_gantt(trace).splitlines()
        assert "0.00 ms" in lines[0]
        # Exactly one bar column at the origin, no leading dots.
        assert lines[1].split()[:2] == ["m#0", "#"]

    def test_gantt_zero_duration_trace_without_spans(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 1.0,
            batcher=BatcherConfig(enabled=False, max_queue_size=1)))
        server.submit(Request("m"))  # occupies the instance
        server.submit(Request("m"))  # fills the queue
        shed = traced(server, "m")
        server.run()
        assert gantt_rows(shed.trace) == []
        assert render_gantt(shed.trace) == (
            f"request {shed.trace.trace_id} (rejected): 0.00 ms "
            "(untracked 0.00 ms)")


class TestBreakdown:
    def test_aggregates_collapse_instances(self):
        server = TritonLikeServer()
        server.register(ModelConfig("m", lambda n: 0.01, instances=2,
                                    batcher=BatcherConfig(enabled=False)))
        requests = [traced(server, "m") for _ in range(4)]
        server.run()
        assert {s.args["instance"] for r in requests
                for s in execute_spans(r)} == {"m#0", "m#1"}
        assert execute_totals(requests) == {"m": [4, pytest.approx(0.04)]}
        breakdown = registry_stage_breakdown(server.metrics)
        assert breakdown["m"]["count"] == 4
        assert breakdown["m"]["mean_seconds"] == pytest.approx(0.01)
        assert "queued" in breakdown

    def test_empty_input_rejected(self):
        # The span-side aggregate across requests refuses no traces.
        with pytest.raises(ValueError, match="no closed traces"):
            critical_path_summary([])

    def test_section31_decomposition(self):
        # The Section 3.1 latency decomposition: dataset preprocessing,
        # model preprocessing, inference.  Only the direct preprocess
        # of "infer" runs in its chain: model_pre, then infer.
        server = TritonLikeServer()
        server.register(ModelConfig("dataset_pre", lambda n: 0.003,
                                    batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig("model_pre", lambda n: 0.002,
                                    batcher=BatcherConfig(enabled=False),
                                    preprocess_model="dataset_pre"))
        server.register(ModelConfig("infer", lambda n: 0.004,
                                    batcher=BatcherConfig(enabled=False),
                                    preprocess_model="model_pre"))
        request = traced(server, "infer")
        server.run()
        assert request.trace.latency == pytest.approx(0.006, abs=1e-9)
        assert execute_totals([request]) == {
            "model_pre": [1, pytest.approx(0.002)],
            "infer": [1, pytest.approx(0.004)]}

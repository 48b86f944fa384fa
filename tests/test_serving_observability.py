"""Tests for repro.serving.observability — registry, sampler, scrape."""

import pytest

from repro.serving.batcher import BatcherConfig
from repro.serving.client import OpenLoopClient
from repro.serving.events import Simulator
from repro.serving.exporter import export_metrics, export_registry, \
    parse_metrics
from repro.serving.faults import FaultModel
from repro.serving.metrics import summarize_responses
from repro.serving.observability import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    TimeSeriesSampler,
)
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs")
        c.inc(model="a")
        c.inc(2, model="a")
        c.inc(model="b")
        assert c.value(model="a") == 3
        assert c.value(model="b") == 1
        assert c.value(model="missing") == 0
        assert c.total() == 4

    def test_decrease_rejected(self):
        c = MetricsRegistry().counter("reqs")
        with pytest.raises(ValueError, match="decrease"):
            c.inc(-1)


class TestGauge:
    def test_set_add(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5, model="m")
        g.add(-2, model="m")
        assert g.value(model="m") == 3

    def test_remove_drops_series_from_scrape(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5, model="a")
        g.set(7, model="b")
        assert g.remove(model="b") is True
        assert g.remove(model="b") is False  # already gone
        assert g.label_sets() == [(("model", "a"),)]
        assert g.value(model="b") == 0
        assert (("model", "b"),) not in g.last_updated


class TestHistogram:
    def test_buckets_sum_count(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v, stage="s")
        assert h.count(stage="s") == 4
        assert h.sum(stage="s") == pytest.approx(5.555)
        assert h.mean(stage="s") == pytest.approx(5.555 / 4)
        cumulative = h.cumulative_buckets(stage="s")
        assert cumulative == [(0.01, 1), (0.1, 2), (1.0, 3),
                              (float("inf"), 4)]

    def test_empty_series_reads_zero(self):
        h = MetricsRegistry().histogram("lat")
        assert h.count() == 0 and h.sum() == 0.0 and h.mean() == 0.0

    def test_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("bad2", buckets=(-1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("c")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("c")

    def test_collect_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.gauge("a")
        assert [m.name for m in reg.collect()] == ["a", "z"]

    def test_updates_stamped_on_simulator_clock(self):
        # Gauge updates carry their sim time, which merge needs to keep
        # the freshest reading; counters and histograms merge by
        # summing and carry no stamp.
        sim = Simulator()
        server = TritonLikeServer(sim)
        server.register(ModelConfig(
            "m", lambda n: 0.25, batcher=BatcherConfig(enabled=False)))
        depth = server.metrics.gauge("probe_depth")
        server.submit(Request("m"))
        sim.schedule(0.1, lambda: depth.set(3.0, model="m"))
        sim.schedule(0.2, lambda: depth.add(1.0, model="m"))
        server.run()
        assert depth.last_updated == {(("model", "m"),): 0.2}
        latency = server.metrics.get("request_latency_seconds")
        assert latency.label_sets() == [(("model", "m"),)]
        assert latency.count(model="m") == 1
        assert not hasattr(latency, "last_updated")

    def test_label_sets_survive_merge_and_pickling(self):
        import pickle

        def shard(stamp, model):
            registry = MetricsRegistry(clock=lambda: stamp)
            registry.counter("reqs").inc(model=model)
            registry.histogram("lat").observe(0.01, model=model)
            registry.gauge("depth").set(stamp, tier="edge")
            return registry

        fresh, stale = shard(5.0, "a"), shard(2.0, "b")
        fresh.counter("reqs").labels(model="idle")  # bound, never hit
        fresh.histogram("lat").labels(model="idle")
        keys = [(("model", "a"),), (("model", "b"),)]
        for first, second in ((fresh, stale), (stale, fresh)):
            merged = MetricsRegistry().merge(first).merge(second)
            for registry in (merged, pickle.loads(pickle.dumps(merged))):
                assert registry.get("reqs").label_sets() == keys
                assert registry.get("lat").label_sets() == keys
                depth = registry.get("depth")
                assert depth.label_sets() == [(("tier", "edge"),)]
                assert depth.value(tier="edge") == 5.0
                assert depth.last_updated == {(("tier", "edge"),): 5.0}


def _loaded_server(instances=1, queue_limit=0, fault=None, retries=2):
    server = TritonLikeServer()
    server.register(ModelConfig(
        "m", lambda n: 0.01 + 0.001 * n,
        batcher=BatcherConfig(max_batch_size=8, max_queue_delay=0.002,
                              max_queue_size=queue_limit),
        instances=instances, fault_model=fault, max_retries=retries))
    return server


class TestTimeSeriesSampler:
    def test_samples_on_the_interval_and_stops_with_the_sim(self):
        server = _loaded_server(instances=2)
        client = OpenLoopClient(server, "m", rate_per_second=200,
                                num_requests=100, seed=1)
        sampler = TimeSeriesSampler(server, interval=0.01)
        client.start()
        sampler.start()
        server.run()
        assert len(sampler.samples) > 10
        times, depths = sampler.series("queue_depth", model="m")
        assert times == sorted(times)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.01) for g in gaps)
        # The sampler must not keep a drained simulation alive: it ends
        # within one interval of the last real event.
        assert server.sim.now <= times[-1] + 0.01 + 1e-9
        # Under 200 rps on a ~400 img/s server the queue is visibly
        # occupied at some point and drains by the end.
        assert max(depths) >= 1
        assert depths[-1] == 0

    def test_utilization_series_bounded(self):
        server = _loaded_server(instances=2)
        client = OpenLoopClient(server, "m", rate_per_second=300,
                                num_requests=60, seed=2)
        sampler = TimeSeriesSampler(server, interval=0.005)
        client.start()
        sampler.start()
        server.run()
        utils = [p.utilization for p in sampler.samples]
        assert all(0.0 <= u <= 1.0 for u in utils)
        assert max(utils) > 0

    def test_registry_gauges_mirror_last_sample(self):
        server = _loaded_server()
        server.submit(Request("m"))
        sampler = TimeSeriesSampler(server, interval=0.001)
        sampler.start()
        server.run()
        last = sampler.samples[-1]
        gauge = server.metrics.get("queue_depth")
        assert gauge.value(model="m") == last.queue_depth["m"]

    def test_double_start_rejected(self):
        sampler = TimeSeriesSampler(_loaded_server())
        sampler.start()
        with pytest.raises(RuntimeError, match="already"):
            sampler.start()

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(_loaded_server(), interval=0.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_nan_or_infinite_interval_rejected(self, interval):
        # NaN was accepted and failed mid-run in the event core.
        with pytest.raises(ValueError):
            TimeSeriesSampler(_loaded_server(), interval=interval)

    def test_unloaded_model_leaves_the_scrape(self):
        # Regression: gauges for a model unloaded mid-run kept
        # reporting the pre-unload values forever (stale label sets).
        server = TritonLikeServer()
        for name in ("model_a", "model_b"):
            server.register(ModelConfig(
                name, lambda n: 0.01,
                batcher=BatcherConfig(enabled=False)))
        sampler = TimeSeriesSampler(server)
        sampler.sample_now()
        depth = server.metrics.get("queue_depth")
        total = server.metrics.get("total_instances")
        assert (("model", "model_b"),) in depth.label_sets()
        server.unregister("model_b")
        sampler.sample_now()
        for gauge in (depth, total):
            assert (("model", "model_b"),) not in gauge.label_sets()
            assert (("model", "model_a"),) in gauge.label_sets()
        assert 'model="model_b"' not in export_registry(server.metrics)

    def test_render_timeline(self):
        server = _loaded_server()
        for _ in range(5):
            server.submit(Request("m"))
        sampler = TimeSeriesSampler(server, interval=0.005)
        sampler.start()
        server.run()
        text = sampler.render_timeline()
        assert "util" in text and "queue" in text
        with pytest.raises(ValueError):
            sampler.render_timeline(width=3)


class TestExportRegistry:
    def test_histogram_exposition_format(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait_seconds", "Waits.", buckets=(0.1, 1.0))
        h.observe(0.05, stage="s")
        h.observe(0.5, stage="s")
        text = export_registry(reg)
        assert "# TYPE harvest_wait_seconds histogram" in text
        assert 'harvest_wait_seconds_bucket{le="0.1",stage="s"} 1' in text
        assert ('harvest_wait_seconds_bucket{le="+Inf",stage="s"} 2'
                in text)
        assert 'harvest_wait_seconds_count{stage="s"} 2' in text

    def test_empty_registry_exports_empty(self):
        assert export_registry(MetricsRegistry()) == ""

    def test_round_trips_through_parse_metrics(self):
        reg = MetricsRegistry()
        reg.counter("hits", "Hits.").inc(3, model="m")
        parsed = parse_metrics(export_registry(reg))
        assert parsed[("harvest_hits", (("model", "m"),))] == 3.0

    def test_label_values_escaped_and_round_trip(self):
        # Regression: quotes, backslashes and newlines in label values
        # used to be emitted raw, producing an unparseable exposition.
        reg = MetricsRegistry()
        hostile = 'say "hi"\\path\nnext,={}'
        reg.counter("hits", "Hits.").inc(2, model=hostile, zone="a")
        text = export_registry(reg)
        assert '\\"hi\\"' in text
        assert "\\\\path" in text
        assert "\\npext" not in text  # sanity: escapes, not mangles
        # The raw newline must not split the sample line.
        sample_lines = [l for l in text.splitlines()
                        if l.startswith("harvest_hits{")]
        assert len(sample_lines) == 1
        parsed = parse_metrics(text)
        key = ("harvest_hits",
               (("model", hostile), ("zone", "a")))
        assert parsed[key] == 2.0

    def test_help_text_escaped(self):
        reg = MetricsRegistry()
        reg.counter("hits", "Line one.\nBack\\slash.").inc(1)
        help_line = [l for l in export_registry(reg).splitlines()
                     if l.startswith("# HELP")][0]
        assert help_line == \
            "# HELP harvest_hits Line one.\\nBack\\\\slash."

    def test_malformed_label_block_rejected(self):
        with pytest.raises(ValueError, match="malformed label"):
            parse_metrics('harvest_hits{model=unquoted} 1')


class TestScrapeReconciliation:
    """Acceptance: live counters reconcile with summarize_responses."""

    def _run_scenario(self):
        fault = FaultModel(0.3, detect_seconds=0.02, seed=7)
        server = _loaded_server(queue_limit=12, fault=fault, retries=1)
        client = OpenLoopClient(server, "m", rate_per_second=400,
                                num_requests=300, seed=5)
        sampler = TimeSeriesSampler(server, interval=0.01)
        client.start()
        sampler.start()
        server.run()
        return server, sampler

    def test_counters_reconcile_with_response_summary(self):
        server, sampler = self._run_scenario()
        responses = server.responses
        assert len(responses) == 300
        by_status = {}
        for r in responses:
            by_status.setdefault(r.status, []).append(r)
        # The overloaded bounded queue rejects and the fault model
        # fails some requests: every status class is exercised.
        assert set(by_status) == {"ok", "rejected", "failed"}

        metrics = server.metrics
        for status, group in by_status.items():
            summary = summarize_responses(group)
            assert metrics.get("responses_total").value(
                model="m", status=status) == summary.count
            assert metrics.get("images_completed_total").value(
                model="m", status=status) == summary.images
        assert metrics.get("requests_submitted_total").value(
            model="m") == len(responses)
        assert metrics.get("rejections_total").value(
            stage="m") == len(by_status["rejected"])
        assert metrics.get("retry_exhausted_total").value(
            stage="m") == len(by_status["failed"])
        assert metrics.get("request_latency_seconds").count(
            model="m") == len(responses)
        # The sampler produced a queue-depth / utilization time series.
        times, depths = sampler.series("queue_depth", model="m")
        assert len(times) > 5 and max(depths) > 0
        assert any(p.utilization > 0 for p in sampler.samples)

    def test_scrape_text_carries_the_same_numbers(self):
        server, _ = self._run_scenario()
        parsed = parse_metrics(export_metrics(server))
        ok = sum(1 for r in server.responses if r.ok)
        rejected = sum(1 for r in server.responses
                       if r.status == "rejected")
        assert parsed[("harvest_responses_total",
                       (("model", "m"), ("status", "ok")))] == ok
        assert parsed[("harvest_rejections_total",
                       (("stage", "m"),))] == rejected
        assert parsed[("harvest_request_latency_seconds_count",
                       (("model", "m"),))] == len(server.responses)

    def test_scrape_is_deterministic_across_identical_runs(self):
        first, _ = self._run_scenario()
        second, _ = self._run_scenario()
        assert export_metrics(first) == export_metrics(second)


class TestStageBreakdownFromRegistry:
    def test_matches_tracing_totals(self):
        from repro.analysis.report import (
            registry_stage_breakdown,
            render_stage_breakdown,
        )
        from repro.serving.tracectx import TraceContext

        server = TritonLikeServer()
        server.register(ModelConfig(
            "pre", lambda n: 0.002, batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig(
            "mdl", lambda n: 0.005, batcher=BatcherConfig(enabled=False),
            preprocess_model="pre"))
        requests = []
        for trace_id in range(4):
            request = Request("mdl")
            request.trace = TraceContext(trace_id, start=server.sim.now)
            server.submit(request)
            requests.append(request)
        server.run()

        # Reference: per-stage sums of the traces' execute spans.
        from_traces: dict[str, float] = {}
        for request in requests:
            for span in request.trace.find("execute"):
                stage = span.args["stage"]
                from_traces[stage] = (from_traces.get(stage, 0.0)
                                      + span.duration)
        from_registry = registry_stage_breakdown(server.metrics)
        assert set(from_registry) == set(from_traces) | {"queued"}
        for stage in ("pre", "mdl"):
            assert (from_registry[stage]["total_seconds"]
                    == pytest.approx(from_traces[stage]))
        text = render_stage_breakdown(from_registry)
        assert "pre" in text and "mdl" in text and "queued" in text


class TestDefaultBuckets:
    def test_sorted_and_positive(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert all(b > 0 for b in DEFAULT_BUCKETS)


class TestHistogramBucketConflict:
    def test_conflicting_buckets_raise(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.1, 0.5, 1.0))
        with pytest.raises(ValueError, match="conflicting"):
            reg.histogram("lat", buckets=(0.2, 0.8))

    def test_same_buckets_any_order_return_same_instance(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 0.5, 1.0))
        assert reg.histogram("lat", buckets=(1.0, 0.1, 0.5)) is h

    def test_default_buckets_still_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.histogram("lat") is reg.histogram("lat")


class TestExemplars:
    def test_disabled_by_default(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05, trace_id="42", model="m")
        series = h._series[next(iter(h._series))]
        assert series.exemplars is None

    def test_recorded_per_bucket_last_wins(self):
        clock = [0.0]
        reg = MetricsRegistry(clock=lambda: clock[0])
        h = reg.histogram("lat", buckets=(0.1, 1.0)).enable_exemplars()
        h.observe(0.05, trace_id="1", model="m")
        clock[0] = 2.0
        h.observe(0.07, trace_id="2", model="m")
        h.observe(0.5, trace_id="3", model="m")
        series = h._series[next(iter(h._series))]
        assert series.exemplars[0] == (0.07, "2", 2.0)
        assert series.exemplars[1] == (0.5, "3", 2.0)

    def test_bound_handle_records_exemplars_too(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0)).enable_exemplars()
        bound = h.labels(model="m")
        bound.observe(0.05, trace_id="7")
        series = h._series[next(iter(h._series))]
        assert series.exemplars[0] == (0.05, "7", 0.0)

    def test_exported_in_openmetrics_syntax_and_parsed_back(self):
        from repro.serving.exporter import parse_exemplars

        clock = [3.5]
        reg = MetricsRegistry(clock=lambda: clock[0])
        h = reg.histogram("lat", buckets=(0.1, 1.0)).enable_exemplars()
        h.observe(0.05, trace_id="41", model="m")
        text = export_registry(reg)
        assert ('harvest_lat_bucket{le="0.1",model="m"} 1 '
                '# {trace_id="41"} 0.05 3.5') in text
        exemplars = parse_exemplars(text)
        key = ("harvest_lat_bucket", (("le", "0.1"), ("model", "m")))
        assert exemplars[key] == {
            "labels": {"trace_id": "41"}, "value": 0.05,
            "timestamp": 3.5}

    def test_parse_metrics_ignores_exemplar_suffixes(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0)).enable_exemplars()
        h.observe(0.05, trace_id="41", model="m")
        h.observe(0.5, model="m")
        parsed = parse_metrics(export_registry(reg))
        assert parsed[("harvest_lat_bucket",
                       (("le", "0.1"), ("model", "m")))] == 1
        assert parsed[("harvest_lat_count", (("model", "m"),))] == 2

    def test_scrape_without_trace_ids_is_unchanged(self):
        def scrape(enable: bool, with_ids: bool) -> str:
            reg = MetricsRegistry()
            h = reg.histogram("lat", buckets=(0.1, 1.0))
            if enable:
                h.enable_exemplars()
            for i, v in enumerate((0.05, 0.5, 2.0)):
                h.observe(v, trace_id=(str(i) if with_ids else None),
                          model="m")
            return export_registry(reg)

        assert scrape(False, False) == scrape(True, False)
        assert scrape(False, True) == scrape(False, False)


class TestSamplerTruncation:
    def _server(self):
        sim = Simulator()
        server = TritonLikeServer(sim)
        server.register(ModelConfig(
            "m", lambda n: 0.004,
            batcher=BatcherConfig(max_batch_size=4,
                                  max_queue_delay=0.002)))
        client = OpenLoopClient(server, "m", rate_per_second=200.0,
                                num_requests=60, seed=1)
        client.start()
        return server

    def test_truncated_run_sets_flag_and_counter(self):
        server = self._server()
        sampler = TimeSeriesSampler(server, interval=0.01,
                                    max_samples=5)
        sampler.start()
        server.run()
        assert sampler.truncated
        assert len(sampler.samples) == 5
        counter = server.metrics.get("sampler_truncated_total")
        assert counter is not None and counter.total() == 1
        assert "harvest_sampler_truncated_total 1" in \
            export_registry(server.metrics)

    def test_uncapped_run_scrape_has_no_truncation_series(self):
        server = self._server()
        sampler = TimeSeriesSampler(server, interval=0.01)
        sampler.start()
        server.run()
        assert not sampler.truncated
        assert len(sampler.samples) < sampler.max_samples
        assert server.metrics.get("sampler_truncated_total") is None
        assert "sampler_truncated" not in export_registry(server.metrics)

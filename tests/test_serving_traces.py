"""Tests for repro.serving.traces and the metrics exporter."""

import math

import numpy as np
import pytest

from repro.serving.batcher import BatcherConfig
from repro.serving.exporter import export_metrics, parse_metrics
from repro.serving.metrics import summarize_responses
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer
from repro.serving.traces import (
    ArrivalTrace,
    TraceReplayer,
    burst_trace,
    diurnal_trace,
    sparse_diurnal_trace,
    step_trace,
)


class TestArrivalTrace:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            ArrivalTrace("t", (2.0, 1.0), duration=5.0)

    def test_duration_enforced(self):
        with pytest.raises(ValueError, match="duration"):
            ArrivalTrace("t", (1.0, 6.0), duration=5.0)

    def test_mean_rate(self):
        trace = ArrivalTrace("t", (1.0, 2.0, 3.0, 4.0), duration=8.0)
        assert trace.mean_rate == 0.5

    def test_rate_histogram_conserves_count(self):
        trace = diurnal_trace(duration=86400, peak_rate=2.0,
                              base_rate=0.1, seed=1)
        hist = trace.rate_histogram(bins=24)
        total = sum(r * 3600 for r in hist)
        assert total == pytest.approx(len(trace), rel=1e-9)


class TestDiurnalTrace:
    def test_daylight_busier_than_night(self):
        trace = diurnal_trace(duration=86400, peak_rate=5.0,
                              base_rate=0.1, seed=2)
        hist = trace.rate_histogram(bins=24)
        night = np.mean(hist[0:5])
        midday = np.mean(hist[11:14])
        assert midday > 10 * night

    def test_peak_near_solar_noon(self):
        trace = diurnal_trace(duration=86400, peak_rate=5.0,
                              base_rate=0.05, seed=3)
        hist = trace.rate_histogram(bins=24)
        assert 10 <= int(np.argmax(hist)) <= 15

    def test_deterministic(self):
        a = diurnal_trace(seed=9, peak_rate=1.0)
        b = diurnal_trace(seed=9, peak_rate=1.0)
        assert a.arrival_times == b.arrival_times

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_trace(peak_rate=1.0, base_rate=2.0)
        with pytest.raises(ValueError):
            diurnal_trace(duration=1000.0)  # daylight window outside
        with pytest.raises(ValueError, match="duration"):
            diurnal_trace(duration=math.nan)
        with pytest.raises(ValueError, match="peak_rate"):
            diurnal_trace(peak_rate=math.nan)
        with pytest.raises(ValueError, match="base_rate"):
            diurnal_trace(base_rate=math.nan)


class TestSparseDiurnalTrace:
    def test_nighttime_floor_keeps_the_night_nearly_silent(self):
        trace = sparse_diurnal_trace(duration=86400, peak_rate=2.0,
                                     night_rate=0.01, seed=6)
        # Daylight defaults to (0.25, 0.8) x duration.
        times = np.asarray(trace.arrival_times)
        night = np.sum((times < 21600) | (times >= 69120))
        day = len(times) - night
        assert day > 50 * max(night, 1)
        # Night arrivals hover around the floor: 0.01 rps over the
        # ~9.6 night hours is ~345 expected, give or take Poisson.
        assert night < 3 * 0.01 * (86400 - 47520)

    def test_zero_floor_means_a_truly_dark_night(self):
        trace = sparse_diurnal_trace(duration=86400, peak_rate=2.0,
                                     night_rate=0.0, seed=7)
        times = np.asarray(trace.arrival_times)
        assert np.all((times >= 21600) & (times < 69120))

    def test_deterministic(self):
        a = sparse_diurnal_trace(duration=7200, peak_rate=6.0,
                                 night_rate=0.02, seed=1)
        b = sparse_diurnal_trace(duration=7200, peak_rate=6.0,
                                 night_rate=0.02, seed=1)
        assert a.arrival_times == b.arrival_times
        c = sparse_diurnal_trace(duration=7200, peak_rate=6.0,
                                 night_rate=0.02, seed=2)
        assert a.arrival_times != c.arrival_times

    def test_peak_rides_inside_the_daylight_window(self):
        trace = sparse_diurnal_trace(duration=86400, peak_rate=5.0,
                                     night_rate=0.02, seed=8)
        hist = trace.rate_histogram(bins=24)
        assert 7 <= int(np.argmax(hist)) <= 17
        assert max(hist) == pytest.approx(5.0, rel=0.35)

    def test_validation(self):
        with pytest.raises(ValueError, match="must be positive"):
            sparse_diurnal_trace(peak_rate=0.0)
        with pytest.raises(ValueError, match=">= 0"):
            sparse_diurnal_trace(peak_rate=2.0, night_rate=-0.1)
        with pytest.raises(ValueError, match="cannot exceed"):
            sparse_diurnal_trace(peak_rate=2.0, night_rate=3.0)
        with pytest.raises(ValueError, match="daylight"):
            sparse_diurnal_trace(duration=1000.0,
                                 daylight=(500.0, 1500.0))

    @pytest.mark.parametrize("kwargs, name", [
        # A NaN duration used to read as a misplaced daylight window,
        # and a NaN peak rate to pass as a silently empty trace.
        ({"duration": math.nan}, "duration"),
        ({"duration": -60.0}, "duration"),
        ({"duration": math.inf}, "duration"),
        ({"peak_rate": math.nan}, "peak_rate"),
        ({"peak_rate": math.inf}, "peak_rate"),
        ({"night_rate": math.nan}, "night_rate"),
    ])
    def test_nan_and_nonpositive_inputs_name_the_parameter(self, kwargs,
                                                            name):
        with pytest.raises(ValueError, match=name):
            sparse_diurnal_trace(**{"duration": 600.0, **kwargs})

    def test_carries_v2_name(self):
        trace = sparse_diurnal_trace(duration=3600, seed=0)
        assert trace.name == "sparse_diurnal/v2"


class TestBurstTrace:
    def test_bursts_dominate_arrivals(self):
        trace = burst_trace(duration=3600, background_rate=0.2,
                            bursts=3, burst_rate=100.0,
                            burst_seconds=20.0, seed=4)
        # ~3x100x20 = 6000 burst arrivals vs ~700 background.
        assert len(trace) > 4000
        hist = trace.rate_histogram(bins=60)
        assert max(hist) > 20 * np.median(hist)

    def test_no_bursts_is_plain_poisson(self):
        trace = burst_trace(duration=1000, background_rate=2.0, bursts=0,
                            seed=5)
        assert trace.mean_rate == pytest.approx(2.0, rel=0.2)


class TestTraceReplayer:
    def _server(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 0.001,
            batcher=BatcherConfig(max_batch_size=16,
                                  max_queue_delay=0.002)))
        return server

    def test_replay_submits_every_arrival(self):
        server = self._server()
        trace = burst_trace(duration=60, background_rate=5.0, bursts=1,
                            burst_rate=50.0, burst_seconds=5.0, seed=6)
        replayer = TraceReplayer(server, "m")
        replayer.schedule(trace)
        responses = server.run()
        assert replayer.submitted == len(trace)
        assert len(responses) == len(trace)

    def test_time_scale_compresses_the_run(self):
        server = self._server()
        trace = ArrivalTrace("t", (10.0, 20.0, 30.0), duration=40.0)
        TraceReplayer(server, "m", time_scale=0.01).schedule(trace)
        server.run()
        assert server.sim.now < 1.0

    def test_validation(self):
        server = self._server()
        with pytest.raises(ValueError):
            TraceReplayer(server, "m", images_per_request=0)
        with pytest.raises(ValueError):
            TraceReplayer(server, "m", time_scale=0.0)


class TestMetricsExporter:
    def _run_server(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "vit_tiny", lambda n: 0.005,
            batcher=BatcherConfig(max_batch_size=8,
                                  max_queue_delay=0.001)))
        for _ in range(20):
            server.submit(Request("vit_tiny"))
        server.run()
        return server

    def test_exposition_format_roundtrip(self):
        server = self._run_server()
        text = export_metrics(server)
        parsed = parse_metrics(text)
        key = ("harvest_request_total", (("status", "ok"),))
        assert parsed[key] == 20.0

    def test_instance_counters_present(self):
        server = self._run_server()
        parsed = parse_metrics(export_metrics(server))
        busy = parsed[("harvest_instance_busy_seconds_total",
                       (("instance", "0"), ("model", "vit_tiny")))]
        assert busy > 0

    def test_latency_quantiles_ordered(self):
        server = self._run_server()
        parsed = parse_metrics(export_metrics(server))

        def q(val):
            return parsed[("harvest_latency_seconds",
                           (("quantile", val),))]

        assert q("0.5") <= q("0.95") <= q("0.99")

    def test_help_and_type_comments_present(self):
        text = export_metrics(self._run_server())
        assert "# HELP harvest_request_total" in text
        assert "# TYPE harvest_request_total counter" in text

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_metrics("metric_name not_a_number")


class TestTraceRegressions:
    """Regressions from the v2 arrival-trace bugfix sweep."""

    def test_burst_envelope_covers_dense_background(self):
        # Nightly-upload shape: background above the burst rate.  The
        # thinning envelope used to clip at burst_rate, realizing ~5/s
        # where the model says ~38/s.
        trace = burst_trace(duration=2000.0, background_rate=40.0,
                            bursts=2, burst_rate=5.0,
                            burst_seconds=50.0, seed=7)
        expected = (40.0 * 1900.0 + 5.0 * 100.0) / 2000.0
        assert trace.mean_rate == pytest.approx(expected, rel=0.05)

    def test_burst_window_must_fit_duration(self):
        # Used to draw burst starts from a negative-span uniform.
        with pytest.raises(ValueError, match="burst_seconds"):
            burst_trace(duration=10.0, bursts=1, burst_seconds=30.0)

    def test_burst_rate_validation(self):
        with pytest.raises(ValueError, match="rates"):
            burst_trace(background_rate=-0.5)
        with pytest.raises(ValueError, match="rates"):
            burst_trace(burst_rate=0.0)
        with pytest.raises(ValueError, match="rates"):
            burst_trace(background_rate=math.nan)
        with pytest.raises(ValueError, match="duration"):
            burst_trace(duration=math.nan)
        with pytest.raises(ValueError, match="duration"):
            step_trace(duration=math.nan)

    def test_nonpositive_duration_rejected(self):
        # Used to surface later as ZeroDivisionError from mean_rate.
        for bad in (0.0, -3.0, math.nan):
            with pytest.raises(ValueError, match="duration"):
                ArrivalTrace("t", (), duration=bad)

    def test_diurnal_docs_match_the_sine_implementation(self):
        # Docstrings promised a "cosine bump" while rate() implements a
        # half-sine arc.
        import repro.serving.traces as traces
        for doc in (traces.__doc__, diurnal_trace.__doc__):
            assert "cosine" not in doc
            assert "sine" in doc

    def test_generated_traces_carry_v2_names(self):
        from repro.serving.traces import step_trace
        assert diurnal_trace(duration=86400, peak_rate=1.0,
                             base_rate=0.1, seed=1).name == "diurnal/v2"
        assert burst_trace(duration=60, bursts=0, seed=1).name == "burst/v2"
        assert step_trace(duration=60, seed=1).name == "step/v2"


class TestBatchedReplay:
    def _server(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 0.001,
            batcher=BatcherConfig(max_batch_size=16,
                                  max_queue_delay=0.002)))
        return server

    def test_schedule_returns_stream_handle(self):
        server = self._server()
        trace = ArrivalTrace("t", (0.5, 1.0, 1.5), duration=2.0)
        stream = TraceReplayer(server, "m").schedule(trace)
        assert stream is not None
        assert stream.remaining == 3
        server.run()
        assert stream.remaining == 0
        assert len(server.responses) == 3

    def test_empty_trace_schedules_nothing(self):
        server = self._server()
        stream = TraceReplayer(server, "m").schedule(
            ArrivalTrace("t", (), duration=1.0))
        assert stream is None
        assert server.sim.peek_time() is None

"""Tests for repro.serving.fluid — the hybrid fluid/DES engine."""

import numpy as np
import pytest

from repro.serving.batcher import BatcherConfig
from repro.serving.faults import FaultModel
from repro.serving.fluid import FluidConfig, HybridReplayer
from repro.serving.server import ModelConfig, TritonLikeServer
from repro.serving.traces import ArrivalTrace, TraceReplayer, step_trace


def make_server(instances=2, max_batch=32):
    """A server whose capacity (~98 img/s) a step trace can saturate."""
    server = TritonLikeServer()
    server.register(ModelConfig(
        "crop", service_time=lambda n: 0.01 + 0.02 * n,
        batcher=BatcherConfig(max_batch_size=max_batch,
                              max_queue_delay=0.05),
        instances=instances))
    return server


def saturating_trace():
    """120 req/s for 200 s against ~98 req/s of capacity."""
    return step_trace(duration=600.0, base_rate=5.0, step_rate=120.0,
                      step_start=50.0, step_end=250.0, seed=3)


FLUID = FluidConfig(enter_queued_images=256, sustain_seconds=0.5,
                    exit_queued_images=32, min_fluid_arrivals=256)


class TestFluidConfig:
    def test_hysteresis_enforced(self):
        with pytest.raises(ValueError, match="hysteresis"):
            FluidConfig(enter_queued_images=64, exit_queued_images=64)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            FluidConfig(enter_queued_images=0)
        with pytest.raises(ValueError):
            FluidConfig(exit_queued_images=-1)
        with pytest.raises(ValueError):
            FluidConfig(sustain_seconds=-0.1)
        with pytest.raises(ValueError):
            FluidConfig(min_fluid_arrivals=0)
        with pytest.raises(ValueError, match="sustain_seconds"):
            FluidConfig(sustain_seconds=float("nan"))


class TestValidation:
    def test_unknown_model(self):
        with pytest.raises(KeyError):
            HybridReplayer(make_server(), "nope")

    def test_multi_stage_model_rejected(self):
        server = make_server()
        server.register(ModelConfig("pre", lambda n: 0.001))
        server.register(ModelConfig("two_stage", lambda n: 0.01,
                                    preprocess_model="pre"))
        with pytest.raises(ValueError, match="single-stage"):
            HybridReplayer(server, "two_stage")

    def test_faulty_model_rejected(self):
        server = make_server()
        server.inject_faults("crop",
                             FaultModel(failure_probability=0.5, seed=1))
        with pytest.raises(ValueError, match="fault"):
            HybridReplayer(server, "crop")

    def test_parameter_bounds(self):
        server = make_server()
        with pytest.raises(ValueError):
            HybridReplayer(server, "crop", images_per_request=0)
        with pytest.raises(ValueError):
            HybridReplayer(server, "crop", time_scale=0.0)

    def test_single_trace_per_replayer(self):
        server = make_server()
        replayer = HybridReplayer(server, "crop")
        trace = ArrivalTrace("t", (1.0,), duration=2.0)
        replayer.schedule(trace)
        with pytest.raises(RuntimeError, match="already"):
            replayer.schedule(trace)

    def test_empty_trace_schedules_nothing(self):
        replayer = HybridReplayer(make_server(), "crop")
        assert replayer.schedule(ArrivalTrace("t", (), 1.0)) is None


class TestRegimeController:
    def test_light_load_stays_exact(self):
        server = make_server()
        trace = step_trace(duration=120.0, base_rate=5.0, step_rate=20.0,
                           step_start=30.0, step_end=60.0, seed=1)
        replayer = HybridReplayer(server, "crop", config=FLUID)
        replayer.schedule(trace)
        server.run()
        assert replayer.intervals == []
        assert replayer.fluid_completed == 0
        assert len(server.responses) == len(trace)

    def test_saturation_triggers_fluid_entry(self):
        server = make_server()
        replayer = HybridReplayer(server, "crop", config=FLUID)
        trace = saturating_trace()
        replayer.schedule(trace)
        server.run()
        assert len(replayer.intervals) >= 1
        interval = replayer.intervals[0]
        assert interval.entered < interval.resumed
        assert interval.integrated_requests == replayer.fluid_completed
        assert interval.entry_backlog_images >= FLUID.enter_queued_images
        # The fluid stretch should own the bulk of the saturated window.
        assert replayer.fluid_completed > len(trace) // 2

    def test_sustain_guard_blocks_transient_spikes(self):
        server = make_server()
        config = FluidConfig(enter_queued_images=256, sustain_seconds=1e9,
                             exit_queued_images=32, min_fluid_arrivals=1)
        replayer = HybridReplayer(server, "crop", config=config)
        replayer.schedule(saturating_trace())
        server.run()
        assert replayer.intervals == []

    def test_short_tails_stay_exact(self):
        server = make_server()
        config = FluidConfig(enter_queued_images=256, sustain_seconds=0.0,
                             exit_queued_images=32,
                             min_fluid_arrivals=10 ** 9)
        replayer = HybridReplayer(server, "crop", config=config)
        replayer.schedule(saturating_trace())
        server.run()
        assert replayer.intervals == []


class TestConservationAndHandoff:
    def _run_hybrid(self, trace=None):
        server = make_server()
        replayer = HybridReplayer(server, "crop", config=FLUID)
        replayer.schedule(trace if trace is not None
                          else saturating_trace())
        server.run()
        return server, replayer

    def test_every_arrival_completes_exactly_once(self):
        server, replayer = self._run_hybrid()
        trace = saturating_trace()
        assert replayer.completed == len(trace)
        assert len(server.responses) + replayer.fluid_completed == \
            len(trace)
        assert all(r.ok for r in server.responses)

    def test_server_fully_drains_after_exit(self):
        server, replayer = self._run_hybrid()
        assert server.queue_depth() == 0
        assert server.busy_instances() == 0
        assert server.sim.peek_foreground_time() is None

    def test_metrics_fold_both_regimes(self):
        server, replayer = self._run_hybrid()
        trace = saturating_trace()
        metrics = server.metrics
        submitted = metrics.get("requests_submitted_total")
        responses = metrics.get("responses_total")
        latency = metrics.get("request_latency_seconds")
        assert submitted.value(model="crop") == len(trace)
        assert responses.value(model="crop", status="ok") == len(trace)
        assert latency.count(model="crop") == len(trace)

    def test_busy_time_is_integrated(self):
        server, replayer = self._run_hybrid()
        busy = sum(s.busy_seconds for s in server.instance_stats("crop"))
        # 200 s of overload across 2 instances: both near-fully busy.
        assert busy > 300.0

    def test_trace_ending_saturated_drains_virtually(self):
        # No post-step cooldown: the fluid stretch runs to the end of
        # the arrivals and the backlog drains analytically.
        trace = step_trace(duration=200.0, base_rate=5.0,
                           step_rate=120.0, step_start=20.0,
                           step_end=200.0, seed=5)
        server, replayer = self._run_hybrid(trace)
        assert replayer.completed == len(trace)
        interval = replayer.intervals[-1]
        assert interval.restored_requests == 0
        assert interval.resumed > trace.duration
        assert server.sim.peek_foreground_time() is None

    def test_arrival_in_the_exit_rounding_gap_rejoins_the_queue(self):
        # The exit handoff is scheduled at arrival k's time but lands an
        # ulp after it, so that arrival queued on the detached stage and
        # the restore raised "restore_queue on a non-empty queue".
        server = TritonLikeServer()
        server.register(ModelConfig(
            "crop", service_time=lambda n: 0.01 + 0.002 * n,
            batcher=BatcherConfig(max_batch_size=8,
                                  max_queue_delay=0.005),
            instances=2))
        replayer = HybridReplayer(server, "crop", config=FluidConfig(
            enter_queued_images=64, sustain_seconds=0.05,
            exit_queued_images=8, min_fluid_arrivals=32))
        trace = step_trace(duration=6.0, base_rate=20.0,
                           step_rate=800.015625, step_start=1.0,
                           step_end=2.75, seed=0)
        replayer.schedule(trace)
        server.run()
        assert replayer.intervals
        assert replayer.completed == len(trace)
        assert server.queue_depth() == 0

    def test_latency_summary_counts_both_regimes(self):
        server, replayer = self._run_hybrid()
        summary = replayer.latency_summary()
        assert summary["count"] == replayer.completed
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["mean"] > 0


class TestParityWithExactDES:
    """The tentpole acceptance check: fluid vs exact on one trace."""

    def _parity_pair(self):
        trace = saturating_trace()
        exact = make_server()
        TraceReplayer(exact, "crop").schedule(trace)
        exact.run()
        hybrid = make_server()
        replayer = HybridReplayer(hybrid, "crop", config=FLUID)
        replayer.schedule(trace)
        hybrid.run()
        return trace, exact, replayer

    def test_throughput_is_exact(self):
        trace, exact, replayer = self._parity_pair()
        assert replayer.completed == len(exact.responses) == len(trace)

    def test_latency_quantiles_match_within_tolerance(self):
        trace, exact, replayer = self._parity_pair()
        des = np.array([r.latency for r in exact.responses if r.ok])
        summary = replayer.latency_summary()
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            assert summary[key] == pytest.approx(
                float(np.quantile(des, q)), rel=0.10), key
        assert summary["mean"] == pytest.approx(
            float(des.mean()), rel=0.10)


class TestRegimeObservability:
    def _run_saturated(self):
        server = make_server()
        replayer = HybridReplayer(server, "crop", config=FLUID)
        replayer.schedule(saturating_trace())
        server.run()
        return server, replayer

    def test_counters_track_intervals_and_folded_arrivals(self):
        server, replayer = self._run_saturated()
        metrics = server.metrics
        intervals = metrics.get("fluid_intervals_total")
        folded = metrics.get("fluid_folded_arrivals_total")
        assert intervals.value(model="crop") == len(replayer.intervals)
        # Every trace arrival either fired through the DES (submitted)
        # or was folded into a fluid stretch — the counter owns the
        # remainder exactly.
        total = len(saturating_trace())
        assert folded.value(model="crop") == total - replayer.submitted
        assert folded.value(model="crop") > 0

    def test_timeline_instants_bracket_every_interval(self):
        _, replayer = self._run_saturated()
        enters = replayer.timeline.find("fluid_enter")
        exits = replayer.timeline.find("fluid_exit")
        assert len(enters) == len(exits) == len(replayer.intervals)
        for enter, exit_, interval in zip(enters, exits,
                                          replayer.intervals):
            assert enter.start == pytest.approx(interval.entered)
            assert exit_.start == pytest.approx(interval.resumed)
            assert enter.args["backlog_images"] == \
                interval.entry_backlog_images
            assert exit_.args["integrated_requests"] == \
                interval.integrated_requests
            assert exit_.args["restored_requests"] == \
                interval.restored_requests

    def test_exact_run_keeps_zero_counters_and_empty_timeline(self):
        server = make_server()
        trace = step_trace(duration=120.0, base_rate=5.0,
                           step_rate=20.0, step_start=30.0,
                           step_end=60.0, seed=1)
        replayer = HybridReplayer(server, "crop", config=FLUID)
        replayer.schedule(trace)
        server.run()
        assert server.metrics.get(
            "fluid_intervals_total").value(model="crop") == 0
        assert replayer.timeline.find("fluid_enter") == []

    def test_render_regime_timeline_saturated(self):
        from repro.serving.fluid import render_regime_timeline

        _, replayer = self._run_saturated()
        text = render_regime_timeline(replayer)
        assert "regime timeline:" in text
        assert "#" in text
        assert "entered" in text and "restored" in text
        assert len(text.splitlines()) == 4 + len(replayer.intervals)

    def test_render_regime_timeline_exact_run(self):
        from repro.serving.fluid import render_regime_timeline

        server = make_server()
        replayer = HybridReplayer(server, "crop", config=FLUID)
        replayer.schedule(step_trace(duration=60.0, base_rate=5.0,
                                     step_rate=10.0, step_start=10.0,
                                     step_end=20.0, seed=1))
        server.run()
        assert "exact DES throughout" in render_regime_timeline(replayer)

    def test_render_regime_timeline_is_deterministic(self):
        from repro.serving.fluid import render_regime_timeline

        _, first = self._run_saturated()
        _, second = self._run_saturated()
        assert render_regime_timeline(first) == \
            render_regime_timeline(second)

    def test_render_width_validated(self):
        from repro.serving.fluid import render_regime_timeline

        _, replayer = self._run_saturated()
        with pytest.raises(ValueError):
            render_regime_timeline(replayer, width=5)

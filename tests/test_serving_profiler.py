"""Tests for repro.serving.profiler — attribution, export, derivation."""

import json

import pytest

from repro.serving.batcher import BatcherConfig
from repro.serving.client import OpenLoopClient
from repro.serving.events import Simulator
from repro.serving.exporter import export_registry
from repro.serving.observability import MetricsRegistry, TimeSeriesSampler
from repro.serving.profiler import SimProfiler, profile_run
from repro.serving.server import ModelConfig, TritonLikeServer


class TestRecord:
    def test_record_accumulates_at_absolute_paths(self):
        prof = SimProfiler()
        prof.record(("serve", "infer", "execute"), sim_seconds=2.0,
                    count=3)
        prof.record(["serve", "infer", "execute"], sim_seconds=0.5)
        prof.record(("sim", "run"), sim_seconds=4.0)
        assert prof.nodes() == {
            ("serve", "infer", "execute"): (2.5, 4),
            ("sim", "run"): (4.0, 1),
        }

    def test_record_rejects_bad_paths(self):
        prof = SimProfiler()
        with pytest.raises(ValueError, match="non-empty strings"):
            prof.record((), sim_seconds=1.0)
        with pytest.raises(ValueError, match="non-empty strings"):
            prof.record(("a", ""), sim_seconds=1.0)


class TestExports:
    def _sample(self) -> SimProfiler:
        prof = SimProfiler()
        prof.record(("serve", "infer", "execute"), sim_seconds=0.25,
                    count=2)
        prof.record(("serve", "infer", "queue_wait"), sim_seconds=0.5)
        prof.record(("continuum", "uplink"), sim_seconds=1.0)
        return prof

    def test_folded_collapses_paths(self):
        folded = self._sample().folded()
        assert folded == {
            "continuum;uplink": 1.0,
            "serve;infer;execute": 0.25,
            "serve;infer;queue_wait": 0.5,
        }

    def test_render_folded_integer_microseconds(self):
        text = self._sample().render_folded()
        assert "serve;infer;execute 250000" in text
        assert text.endswith("\n")

    def test_render_tree_totals_include_descendants(self):
        text = self._sample().render_tree()
        lines = text.splitlines()
        serve = next(l for l in lines if l.startswith("serve"))
        assert "0.750000" in serve  # execute + queue_wait
        assert any(l.strip().startswith("execute") for l in lines)

    def test_render_tree_empty(self):
        assert SimProfiler().render_tree() == "(profiler is empty)\n"

    def test_speedscope_schema(self):
        doc = self._sample().speedscope("t")
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json")
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert profile["name"] == "t (sim)"
        assert profile["unit"] == "microseconds"
        assert len(profile["samples"]) == len(profile["weights"]) == 3
        assert profile["endValue"] == sum(profile["weights"])
        frames = doc["shared"]["frames"]
        for stack in profile["samples"]:
            assert all(0 <= idx < len(frames) for idx in stack)

    def test_export_speedscope_round_trips(self):
        text = self._sample().export_speedscope()
        assert json.loads(text)["profiles"][0]["weights"] == [
            1000000, 250000, 500000]


def _run_serving(requests: int = 120, seed: int = 3):
    sim = Simulator()
    server = TritonLikeServer(sim)
    server.register(ModelConfig(
        "infer", lambda n: 0.002 + 0.001 * n,
        batcher=BatcherConfig(max_batch_size=8,
                              max_queue_delay=0.004)))
    client = OpenLoopClient(server, "infer", rate_per_second=300.0,
                            num_requests=requests, seed=seed)
    client.start()
    server.run()
    return server


class TestServingIntegration:
    def test_execute_attribution_matches_instance_stats(self):
        server = _run_serving()
        nodes = profile_run(server.sim.now, server.metrics).nodes()
        busy = sum(inst.stats.busy_seconds
                   for inst in server._instances["infer"])
        assert nodes[("serve", "infer", "execute")][0] == (
            pytest.approx(busy))
        # Every response waited in exactly one queue-pick.
        assert nodes[("serve", "infer", "queue_wait")][1] == 120
        # The run node covers the whole virtual horizon.
        assert nodes[("sim", "run")] == (server.sim.now, 1)

    def test_sim_time_profile_is_deterministic(self):
        def folded():
            server = _run_serving(requests=150, seed=11)
            return profile_run(server.sim.now,
                               server.metrics).render_folded()

        assert folded() == folded()


class TestZeroCostContract:
    def test_scrapes_identical_across_profiler_modes(self):
        # The profile is a read of the finished run: deriving it (even
        # twice) changes nothing the run reports.
        def replay(derive: bool):
            sim = Simulator()
            registry = MetricsRegistry(clock=lambda: sim.now)
            server = TritonLikeServer(sim, registry=registry)
            server.register(ModelConfig(
                "vit_tiny", lambda n: 0.0004 + 0.00012 * n,
                batcher=BatcherConfig(max_batch_size=16,
                                      max_queue_delay=0.002)))
            OpenLoopClient(server, "vit_tiny", rate_per_second=800.0,
                           num_requests=400, seed=7).start()
            TimeSeriesSampler(server, interval=0.05).start()
            sim.run()
            if derive:
                for _ in range(2):
                    profile_run(sim.now, registry)
            return (len(server.responses), sim.events_processed,
                    export_registry(registry))

        assert replay(derive=True) == replay(derive=False)

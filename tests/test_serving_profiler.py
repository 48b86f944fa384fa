"""Tests for repro.serving.profiler — attribution, export, zero cost."""

import json

import pytest

from repro.serving.batcher import BatcherConfig
from repro.serving.client import OpenLoopClient
from repro.serving.events import Simulator
from repro.serving.exporter import export_registry
from repro.serving.observability import MetricsRegistry, TimeSeriesSampler
from repro.serving.profiler import _NULL_SCOPE, SimProfiler
from repro.serving.server import ModelConfig, TritonLikeServer


class FakeClock:
    """Manually advanced sim clock for exact scope arithmetic."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestScopes:
    def test_nested_scopes_attribute_self_time(self):
        clock = FakeClock()
        prof = SimProfiler(clock=clock)
        with prof.scope("sim", "run"):
            clock.now = 1.0
            with prof.scope("inner"):
                clock.now = 4.0
            clock.now = 5.0
        nodes = prof.nodes()
        # Parent self = 5.0 elapsed - 3.0 spent in the child.
        assert nodes[("sim", "run")][0] == pytest.approx(2.0)
        assert nodes[("sim", "run", "inner")][0] == pytest.approx(3.0)
        assert nodes[("sim", "run")][2] == 1

    def test_scope_paths_nest_under_enclosing_scope(self):
        prof = SimProfiler()
        with prof.scope("a"):
            with prof.scope("b", "c"):
                pass
        assert ("a", "b", "c") in prof.nodes()

    def test_record_is_absolute_regardless_of_open_scopes(self):
        prof = SimProfiler()
        with prof.scope("sim", "run"):
            prof.record(("serve", "infer", "execute"), sim_seconds=2.0,
                        count=3)
        nodes = prof.nodes()
        assert nodes[("serve", "infer", "execute")] == (2.0, 0.0, 3)

    def test_sibling_scopes_accumulate(self):
        clock = FakeClock()
        prof = SimProfiler(clock=clock)
        for _ in range(3):
            with prof.scope("leg"):
                clock.now += 0.5
        sim, _, count = prof.nodes()[("leg",)]
        assert sim == pytest.approx(1.5)
        assert count == 3

    def test_disabled_profiler_is_a_no_op(self):
        prof = SimProfiler(enabled=False)
        assert prof.scope("a") is _NULL_SCOPE
        with prof.scope("a"):
            pass
        prof.record(("b",), sim_seconds=1.0)
        assert prof.nodes() == {}
        assert prof.total() == 0.0

    def test_scope_requires_names(self):
        with pytest.raises(ValueError, match="at least one name"):
            SimProfiler().scope()

    def test_record_rejects_bad_paths(self):
        prof = SimProfiler()
        with pytest.raises(ValueError, match="non-empty strings"):
            prof.record((), sim_seconds=1.0)
        with pytest.raises(ValueError, match="non-empty strings"):
            prof.record(("a", ""), sim_seconds=1.0)

    def test_reset_clears_nodes(self):
        prof = SimProfiler()
        prof.record(("a",), sim_seconds=1.0)
        prof.reset()
        assert prof.nodes() == {}


class TestExports:
    def _sample(self) -> SimProfiler:
        prof = SimProfiler()
        prof.record(("serve", "infer", "execute"), sim_seconds=0.25,
                    count=2)
        prof.record(("serve", "infer", "queue_wait"), sim_seconds=0.5)
        prof.record(("continuum", "uplink"), sim_seconds=1.0)
        return prof

    def test_folded_collapses_paths(self):
        folded = self._sample().folded("sim")
        assert folded == {
            "continuum;uplink": 1.0,
            "serve;infer;execute": 0.25,
            "serve;infer;queue_wait": 0.5,
        }

    def test_render_folded_integer_microseconds(self):
        text = self._sample().render_folded("sim")
        assert "serve;infer;execute 250000" in text
        assert text.endswith("\n")

    def test_render_tree_totals_include_descendants(self):
        text = self._sample().render_tree("sim")
        lines = text.splitlines()
        serve = next(l for l in lines if l.startswith("serve"))
        assert "0.750000" in serve  # execute + queue_wait
        assert any(l.strip().startswith("execute") for l in lines)

    def test_render_tree_empty(self):
        assert SimProfiler().render_tree() == "(profiler is empty)\n"

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="unknown weight"):
            self._sample().folded("cpu")

    def test_speedscope_schema(self):
        doc = self._sample().speedscope("t")
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json")
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
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


def _run_serving(profiler=None, requests: int = 120):
    sim = Simulator()
    server = TritonLikeServer(sim)
    server.register(ModelConfig(
        "infer", lambda n: 0.002 + 0.001 * n,
        batcher=BatcherConfig(max_batch_size=8,
                              max_queue_delay=0.004)))
    if profiler is not None:
        server.attach_profiler(profiler)
    client = OpenLoopClient(server, "infer", rate_per_second=300.0,
                            num_requests=requests, seed=3)
    client.start()
    server.run()
    return server


class TestServingIntegration:
    def test_execute_attribution_matches_instance_stats(self):
        sim_holder = {}
        prof = SimProfiler(clock=lambda: sim_holder["sim"].now)
        sim = Simulator()
        sim_holder["sim"] = sim
        server = TritonLikeServer(sim)
        server.register(ModelConfig(
            "infer", lambda n: 0.002 + 0.001 * n,
            batcher=BatcherConfig(max_batch_size=8,
                                  max_queue_delay=0.004)))
        server.attach_profiler(prof)
        client = OpenLoopClient(server, "infer", rate_per_second=300.0,
                                num_requests=120, seed=3)
        client.start()
        server.run()
        nodes = prof.nodes()
        busy = sum(inst.stats.busy_seconds
                   for inst in server._instances["infer"])
        assert nodes[("serve", "infer", "execute")][0] == (
            pytest.approx(busy))
        # Every response waited in exactly one queue-pick.
        assert nodes[("serve", "infer", "queue_wait")][2] == 120
        # The run scope covers the whole virtual horizon.
        assert nodes[("sim", "run")][0] == pytest.approx(sim.now)

    def test_models_registered_after_attach_inherit_profiler(self):
        prof = SimProfiler()
        sim = Simulator()
        server = TritonLikeServer(sim)
        server.attach_profiler(prof)
        server.register(ModelConfig(
            "late", lambda n: 0.001,
            batcher=BatcherConfig(max_batch_size=4,
                                  max_queue_delay=0.001)))
        assert server._batchers["late"].profiler is prof
        assert all(inst.profiler is prof
                   for inst in server._instances["late"])

    def test_sim_time_profile_is_deterministic(self):
        def folded():
            sim = Simulator()
            prof = SimProfiler(clock=lambda: sim.now)
            server = TritonLikeServer(sim)
            server.register(ModelConfig(
                "infer", lambda n: 0.002 + 0.001 * n,
                batcher=BatcherConfig(max_batch_size=8,
                                      max_queue_delay=0.004)))
            server.attach_profiler(prof)
            client = OpenLoopClient(server, "infer",
                                    rate_per_second=300.0,
                                    num_requests=150, seed=11)
            client.start()
            server.run()
            return prof.render_folded("sim")

        assert folded() == folded()


def _profiled_replay(requests: int, mode: str) -> tuple:
    """The serving replay with the profiler ``"none"``/``"off"``/``"on"``.

    Returns ``(responses, events_processed, scrape)`` — the scrape is
    part of the result on purpose: comparing it byte for byte across
    modes *is* the zero-instrumentation-cost contract (attaching a
    profiler must not change what a run reports).
    """
    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)
    server = TritonLikeServer(sim, registry=registry)
    server.register(ModelConfig(
        "vit_tiny", lambda n: 0.0004 + 0.00012 * n,
        batcher=BatcherConfig(max_batch_size=16, max_queue_delay=0.002)))
    if mode != "none":
        server.attach_profiler(SimProfiler(clock=lambda: sim.now,
                                           enabled=(mode == "on")))
    client = OpenLoopClient(server, "vit_tiny", rate_per_second=800.0,
                            num_requests=requests, seed=7)
    sampler = TimeSeriesSampler(server, interval=0.05)
    client.start()
    sampler.start()
    sim.run()
    return (len(server.responses), sim.events_processed,
            export_registry(registry))


class TestZeroCostContract:
    def test_scrapes_identical_across_profiler_modes(self):
        bare = _profiled_replay(400, "none")
        off = _profiled_replay(400, "off")
        on = _profiled_replay(400, "on")
        assert bare == off[:2] + (off[2],)
        assert bare[0] == on[0] and bare[1] == on[1]
        assert bare[2] == off[2] == on[2]

    def test_disabled_profiler_records_nothing_through_the_stack(self):
        prof = SimProfiler(enabled=False)
        _run_serving(prof)
        assert prof.nodes() == {}

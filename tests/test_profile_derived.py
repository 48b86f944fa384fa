"""The sim-time profile derived after a run from the registry and spans.

``profile_run`` reads what a run already recorded — the per-stage
registry series, the retained traces' leg spans and the hybrid
engine's fluid intervals — so the serving stack carries no profiler.
The parity pins below are the nodes, folded stacks and tree that the
live, write-through profiler produced for the same two legs before it
was unwired; the derived profile must reproduce every count exactly
and every sim value to ``rel=1e-12``.
"""

import pytest

from repro.cache.keys import FrameFingerprint
from repro.cache.store import CacheStore
from repro.cache.tiers import EDGE_RESULT, CacheHierarchy, CacheTier
from repro.continuum.network import get_link
from repro.continuum.offload import OffloadPolicy
from repro.continuum.pipeline import ContinuumReplayer
from repro.hardware.platform import A100, JETSON
from repro.models.vit import build_vit
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.faults import FaultModel
from repro.serving.fluid import HybridReplayer
from repro.serving.observability import MetricsRegistry
from repro.serving.profiler import profile_run
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer
from repro.serving.traces import burst_trace

LEGS = ("edge_preprocess", "cache_hit", "edge_inference", "uplink",
        "downlink")


def continuum_leg(sample_rate: float = 1.0, requests: int = 150):
    """A faulty two-stage server behind an edge cache and an offload
    policy: every ``serve;*`` and ``continuum;*`` node kind fires.

    Returns ``(sim, registry, replayer)`` after the run drained.
    """
    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)
    server = TritonLikeServer(sim, registry=registry)
    server.register(ModelConfig(
        "pre", lambda n: 0.003 * n,
        batcher=BatcherConfig(max_batch_size=4, max_queue_delay=0.002),
        fault_model=FaultModel(0.15, detect_seconds=0.004, seed=3)))
    server.register(ModelConfig(
        "infer", lambda n: 0.004 + 0.001 * n,
        batcher=BatcherConfig(max_batch_size=8, max_queue_delay=0.003),
        preprocess_model="pre",
        fault_model=FaultModel(0.1, detect_seconds=0.006, seed=5)))
    edge = CacheStore(1 << 20, lambda: sim.now, match_threshold=0,
                      name=EDGE_RESULT)
    cache = CacheHierarchy(edge=CacheTier(EDGE_RESULT, edge,
                                          stage="uplink"))
    link = get_link("station_ethernet")
    offload = OffloadPolicy(build_vit("vit_base"), JETSON, A100, link)
    # One image uploads; two images cross over and stay on the edge.
    image_bytes = offload.crossover_image_bytes() * 0.75
    replayer = ContinuumReplayer(
        server, link, edge_preprocess_time=lambda n: 0.002 * n,
        image_bytes=image_bytes, registry=registry, offload=offload,
        cache=cache, trace_sample_rate=sample_rate)

    def submit(i: int) -> None:
        replayer.submit(Request(
            "infer", num_images=2 if i % 4 == 1 else 1,
            cache_key=FrameFingerprint(dhash=i % 40, blocks=0)))

    for i in range(requests):
        sim.schedule_at(0.004 * i, lambda i=i: submit(i))
    server.run()
    return sim, registry, replayer


def fluid_leg():
    """A saturated burst through the hybrid engine (two fluid stretches).

    Returns ``(sim, registry, hybrid)`` after the run drained.
    """
    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)
    server = TritonLikeServer(sim, registry=registry)
    server.register(ModelConfig(
        "infer", lambda n: 0.004 + 0.0012 * n,
        batcher=BatcherConfig(max_batch_size=32, max_queue_delay=0.005)))
    hybrid = HybridReplayer(server, "infer")
    hybrid.schedule(burst_trace(duration=30.0, background_rate=2.0,
                                bursts=2, burst_rate=900.0,
                                burst_seconds=4.5, seed=0))
    server.run()
    return sim, registry, hybrid


# Pinned from the live profiler at the parent of its removal.
CONTINUUM_NODES = {
    ('continuum', 'cache_hit'): (0.016400000000000012, 82),
    ('continuum', 'downlink'): (0.030258047999999982, 30),
    ('continuum', 'edge_inference'): (0.739012342347818, 38),
    ('continuum', 'edge_preprocess'): (0.21200000000000016, 68),
    ('continuum', 'uplink'): (0.3344793961243019, 30),
    ('serve', 'infer', 'execute'): (0.10200000000000004, 18),
    ('serve', 'infer', 'fault'): (0.024, 4),
    ('serve', 'infer', 'queue_wait'): (0.11100000000000027, 36),
    ('serve', 'pre', 'execute'): (0.09000000000000005, 25),
    ('serve', 'pre', 'fault'): (0.02, 5),
    ('serve', 'pre', 'queue_wait'): (0.06200000000000002, 35),
    ('sim', 'run'): (0.6194476932196794, 1),
}
CONTINUUM_FOLDED = (
    'continuum;cache_hit 16400\n'
    'continuum;downlink 30258\n'
    'continuum;edge_inference 739012\n'
    'continuum;edge_preprocess 212000\n'
    'continuum;uplink 334479\n'
    'serve;infer;execute 102000\n'
    'serve;infer;fault 24000\n'
    'serve;infer;queue_wait 111000\n'
    'serve;pre;execute 90000\n'
    'serve;pre;fault 20000\n'
    'serve;pre;queue_wait 62000\n'
    'sim;run 619448\n'
)
CONTINUUM_TREE = (
    'component                                 sim-s total         self   count\n'
    '--------------------------------------------------------------------------\n'
    'continuum                                    1.332150     0.000000       0\n'
    '  cache_hit                                  0.016400     0.016400      82\n'
    '  downlink                                   0.030258     0.030258      30\n'
    '  edge_inference                             0.739012     0.739012      38\n'
    '  edge_preprocess                            0.212000     0.212000      68\n'
    '  uplink                                     0.334479     0.334479      30\n'
    'serve                                        0.409000     0.000000       0\n'
    '  infer                                      0.237000     0.000000       0\n'
    '    execute                                  0.102000     0.102000      18\n'
    '    fault                                    0.024000     0.024000       4\n'
    '    queue_wait                               0.111000     0.111000      36\n'
    '  pre                                        0.172000     0.000000       0\n'
    '    execute                                  0.090000     0.090000      25\n'
    '    fault                                    0.020000     0.020000       5\n'
    '    queue_wait                               0.062000     0.062000      35\n'
    'sim                                          0.619448     0.000000       0\n'
    '  run                                        0.619448     0.619448       1\n'
)
FLUID_NODES = {
    ('regime', 'fluid'): (3.471795276589445, 2),
    ('serve', 'infer', 'execute'): (8.105599999999974, 230),
    ('serve', 'infer', 'queue_wait'): (2182.1914489236215, 5988),
    ('sim', 'run'): (28.492475093211045, 1),
}
FLUID_FOLDED = (
    'regime;fluid 3471795\n'
    'serve;infer;execute 8105600\n'
    'serve;infer;queue_wait 2182191449\n'
    'sim;run 28492475\n'
)
FLUID_TREE = (
    'component                                 sim-s total         self   count\n'
    '--------------------------------------------------------------------------\n'
    'regime                                       3.471795     0.000000       0\n'
    '  fluid                                      3.471795     3.471795       2\n'
    'serve                                     2190.297049     0.000000       0\n'
    '  infer                                   2190.297049     0.000000       0\n'
    '    execute                                  8.105600     8.105600     230\n'
    '    queue_wait                            2182.191449  2182.191449    5988\n'
    'sim                                         28.492475     0.000000       0\n'
    '  run                                       28.492475    28.492475       1\n'
)


def _assert_nodes_match(prof, pinned):
    nodes = prof.nodes()
    assert sorted(nodes) == sorted(pinned)
    for path, (sim_s, count) in pinned.items():
        assert nodes[path][1] == count, path
        assert nodes[path][0] == pytest.approx(sim_s, rel=1e-12), path


class TestParityWithLiveProfiler:
    def test_continuum_leg(self):
        sim, registry, replayer = continuum_leg()
        prof = profile_run(sim.now, registry, traces=replayer.traces)
        _assert_nodes_match(prof, CONTINUUM_NODES)
        assert prof.render_folded() == CONTINUUM_FOLDED
        assert prof.render_tree() == CONTINUUM_TREE

    def test_fluid_leg(self):
        sim, registry, hybrid = fluid_leg()
        prof = profile_run(sim.now, registry,
                           fluid_intervals=hybrid.intervals)
        _assert_nodes_match(prof, FLUID_NODES)
        assert prof.render_folded() == FLUID_FOLDED
        assert prof.render_tree() == FLUID_TREE


class TestSampledTraces:
    def test_continuum_nodes_cover_the_retained_traces(self):
        sim, registry, replayer = continuum_leg(sample_rate=0.3)
        assert 0 < len(replayer.traces) < 150
        nodes = profile_run(sim.now, registry,
                            traces=replayer.traces).nodes()
        for leg in LEGS:
            spans = [span for ctx in replayer.traces
                     for span in ctx.find(leg) if span.closed]
            assert spans, leg
            sim_s, count = nodes[("continuum", leg)]
            assert count == len(spans)
            assert sim_s == pytest.approx(
                sum(span.duration for span in spans), rel=1e-12)

    def test_serve_nodes_still_cover_every_request(self):
        def serve_nodes(sample_rate):
            sim, registry, replayer = continuum_leg(sample_rate)
            nodes = profile_run(sim.now, registry,
                                traces=replayer.traces).nodes()
            return {path: value for path, value in nodes.items()
                    if path[0] != "continuum"}

        assert serve_nodes(0.3) == serve_nodes(1.0)

"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload is split in two.  ``setup(seed, smoke)`` builds every
input — arrival traces, frames and their fingerprints, model weights —
and is what ``setup_s`` times.  ``execute(inputs)`` runs a fixed amount
of simulated or numeric work on those inputs, builds every simulator
object afresh (a simulator runs once), and returns an :class:`Outcome`.

Simulated load is open loop in virtual time: arrivals come from seeded
traces and never wait for replies, so the benchmark times a fixed
amount of simulated work and generator lateness cannot arise.

Why each workload exists (the layer map in ``README.md`` says which
end-to-end metric each layer should move):

* ``continuum_day`` — the paper's Fig 8 pipeline run as events: the only
  workload where the continuum legs, both cache tiers, request tracing
  and the time-series sampler do most of the work.
* ``burst_day`` — the event core, batcher, instances and fluid handoffs
  at high volume; it bypasses continuum, cache, tracing and
  ``engine.latency``, so gains there must show no change here.
* ``faas_night`` — the event core used differently: one request per
  instance, daemon ticks, reap-timer schedule/cancel churn, no batching.
* ``paper_pipeline`` — the functional Fig 7/8 path: NumPy kernels and
  preprocessing do nearly all the work and the event core none.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections.abc import Callable

import numpy as np

from repro.cache import keys
from repro.cache.store import CacheStore, FrequencySketch
from repro.cache.tiers import CLOUD_TENSOR, EDGE_RESULT, CacheHierarchy, \
    CacheTier
from repro.continuum.broker import Broker
from repro.continuum.network import get_link
from repro.continuum.pipeline import ContinuumReplayer
from repro.continuum.uplink import SharedUplink, StoreAndForward
from repro.core.study import CharacterizationStudy
from repro.data.datasets import get_dataset
from repro.data.synthetic import synth_crsa_frame, synth_frame_sequence, \
    synth_image
from repro.engine.latency import LatencyModel
from repro.faas import FaaSBackend, FaaSFunctionConfig, get_faas_platform
from repro.hardware.platform import get_platform
from repro.models.functional import MacTally, build_functional
from repro.models.zoo import get_model
from repro.preprocessing.pipelines import crsa_pipeline, model_pipeline
from repro.scale.autoscaler import FaaSConcurrencyPolicy, FaaSPolicyConfig
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.faults import FaultModel, LinkOutageModel
from repro.serving.fluid import HybridReplayer
from repro.serving.observability import MetricsRegistry, TimeSeriesSampler
from repro.serving.request import Request
from repro.serving.server import ModelConfig, TritonLikeServer
from repro.serving.slo import SLOConfig, SLOMonitor
from repro.serving.traces import ArrivalTrace, TraceReplayer, \
    burst_trace, diurnal_trace, sparse_diurnal_trace

#: Work counts every traced run reports (0 where a workload has none of
#: that work), read from the public stats of the objects a run built.
WORK_COUNTS = (
    "serving.events.processed",
    "serving.batcher.batches",
    "serving.batcher.mean_batch",
    "serving.instance.retries",
    "cache.tiers.edge_hit_ratio",
    "cache.tiers.cloud_hit_ratio",
    "continuum.uplink.retransmits",
    "continuum.uplink.peak_concurrency",
    "continuum.broker.retries",
    "serving.fluid.folded_frac",
    "serving.fluid.intervals",
    "faas.backend.cold_starts",
    "faas.backend.reaps",
    "models.functional.gmacs",
)

#: Keys of every digest's conservation identity:
#: arrivals == ok + rejected + shed + failed.
CONSERVATION = ("arrivals", "ok", "rejected", "shed", "failed")


@dataclasses.dataclass
class Outcome:
    """What one execution produced.

    ``digest`` holds the canonical outputs that repeats, the traced
    run and ``expected.json`` must agree on; ``counts`` holds work
    counts for the per-layer report (names from :data:`WORK_COUNTS`,
    plus ``mpix`` for the preprocessing rate); ``items`` is the unit
    of ``items_per_s``.
    """

    digest: dict
    counts: dict
    items: int


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    items: str
    setup: Callable[[int, bool], object]
    execute: Callable[[object], Outcome]


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a sorted list (0.0 when empty)."""
    if not values:
        return 0.0
    return values[max(0, math.ceil(q * len(values)) - 1)]


def _sim_time(value: float) -> float:
    """Sim-time digest value: nanosecond resolution."""
    return round(value, 9)


def _status_counts(statuses) -> dict:
    counts = {"ok": 0, "rejected": 0, "shed": 0, "failed": 0}
    for status in statuses:
        counts[status] = counts.get(status, 0) + 1
    return counts


def _batch_counts(server, models) -> dict:
    stats = [s for model in models for s in server.instance_stats(model)]
    batches = sum(s.batches_served for s in stats)
    images = sum(s.images_served for s in stats)
    return {"serving.batcher.batches": batches,
            "serving.batcher.mean_batch": images / batches if batches
            else 0.0}


# ----------------------------------------------------------------------
# continuum_day
# ----------------------------------------------------------------------
_CAMERAS = 8
_SCENE_TICKS = 32
_EDGE_BYTES = 64 * 1024.0
_CLOUD_BYTES = 32 * 1024.0 * 1024.0
_THRESHOLD = 8


def _camera_fingerprints(seed: int, camera: int, ticks: int) -> list:
    """One camera's frame fingerprints, one frame per tick.

    Scenes last a fixed ``_SCENE_TICKS`` ticks (staggered across
    cameras) rather than cutting at random, and sensor noise stays low
    enough that a scene's frames keep matching, so every seed brings
    about the same cache and uplink work; the seed changes the pixels.
    """
    rng = np.random.default_rng([seed, 1, camera])
    offset = camera * _SCENE_TICKS // _CAMERAS
    cuts = sorted({0, ticks, *range(offset, ticks, _SCENE_TICKS)})
    prints = []
    for start, end in zip(cuts, cuts[1:]):
        frames = synth_frame_sequence(get_dataset("crsa"), end - start,
                                      0.0, rng, width=96, height=54,
                                      jitter=1.0)
        prints.extend(keys.fingerprint(frame) for frame in frames)
    return prints


def _continuum_setup(seed: int, smoke: bool) -> dict:
    ticks = 40 if smoke else 400
    duration = 120.0 if smoke else 1200.0
    # A compressed diurnal day for the capture triggers; the cameras
    # fire in lockstep, so every tick puts eight frames on the uplink.
    # Every stride-th arrival of a 16x denser trace keeps the diurnal
    # shape with a fixed tick count and little seed-to-seed jitter.
    day = diurnal_trace(duration=duration,
                        peak_rate=16 * 2.4 * ticks / duration,
                        base_rate=16 * 0.2 * ticks / duration,
                        daylight=(0.2 * duration, 0.85 * duration),
                        seed=seed)
    pool = np.asarray(day.arrival_times)
    stride = pool.size // ticks
    start = np.random.default_rng([seed, 0]).integers(stride)
    tick_times = pool[start::stride][:ticks]
    return {
        "seed": seed,
        "duration": duration,
        "ticks": tick_times,
        "fingerprints": [_camera_fingerprints(seed, camera, ticks)
                         for camera in range(_CAMERAS)],
        "latency": LatencyModel(get_model("resnet50").graph,
                                get_platform("a100")),
        "link": get_link("farm_wifi_lossy"),
        # Sized so uploads queue on the 80 Mbps uplink at the diurnal
        # peak (p99 of seconds) without a backlog that keeps growing.
        "image_bytes": 1.6e6,
        # One pre-dawn outage (60 s of the full day): buffered frames
        # drain into the uplink when it returns.
        "outage": (0.1 * duration, 0.1 * duration + duration / 20),
    }


def _continuum_execute(inp: dict) -> Outcome:
    seed = inp["seed"]
    latency = inp["latency"]
    sim = Simulator()

    def clock() -> float:
        return sim.now

    registry = MetricsRegistry(clock=clock)
    server = TritonLikeServer(sim, registry=registry)
    server.register(ModelConfig(
        "crsa_preprocess", lambda n: 0.0015 * n,
        batcher=BatcherConfig(max_batch_size=8, max_queue_delay=0.002)))
    faults = FaultModel(failure_probability=0.01, seed=seed)
    server.register(ModelConfig(
        "infer", lambda n: latency.latency(max(1, n)),
        batcher=BatcherConfig(max_batch_size=8, max_queue_delay=0.002),
        instances=2, preprocess_model="crsa_preprocess",
        fault_model=faults))
    uplink = SharedUplink(inp["link"], sim, seed=seed, registry=registry)
    buffer = StoreAndForward(uplink, sim,
                             outage=LinkOutageModel(windows=(inp["outage"],)),
                             registry=registry)
    buffer.start(inp["duration"] + 600.0)
    cache = CacheHierarchy(
        edge=CacheTier(EDGE_RESULT, CacheStore(
            _EDGE_BYTES, clock, match_threshold=_THRESHOLD,
            ttl_seconds=30.0, admission=FrequencySketch(),
            name=EDGE_RESULT), stage="uplink+serving", registry=registry),
        cloud=CacheTier(CLOUD_TENSOR, CacheStore(
            _CLOUD_BYTES, clock, match_threshold=_THRESHOLD,
            name=CLOUD_TENSOR), stage="preprocess", registry=registry))
    replayer = ContinuumReplayer(
        server, buffer, edge_preprocess_time=lambda n: 0.002 * n,
        image_bytes=inp["image_bytes"], registry=registry, cache=cache)
    server.attach_cache(cache)
    broker = Broker(sim, buffer, seed=seed + 1, registry=registry)
    received = [0]

    def on_telemetry(topic, payload_bytes, duplicate) -> None:
        received[0] += 1

    broker.subscribe("telemetry", on_telemetry)
    fingerprints = inp["fingerprints"]

    def on_tick(index: int) -> None:
        for camera in range(_CAMERAS):
            request = Request("infer", num_images=1,
                              request_id=index * _CAMERAS + camera + 1,
                              cache_key=fingerprints[camera][index])
            request.endpoint = camera
            replayer.submit(request)
            if index % 4 == camera % 4:
                broker.publish("telemetry", 512.0, qos=1)

    ticks = inp["ticks"]
    sim.add_stream(ticks, on_tick)
    TimeSeriesSampler(server, interval=1.0).start()
    server.run()

    closed = replayer.completed_traces()
    statuses = _status_counts(t.status for t in closed)
    served = sorted(t.latency for t in closed if t.status == "ok")
    edge, cloud = cache.edge, cache.cloud
    digest = {
        "arrivals": len(ticks) * _CAMERAS,
        **statuses,
        "open_traces": len(replayer.traces) - len(closed),
        "cache_served": len(replayer.cache_responses),
        "edge_hits": edge.store.stats.hits,
        "cloud_hits": cloud.store.stats.hits,
        "p50_s": _sim_time(_quantile(served, 0.50)),
        "p99_s": _sim_time(_quantile(served, 0.99)),
        "retransmits": uplink.total_retransmits,
        "peak_concurrency": uplink.peak_concurrency,
        "buffered": buffer.buffered_total,
        "broker": [broker.published, broker.delivered, broker.duplicates,
                   broker.retries, broker.failed, received[0]],
        "faults": faults.injected,
        "events": sim.events_processed,
    }
    counts = {
        "serving.events.processed": sim.events_processed,
        **_batch_counts(server, ("crsa_preprocess", "infer")),
        "serving.instance.retries": registry.get("retries_total").total(),
        "cache.tiers.edge_hit_ratio": edge.hit_ratio,
        "cache.tiers.cloud_hit_ratio": cloud.hit_ratio,
        "continuum.uplink.retransmits": uplink.total_retransmits,
        "continuum.uplink.peak_concurrency": uplink.peak_concurrency,
        "continuum.broker.retries": broker.retries,
    }
    return Outcome(digest, counts, digest["arrivals"])


# ----------------------------------------------------------------------
# burst_day
# ----------------------------------------------------------------------
def _burst_setup(seed: int, smoke: bool) -> dict:
    # One saturated burst per fixed window, so bursts never overlap and
    # every seed folds the same number of stretches.
    windows, window, burst = (2, 300.0, 60.0) if smoke else \
        (4, 1200.0, 240.0)
    times = []
    for index in range(windows):
        part = burst_trace(duration=window, background_rate=8.0, bursts=1,
                           burst_rate=60.0, burst_seconds=burst,
                           seed=seed * windows + index)
        times.extend(t + index * window for t in part.arrival_times)
    return {"trace": ArrivalTrace("burst_day", tuple(times),
                                  windows * window)}


def _burst_execute(inp: dict) -> Outcome:
    trace = inp["trace"]
    # The 2-instance "harvest" server: ~39.9 req/s of capacity, so the
    # 60/s bursts saturate and the hybrid engine folds them.
    server = TritonLikeServer()
    server.register(ModelConfig(
        "harvest", service_time=lambda n: 0.01 + 0.05 * n,
        batcher=BatcherConfig(max_batch_size=64, max_queue_delay=0.1),
        instances=2))
    replayer = HybridReplayer(server, "harvest")
    replayer.schedule(trace)
    server.run()

    statuses = _status_counts(r.status for r in server.responses)
    statuses["ok"] += replayer.fluid_completed
    summary = replayer.latency_summary()
    folded = server.metrics.get("fluid_folded_arrivals_total").total()
    digest = {
        "arrivals": len(trace),
        **statuses,
        "fluid_completed": replayer.fluid_completed,
        "intervals": len(replayer.intervals),
        "p50_s": _sim_time(summary["p50"]),
        "p99_s": _sim_time(summary["p99"]),
        "events": server.sim.events_processed,
    }
    counts = {
        "serving.events.processed": server.sim.events_processed,
        **_batch_counts(server, ("harvest",)),
        "serving.fluid.folded_frac": folded / len(trace),
        "serving.fluid.intervals": len(replayer.intervals),
    }
    return Outcome(digest, counts, len(trace))


# ----------------------------------------------------------------------
# faas_night
# ----------------------------------------------------------------------
def _faas_setup(seed: int, smoke: bool) -> dict:
    trace = sparse_diurnal_trace(duration=3600.0 if smoke else 21600.0,
                                 peak_rate=0.75, night_rate=0.05,
                                 seed=seed)
    return {
        "seed": seed,
        "trace": trace,
        "latency": LatencyModel(get_model("vit_base").graph,
                                get_platform("jetson")),
        "platform": get_faas_platform("edge_faas"),
    }


def _faas_execute(inp: dict) -> Outcome:
    latency = inp["latency"]
    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)
    backend = FaaSBackend(sim, registry=registry, seed=inp["seed"])
    # Keep-alive below the 20 s mean night gap: night instances reap
    # and every night request cold-starts.
    backend.register(FaaSFunctionConfig(
        "infer", lambda n: latency.latency(max(1, n)),
        platform=inp["platform"], concurrency_limit=16,
        keep_alive_seconds=15.0))
    monitor = SLOMonitor(sim, registry, SLOConfig(
        latency_threshold_seconds=0.1, objective=0.99, interval=10.0,
        fast_window_seconds=150.0, slow_window_seconds=600.0,
        min_window_samples=2, rearm_seconds=60.0))
    policy = FaaSConcurrencyPolicy(backend, "infer", FaaSPolicyConfig(
        interval=10.0, min_provisioned=0, max_provisioned=2, step=1,
        hold_seconds=900.0))
    monitor.on_alert(policy.notify_slo_alert)
    trace = inp["trace"]
    TraceReplayer(backend, "infer").schedule(trace)
    monitor.start()
    policy.start()
    sim.run()

    stats = backend.function_stats("infer")
    statuses = _status_counts(r.status for r in backend.responses)
    served = sorted(r.latency for r in backend.responses if r.ok)
    cost = backend.cost_summary()
    digest = {
        "arrivals": len(trace),
        **statuses,
        "invocations": stats.invocations,
        "cold_starts": stats.cold_starts,
        "warm_starts": stats.warm_starts,
        "reaps": stats.reaps,
        "prewarms": stats.prewarms,
        "p50_s": _sim_time(_quantile(served, 0.50)),
        "p99_s": _sim_time(_quantile(served, 0.99)),
        "gb_seconds": round(cost["gb_seconds"], 6),
        "provisioned_gb_seconds": round(cost["provisioned_gb_seconds"], 6),
        "alerts": len(monitor.alerts),
        "policy_events": len(policy.events),
        "events": sim.events_processed,
    }
    counts = {
        "serving.events.processed": sim.events_processed,
        "faas.backend.cold_starts": stats.cold_starts,
        "faas.backend.reaps": stats.reaps,
    }
    return Outcome(digest, counts, len(trace))


# ----------------------------------------------------------------------
# paper_pipeline
# ----------------------------------------------------------------------
_BATCH = 8


def _paper_setup(seed: int, smoke: bool) -> dict:
    rng = np.random.default_rng([seed, 2])
    n_frames, n_plants = (2, 2) if smoke else (4, 8)
    frame_hw = (270, 480) if smoke else (540, 960)
    frames = [synth_crsa_frame(frame_hw[1], frame_hw[0], rng)
              for _ in range(n_frames)]
    plants = [synth_image(500, 375, rng) for _ in range(n_plants)]
    return {
        "frames": frames,
        "plants": plants,
        "crsa": crsa_pipeline(224, frame_hw=frame_hw),
        "small": model_pipeline(32),
        "large": model_pipeline(224),
        "resnet50": build_functional("resnet50", seed=seed),
        "vit_tiny": build_functional("vit_tiny", seed=seed),
    }


def _batched(model, x: np.ndarray, tally: MacTally) -> np.ndarray:
    return np.concatenate([model(x[i:i + _BATCH], tally)
                           for i in range(0, len(x), _BATCH)])


def _paper_execute(inp: dict) -> Outcome:
    frames, plants = inp["frames"], inp["plants"]
    tally = MacTally()
    prints = [keys.fingerprint(frame).packed for frame in frames]
    crsa_in = np.stack([inp["crsa"](frame) for frame in frames])
    crsa_logits = _batched(inp["resnet50"], crsa_in, tally)
    plant_in = np.stack([inp["small"](image) for image in plants])
    plant_logits = _batched(inp["vit_tiny"], plant_in, tally)
    large = [inp["large"](image) for image in plants]
    study = CharacterizationStudy().run().render()

    # Output pixels of every preprocessed tensor (CHW per image).
    mpix = sum(math.prod(t.shape[-2:]) for t in
               [*crsa_in, *plant_in, *large]) / 1e6
    logits = np.concatenate([crsa_logits.ravel(), plant_logits.ravel()])
    digest = {
        "arrivals": len(frames) + len(plants),
        "ok": len(crsa_logits) + len(plant_logits),
        "rejected": 0,
        "shed": 0,
        "failed": 0,
        "fingerprints": hashlib.sha256(
            ",".join(map(str, prints)).encode()).hexdigest(),
        "logits_abs_sum": float(np.abs(logits).sum(dtype=np.float64)),
        "logits_sq_sum": float(np.square(logits, dtype=np.float64).sum()),
        "shapes": [list(crsa_logits.shape), list(plant_logits.shape),
                   list(large[0].shape)],
        "study_sha256": hashlib.sha256(study.encode()).hexdigest(),
    }
    counts = {"models.functional.gmacs": tally.macs / 1e9, "mpix": mpix}
    return Outcome(digest, counts, digest["arrivals"])


WORKLOADS = {
    w.name: w for w in (
        Workload("continuum_day", "frames", _continuum_setup,
                 _continuum_execute),
        Workload("burst_day", "arrivals", _burst_setup, _burst_execute),
        Workload("faas_night", "arrivals", _faas_setup, _faas_execute),
        Workload("paper_pipeline", "images", _paper_setup, _paper_execute),
    )
}

"""Property: the serving front door conserves requests and images.

Every backend answers each request it is handed exactly once.  At
quiescence, per model, the responses counted over every status equal
the accepted submissions plus the drain refusals (for requests and for
images), and the latency histogram holds one observation per response.
Random traces drive a Triton-like server (bounded queues, an ensemble,
retried faults) and a FaaS backend (bounded function queues), each
drained at a random time, and a hybrid fluid/DES replay, whose
saturated stretches reach the counters through the bulk path.  A
request for a model neither backend serves is refused before it is
counted.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas import FaaSBackend, FaaSFunctionConfig, FaaSPlatformModel
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.faults import FaultModel
from repro.serving.fluid import FluidConfig, HybridReplayer
from repro.serving.request import Request
from repro.serving.server import EnsembleConfig, ModelConfig, TritonLikeServer
from repro.serving.traces import step_trace

SERVER_MODELS = ("a", "b", "fan")
FUNCTIONS = ("f", "g")

arrivals = st.lists(
    st.tuples(st.floats(0.0, 0.02),   # gap to the previous arrival
              st.integers(1, 4),      # images
              st.integers(0, 2)),     # model index
    min_size=1, max_size=60)


def per_model(metric, model: str) -> float:
    """A counter's total over every label set of one model."""
    return sum(value for key, value in metric.items()
               if dict(key)["model"] == model)


def replay(backend, models, trace, drain_time: float) -> Counter:
    """Submit ``trace``, drain at ``drain_time``, run to quiescence.

    Returns the requests and images refused while draining, per model
    (keys ``(model, "requests")`` and ``(model, "images")``).
    """
    sim = backend.sim
    refused = Counter()

    def submit(request: Request) -> None:
        if backend.draining:
            refused[request.model_name, "requests"] += 1
            refused[request.model_name, "images"] += request.num_images
        backend.submit(request)

    now = 0.0
    for gap, images, index in trace:
        now += gap
        request = Request(models[index % len(models)], num_images=images)
        sim.schedule(now, lambda r=request: submit(r))
    sim.schedule(drain_time, backend.begin_drain)
    sim.run()
    return refused


def assert_conserved(backend, models, refused=Counter(),
                     bulk_completed: int = 0) -> None:
    m = backend.metrics
    for model in models:
        assert per_model(m.get("drain_rejections_total"), model) == \
            refused[model, "requests"]
        assert per_model(m.get("responses_total"), model) == (
            per_model(m.get("requests_submitted_total"), model)
            + refused[model, "requests"])
        assert per_model(m.get("images_completed_total"), model) == (
            per_model(m.get("images_submitted_total"), model)
            + refused[model, "images"])
    latency = m.get("request_latency_seconds")
    observed = sum(series.count for _, series in latency.items())
    assert observed == len(backend.responses) + bulk_completed


def make_server(queue_limit: int = 0, failure: float = 0.0,
                retries: int = 0) -> TritonLikeServer:
    server = TritonLikeServer()
    batcher = BatcherConfig(max_batch_size=4, max_queue_delay=0.002,
                            max_queue_size=queue_limit)
    server.register(ModelConfig("pre", lambda n: 0.001 * n,
                                batcher=batcher))
    server.register(ModelConfig(
        "a", lambda n: 0.002 + 0.001 * n, batcher=batcher,
        preprocess_model="pre", max_retries=retries,
        fault_model=FaultModel(failure, detect_seconds=0.001, seed=1)))
    server.register(ModelConfig("b", lambda n: 0.003 * n,
                                batcher=batcher, instances=2))
    server.register_ensemble(EnsembleConfig("fan", "pre", ("a", "b")))
    return server


def make_faas(queue_depth: int = 0, concurrency: int = 1,
              keep_alive: float = 0.0) -> FaaSBackend:
    backend = FaaSBackend(Simulator(), seed=3)
    platform = FaaSPlatformModel(
        name="p", cold_start_base_seconds=0.02,
        cold_start_jitter_seconds=0.01, artifact_bytes=1e6,
        artifact_bandwidth_bps=1e9, memory_gb=1.0)
    for name in FUNCTIONS:
        backend.register(FaaSFunctionConfig(
            name, lambda n: 0.004 * n, platform=platform,
            concurrency_limit=concurrency, keep_alive_seconds=keep_alive,
            max_queue_depth=queue_depth))
    return backend


@given(trace=arrivals, queue_limit=st.integers(0, 8),
       drain_time=st.floats(0.0, 1.5),
       failure=st.sampled_from([0.0, 0.2, 0.6]),
       retries=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_server_front_door_conserves(trace, queue_limit, drain_time,
                                     failure, retries):
    server = make_server(queue_limit, failure, retries)
    refused = replay(server, SERVER_MODELS, trace, drain_time)
    assert server.is_drained
    assert_conserved(server, SERVER_MODELS, refused)


@given(trace=arrivals, queue_depth=st.integers(0, 3),
       concurrency=st.integers(1, 3), drain_time=st.floats(0.0, 1.5),
       keep_alive=st.sampled_from([0.0, 0.05, 5.0]))
@settings(max_examples=40, deadline=None)
def test_faas_front_door_conserves(trace, queue_depth, concurrency,
                                   drain_time, keep_alive):
    backend = make_faas(queue_depth, concurrency, keep_alive)
    refused = replay(backend, FUNCTIONS, trace, drain_time)
    assert backend.is_drained
    assert_conserved(backend, FUNCTIONS, refused)


@pytest.mark.parametrize("backend, models", [
    (make_server, SERVER_MODELS), (make_faas, FUNCTIONS)],
    ids=["server", "faas"])
def test_unknown_model_is_refused_before_it_is_counted(backend, models):
    backend = backend()
    with pytest.raises(KeyError, match="nope"):
        backend.submit(Request("nope", num_images=3))
    backend.submit(Request(models[0]))
    backend.sim.run()
    assert_conserved(backend, (*models, "nope"))
    assert per_model(backend.metrics.get("images_submitted_total"),
                     "nope") == 0


@given(step_rate=st.floats(800.0, 2000.0), step_end=st.floats(2.0, 4.0),
       seed=st.integers(0, 50))
@settings(max_examples=10, deadline=None)
def test_hybrid_replay_conserves_through_the_bulk_path(step_rate,
                                                       step_end, seed):
    server = TritonLikeServer()
    server.register(ModelConfig(
        "crop", service_time=lambda n: 0.01 + 0.002 * n,
        batcher=BatcherConfig(max_batch_size=8, max_queue_delay=0.005),
        instances=2))
    replayer = HybridReplayer(server, "crop", config=FluidConfig(
        enter_queued_images=64, sustain_seconds=0.05,
        exit_queued_images=8, min_fluid_arrivals=32))
    replayer.schedule(step_trace(duration=6.0, base_rate=20.0,
                                 step_rate=step_rate, step_start=1.0,
                                 step_end=step_end, seed=seed))
    server.run()
    assert replayer.fluid_completed > 0
    assert_conserved(server, ("crop",),
                     bulk_completed=replayer.fluid_completed)

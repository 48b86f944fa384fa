"""Tests for repro.core.autotune — the SLO feedback controller."""

import numpy as np
import pytest

from repro.core.autotune import SLOAutotuner
from repro.engine.latency import LatencyModel
from repro.hardware.platform import A100
from repro.models.zoo import get_model
from repro.serving.batcher import BatcherConfig
from repro.serving.client import OpenLoopClient
from repro.serving.server import ModelConfig, TritonLikeServer


def make_server(initial_delay=0.03):
    latency = LatencyModel(get_model("vit_tiny").graph, A100)
    server = TritonLikeServer()
    server.register(ModelConfig(
        "m", lambda n: latency.latency(max(1, n)),
        batcher=BatcherConfig(max_batch_size=256,
                              max_queue_delay=initial_delay)))
    return server


class TestController:
    def test_shrinks_delay_when_slo_violated(self):
        server = make_server(initial_delay=0.03)
        tuner = SLOAutotuner(server, "m", target_p95_seconds=0.010,
                             interval_seconds=0.2)
        tuner.start(duration=2.0)
        client = OpenLoopClient(server, "m", rate_per_second=3000,
                               num_requests=6000, seed=3)
        client.start()
        server.run()
        assert tuner.current_delay < 0.03
        # The tail of the run meets the SLO.
        late = [r.latency for r in server.responses[-1000:]]
        assert float(np.percentile(late, 95)) < 0.010

    def test_grows_delay_when_headroom(self):
        server = make_server(initial_delay=0.0005)
        tuner = SLOAutotuner(server, "m", target_p95_seconds=0.05,
                             interval_seconds=0.2, grow_step=2e-3)
        tuner.start(duration=2.0)
        client = OpenLoopClient(server, "m", rate_per_second=2000,
                               num_requests=4000, seed=4)
        client.start()
        server.run()
        assert tuner.current_delay > 0.0005
        assert any(step.action == "grow" for step in tuner.history)

    def test_idle_windows_recorded(self):
        server = make_server()
        tuner = SLOAutotuner(server, "m", target_p95_seconds=0.01,
                             interval_seconds=0.1)
        tuner.start(duration=0.5)
        server.run()  # no traffic at all
        assert tuner.history
        assert all(step.action == "idle" for step in tuner.history)

    def test_bounded_by_min_and_max(self):
        server = make_server(initial_delay=0.01)
        tuner = SLOAutotuner(server, "m", target_p95_seconds=1e-6,
                             interval_seconds=0.1, min_delay=1e-3)
        tuner.start(duration=1.0)
        client = OpenLoopClient(server, "m", rate_per_second=1000,
                               num_requests=1000, seed=5)
        client.start()
        server.run()
        assert tuner.current_delay >= 1e-3

    def test_violations_counter(self):
        server = make_server(initial_delay=0.03)
        tuner = SLOAutotuner(server, "m", target_p95_seconds=0.005,
                             interval_seconds=0.2)
        tuner.start(duration=1.0)
        client = OpenLoopClient(server, "m", rate_per_second=3000,
                               num_requests=3000, seed=6)
        client.start()
        server.run()
        assert tuner.violations() >= 1

    def test_double_start_rejected(self):
        server = make_server()
        tuner = SLOAutotuner(server, "m", target_p95_seconds=0.01)
        tuner.start(duration=0.1)
        with pytest.raises(RuntimeError):
            tuner.start()

    def test_validation(self):
        server = make_server()
        with pytest.raises(ValueError):
            SLOAutotuner(server, "m", target_p95_seconds=0)
        with pytest.raises(ValueError):
            SLOAutotuner(server, "m", 0.01, min_delay=0.1,
                         max_delay=0.01)
        with pytest.raises(ValueError):
            SLOAutotuner(server, "m", 0.01, shrink_factor=1.5)

    def test_nan_target_and_interval_rejected(self):
        # NaN passed the old `<= 0` checks.
        server = make_server()
        with pytest.raises(ValueError):
            SLOAutotuner(server, "m", target_p95_seconds=float("nan"))
        with pytest.raises(ValueError):
            SLOAutotuner(server, "m", 0.01, interval_seconds=float("nan"))


class TestLiveReconfiguration:
    def test_reconfigure_batcher_swaps_policy(self):
        server = make_server(initial_delay=0.02)
        new = BatcherConfig(max_batch_size=8, max_queue_delay=0.001)
        server.reconfigure_batcher("m", new)
        assert server.batcher_config("m") == new

    def test_unknown_model_rejected(self):
        server = make_server()
        with pytest.raises(KeyError):
            server.reconfigure_batcher("nope", BatcherConfig())
        with pytest.raises(KeyError):
            server.batcher_config("nope")

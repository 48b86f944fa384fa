"""Tests for shared-preprocessing ensembles and the DALIWarp framework."""

import pytest

from repro.data.datasets import get_dataset
from repro.hardware.platform import A100, JETSON
from repro.preprocessing.frameworks import DALI, DALIWarp, OpenCVCPU
from repro.serving.batcher import BatcherConfig
from repro.serving.events import Simulator
from repro.serving.request import Request
from repro.serving.server import (
    EnsembleConfig,
    ModelConfig,
    TritonLikeServer,
)
from repro.serving.tracectx import TraceContext


def _server_with_ensemble(pre=0.1, residue=0.2, pest=0.3):
    server = TritonLikeServer()
    for name, seconds in (("pre", pre), ("residue", residue),
                          ("pest", pest)):
        server.register(ModelConfig(
            name, lambda n, s=seconds: s,
            batcher=BatcherConfig(enabled=False)))
    server.register_ensemble(EnsembleConfig(
        "field_tasks", "pre", ("residue", "pest")))
    return server


class TestEnsembleRouting:
    def test_preprocess_runs_once_consumers_fan_out(self):
        server = _server_with_ensemble()
        request = Request("field_tasks", trace=TraceContext(1))
        server.submit(request)
        server.run()
        spans = {s.args["instance"]: s
                 for s in request.trace.find("execute")}
        assert set(spans) == {"pre#0", "residue#0", "pest#0"}
        assert spans["pre#0"].end == pytest.approx(0.1)
        # Both consumers start right after the shared preprocess.
        assert spans["residue#0"].start == pytest.approx(0.1)
        assert spans["pest#0"].start == pytest.approx(0.1)

    def test_response_waits_for_slowest_consumer(self):
        server = _server_with_ensemble(pre=0.1, residue=0.2, pest=0.3)
        server.submit(Request("field_tasks"))
        [response] = server.run()
        assert response.latency == pytest.approx(0.4)  # 0.1 + 0.3

    def test_single_response_per_request(self):
        server = _server_with_ensemble()
        for _ in range(5):
            server.submit(Request("field_tasks"))
        responses = server.run()
        assert len(responses) == 5
        ids = [r.request.request_id for r in responses]
        assert len(set(ids)) == 5

    def test_preprocessing_shared_not_repeated(self):
        server = _server_with_ensemble()
        for _ in range(4):
            server.submit(Request("field_tasks"))
        server.run()
        [pre_stats] = server.instance_stats("pre")
        assert pre_stats.batches_served == 4  # once per request, not
        # once per (request, consumer) pair
        [residue_stats] = server.instance_stats("residue")
        assert residue_stats.batches_served == 4

    def test_validation(self):
        server = TritonLikeServer()
        server.register(ModelConfig("pre", lambda n: 0.1))
        with pytest.raises(ValueError, match="not a registered"):
            server.register_ensemble(EnsembleConfig(
                "e", "pre", ("missing",)))
        with pytest.raises(ValueError):
            EnsembleConfig("e", "pre", ())
        with pytest.raises(ValueError):
            EnsembleConfig("e", "pre", ("m", "m"))

    def test_name_collisions_rejected(self):
        server = TritonLikeServer()
        server.register(ModelConfig("pre", lambda n: 0.1))
        server.register(ModelConfig("m", lambda n: 0.1))
        server.register_ensemble(EnsembleConfig("e", "pre", ("m",)))
        with pytest.raises(ValueError, match="already"):
            server.register_ensemble(EnsembleConfig("e", "pre", ("m",)))

    def test_plain_models_still_route(self):
        server = _server_with_ensemble()
        server.submit(Request("residue"))
        [response] = server.run()
        assert response.latency == pytest.approx(0.2)


class TestDegradedFanOut:
    """Partial fan-out results are distinguishable from full rejection."""

    def _server(self, bad_queue_limit=1):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "pre", lambda n: 0.01, batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig(
            "good", lambda n: 0.01,
            batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig(
            "bad", lambda n: 1.0,
            batcher=BatcherConfig(enabled=False,
                                  max_queue_size=bad_queue_limit)))
        server.register_ensemble(EnsembleConfig(
            "e", "pre", ("good", "bad")))
        return server

    def _saturate_bad(self, server):
        # One request executing + one queued: the bounded "bad" queue
        # is full when the ensemble branch arrives.
        server.submit(Request("bad"))
        server.submit(Request("bad"))

    def test_partial_rejection_reports_degraded(self):
        # Regression: one consumer succeeded and one branch bounced off
        # a full queue — the seed reported a bare "rejected",
        # indistinguishable from a fully rejected request.
        server = self._server()
        self._saturate_bad(server)
        ensemble_request = Request("e", trace=TraceContext(1))
        server.submit(ensemble_request)
        responses = server.run()
        [result] = [r for r in responses
                    if r.request.request_id
                    == ensemble_request.request_id]
        assert result.status == "degraded"
        assert result.degraded and not result.ok
        # The good branch really ran before the response was emitted.
        [good] = [s for s in ensemble_request.trace.find("execute")
                  if s.args["stage"] == "good"]
        assert good.closed and good.end <= result.completion_time

    def test_fully_rejected_fanout_stays_rejected(self):
        server = TritonLikeServer()
        server.register(ModelConfig(
            "pre", lambda n: 0.01, batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig(
            "bad", lambda n: 1.0,
            batcher=BatcherConfig(enabled=False, max_queue_size=1)))
        server.register_ensemble(EnsembleConfig("e", "pre", ("bad",)))
        server.submit(Request("bad"))
        server.submit(Request("bad"))
        ensemble_request = Request("e")
        server.submit(ensemble_request)
        responses = server.run()
        [result] = [r for r in responses
                    if r.request.request_id
                    == ensemble_request.request_id]
        assert result.status == "rejected"

    def test_degraded_counted_in_metrics(self):
        server = self._server()
        self._saturate_bad(server)
        server.submit(Request("e"))
        server.run()
        assert server.metrics.get("responses_total").value(
            model="e", status="degraded") == 1


class TestDALIWarp:
    """The paper's future work: GPU-accelerated CRSA preprocessing."""

    def test_supports_the_perspective_stage(self):
        assert DALIWarp(224).supports_warp
        assert not DALI(224).supports_warp

    def test_far_faster_than_cv2_on_crsa(self):
        crsa = get_dataset("crsa")
        gpu = DALIWarp(224).estimate(crsa, A100)
        cpu = OpenCVCPU(224).estimate(crsa, A100)
        assert gpu.per_image_seconds < cpu.per_image_seconds / 10

    def test_enables_real_time_crsa_on_cloud(self):
        # With the warp on the GPU, a CRSA frame fits the 60-QPS budget
        # on the A100 (12 ms vs CV2's ~490 ms) — streaming 4K inference
        # becomes an *online* (cloud) scenario option.
        crsa = get_dataset("crsa")
        est = DALIWarp(224).estimate(crsa, A100)
        assert est.per_image_seconds < 1.0 / 60.0

    def test_substantial_speedup_on_jetson_but_not_yet_realtime(self):
        # On the edge device the GPU warp is ~3x CV2 but full-4K frames
        # still miss 30 fps at the calibrated rates — the honest answer
        # is ROI cropping or cloud offload, which the advisor surfaces.
        crsa = get_dataset("crsa")
        gpu = DALIWarp(224).estimate(crsa, JETSON, batch_size=1)
        cv2 = OpenCVCPU(224).estimate(crsa, JETSON)
        assert gpu.per_image_seconds < cv2.per_image_seconds / 2.5
        assert gpu.per_image_seconds > 1.0 / 30.0

    def test_no_surcharge_for_plain_datasets(self):
        pv = get_dataset("plant_village")
        base = DALI(224).estimate(pv, A100)
        warp = DALIWarp(224).estimate(pv, A100)
        assert warp.per_image_seconds == pytest.approx(
            base.per_image_seconds)

    def test_warp_adds_device_memory(self):
        crsa = get_dataset("crsa")
        base = DALI(224).estimate(crsa, A100)
        warp = DALIWarp(224).estimate(crsa, A100)
        assert warp.memory_bytes > base.memory_bytes

    def test_functional_run_applies_perspective(self, rng):
        from repro.data.synthetic import synth_crsa_frame

        frame = synth_crsa_frame(192, 108)
        out = DALIWarp(32).run([frame], get_dataset("crsa"))
        assert out.shape == (1, 3, 32, 32)

"""Tests for repro.serving.repository — the Triton model repository."""

import json

import pytest

from repro.hardware.platform import A100
from repro.models.resnet import build_resnet50
from repro.models.vit import build_vit
from repro.serving.batcher import BatcherConfig
from repro.serving.repository import ModelRepository, RepositoryError
from repro.serving.request import Request
from repro.serving.server import TritonLikeServer
from repro.serving.tracectx import TraceContext


@pytest.fixture()
def repo(tmp_path):
    return ModelRepository(tmp_path / "models")


class TestWriteAndLayout:
    def test_layout_on_disk(self, repo):
        repo.add_model(build_vit("vit_tiny"))
        root = repo.root
        assert (root / "vit_tiny" / "config.json").exists()
        assert (root / "vit_tiny" / "1" / "model.json").exists()

    def test_versions_increment(self, repo):
        assert repo.add_model(build_vit("vit_tiny")) == 1
        assert repo.add_model(build_vit("vit_tiny")) == 2
        assert repo.versions("vit_tiny") == [1, 2]

    def test_explicit_version(self, repo):
        repo.add_model(build_vit("vit_tiny"), version=7)
        assert repo.versions("vit_tiny") == [7]
        with pytest.raises(RepositoryError):
            repo.add_model(build_vit("vit_tiny"), version=0)

    def test_config_serializes_batching(self, repo):
        repo.add_model(build_vit("vit_tiny"),
                       BatcherConfig(max_batch_size=32,
                                     max_queue_delay=0.003,
                                     preferred_batch_sizes=(8, 16)),
                       instances=3)
        doc = json.loads((repo.root / "vit_tiny" / "config.json"
                          ).read_text())
        assert doc["max_batch_size"] == 32
        assert doc["max_queue_delay_us"] == 3000
        assert doc["instance_count"] == 3
        assert doc["preferred_batch_sizes"] == [8, 16]


class TestLoad:
    def test_roundtrip_preserves_model(self, repo):
        original = build_resnet50(img_size=64)
        repo.add_model(original)
        entry = repo.load("resnet50")
        assert entry.graph.total_params() == original.total_params()
        assert entry.graph.reported_gflops() == pytest.approx(
            original.reported_gflops())

    def test_latest_version_loaded_by_default(self, repo):
        repo.add_model(build_vit("vit_tiny"))
        repo.add_model(build_vit("vit_tiny", num_classes=7))
        entry = repo.load("vit_tiny")
        assert entry.version == 2
        assert entry.graph.layers[-1].out_features == 7

    def test_specific_version(self, repo):
        repo.add_model(build_vit("vit_tiny"))
        repo.add_model(build_vit("vit_tiny", num_classes=7))
        entry = repo.load("vit_tiny", version=1)
        assert entry.graph.layers[-1].out_features == 39

    def test_missing_model_raises(self, repo):
        with pytest.raises(RepositoryError, match="not found"):
            repo.load("missing")

    def test_missing_version_raises(self, repo):
        repo.add_model(build_vit("vit_tiny"))
        with pytest.raises(RepositoryError, match="versions"):
            repo.load("vit_tiny", version=9)

    def test_corrupt_model_file_raises(self, repo):
        repo.add_model(build_vit("vit_tiny"))
        (repo.root / "vit_tiny" / "1" / "model.json").write_text("junk")
        with pytest.raises(RepositoryError):
            repo.load("vit_tiny")

    def test_corrupt_config_raises(self, repo):
        repo.add_model(build_vit("vit_tiny"))
        (repo.root / "vit_tiny" / "config.json").write_text("{}")
        with pytest.raises(RepositoryError, match="config"):
            repo.load("vit_tiny")

    def test_empty_repository(self, repo):
        assert repo.model_names() == []
        assert repo.load_all() == []


class TestServe:
    def test_cold_start_serves_requests(self, repo):
        repo.add_model(build_vit("vit_tiny"),
                       BatcherConfig(max_batch_size=16,
                                     max_queue_delay=0.001))
        server = TritonLikeServer()
        entries = repo.serve(server, A100)
        assert [e.name for e in entries] == ["vit_tiny"]
        server.submit(Request("vit_tiny", num_images=4))
        responses = server.run()
        assert len(responses) == 1
        assert responses[0].latency > 0

    def test_ensemble_dependency_order(self, repo, vit_small):
        # A model referencing a preprocess entry loads after it.
        repo.add_model(build_vit("vit_tiny"))  # plays the preproc role
        repo.add_model(vit_small, preprocess_model="vit_tiny")
        server = TritonLikeServer()
        repo.serve(server, A100)
        request = Request("vit_small", trace=TraceContext(1))
        server.submit(request)
        server.run()
        assert [s.args["instance"] for s in request.trace.find("execute")
                if s.closed] == ["vit_tiny#0", "vit_small#0"]

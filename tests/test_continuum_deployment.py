"""Tests for repro.continuum.deployment — manifests and stack building."""

import pytest

from repro.continuum.deployment import (
    ManifestError,
    build_stack,
    load_manifest,
)
from repro.serving.request import Request
from repro.serving.tracectx import TraceContext


def valid_manifest(**overrides):
    doc = {
        "name": "station-a100",
        "platform": "a100",
        "scenario": "online",
        "models": [
            {"model": "vit_small", "dataset": "plant_village",
             "max_batch_size": 64, "max_queue_delay_ms": 2.0,
             "instances": 2},
        ],
    }
    doc.update(overrides)
    return doc


class TestValidation:
    def test_valid_manifest_loads(self):
        manifest = load_manifest(valid_manifest())
        assert manifest.platform_name == "A100"
        assert manifest.entries[0].model == "vit_small"
        assert manifest.entries[0].max_queue_delay == pytest.approx(
            0.002)

    def test_json_string_accepted(self):
        import json

        manifest = load_manifest(json.dumps(valid_manifest()))
        assert manifest.name == "station-a100"

    def test_invalid_json_rejected(self):
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest("{nope")

    def test_missing_keys_rejected(self):
        doc = valid_manifest()
        del doc["platform"]
        with pytest.raises(ManifestError, match="platform"):
            load_manifest(doc)

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            load_manifest(valid_manifest(platform="h100"))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ManifestError, match="scenario"):
            load_manifest(valid_manifest(scenario="batch"))

    def test_scenario_platform_mismatch_rejected(self):
        doc = valid_manifest(scenario="real-time")  # on a cloud node
        with pytest.raises(ManifestError, match="edge"):
            load_manifest(doc)

    def test_offline_on_jetson_rejected(self):
        doc = valid_manifest(platform="jetson", scenario="offline")
        with pytest.raises(ManifestError):
            load_manifest(doc)

    def test_empty_models_rejected(self):
        with pytest.raises(ManifestError, match="no models"):
            load_manifest(valid_manifest(models=[]))

    def test_unknown_model_rejected(self):
        doc = valid_manifest(models=[{"model": "bert",
                                      "dataset": "plant_village"}])
        with pytest.raises(KeyError):
            load_manifest(doc)

    def test_memory_overcommit_rejected(self):
        doc = valid_manifest(platform="jetson", scenario="real-time",
                             models=[{"model": "vit_base",
                                      "dataset": "plant_village",
                                      "max_batch_size": 16}])
        with pytest.raises(ManifestError, match="memory"):
            load_manifest(doc)

    def test_cpu_crsa_in_real_time_rejected(self):
        doc = valid_manifest(
            platform="jetson", scenario="real-time",
            models=[{"model": "vit_tiny", "dataset": "crsa",
                     "max_batch_size": 4,
                     "gpu_preprocessing": False}])
        with pytest.raises(ManifestError, match="real-time"):
            load_manifest(doc)

    @pytest.mark.parametrize("key, value", [
        ("max_queue_delay_ms", float("nan")),
        ("max_queue_delay_ms", -1.0),
        ("max_queue_delay_ms", float("inf")),
        ("max_batch_size", 2.5),
        ("instances", True),
        ("instances", "2"),
    ])
    def test_bad_entry_number_is_named_by_load_manifest(self, key, value):
        # Each used to pass load_manifest: the first two failed later
        # in build_stack, the next three built a stack, and "2" raised
        # a bare TypeError.
        doc = valid_manifest()
        doc["models"][0][key] = value
        with pytest.raises(ManifestError, match=f"^vit_small: {key} "):
            load_manifest(doc)


class TestBuildStack:
    def test_stack_serves_requests_end_to_end(self):
        manifest = load_manifest(valid_manifest())
        server = build_stack(manifest)
        assert set(server.model_names()) == {"pre_vit_small",
                                             "vit_small"}
        first = Request("vit_small", trace=TraceContext(1))
        server.submit(first)
        for _ in range(9):
            server.submit(Request("vit_small"))
        responses = server.run()
        assert len(responses) == 10
        # Requests traversed both stages.
        assert [s.args["stage"] for s in first.trace.find("execute")] \
            == ["pre_vit_small", "vit_small"]

    def test_instances_respected(self):
        manifest = load_manifest(valid_manifest())
        server = build_stack(manifest)
        assert len(server.instance_stats("vit_small")) == 2

    def test_multiple_models_coexist(self):
        doc = valid_manifest(models=[
            {"model": "vit_small", "dataset": "plant_village"},
            {"model": "resnet50", "dataset": "corn_growth"},
        ])
        server = build_stack(load_manifest(doc))
        server.submit(Request("vit_small"))
        server.submit(Request("resnet50"))
        assert len(server.run()) == 2

    def test_jetson_real_time_stack(self):
        doc = {
            "name": "vehicle", "platform": "jetson",
            "scenario": "real-time",
            "models": [{"model": "vit_tiny", "dataset": "spittle_bug",
                        "max_batch_size": 8,
                        "max_queue_delay_ms": 2.0}],
        }
        server = build_stack(load_manifest(doc))
        server.submit(Request("vit_tiny"))
        [response] = server.run()
        assert response.ok

"""Deployment manifests: declarative serving-stack configuration.

HARVEST targets operators, not systems programmers; a deployment should
be a reviewable document, not code.  A manifest is a JSON-able dict::

    {
      "name": "station-a100",
      "platform": "a100",
      "scenario": "online",
      "models": [
        {"model": "vit_small", "dataset": "plant_village",
         "max_batch_size": 64, "max_queue_delay_ms": 3.0,
         "instances": 2, "gpu_preprocessing": true}
      ]
    }

:func:`load_manifest` validates it against the registries (platform,
models, datasets, scenario constraints, memory feasibility) and
:func:`build_stack` materializes a ready-to-run
:class:`~repro.serving.server.TritonLikeServer` with preprocessing and
engine backends wired per entry.
"""

from __future__ import annotations

import dataclasses
import json

from repro.bounds import within
from repro.continuum.scenarios import (
    OfflineScenario,
    OnlineScenario,
    RealTimeScenario,
    ScenarioSpec,
)
from repro.data.datasets import get_dataset
from repro.engine.latency import LatencyModel
from repro.engine.oom import EngineMemoryModel
from repro.hardware.platform import get_platform
from repro.models.zoo import get_model
from repro.preprocessing.frameworks import DALI, DALIWarp, PyTorchCPU
from repro.serving.batcher import BatcherConfig
from repro.serving.server import ModelConfig, TritonLikeServer


class ManifestError(ValueError):
    """Raised for invalid deployment manifests."""


_SCENARIOS = {
    "online": OnlineScenario,
    "offline": OfflineScenario,
    "real-time": RealTimeScenario,
}


@dataclasses.dataclass(frozen=True)
class ModelEntryConfig:
    """One validated manifest model entry."""

    model: str
    dataset: str
    max_batch_size: int
    max_queue_delay: float
    instances: int
    gpu_preprocessing: bool

    def __post_init__(self) -> None:
        within("max_batch_size", self.max_batch_size, "[1, inf)")
        within("max_queue_delay", self.max_queue_delay, "[0, inf)")
        within("instances", self.instances, "[1, inf)")


@dataclasses.dataclass(frozen=True)
class DeploymentManifest:
    """A fully validated deployment description."""

    name: str
    platform_name: str
    scenario: ScenarioSpec
    entries: tuple[ModelEntryConfig, ...]


def _require(doc: dict, key: str):
    if key not in doc:
        raise ManifestError(f"manifest missing required key {key!r}")
    return doc[key]


#: Each numeric key of a model entry: its type, default and bounds.
_ENTRY_NUMBERS = {
    "max_batch_size": (int, 64, "[1, inf)"),
    "max_queue_delay_ms": ((int, float), 5.0, "[0, inf)"),
    "instances": (int, 1, "[1, inf)"),
}


def _entry_number(raw: dict, model: str, key: str):
    """A model entry's numeric ``key``, checked for type and bounds."""
    kind, default, interval = _ENTRY_NUMBERS[key]
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is int else "a number"
        raise ManifestError(f"{model}: {key} must be {noun}, got {value!r}")
    try:
        return within(key, value, interval)
    except ValueError as exc:
        raise ManifestError(f"{model}: {exc}") from None


def load_manifest(doc: "dict | str") -> DeploymentManifest:
    """Validate a manifest dict (or JSON string)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")

    name = _require(doc, "name")
    platform = get_platform(_require(doc, "platform"))
    scenario_name = _require(doc, "scenario")
    if scenario_name not in _SCENARIOS:
        raise ManifestError(
            f"unknown scenario {scenario_name!r}; one of "
            f"{sorted(_SCENARIOS)}")
    scenario = _SCENARIOS[scenario_name]()
    try:
        scenario.validate_platform(platform)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc

    raw_entries = _require(doc, "models")
    if not raw_entries:
        raise ManifestError("manifest deploys no models")
    entries = []
    for raw in raw_entries:
        model = get_model(_require(raw, "model"))
        dataset = get_dataset(_require(raw, "dataset"))
        entry = ModelEntryConfig(
            model=model.name,
            dataset=dataset.name,
            max_batch_size=_entry_number(raw, model.name, "max_batch_size"),
            max_queue_delay=_entry_number(
                raw, model.name, "max_queue_delay_ms") / 1e3,
            instances=_entry_number(raw, model.name, "instances"),
            gpu_preprocessing=raw.get("gpu_preprocessing", True),
        )
        if dataset.dataset_specific_preprocessing and \
                not entry.gpu_preprocessing:
            # CPU CRSA preprocessing is the documented non-real-time
            # path; allow it but not silently.
            if isinstance(scenario, RealTimeScenario):
                raise ManifestError(
                    f"{dataset.name} with CPU preprocessing cannot meet "
                    "the real-time scenario (Section 4.2)")
        entries.append(entry)

    manifest = DeploymentManifest(name, platform.name, scenario,
                                  tuple(entries))
    _check_memory(manifest)
    return manifest


def _check_memory(manifest: DeploymentManifest) -> None:
    """Engines declared in the manifest must fit the device together."""
    platform = get_platform(manifest.platform_name)
    total = 0.0
    for entry in manifest.entries:
        graph = get_model(entry.model).graph
        memory = EngineMemoryModel(graph, platform)
        total += entry.instances * memory.engine_bytes(
            entry.max_batch_size)
    if total > platform.usable_gpu_memory_bytes:
        raise ManifestError(
            f"manifest needs {total / 1e9:.1f} GB of engine memory; "
            f"{platform.name} has "
            f"{platform.usable_gpu_memory_bytes / 1e9:.1f} GB usable")


def build_stack(manifest: DeploymentManifest,
                sim=None) -> TritonLikeServer:
    """Materialize the serving stack a manifest describes.

    Each entry gets a preprocessing backend (``pre_<model>``) and an
    engine backend wired as an ensemble of two stages, with service
    times from the calibrated models.
    """
    platform = get_platform(manifest.platform_name)
    server = TritonLikeServer(sim)
    for entry in manifest.entries:
        model_entry = get_model(entry.model)
        graph = model_entry.graph
        dataset = get_dataset(entry.dataset)
        input_size = graph.input_shape[1]
        if dataset.dataset_specific_preprocessing:
            framework = (DALIWarp(input_size) if entry.gpu_preprocessing
                         else PyTorchCPU(input_size))
        else:
            framework = (DALI(input_size) if entry.gpu_preprocessing
                         else PyTorchCPU(input_size))
        estimate = framework.estimate(dataset, platform,
                                      batch_size=entry.max_batch_size)
        per_image = estimate.per_image_seconds
        latency = LatencyModel(graph, platform)

        pre_name = f"pre_{entry.model}"
        server.register(ModelConfig(
            pre_name,
            service_time=lambda n, t=per_image: t * max(1, n),
            batcher=BatcherConfig(
                max_batch_size=entry.max_batch_size,
                max_queue_delay=entry.max_queue_delay),
        ))
        server.register(ModelConfig(
            entry.model,
            service_time=lambda n, m=latency: m.latency(max(1, n)),
            batcher=BatcherConfig(
                max_batch_size=entry.max_batch_size,
                max_queue_delay=entry.max_queue_delay),
            instances=entry.instances,
            preprocess_model=pre_name,
        ))
    return server

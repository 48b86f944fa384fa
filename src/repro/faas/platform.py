"""FaaS platform models: where cold-start latency comes from.

A serverless cold start has two legs the paper's provisioned platforms
never pay: *sandbox provisioning* (the platform allocates a microVM or
container and boots the runtime) and *initialization* (the function
fetches its model artifact and loads it before the first inference).
Both are priced here per platform, because they differ by an order of
magnitude between a hyperscaler FaaS and an on-farm edge runtime.

The model follows the dual-regime discipline of
:class:`~repro.continuum.network.NetworkLink`:

* :attr:`FaaSPlatformModel.expected_cold_start_seconds` is the
  deterministic planner regime — no randomness, the number a capacity
  or cost planner should use.  Sandbox jitter is zero-mean, so the
  expected value simply ignores it.
* :meth:`FaaSPlatformModel.sample_cold_start` is the replay regime —
  sandbox time gets a seeded, uniform zero-mean jitter.  A platform
  with ``cold_start_jitter_seconds == 0`` consumes **no** randomness,
  so adding a jitter-free function to a replay cannot shift any other
  sampled quantity (the same contract lossless links keep).
"""

from __future__ import annotations

import dataclasses

from repro.bounds import within


@dataclasses.dataclass(frozen=True)
class FaaSPlatformModel:
    """Cold-start and billing geometry of one serverless platform.

    ``cold_start_base_seconds`` is the median sandbox-provisioning
    time; ``cold_start_jitter_seconds`` a uniform half-width around it
    (zero-mean, so planners may ignore it).  Initialization is modeled
    as fetching ``artifact_bytes`` of model weights at
    ``artifact_bandwidth_bps`` — the part of a cold start that scales
    with the model, not the platform.  ``memory_gb`` is the function's
    memory allocation, the unit the GB-second meter multiplies by.
    """

    name: str
    cold_start_base_seconds: float
    cold_start_jitter_seconds: float
    artifact_bytes: float
    artifact_bandwidth_bps: float
    memory_gb: float

    def __post_init__(self) -> None:
        within("cold_start_base_seconds", self.cold_start_base_seconds,
               "[0, inf)")
        within("cold_start_jitter_seconds",
               self.cold_start_jitter_seconds, "[0, inf)")
        if self.cold_start_jitter_seconds > self.cold_start_base_seconds:
            raise ValueError(
                "cold-start jitter half-width cannot exceed the base "
                "(sandbox time would go negative)")
        within("artifact_bytes", self.artifact_bytes, "[0, inf)")
        within("artifact_bandwidth_bps", self.artifact_bandwidth_bps,
               "(0, inf)")
        within("memory_gb", self.memory_gb, "(0, inf)")

    # ------------------------------------------------------------------
    @property
    def init_seconds(self) -> float:
        """Deterministic initialization leg (artifact fetch + load)."""
        return self.artifact_bytes * 8.0 / self.artifact_bandwidth_bps

    @property
    def expected_cold_start_seconds(self) -> float:
        """Planner regime: expected sandbox + init time, no randomness."""
        return self.cold_start_base_seconds + self.init_seconds

    def sample_cold_start(self, rng=None) -> tuple[float, float]:
        """Replay regime: one ``(sandbox_seconds, init_seconds)`` draw.

        With ``rng=None`` (or zero jitter) this degrades to the
        expected values and consumes no randomness, so planner-mode
        backends and jitter-free platforms stay byte-deterministic.
        """
        sandbox = self.cold_start_base_seconds
        if rng is not None and self.cold_start_jitter_seconds > 0.0:
            sandbox += float(rng.uniform(-self.cold_start_jitter_seconds,
                                         self.cold_start_jitter_seconds))
        return sandbox, self.init_seconds


#: Platform presets.  Numbers are representative of published
#: measurements, not vendor quotes: a hyperscaler FaaS provisions a
#: microVM in a few hundred milliseconds and fetches artifacts from
#: object storage at ~1 Gbps; a container-based platform pays an image
#: pull; an on-farm edge runtime keeps artifacts on local flash, so
#: its cold start is almost all process spawn.
_PLATFORMS: dict[str, FaaSPlatformModel] = {
    p.name: p for p in (
        FaaSPlatformModel(
            name="lambda_like",
            cold_start_base_seconds=0.25,
            cold_start_jitter_seconds=0.10,
            artifact_bytes=100e6,
            artifact_bandwidth_bps=1e9,
            memory_gb=2.0),
        FaaSPlatformModel(
            name="container_faas",
            cold_start_base_seconds=1.2,
            cold_start_jitter_seconds=0.4,
            artifact_bytes=250e6,
            artifact_bandwidth_bps=2e9,
            memory_gb=4.0),
        FaaSPlatformModel(
            name="edge_faas",
            cold_start_base_seconds=0.08,
            cold_start_jitter_seconds=0.0,
            artifact_bytes=25e6,
            artifact_bandwidth_bps=4e9,
            memory_gb=1.0),
    )
}


def get_faas_platform(name: str) -> FaaSPlatformModel:
    """Look up a platform preset by name (KeyError lists options)."""
    key = name.lower()
    if key not in _PLATFORMS:
        raise KeyError(
            f"unknown FaaS platform {name!r}; available: "
            f"{', '.join(sorted(_PLATFORMS))}")
    return _PLATFORMS[key]


def list_faas_platforms() -> list[str]:
    """Names of all registered platform presets, sorted."""
    return sorted(_PLATFORMS)

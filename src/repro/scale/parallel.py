"""Data-parallel replica groups.

Inference data parallelism is embarrassingly parallel per image, but a
replica group still pays per-dispatch costs: batch scatter, result
gather, and scheduler fan-out.  The standard efficiency law used here,

    throughput(N) = N · throughput(1) · 1 / (1 + c · (N − 1)),

with a small per-replica coordination coefficient ``c``, reproduces the
near-linear scaling observed for classification serving (c ≈ 0.01-0.03)
while preventing the model from claiming free linear speedup forever.

Not to be confused with :mod:`repro.sweep`, which is *host-process*
parallelism: this module models how a simulated deployment scales when
you add accelerator replicas (the parallelism lives inside the
simulation), while ``repro.sweep`` fans whole deterministic simulations
across the machine's CPU cores to make running many of them faster
(the parallelism is invisible to each simulation).  Nothing here
changes results; nothing there changes the model.
"""

from __future__ import annotations

import dataclasses

from repro.bounds import within
from repro.engine.latency import LatencyModel
from repro.hardware.platform import PlatformSpec
from repro.models.graph import ModelGraph


@dataclasses.dataclass(frozen=True)
class ScalingPoint:
    """Throughput of a replica group at one size."""

    replicas: int
    batch_per_replica: int
    throughput: float
    scaling_efficiency: float
    latency_seconds: float


class DataParallelGroup:
    """A group of identical engine replicas serving one model.

    Parameters
    ----------
    graph / platform:
        The replicated model and the device each replica runs on.
    coordination_overhead:
        The per-extra-replica coefficient ``c`` of the efficiency law.
    """

    def __init__(self, graph: ModelGraph, platform: PlatformSpec,
                 coordination_overhead: float = 0.02):
        within("coordination_overhead", coordination_overhead, "[0, inf)")
        self.graph = graph
        self.platform = platform
        self.coordination_overhead = coordination_overhead
        self.latency_model = LatencyModel(graph, platform)

    def efficiency(self, replicas: int) -> float:
        """Fraction of linear scaling retained at ``replicas``."""
        if replicas < 1:
            raise ValueError("need at least one replica")
        return 1.0 / (1.0 + self.coordination_overhead * (replicas - 1))

    def point(self, replicas: int, batch_per_replica: int) -> ScalingPoint:
        """Group throughput when each replica serves its own batches."""
        single = self.latency_model.throughput(batch_per_replica)
        eff = self.efficiency(replicas)
        return ScalingPoint(
            replicas=replicas,
            batch_per_replica=batch_per_replica,
            throughput=replicas * single * eff,
            scaling_efficiency=eff,
            latency_seconds=self.latency_model.latency(batch_per_replica),
        )

    def scaling_curve(self, max_replicas: int,
                      batch_per_replica: int = 64) -> list[ScalingPoint]:
        """The strong-scaling series (the scale-out preview)."""
        if max_replicas < 1:
            raise ValueError("need at least one replica")
        return [self.point(n, batch_per_replica)
                for n in range(1, max_replicas + 1)]

"""Edge-cloud offload decisions.

Section 2.2: "A single training process enables deployment on both edge
and cloud systems — inference can run in the cloud with high throughput
after unified preprocessing, or be performed on edge devices in the
field for low-latency results supporting real-time decisions."

When a vehicle carries an edge device *and* a link to the cluster, every
frame poses a decision: classify locally (slow device, zero transfer) or
upload (fast device, pay the link).  :class:`OffloadPolicy` prices both
paths with the calibrated models and picks per request;
:func:`crossover_image_bytes` solves for the payload size where the
decision flips — the continuum's operating boundary.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.continuum.network import NetworkLink
from repro.engine.latency import LatencyModel
from repro.hardware.platform import PlatformSpec
from repro.models.graph import ModelGraph


#: Relative tolerance for the edge/cloud tie at the crossover payload:
#: the solved boundary re-priced through float arithmetic lands within a
#: few ULPs of exact equality, and the tie must resolve consistently.
_TIE_REL_TOL = 1e-9


class Placement(str, enum.Enum):
    """Which continuum tier serves a request."""

    EDGE = "edge"
    CLOUD = "cloud"


@dataclasses.dataclass(frozen=True)
class OffloadDecision:
    """The priced decision for one request."""

    placement: Placement
    edge_latency_seconds: float
    cloud_latency_seconds: float      # upload + compute + result download
    payload_bytes: float

    @property
    def chosen_latency_seconds(self) -> float:
        """Latency of the selected placement."""
        return (self.edge_latency_seconds
                if self.placement is Placement.EDGE
                else self.cloud_latency_seconds)

    @property
    def margin_seconds(self) -> float:
        """How much the chosen path wins by (>= 0)."""
        return abs(self.edge_latency_seconds
                   - self.cloud_latency_seconds)


class OffloadPolicy:
    """Latency-optimal per-request placement.

    Parameters
    ----------
    graph:
        The deployed model (same checkpoint both sides — the paper's
        single-training-process premise).
    edge / cloud:
        The two platforms.
    link:
        The uplink between them — a :class:`NetworkLink` or any
        transport over one (priced through ``transfer_seconds`` and
        ``sustainable_images_per_second``), e.g. a
        :class:`~repro.continuum.uplink.SharedUplink` (in which case
        the cloud path is priced *under the uplink's current
        contention*, so decisions shift toward the edge while the
        shared bottleneck is busy).
    edge_batch / cloud_batch:
        Operating batch sizes per side (the edge typically runs small
        batches for latency; the cloud batches aggressively).
    result_bytes:
        Response payload (classification results are tiny).
    """

    def __init__(self, graph: ModelGraph, edge: PlatformSpec,
                 cloud: PlatformSpec, link: NetworkLink,
                 edge_batch: int = 1, cloud_batch: int = 16,
                 result_bytes: float = 512.0):
        if edge_batch < 1 or cloud_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        self.graph = graph
        self.link = link
        self.edge_model = LatencyModel(graph, edge)
        self.cloud_model = LatencyModel(graph, cloud)
        self.edge_batch = edge_batch
        self.cloud_batch = cloud_batch
        self.result_bytes = result_bytes

    # ------------------------------------------------------------------
    def edge_latency(self) -> float:
        """On-device request latency at the edge batch."""
        return self.edge_model.latency(self.edge_batch)

    def cloud_latency(self, payload_bytes: float) -> float:
        """Round-trip latency through the cluster."""
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        transfer = self.link.transfer_seconds(payload_bytes) + \
            self.link.transfer_seconds(self.result_bytes)
        return transfer + self.cloud_model.latency(self.cloud_batch)

    def decide(self, payload_bytes: float,
               trace=None, now: float = 0.0) -> OffloadDecision:
        """Pick the lower-latency path for one request.

        With a :class:`~repro.serving.tracectx.TraceContext` passed, the
        decision is recorded as an instant ``offload_decision`` event
        (stamped at virtual time ``now``) carrying both priced paths —
        the trace shows *why* a request stayed on the edge or paid the
        uplink.

        Ties break toward the cloud: :meth:`crossover_image_bytes`
        documents the crossover as the largest payload at which
        uploading still wins, so ``decide(crossover_image_bytes())``
        must offload.  Equality is judged with a relative tolerance —
        the crossover payload re-priced through float arithmetic lands
        ULPs away from an exact tie, and the boundary decision must not
        flip on rounding noise.
        """
        edge = self.edge_latency()
        cloud = self.cloud_latency(payload_bytes)
        tie = abs(edge - cloud) <= _TIE_REL_TOL * max(edge, cloud)
        placement = (Placement.CLOUD if tie or cloud < edge
                     else Placement.EDGE)
        if trace is not None:
            trace.instant("offload_decision", now, category="continuum",
                          placement=placement.value,
                          edge_seconds=edge, cloud_seconds=cloud,
                          payload_bytes=payload_bytes)
        return OffloadDecision(placement, edge, cloud, payload_bytes)

    # ------------------------------------------------------------------
    def crossover_image_bytes(self) -> float | None:
        """Payload size where edge and cloud latencies are equal.

        The largest payload at which uploading still wins: at or below
        it the request uploads (``decide`` places it on the cloud);
        strictly above it, the edge wins.  Returns None when one side
        dominates at every size (e.g. the cloud is slower even for a
        zero-byte payload).
        """
        edge = self.edge_latency()
        base = self.cloud_latency(0.0)
        if base >= edge:
            return None  # cloud never wins
        # Transfer cost grows linearly in payload bytes; derive the
        # slope from the pricing function itself so loss-retransmit
        # expansion and shared-uplink contention are priced exactly as
        # decide() will price them, then solve base + k * bytes = edge.
        probe = 1e6
        per_byte = (self.cloud_latency(probe) - base) / probe
        return (edge - base) / per_byte

    def sustainable_offload_rate(self, payload_bytes: float) -> float:
        """Uplink ceiling in requests/second at this payload size."""
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        return self.link.sustainable_images_per_second(payload_bytes)

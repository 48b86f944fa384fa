"""Network links between continuum tiers.

"This setup presents challenges for data transmission, especially when
transmitting large image data to the cloud.  It would be beneficial to
leverage advanced wireless capabilities" (Section 2.2.1).  A
:class:`NetworkLink` prices payload transfers; the presets cover the
deployment situations the paper discusses (field LTE uplink, farm Wi-Fi,
station Ethernet, on-device loopback) plus lossy variants of the
wireless legs.

Two pricing regimes coexist:

* **Expected-value** (:meth:`NetworkLink.transfer_seconds`) — the
  deterministic analytic cost, now including the expected retransmission
  expansion of a lossy link (each packet must be sent ``1 / (1 - p)``
  times on average).  Everything that *plans* — the offload policy, the
  capacity planner, the what-if previews — uses this regime, so plans
  stay reproducible without a RNG.
* **Sampled** (:meth:`NetworkLink.sample_transfer`,
  :meth:`NetworkLink.schedule_transfer` with an ``rng``) — per-transfer
  jitter and per-packet retransmission draws from a seeded generator,
  for the discrete-event replays where tail behaviour matters.  Same
  seed, same samples: replays stay byte-identical.

Congestion between co-located endpoints lives in
:class:`repro.continuum.uplink.SharedUplink`; pub/sub delivery in
:class:`repro.continuum.broker.Broker`.  Both compose over these links.
"""

from __future__ import annotations

import dataclasses
import math

from repro.bounds import within
from repro.serving.observability import HandleCache, ensure_registry

#: :attr:`Transfer.state` values.
PENDING, FIRED, CANCELLED = "pending", "fired", "cancelled"


class Transfer:
    """Handle for one transfer on any transport.

    Every transport's ``schedule_transfer`` returns one:
    :class:`NetworkLink` a plain one waiting on its arrival ``event``;
    :class:`~repro.continuum.uplink.SharedUplink` and
    :class:`~repro.continuum.uplink.StoreAndForward` subclasses that
    also hold their place in the bottleneck or the outage buffer.
    ``state`` is ``pending`` until the transfer ``fired`` (delivered)
    or was ``cancelled``.  Cancel through :meth:`cancel` — never
    through ``sim.cancel(transfer.event)`` directly — so the leg's span
    is closed instead of leaking open into the trace export.
    """

    __slots__ = ("sim", "payload_bytes", "on_complete", "trace",
                 "direction", "span", "retransmits", "telemetry", "event",
                 "state")

    def __init__(self, sim, payload_bytes, on_complete, trace, direction,
                 span=None, retransmits=0, telemetry=None):
        self.sim = sim
        self.payload_bytes = payload_bytes
        self.on_complete = on_complete
        self.trace = trace
        self.direction = direction
        self.span = span
        self.retransmits = retransmits
        self.telemetry = telemetry
        #: What the pending transfer waits on: its simulator event (or,
        #: for a forwarded buffer entry, the forwarded leg's handle).
        self.event = None
        self.state = PENDING

    @property
    def cancelled(self) -> bool:
        """Whether the transfer was cancelled before arriving."""
        return self.state == CANCELLED

    @property
    def fired(self) -> bool:
        """Whether the arrival callback already ran."""
        return self.state == FIRED

    def _arrive(self) -> None:
        """Arrive: close the span, count the bytes, run the callback."""
        self.state = FIRED
        # The event's callback points back here; drop it so a finished
        # transfer is freed by reference counting, not the cycle GC.
        self.event = None
        if self.span is not None:
            self.trace.end(self.span, self.sim.now)
        if self.telemetry is not None:
            self.telemetry.sent(self.payload_bytes, self.direction,
                                retransmits=self.retransmits)
        self.on_complete()

    def cancel(self) -> None:
        """Cancel the pending arrival and close the leg's span.

        The span is stamped ``cancelled=True`` and ended at the current
        virtual time, so the trace records a truncated leg instead of an
        interval that never closes (drained instances and injected link
        faults cancel transfers mid-flight; the Chrome export must still
        validate).  No-op once the transfer arrived or was cancelled.
        """
        if self.state != PENDING:
            return
        self.state = CANCELLED
        self._abort()
        self.event = None
        span = self.span
        if span is not None and span.end is None:
            span.args["cancelled"] = True
            self.trace.end(span, self.sim.now)
        self.span = None

    def _abort(self) -> None:
        """Withdraw the transfer from its transport (pending ``event``)."""
        self.sim.cancel(self.event)


class LinkTelemetry:
    """Per-link Prometheus metrics, bound once and shared by transports.

    Registers ``link_bytes_total`` / ``link_retransmits_total`` counters
    and a ``link_queue_depth`` gauge on a
    :class:`~repro.serving.observability.MetricsRegistry` (a private
    one when None); the shared uplink and the store-and-forward buffer
    report through one of these so a scrape shows every leg of the
    continuum's network.
    """

    def __init__(self, registry, link_name: str):
        registry = ensure_registry(registry)
        sent = registry.counter(
            "link_bytes_total",
            "Payload bytes carried per link and direction.")
        self._retx = registry.counter(
            "link_retransmits_total",
            "Packets retransmitted after loss, per link.",
            ).labels(link=link_name)
        depth = registry.gauge(
            "link_queue_depth",
            "Transfers in flight (or buffered) per link component.")
        self._sent = HandleCache(lambda direction: sent.labels(
            link=link_name, direction=direction))
        self._depth = HandleCache(lambda component: depth.labels(
            link=link_name, component=component))

    def sent(self, payload_bytes: float, direction: str,
             retransmits: int = 0) -> None:
        """Record one completed transfer."""
        self._sent[direction].inc(payload_bytes)
        if retransmits:
            self._retx.inc(retransmits)

    def queue_depth(self, depth: int, component: str = "uplink") -> None:
        """Publish the current in-flight/buffered transfer count."""
        self._depth[component].set(float(depth))


@dataclasses.dataclass(frozen=True)
class NetworkLink:
    """A point-to-point link with bandwidth, RTT, jitter and loss."""

    name: str
    bandwidth_bps: float          # usable goodput, bits/second
    round_trip_seconds: float
    #: Multiplier on payload bytes for protocol framing.
    overhead_factor: float = 1.05
    #: Half-width of the uniform one-way delay jitter (seconds).  The
    #: sampled propagation delay is ``rtt/2 + U(-jitter, +jitter)``,
    #: floored at zero; the expected-value path ignores it (zero mean).
    jitter_seconds: float = 0.0
    #: Per-packet loss probability.  Lost packets are retransmitted
    #: (reliable delivery), so loss shows up as time, not drops:
    #: expected transmissions per packet are ``1 / (1 - p)``.
    loss_probability: float = 0.0
    #: Packetization unit for loss/retransmission accounting.
    mtu_bytes: float = 1500.0

    def __post_init__(self) -> None:
        within("bandwidth_bps", self.bandwidth_bps, "(0, inf)")
        within("round_trip_seconds", self.round_trip_seconds, "[0, inf)")
        within("overhead_factor", self.overhead_factor, "[1, inf)")
        within("jitter_seconds", self.jitter_seconds, "[0, inf)")
        within("loss_probability", self.loss_probability, "[0, 1)")
        within("mtu_bytes", self.mtu_bytes, "(0, inf)")

    # -- expected-value pricing ----------------------------------------
    @property
    def retransmit_expansion(self) -> float:
        """Expected transmissions per packet: ``1 / (1 - loss)``."""
        return 1.0 / (1.0 - self.loss_probability)

    def packet_count(self, payload_bytes: float) -> int:
        """Packets (MTU units) one payload occupies on the wire."""
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        wire = payload_bytes * self.overhead_factor
        return max(1, math.ceil(wire / self.mtu_bytes))

    def serialization_seconds(self, payload_bytes: float) -> float:
        """Expected time on the wire (loss-expanded, no propagation)."""
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        return (payload_bytes * self.overhead_factor * 8.0
                * self.retransmit_expansion / self.bandwidth_bps)

    def transfer_seconds(self, payload_bytes: float) -> float:
        """Expected one-way transfer time (half-RTT + serialization)."""
        return (self.round_trip_seconds / 2.0
                + self.serialization_seconds(payload_bytes))

    def request_response_seconds(self, upload_bytes: float,
                                 download_bytes: float = 1024.0) -> float:
        """Full round trip: upload payload, download a (small) result."""
        return (self.transfer_seconds(upload_bytes)
                + self.transfer_seconds(download_bytes))

    # -- sampled pricing -----------------------------------------------
    def sample_retransmits(self, payload_bytes: float, rng) -> int:
        """Draw the retransmission count for one payload.

        Each of the payload's packets needs a geometric number of
        transmissions at success probability ``1 - loss``; the excess
        over one per packet is the retransmit count.  Lossless links
        consume no randomness (the draw is identically zero), so
        attaching a RNG to a clean link keeps streams untouched.
        """
        if self.loss_probability == 0.0:
            return 0
        packets = self.packet_count(payload_bytes)
        draws = rng.geometric(1.0 - self.loss_probability, size=packets)
        return int(draws.sum()) - packets

    def sample_jitter(self, rng) -> float:
        """Draw the one-way propagation jitter (may be negative)."""
        if self.jitter_seconds == 0.0:
            return 0.0
        return float(rng.uniform(-self.jitter_seconds,
                                 self.jitter_seconds))

    def sample_wire(self, payload_bytes: float, rng):
        """One sampled send: ``(wire bits, retransmits, jitter)``.

        The wire bits are the framed payload inflated by the sampled
        retransmits — the serialization work a transfer puts on the
        link.  Deterministic for a given generator state — the
        determinism tests replay the stream and compare.
        """
        retransmits = self.sample_retransmits(payload_bytes, rng)
        jitter = self.sample_jitter(rng)
        packets = self.packet_count(payload_bytes)
        wire_bits = (payload_bytes * self.overhead_factor * 8.0
                     * (packets + retransmits) / packets)
        return wire_bits, retransmits, jitter

    def propagation_seconds(self, jitter: float) -> float:
        """One-way propagation delay: ``max(0, half-RTT + jitter)``."""
        return max(0.0, self.round_trip_seconds / 2.0 + jitter)

    def sample_transfer(self, payload_bytes: float, rng):
        """One sampled transfer: ``(duration, retransmits, jitter)``.

        Duration = max(0, half-RTT + jitter) + serialization inflated by
        the sampled retransmits (:meth:`sample_wire`).
        """
        wire_bits, retransmits, jitter = self.sample_wire(payload_bytes,
                                                          rng)
        return (self.propagation_seconds(jitter)
                + wire_bits / self.bandwidth_bps, retransmits, jitter)

    def open_span(self, trace, now: float, direction: str,
                  payload_bytes: float, retransmits: int, **args):
        """Begin one leg's ``network`` span (``None`` without a trace)."""
        if trace is None:
            return None
        span = trace.begin(direction, now, category="network",
                           link=self.name, payload_bytes=payload_bytes,
                           **args)
        if retransmits:
            span.args["retransmits"] = retransmits
        return span

    # -- scheduling ----------------------------------------------------
    def schedule_transfer(self, sim, payload_bytes: float, on_complete,
                          trace=None, direction: str = "uplink",
                          rng=None, telemetry: LinkTelemetry | None = None,
                          ) -> Transfer:
        """Put one transfer on the simulator clock.

        Schedules ``on_complete`` at ``now + duration`` — the expected
        duration without a ``rng``, a sampled one (jitter + per-packet
        retransmission draws) with one — and, when a
        :class:`~repro.serving.tracectx.TraceContext` is passed, records
        the leg as a named ``network`` span (``direction`` is the span
        name: ``uplink`` or ``downlink``).  Returns a :class:`Transfer`
        handle; cancel through it (not ``sim.cancel``) so the span is
        closed instead of leaking open.
        """
        retransmits = 0
        if rng is None:
            duration = self.transfer_seconds(payload_bytes)
        else:
            duration, retransmits, _ = self.sample_transfer(
                payload_bytes, rng)
        transfer = Transfer(
            sim, payload_bytes, on_complete, trace, direction,
            self.open_span(trace, sim.now, direction, payload_bytes,
                           retransmits), retransmits, telemetry)
        transfer.event = sim.schedule(duration, transfer._arrive)
        return transfer

    @property
    def link(self) -> "NetworkLink":
        """The link itself: every transport exposes its ``link``."""
        return self

    def sustainable_images_per_second(self, image_bytes: float) -> float:
        """Upload-rate ceiling for a stream of same-sized images."""
        within("image_bytes", image_bytes, "(0, inf)")
        return self.bandwidth_bps / (image_bytes * self.overhead_factor
                                     * 8.0 * self.retransmit_expansion)


LINKS: dict[str, NetworkLink] = {}


def register_link(link: NetworkLink, replace: bool = False) -> NetworkLink:
    """Register a preset under its lowercased name.

    Keys are normalized at registration so :func:`get_link`'s
    case-insensitive lookup can actually reach every preset (an
    uppercase ``link.name`` used to be stored verbatim and become
    unreachable).  Duplicate names are rejected unless ``replace=True``.
    """
    key = link.name.lower()
    if not replace and key in LINKS:
        raise ValueError(f"link {link.name!r} already registered")
    LINKS[key] = link
    return link


for _link in (
    # Rural LTE uplink from a field deployment.
    NetworkLink("field_lte", bandwidth_bps=10e6,
                round_trip_seconds=0.060),
    # The same LTE leg as measured in the field: delay spread from
    # cell-load variation and ~1% packet loss at the coverage fringe.
    NetworkLink("field_lte_lossy", bandwidth_bps=10e6,
                round_trip_seconds=0.060, jitter_seconds=0.015,
                loss_probability=0.01),
    # Farm-building Wi-Fi backhaul.
    NetworkLink("farm_wifi", bandwidth_bps=80e6,
                round_trip_seconds=0.010),
    # Farm Wi-Fi with interference (machinery, distance to the AP).
    NetworkLink("farm_wifi_lossy", bandwidth_bps=80e6,
                round_trip_seconds=0.010, jitter_seconds=0.004,
                loss_probability=0.005),
    # Research-station wired uplink to the cluster.
    NetworkLink("station_ethernet", bandwidth_bps=1e9,
                round_trip_seconds=0.002),
    # On-device (camera directly attached to the Jetson).
    NetworkLink("local", bandwidth_bps=40e9,
                round_trip_seconds=0.0, overhead_factor=1.0),
):
    register_link(_link)
del _link


def get_link(name: str) -> NetworkLink:
    """Look up a preset link by name (case-insensitive)."""
    try:
        return LINKS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown link {name!r}; available: {sorted(LINKS)}") from None

"""Shared-bottleneck congestion and store-and-forward buffering.

Section 2.2.1's transmission bottleneck is not a private pipe per
camera: every endpoint on a field site funnels through the same LTE
modem or farm AP.  :class:`SharedUplink` models that bottleneck as a
fair-share (processor-sharing) queue integrated event-by-event on the
simulator clock — ``n`` concurrent transfers each progress at
``bandwidth / n``, and every start or finish re-integrates the
remaining work, so in-flight transfers visibly slow each other down and
the uplink spans in the trace widen under contention.

:class:`StoreAndForward` wraps any transport with a byte-bounded buffer
wired to a :class:`~repro.serving.faults.LinkOutageModel`: while the
link is down, submitted transfers queue instead of dropping, and the
backlog drains in FIFO order on restore — rural connectivity outages
degrade to *delayed* delivery, which is what a field gateway actually
does.

Both classes expose the same duck-typed transport surface as
:class:`~repro.continuum.network.NetworkLink` (``schedule_transfer``,
``transfer_seconds``, the pricing attributes), so the continuum
replayer, the offload policy, and the broker compose over a bare link,
a contended uplink, or a buffered contended uplink interchangeably.
"""

from __future__ import annotations

import collections

import numpy as np

from repro.continuum.network import LinkTelemetry, NetworkLink

#: Residual-work epsilon: flows within half a bit of done are done
#: (float round-off from the advance/reschedule arithmetic is orders of
#: magnitude below one bit for any realistic payload).
_BITS_EPS = 0.5


class _Flow:
    """One transfer's residual serialization work inside the bottleneck."""

    __slots__ = ("seq", "bits_left", "payload_bytes", "retransmits",
                 "jitter", "on_complete", "trace", "span", "direction",
                 "state")

    # state values
    SERIALIZING, PROPAGATING, DELIVERED, CANCELLED = range(4)

    def __init__(self, seq, bits_left, payload_bytes, retransmits,
                 jitter, on_complete, trace, span, direction):
        self.seq = seq
        self.bits_left = bits_left
        self.payload_bytes = payload_bytes
        self.retransmits = retransmits
        self.jitter = jitter
        self.on_complete = on_complete
        self.trace = trace
        self.span = span
        self.direction = direction
        self.state = _Flow.SERIALIZING


class UplinkTransfer:
    """Cancel/inspect handle for a transfer inside a shared uplink."""

    __slots__ = ("_uplink", "_flow", "_delivery")

    def __init__(self, uplink, flow):
        self._uplink = uplink
        self._flow = flow
        self._delivery = None  # propagation-phase Event

    @property
    def cancelled(self) -> bool:
        """Whether the transfer was cancelled before delivery."""
        return self._flow.state == _Flow.CANCELLED

    @property
    def fired(self) -> bool:
        """Whether the payload was delivered."""
        return self._flow.state == _Flow.DELIVERED

    def cancel(self) -> None:
        """Abort the transfer and close its span (never leaks it open)."""
        self._uplink._cancel(self._flow, self._delivery)


class SharedUplink:
    """A fair-share bottleneck multiplexing co-located endpoints.

    Parameters
    ----------
    link:
        The underlying :class:`~repro.continuum.network.NetworkLink`
        whose bandwidth/RTT/jitter/loss parameters the bottleneck
        enforces.
    sim:
        The shared :class:`~repro.serving.events.Simulator`.
    seed:
        Seed for the jitter/retransmission sample stream.  Draws happen
        in submission order, so identical replays consume identical
        samples.
    registry:
        Optional metrics registry; wires ``link_bytes_total``,
        ``link_retransmits_total`` and ``link_queue_depth``.

    Only ``direction="uplink"`` transfers contend — the uplink is the
    asymmetric leg the paper worries about; downlink results are small
    and ride the underlying link directly (still sampled, still
    traced).
    """

    def __init__(self, link: NetworkLink, sim, seed: int = 0,
                 registry=None):
        self.link = link
        self.sim = sim
        self._rng = np.random.default_rng(seed)
        self.telemetry = (LinkTelemetry(registry, link.name)
                          if registry is not None else None)
        self._flows: list[_Flow] = []
        self._last = sim.now
        self._completion = None
        self._next_seq = 0
        #: seq -> live handle, for stashing the propagation-phase event.
        self._handles: dict[int, UplinkTransfer] = {}
        #: Lifetime statistics (deterministic, reported by the CLI).
        self.completed = 0
        self.total_retransmits = 0
        self.peak_concurrency = 0

    # -- pricing surface (duck-typed NetworkLink) ----------------------
    @property
    def name(self) -> str:
        """The underlying link's name (spans and metrics share it)."""
        return self.link.name

    @property
    def bandwidth_bps(self) -> float:
        """The bottleneck's total bandwidth (shared, not per-flow)."""
        return self.link.bandwidth_bps

    @property
    def round_trip_seconds(self) -> float:
        """The underlying link's RTT."""
        return self.link.round_trip_seconds

    @property
    def overhead_factor(self) -> float:
        """The underlying link's framing overhead multiplier."""
        return self.link.overhead_factor

    def transfer_seconds(self, payload_bytes: float) -> float:
        """Expected one-way time *under the current contention*.

        A transfer submitted now would share the wire with every active
        flow, so serialization stretches by ``n_active + 1``.  With an
        idle uplink this equals the bare link's expected cost — the
        offload policy prices congestion for free by holding a
        :class:`SharedUplink` instead of a :class:`NetworkLink`.
        """
        share = len(self._flows) + 1
        return (self.link.round_trip_seconds / 2.0
                + self.link.serialization_seconds(payload_bytes) * share)

    def sustainable_images_per_second(self, image_bytes: float) -> float:
        """Aggregate upload ceiling of the bottleneck (all endpoints)."""
        return self.link.sustainable_images_per_second(image_bytes)

    # -- the processor-sharing integration -----------------------------
    def _advance(self, now: float) -> None:
        elapsed = now - self._last
        if elapsed > 0.0 and self._flows:
            rate = self.link.bandwidth_bps / len(self._flows)
            drained = elapsed * rate
            for flow in self._flows:
                flow.bits_left -= drained
        self._last = now

    def _reschedule(self) -> None:
        if self._completion is not None:
            self.sim.cancel(self._completion)
            self._completion = None
        if self.telemetry is not None:
            self.telemetry.queue_depth(len(self._flows))
        if not self._flows:
            return
        n = len(self._flows)
        min_bits = min(flow.bits_left for flow in self._flows)
        delay = max(0.0, min_bits * n / self.link.bandwidth_bps)
        self._completion = self.sim.schedule(delay, self._on_serialized)

    def _on_serialized(self) -> None:
        self._completion = None
        self._advance(self.sim.now)
        finished = [f for f in self._flows if f.bits_left <= _BITS_EPS]
        if finished:
            self._flows = [f for f in self._flows
                           if f.bits_left > _BITS_EPS]
            for flow in finished:
                self._start_propagation(flow)
        self._reschedule()

    def _start_propagation(self, flow: _Flow) -> None:
        flow.state = _Flow.PROPAGATING
        delay = max(0.0, self.link.round_trip_seconds / 2.0 + flow.jitter)
        event = self.sim.schedule(delay, lambda: self._deliver(flow))
        handle = self._handles.get(flow.seq)
        if handle is not None:
            handle._delivery = event

    def _deliver(self, flow: _Flow) -> None:
        flow.state = _Flow.DELIVERED
        self._handles.pop(flow.seq, None)
        if flow.span is not None:
            flow.trace.end(flow.span, self.sim.now)
        if self.telemetry is not None:
            self.telemetry.sent(flow.payload_bytes, flow.direction,
                                retransmits=flow.retransmits)
        self.completed += 1
        flow.on_complete()

    def _cancel(self, flow: _Flow, delivery_event) -> None:
        if flow.state in (_Flow.DELIVERED, _Flow.CANCELLED):
            return
        if flow.state == _Flow.SERIALIZING:
            self._advance(self.sim.now)
            self._flows = [f for f in self._flows if f is not flow]
            self._reschedule()
        else:  # propagating
            handle = self._handles.get(flow.seq)
            event = (handle._delivery if handle is not None
                     else delivery_event)
            if event is not None:
                self.sim.cancel(event)
        flow.state = _Flow.CANCELLED
        self._handles.pop(flow.seq, None)
        if flow.span is not None and flow.span.end is None:
            flow.span.args["cancelled"] = True
            flow.trace.end(flow.span, self.sim.now)
            flow.span = None

    # -- transport surface ---------------------------------------------
    def schedule_transfer(self, sim, payload_bytes: float, on_complete,
                          trace=None, direction: str = "uplink"):
        """Enter one transfer into the bottleneck at the current time.

        Uplink-direction transfers contend under fair sharing; other
        directions delegate to the underlying link (sampled from the
        same RNG stream, so determinism covers both legs).  Returns an
        :class:`UplinkTransfer` (or
        :class:`~repro.continuum.network.Transfer`) handle.
        """
        if sim is not self.sim:
            raise ValueError("shared uplink is bound to one simulator")
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        if direction != "uplink":
            return self.link.schedule_transfer(
                sim, payload_bytes, on_complete, trace=trace,
                direction=direction, rng=self._rng,
                telemetry=self.telemetry)
        retransmits = self.link.sample_retransmits(payload_bytes,
                                                   self._rng)
        jitter = self.link.sample_jitter(self._rng)
        packets = self.link.packet_count(payload_bytes)
        wire_bits = (payload_bytes * self.link.overhead_factor * 8.0
                     * (packets + retransmits) / packets)
        span = None
        if trace is not None:
            span = trace.begin(direction, sim.now, category="network",
                               link=self.link.name,
                               payload_bytes=payload_bytes,
                               queue_depth=len(self._flows))
            if retransmits:
                span.args["retransmits"] = retransmits
        self.total_retransmits += retransmits
        self._advance(sim.now)
        flow = _Flow(self._next_seq, wire_bits, payload_bytes,
                     retransmits, jitter, on_complete, trace, span,
                     direction)
        self._next_seq += 1
        self._flows.append(flow)
        self.peak_concurrency = max(self.peak_concurrency,
                                    len(self._flows))
        handle = UplinkTransfer(self, flow)
        self._handles[flow.seq] = handle
        self._reschedule()
        return handle


class BufferedTransfer:
    """Handle for a transfer parked in a store-and-forward buffer."""

    __slots__ = ("_buffer", "_entry", "forwarded")

    def __init__(self, buffer, entry):
        self._buffer = buffer
        self._entry = entry
        #: The live transport handle once the buffer drains (None while
        #: parked or after a cancel).
        self.forwarded = None

    @property
    def cancelled(self) -> bool:
        """Whether the entry was dropped before (or after) forwarding."""
        return self._entry.get("cancelled", False) or (
            self.forwarded is not None and self.forwarded.cancelled)

    @property
    def fired(self) -> bool:
        """Whether the forwarded transfer delivered."""
        return self.forwarded is not None and self.forwarded.fired

    def cancel(self) -> None:
        """Drop the parked entry (or cancel the forwarded transfer)."""
        if self.forwarded is not None:
            self.forwarded.cancel()
            return
        self._buffer._cancel_entry(self._entry)


class StoreAndForward:
    """A byte-bounded outage buffer in front of any transport.

    While the link is up, transfers pass straight through.  While it is
    down (per the attached
    :class:`~repro.serving.faults.LinkOutageModel`, or an explicit
    :meth:`fail`), transfers park in a FIFO buffer — each under a
    ``store_and_forward`` span so the trace shows the wait — and drain
    in order on restore.  Only a full buffer drops (tail drop, counted
    in ``dropped``): connectivity loss degrades to delayed delivery,
    not to data loss.
    """

    def __init__(self, transport, sim, outage=None,
                 capacity_bytes: float = float("inf"), registry=None):
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        self.transport = transport
        self.sim = sim
        self.outage = outage
        self.capacity_bytes = capacity_bytes
        self.down = False
        self._queue: collections.deque = collections.deque()
        self._buffered_bytes = 0.0
        self.telemetry = (LinkTelemetry(registry,
                                        getattr(transport, "name", "link"))
                          if registry is not None else None)
        #: Lifetime statistics.
        self.buffered_total = 0
        self.dropped = 0
        self.max_buffer_depth = 0
        self.outages = 0

    # -- pricing delegation --------------------------------------------
    @property
    def name(self) -> str:
        """The wrapped transport's link name."""
        return getattr(self.transport, "name", "link")

    @property
    def bandwidth_bps(self) -> float:
        """The wrapped transport's bandwidth."""
        return self.transport.bandwidth_bps

    @property
    def round_trip_seconds(self) -> float:
        """The wrapped transport's RTT."""
        return self.transport.round_trip_seconds

    @property
    def overhead_factor(self) -> float:
        """The wrapped transport's framing overhead multiplier."""
        return self.transport.overhead_factor

    def transfer_seconds(self, payload_bytes: float) -> float:
        """Expected transfer time on the wrapped transport (when up)."""
        return self.transport.transfer_seconds(payload_bytes)

    def sustainable_images_per_second(self, image_bytes: float) -> float:
        """The wrapped transport's upload-rate ceiling."""
        return self.transport.sustainable_images_per_second(image_bytes)

    @property
    def buffer_depth(self) -> int:
        """Transfers currently parked."""
        return len(self._queue)

    # -- outage wiring --------------------------------------------------
    def start(self, horizon: float) -> None:
        """Arm the outage model's down/up transitions until ``horizon``.

        Transitions are daemon events: an outage window scheduled past
        the end of the workload never keeps the simulation alive.
        """
        if self.outage is None:
            return
        for start, end in self.outage.windows_until(horizon):
            self.sim.schedule_at(start, self.fail, daemon=True)
            self.sim.schedule_at(end, self.restore, daemon=True)

    def fail(self) -> None:
        """Take the link down; subsequent transfers buffer."""
        if not self.down:
            self.down = True
            self.outages += 1

    def restore(self) -> None:
        """Bring the link up and drain the buffered backlog in order."""
        if not self.down:
            return
        self.down = False
        while self._queue:
            entry = self._queue.popleft()
            self._forward(entry)
        self._buffered_bytes = 0.0
        self._publish_depth()

    # -- transport surface ---------------------------------------------
    def schedule_transfer(self, sim, payload_bytes: float, on_complete,
                          trace=None, direction: str = "uplink"):
        """Pass through when up; park under a buffering span when down."""
        if sim is not self.sim:
            raise ValueError("store-and-forward is bound to one simulator")
        if not self.down:
            return self.transport.schedule_transfer(
                sim, payload_bytes, on_complete, trace=trace,
                direction=direction)
        if self._buffered_bytes + payload_bytes > self.capacity_bytes:
            self.dropped += 1
            if trace is not None:
                trace.instant("store_and_forward_drop", sim.now,
                              category="network", link=self.name,
                              payload_bytes=payload_bytes)
            return None
        span = None
        if trace is not None:
            span = trace.begin("store_and_forward", sim.now,
                               category="network", link=self.name,
                               payload_bytes=payload_bytes,
                               buffer_depth=len(self._queue))
        entry = {"payload": payload_bytes, "on_complete": on_complete,
                 "trace": trace, "span": span, "direction": direction,
                 "cancelled": False}
        handle = BufferedTransfer(self, entry)
        entry["handle"] = handle
        self._queue.append(entry)
        self._buffered_bytes += payload_bytes
        self.buffered_total += 1
        self.max_buffer_depth = max(self.max_buffer_depth,
                                    len(self._queue))
        self._publish_depth()
        return handle

    def _forward(self, entry) -> None:
        if entry["cancelled"]:
            return
        span, trace = entry["span"], entry["trace"]
        if span is not None:
            trace.end(span, self.sim.now)
        forwarded = self.transport.schedule_transfer(
            self.sim, entry["payload"], entry["on_complete"],
            trace=trace, direction=entry["direction"])
        entry["handle"].forwarded = forwarded

    def _cancel_entry(self, entry) -> None:
        if entry["cancelled"]:
            return
        entry["cancelled"] = True
        try:
            self._queue.remove(entry)
        except ValueError:
            return
        self._buffered_bytes -= entry["payload"]
        span, trace = entry["span"], entry["trace"]
        if span is not None and span.end is None:
            span.args["cancelled"] = True
            trace.end(span, self.sim.now)
        self._publish_depth()

    def _publish_depth(self) -> None:
        if self.telemetry is not None:
            self.telemetry.queue_depth(len(self._queue),
                                       component="buffer")

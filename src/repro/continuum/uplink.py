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

Both classes keep the transport contract of
:class:`~repro.continuum.network.NetworkLink`: ``schedule_transfer``
returns a :class:`~repro.continuum.network.Transfer` handle,
``transfer_seconds`` and ``sustainable_images_per_second`` price a
payload, and ``.link`` is the underlying ``NetworkLink``.  So the
continuum replayer, the offload policy, and the broker compose over a
bare link, a contended uplink, or a buffered contended uplink
interchangeably.
"""

from __future__ import annotations

import collections

import numpy as np

from repro.bounds import within
from repro.continuum.network import LinkTelemetry, NetworkLink, Transfer

#: Residual-work epsilon: flows within half a bit of done are done
#: (float round-off from the advance/reschedule arithmetic is orders of
#: magnitude below one bit for any realistic payload).
_BITS_EPS = 0.5


class _Flow(Transfer):
    """One uplink transfer inside the bottleneck.

    Serializes while ``bits_left`` of its wire work remain (``event`` is
    ``None``), then propagates under its delivery ``event``.
    """

    __slots__ = ("uplink", "bits_left", "jitter")

    def __init__(self, uplink, bits_left, jitter, *args):
        super().__init__(*args)
        self.uplink = uplink
        self.bits_left = bits_left
        self.jitter = jitter

    def _arrive(self) -> None:
        self.uplink.completed += 1
        super()._arrive()

    def _abort(self) -> None:
        if self.event is None:
            self.uplink._withdraw(self)
        else:
            super()._abort()


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
        Metrics registry for ``link_bytes_total``,
        ``link_retransmits_total`` and ``link_queue_depth`` (a private
        one when None).

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
        self.telemetry = LinkTelemetry(registry, link.name)
        self._flows: list[_Flow] = []
        self._last = sim.now
        self._completion = None
        #: Lifetime statistics (deterministic, reported by the CLI).
        self.completed = 0
        self.total_retransmits = 0
        self.peak_concurrency = 0

    # -- pricing --------------------------------------------------------
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
                flow.event = self.sim.schedule(
                    self.link.propagation_seconds(flow.jitter),
                    flow._arrive)
        self._reschedule()

    def _withdraw(self, flow: _Flow) -> None:
        """Drop a cancelled flow mid-serialization; the rest speed up."""
        self._advance(self.sim.now)
        self._flows.remove(flow)
        self._reschedule()

    # -- transport surface ---------------------------------------------
    def schedule_transfer(self, sim, payload_bytes: float, on_complete,
                          trace=None, direction: str = "uplink"):
        """Enter one transfer into the bottleneck at the current time.

        Uplink-direction transfers contend under fair sharing; other
        directions delegate to the underlying link (sampled from the
        same RNG stream, so determinism covers both legs).  Returns the
        transfer's :class:`~repro.continuum.network.Transfer` handle.
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
        wire_bits, retransmits, jitter = self.link.sample_wire(
            payload_bytes, self._rng)
        span = self.link.open_span(trace, sim.now, direction,
                                   payload_bytes, retransmits,
                                   queue_depth=len(self._flows))
        self.total_retransmits += retransmits
        self._advance(sim.now)
        flow = _Flow(self, wire_bits, jitter, sim, payload_bytes,
                     on_complete, trace, direction, span, retransmits,
                     self.telemetry)
        self._flows.append(flow)
        self.peak_concurrency = max(self.peak_concurrency,
                                    len(self._flows))
        self._reschedule()
        return flow


class _Parked(Transfer):
    """A transfer waiting out an outage in a store-and-forward buffer.

    ``buffer`` holds it until the backlog drains; from then on
    ``event`` is the wrapped transport's handle for the forwarded leg.
    """

    __slots__ = ("buffer",)

    def __init__(self, buffer, *args):
        super().__init__(*args)
        self.buffer = buffer

    def _abort(self) -> None:
        if self.buffer is not None:
            self.buffer._unpark(self)
        elif self.event is not None:
            self.event.cancel()


class StoreAndForward:
    """A byte-bounded outage buffer in front of any transport.

    While the link is up, transfers pass straight through.  While it is
    down (per the attached
    :class:`~repro.serving.faults.LinkOutageModel`, or an explicit
    :meth:`fail`), transfers park in a FIFO buffer — each under a
    ``store_and_forward`` span so the trace shows the wait — and drain
    in order on restore.  Only a full buffer drops (tail drop, counted
    in ``dropped``): connectivity loss degrades to delayed delivery,
    not to data loss.  ``registry`` receives the buffer's
    ``link_queue_depth`` (a private one when None).
    """

    def __init__(self, transport, sim, outage=None,
                 capacity_bytes: float = float("inf"), registry=None):
        within("capacity_bytes", capacity_bytes, "(0, inf]")
        self.transport = transport
        self.link = transport.link
        self.sim = sim
        self.outage = outage
        self.capacity_bytes = capacity_bytes
        self.down = False
        self._queue: collections.deque = collections.deque()
        self._buffered_bytes = 0.0
        self.telemetry = LinkTelemetry(registry, self.link.name)
        #: Lifetime statistics.
        self.buffered_total = 0
        self.dropped = 0
        self.max_buffer_depth = 0
        self.outages = 0

    # -- pricing --------------------------------------------------------
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
            self._forward(self._queue.popleft())
        self._buffered_bytes = 0.0
        self._publish_depth()

    # -- transport surface ---------------------------------------------
    def schedule_transfer(self, sim, payload_bytes: float, on_complete,
                          trace=None, direction: str = "uplink"):
        """Pass through when up; park under a buffering span when down.

        Returns the transfer's :class:`~repro.continuum.network.Transfer`
        handle, or ``None`` when a full buffer tail-drops it.  A parked
        transfer that a wrapped buffer tail-drops on the drain ends
        ``cancelled`` and is counted in ``dropped`` here too.
        """
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
                              category="network", link=self.link.name,
                              payload_bytes=payload_bytes)
            return None
        span = None
        if trace is not None:
            span = trace.begin("store_and_forward", sim.now,
                               category="network", link=self.link.name,
                               payload_bytes=payload_bytes,
                               buffer_depth=len(self._queue))
        parked = _Parked(self, sim, payload_bytes, on_complete, trace,
                         direction, span)
        self._queue.append(parked)
        self._buffered_bytes += payload_bytes
        self.buffered_total += 1
        self.max_buffer_depth = max(self.max_buffer_depth,
                                    len(self._queue))
        self._publish_depth()
        return parked

    def _forward(self, parked: _Parked) -> None:
        if parked.span is not None:
            parked.trace.end(parked.span, self.sim.now)
            parked.span = None
        parked.buffer = None
        parked.event = self.transport.schedule_transfer(
            self.sim, parked.payload_bytes, parked._arrive,
            trace=parked.trace, direction=parked.direction)
        if parked.event is None:
            # The wrapped transport, itself a full buffer, tail-dropped
            # the leg: end the handle as dropped, not pending forever.
            self.dropped += 1
            parked.cancel()

    def _unpark(self, parked: _Parked) -> None:
        self._queue.remove(parked)
        self._buffered_bytes -= parked.payload_bytes
        self._publish_depth()

    def _publish_depth(self) -> None:
        self.telemetry.queue_depth(len(self._queue), component="buffer")

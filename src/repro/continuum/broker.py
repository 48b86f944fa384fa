"""MQTT-like pub/sub delivery between field endpoints and the edge.

Continuum deployments rarely speak request/response end to end: sensors
and cameras publish to a broker on the farm gateway, and edge services
subscribe.  This module models that hop with MQTT's delivery semantics:

* **QoS 0** (at most once) — fire and forget.  A message that loses a
  packet end-to-end is simply gone; the publisher never learns.
* **QoS 1** (at least once) — the broker expects a PUBACK.  A lost
  message is republished after ``retry_seconds`` (bounded by
  ``max_retries``); a delivered message whose *ack* is lost is also
  republished, which the subscriber sees as a **duplicate** — the
  at-least-once contract made visible.

Transfers ride any transport: a bare
:class:`~repro.continuum.network.NetworkLink`, a
:class:`~repro.continuum.uplink.SharedUplink` (broker traffic contends
with image uploads for the same bottleneck), or a
:class:`~repro.continuum.uplink.StoreAndForward` buffer (publishes
during an outage arrive late rather than never — QoS 0 included: the
loss being modeled is packet loss on the wire, not gateway death).

Delivery outcomes are sampled from a seeded stream in event order, so
replays are deterministic.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.continuum.network import NetworkLink
from repro.serving.observability import HandleCache, ensure_registry


class Subscription:
    """One subscriber's endpoint on the broker: callback + queue.

    The broker fans every delivered message out to *all* subscriptions
    on the topic; each gets its own copy and its own accounting, so a
    slow irrigation planner cannot make the alerting service miss a
    frost warning.  With ``service_seconds == 0`` (the default) the
    callback runs synchronously at delivery time — exactly the
    pre-fan-out behavior, no extra simulator events.  A positive
    ``service_seconds`` models a subscriber that processes messages
    one at a time: deliveries enter a per-subscriber FIFO and the
    callback fires when processing *completes*; ``max_queue`` (0 =
    unbounded) bounds the *waiting* backlog — the message in service
    does not count against it — and overflow increments ``dropped``
    without ever touching other subscribers.

    QoS 1 duplicate visibility is per subscriber: every subscription
    sees the ``duplicate`` flag on every redelivered copy (counted in
    ``duplicates``), because deduplication is the *application's* job
    under at-least-once delivery.
    """

    __slots__ = ("broker", "topic", "callback", "name",
                 "service_seconds", "max_queue", "received",
                 "delivered", "duplicates", "dropped",
                 "max_queue_depth", "_queue", "_busy")

    def __init__(self, broker, topic: str, callback, name: str,
                 service_seconds: float = 0.0, max_queue: int = 0):
        if service_seconds < 0:
            raise ValueError("service time must be >= 0")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.broker = broker
        self.topic = topic
        self.callback = callback
        self.name = name
        self.service_seconds = service_seconds
        self.max_queue = max_queue
        #: Copies handed to this subscriber (before its queue).
        self.received = 0
        #: Callbacks actually completed.
        self.delivered = 0
        #: Copies flagged as QoS 1 redeliveries.
        self.duplicates = 0
        #: Copies lost to this subscriber's own full queue.
        self.dropped = 0
        #: High-water mark of the backlog.
        self.max_queue_depth = 0
        self._queue: list = []
        self._busy = False

    @property
    def queue_depth(self) -> int:
        """Messages waiting in this subscriber's backlog."""
        return len(self._queue)

    def _offer(self, topic: str, payload_bytes: float,
               duplicate: bool) -> None:
        self.received += 1
        if duplicate:
            self.duplicates += 1
        if self.service_seconds == 0.0:
            # Fast path == the pre-queue contract: synchronous
            # delivery, no simulator events, byte-identical replays.
            self.delivered += 1
            self.callback(topic, payload_bytes, duplicate)
            return
        if not self._busy:
            self._serve(topic, payload_bytes, duplicate)
            return
        if self.max_queue and len(self._queue) >= self.max_queue:
            self.dropped += 1
            return
        self._queue.append((topic, payload_bytes, duplicate))
        self.max_queue_depth = max(self.max_queue_depth,
                                   len(self._queue))

    def _serve(self, topic: str, payload_bytes: float,
               duplicate: bool) -> None:
        self._busy = True

        def done() -> None:
            self.delivered += 1
            self.callback(topic, payload_bytes, duplicate)
            if self._queue:
                self._serve(*self._queue.pop(0))
            else:
                self._busy = False

        self.broker.sim.schedule(self.service_seconds, done)


class _Message:
    """One publish in flight (possibly across retries)."""

    __slots__ = ("topic", "payload_bytes", "qos", "trace", "span",
                 "delivered_once")

    def __init__(self, topic, payload_bytes, qos, trace, span):
        self.topic = topic
        self.payload_bytes = payload_bytes
        self.qos = qos
        self.trace = trace
        self.span = span
        self.delivered_once = False


class Broker:
    """Topic-based pub/sub with QoS 0/1 delivery over a lossy link.

    Parameters
    ----------
    sim:
        The shared simulator clock.
    transport:
        A :class:`~repro.continuum.network.NetworkLink` or a transport
        over one: ``schedule_transfer`` returning a
        :class:`~repro.continuum.network.Transfer`, and ``.link``, the
        underlying link whose loss rate prices message loss.  Publishes
        travel as ``uplink`` legs.
    seed:
        Seed for the message-loss/ack-loss sample stream.
    registry:
        Metrics registry for ``broker_messages_total{qos, outcome}``
        (a private one when None).
    retry_seconds:
        QoS 1 republish timeout after a missing PUBACK.
    max_retries:
        Republish budget per QoS 1 message (after which an undelivered
        message counts as ``failed``).

    Subscribers are callables ``callback(topic, payload_bytes,
    duplicate)``; :meth:`subscribe` wraps each in a
    :class:`Subscription` with its own delivery queue, and every
    subscription on a topic receives every delivered message (fan-out).
    """

    def __init__(self, sim, transport, seed: int = 0, registry=None,
                 retry_seconds: float = 1.0, max_retries: int = 2):
        if retry_seconds <= 0:
            raise ValueError("retry timeout must be positive")
        if max_retries < 0:
            raise ValueError("retry budget must be >= 0")
        self.sim = sim
        self.link = getattr(transport, "link", None)
        if not isinstance(self.link, NetworkLink):
            raise TypeError("transport must be a NetworkLink or expose "
                            "one as .link")
        self.transport = transport
        self.retry_seconds = retry_seconds
        self.max_retries = max_retries
        self._rng = np.random.default_rng(seed)
        self._subs: dict[str, list[Subscription]] = {}
        messages = ensure_registry(registry, lambda: sim.now).counter(
            "broker_messages_total",
            "Broker publishes by QoS and delivery outcome.")
        #: (qos, outcome) -> bound counter handle.
        self._c_messages = HandleCache(lambda key: messages.labels(
            qos=str(key[0]), outcome=key[1]))
        #: Lifetime statistics (deterministic; the CLI prints them).
        self.published = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicates = 0
        self.failed = 0
        self.retries = 0

    # ------------------------------------------------------------------
    def subscribe(self, topic: str,
                  callback: Callable[[str, float, bool], None],
                  name: str | None = None,
                  service_seconds: float = 0.0,
                  max_queue: int = 0) -> Subscription:
        """Register a subscriber for one topic.

        Returns the :class:`Subscription`, whose per-subscriber queue
        knobs and counters are documented there.  The defaults (no
        service time, unbounded queue) deliver synchronously — the
        original single-subscriber contract.
        """
        subs = self._subs.setdefault(topic, [])
        subscription = Subscription(
            self, topic, callback,
            name=name if name is not None
            else f"{topic}#{len(subs)}",
            service_seconds=service_seconds, max_queue=max_queue)
        subs.append(subscription)
        return subscription

    def subscriptions(self, topic: str) -> list[Subscription]:
        """All subscriptions on one topic, in subscribe order."""
        return list(self._subs.get(topic, []))

    def message_loss_probability(self, payload_bytes: float) -> float:
        """End-to-end loss chance of one unacknowledged message.

        A message survives only if every one of its packets does:
        ``1 - (1 - p) ** packets``.
        """
        p = self.link.loss_probability
        if p == 0.0:
            return 0.0
        return 1.0 - (1.0 - p) ** self.link.packet_count(payload_bytes)

    def publish(self, topic: str, payload_bytes: float, qos: int = 0,
                trace=None) -> None:
        """Publish one message at the current virtual time."""
        if qos not in (0, 1):
            raise ValueError("QoS must be 0 or 1 (QoS 2 is not modeled)")
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        self.published += 1
        span = None
        if trace is not None:
            span = trace.begin("publish", self.sim.now,
                               category="network", topic=topic,
                               qos=qos, payload_bytes=payload_bytes)
        message = _Message(topic, payload_bytes, qos, trace, span)
        self._attempt(message, attempt=1)

    # ------------------------------------------------------------------
    def _attempt(self, message: _Message, attempt: int) -> None:
        self.transport.schedule_transfer(
            self.sim, message.payload_bytes,
            lambda: self._arrived(message, attempt),
            trace=message.trace, direction="uplink")

    def _arrived(self, message: _Message, attempt: int) -> None:
        lost = bool(self._rng.random()
                    < self.message_loss_probability(
                        message.payload_bytes))
        if lost:
            if message.qos == 0:
                self.dropped += 1
                self._finish(message, "dropped")
            elif attempt <= self.max_retries:
                self._retry(message, attempt)
            else:
                self.failed += 1
                self._finish(message, "failed")
            return
        duplicate = message.delivered_once
        message.delivered_once = True
        if duplicate:
            self.duplicates += 1
            self._c_messages[message.qos, "duplicate"].inc()
        else:
            self.delivered += 1
        for subscription in self._subs.get(message.topic, []):
            subscription._offer(message.topic, message.payload_bytes,
                                duplicate)
        if message.qos == 1:
            # The single-packet PUBACK can itself be lost; the
            # publisher then re-sends and the subscriber sees a dupe.
            ack_lost = bool(self._rng.random()
                            < self.link.loss_probability)
            if ack_lost and attempt <= self.max_retries:
                self._retry(message, attempt)
                return
        self._finish(message, "delivered" if not duplicate
                     else None)

    def _retry(self, message: _Message, attempt: int) -> None:
        self.retries += 1
        if message.trace is not None:
            message.trace.instant(
                "publish_retry", self.sim.now, category="network",
                topic=message.topic, attempt=attempt + 1)
        self.sim.schedule(self.retry_seconds,
                          lambda: self._attempt(message, attempt + 1))

    def _finish(self, message: _Message, outcome: str | None) -> None:
        if outcome is not None:
            self._c_messages[message.qos, outcome].inc()
        if message.span is not None and message.span.end is None:
            if outcome is not None:
                message.span.args["outcome"] = outcome
            message.trace.end(message.span, self.sim.now)
            message.span = None

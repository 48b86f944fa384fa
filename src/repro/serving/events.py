"""Discrete-event simulation core.

A minimal, deterministic event loop: events are (time, sequence, handle)
tuples on a heap; ties in time break by insertion order, so runs are fully
reproducible.  The virtual clock only moves when events fire — simulating
hours of serving takes milliseconds of wall time.

Hot-path design (this is the innermost loop of every serving replay):

* heap entries are plain ``(time, seq, event)`` tuples — ``seq`` is
  unique, so heap comparisons resolve in C on the first two fields and
  never call into Python-level ordering methods;
* cancellation flips a flag on the :class:`Event` handle (O(1), no
  auxiliary set) and the loop discards flagged entries lazily as they
  pop, so cancel-heavy replays hold no per-cancel state;
* same-timestamp events are dispatched as one batch: the clock is
  assigned once and the ``until`` horizon is checked once per distinct
  timestamp instead of once per event;
* bulk arrival injection goes through :class:`EventStream`: a sorted
  time array merged with the heap inside :meth:`Simulator.run`, so a
  million-arrival trace costs one stream registration and a per-arrival
  callback — no per-arrival :class:`Event` allocation and no
  million-entry heap.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Sequence

#: :attr:`Event.state` values.
_PENDING, _FIRED, _CANCELLED = 0, 1, 2

#: Relative tolerance for :meth:`Simulator.schedule_at` round-off: a
#: target a few ULPs before ``now`` (float noise from ``t - now`` after
#: cumulative-sum arithmetic) clamps to "fire now" instead of raising.
_PAST_TOLERANCE = 1e-9


class Event:
    """A scheduled callback (ordered by time, then insertion sequence).

    The handle :meth:`Simulator.schedule` returns; hold it to
    :meth:`~Simulator.cancel` the callback later.  ``cancelled`` and
    ``fired`` report the lifecycle state.
    """

    __slots__ = ("time", "seq", "callback", "daemon", "state")

    def __init__(self, time: float, seq: int,
                 callback: Callable[[], None],
                 cancelled: bool = False, daemon: bool = False):
        self.time = time
        self.seq = seq
        self.callback = callback
        #: Daemon events (periodic control loops: samplers, autoscalers,
        #: SLO monitors) never count as pending *work* — see
        #: :meth:`Simulator.peek_foreground_time`.
        self.daemon = daemon
        self.state = _CANCELLED if cancelled else _PENDING

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before firing."""
        return self.state == _CANCELLED

    @property
    def fired(self) -> bool:
        """Whether the callback has already run."""
        return self.state == _FIRED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = ("pending", "fired", "cancelled")[self.state]
        return (f"Event(time={self.time!r}, seq={self.seq}, "
                f"daemon={self.daemon}, {status})")


class EventStream:
    """A sorted batch of same-callback firings, merged into the loop.

    Scheduling a long arrival trace as individual events costs one heap
    entry, one :class:`Event`, and two O(log n) heap operations per
    arrival.  A stream holds the whole sorted time array instead; the
    run loop fires ``callback(index)`` at each time with nothing but an
    index increment and a peek at the heap top, so replaying a
    million-arrival trace is cheap enough to leave to Python.

    Handles returned by :meth:`Simulator.add_stream`.  ``jump(index)``
    skips the cursor forward (the hybrid fluid engine hands a
    saturated stretch of arrivals to the flow integrator and resumes
    the stream past it); :meth:`cancel` retires the stream outright.
    """

    __slots__ = ("times", "callback", "daemon", "index", "cancelled",
                 "_sim")

    def __init__(self, sim: "Simulator", times: Sequence[float],
                 callback: Callable[[int], None], daemon: bool = False):
        # ndarray fast path: tolist() yields Python floats in C, and
        # list indexing in the drain loop beats ndarray scalar access.
        tolist = getattr(times, "tolist", None)
        self.times: list[float] = (tolist() if tolist is not None
                                   else [float(t) for t in times])
        self.callback = callback
        self.daemon = daemon
        self.index = 0
        self.cancelled = False
        self._sim = sim

    @property
    def remaining(self) -> int:
        """Firings still pending on this stream."""
        if self.cancelled:
            return 0
        return len(self.times) - self.index

    def peek_time(self) -> float | None:
        """Time of the next pending firing, or None when exhausted."""
        if self.cancelled or self.index >= len(self.times):
            return None
        return self.times[self.index]

    def jump(self, index: int) -> None:
        """Skip the cursor forward to ``index`` (never backward).

        The skipped entries simply never fire; foreground-pending
        accounting is adjusted so drained-ness stays exact.
        """
        if index < self.index:
            raise ValueError(
                f"stream cursor cannot move backward "
                f"({self.index} -> {index})")
        index = min(index, len(self.times))
        if not self.daemon and not self.cancelled:
            self._sim._foreground_pending -= index - self.index
        self.index = index

    def cancel(self) -> None:
        """Retire the stream; pending firings never run."""
        if not self.cancelled:
            if not self.daemon:
                self._sim._foreground_pending -= self.remaining
            self.cancelled = True


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, lambda: print(sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: Current virtual time in seconds.  A plain attribute, not a
        #: property: the clock is read on every metric touch and span
        #: open/close, so the descriptor call would be pure hot-path
        #: overhead.  Treat as read-only; only :meth:`run` advances it.
        self.now = 0.0
        #: Pending non-daemon events (kept exact so the common
        #: "is the workload drained" probe is O(1)).
        self._foreground_pending = 0
        #: Shadow heap of non-daemon entries so *which* foreground event
        #: is next is also cheap: same lazy-deletion discipline as the
        #: main heap, pruned as fired/cancelled entries surface.
        self._fg_heap: list[tuple[float, int, Event]] = []
        #: Same-timestamp events popped but not yet fired this dispatch
        #: round; peeks must still see them (a callback that asks "is
        #: there work" mid-batch would otherwise miss its same-time
        #: siblings).
        self._dispatching: list[Event] = []
        #: Registered :class:`EventStream` sources (exhausted streams
        #: are pruned lazily as the run loop passes over them).
        self._streams: list[EventStream] = []
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None],
                 daemon: bool = False) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``daemon`` marks the event as a control-loop tick rather than
        workload progress; daemon events fire normally but are invisible
        to :meth:`peek_foreground_time`, so periodic loops re-arming
        "while the simulation has work" cannot keep each other alive
        after the real work has drained.  A negative, NaN or infinite
        delay raises: an event at t = ∞ would never fire, yet a
        foreground one would keep :meth:`run` stepping towards it.
        """
        if not 0 <= delay < math.inf:  # NaN compares false too
            raise ValueError(
                f"cannot schedule into the past or never (delay={delay})")
        return self._push(self.now + delay, callback, daemon)

    def schedule_at(self, time: float, callback: Callable[[], None],
                    daemon: bool = False) -> Event:
        """Schedule ``callback`` at exactly the virtual time ``time``.

        Targets a hair *before* ``now`` — within a few ULPs, the float
        round-off a cumulative-sum arrival trace accumulates — clamp to
        "fire immediately" instead of raising; genuinely past, NaN or
        infinite targets raise.
        """
        if time < self.now and (
                self.now - time <= _PAST_TOLERANCE * max(1.0, abs(self.now))):
            time = self.now
        if not self.now <= time < math.inf:  # NaN compares false too
            raise ValueError(
                f"cannot schedule into the past or never (time={time}, "
                f"now={self.now})")
        return self._push(time, callback, daemon)

    def _push(self, time: float, callback: Callable[[], None],
              daemon: bool) -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, daemon=daemon)
        entry = (time, seq, event)
        heapq.heappush(self._heap, entry)
        if not daemon:
            self._foreground_pending += 1
            heapq.heappush(self._fg_heap, entry)
        return event

    def add_stream(self, times: Sequence[float],
                   callback: Callable[[int], None],
                   daemon: bool = False) -> EventStream:
        """Register a sorted bulk source: ``callback(i)`` at ``times[i]``.

        ``times`` must be nondecreasing and start at or after ``now``
        (the same few-ULP round-off tolerance as :meth:`schedule_at`
        applies: a first entry a hair in the past clamps to "fire
        now").  Stream firings interleave with heap events in exact
        time order; at an exact tie the heap event fires first, and
        ties between streams resolve by registration order.  Compared
        with one :meth:`schedule_at` call per entry this allocates no
        per-entry :class:`Event` and keeps the heap small — the
        injection path for million-arrival traces.
        """
        stream = EventStream(self, times, callback, daemon=daemon)
        ts = stream.times
        # ``not b >= a`` also catches NaN, which compares false; a
        # one-entry stream has no pair, so its entry is checked alone.
        if any(not b >= a for a, b in zip(ts, ts[1:])) or (
                len(ts) == 1 and ts[0] != ts[0]):
            raise ValueError("stream times must be nondecreasing "
                             "and not NaN")
        if ts:
            behind = self.now - ts[0]
            if behind > 0:
                if behind > _PAST_TOLERANCE * max(1.0, abs(self.now)):
                    raise ValueError(
                        f"cannot stream into the past "
                        f"(first time {ts[0]} < now {self.now})")
                ts[0] = self.now
        if not daemon:
            self._foreground_pending += len(ts)
        self._streams.append(stream)
        return stream

    def _earliest_stream(self) -> EventStream | None:
        """The live stream with the earliest head (pruning dead ones)."""
        if not self._streams:
            return None
        best = None
        best_time = 0.0
        live = []
        for stream in self._streams:
            head = stream.peek_time()
            if head is None:
                continue
            live.append(stream)
            if best is None or head < best_time:
                best, best_time = stream, head
        if len(live) != len(self._streams):
            self._streams = live
        return best

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already fired).

        O(1): flips the handle's state flag; the heap entry is discarded
        lazily when it reaches the top.  No per-cancel bookkeeping
        outlives the event, so cancel-heavy replays stay bounded.
        """
        if event.state == _PENDING:
            event.state = _CANCELLED
            if not event.daemon:
                self._foreground_pending -= 1

    def run(self, until: float | None = None,
            max_events: int = 10_000_000) -> None:
        """Process events until the heap drains or ``until`` is reached.

        ``max_events`` guards against runaway self-scheduling loops
        (stream firings count toward the budget too).
        """
        heap = self._heap
        processed = 0
        while True:
            # One live stream (a replay's arrival trace) is the common
            # case: check its head directly instead of scanning.
            streams = self._streams
            if not streams:
                stream = None
            elif len(streams) == 1:
                stream = streams[0]
                if stream.cancelled or stream.index >= len(stream.times):
                    self._streams = []
                    stream = None
            else:
                stream = self._earliest_stream()
            if not heap and stream is None:
                break
            if stream is not None and (
                    not heap or stream.times[stream.index] < heap[0][0]):
                processed = self._drain_stream(stream, until,
                                               max_events, processed)
                if processed < 0:  # hit the ``until`` horizon
                    return
                continue
            time = heap[0][0]
            if until is not None and time > until:
                self.now = until
                return
            # Batch-dispatch every event sharing this timestamp: one
            # clock assignment + horizon check per distinct time.  A
            # callback scheduling *new* same-time events is still
            # ordered correctly — they carry higher seqs, stay on the
            # heap, and drain in the next round at the same timestamp.
            batch = self._dispatching
            while heap and heap[0][0] == time:
                batch.append(heapq.heappop(heap)[2])
            self.now = time
            for index, event in enumerate(batch):
                if event.state:  # cancelled (possibly mid-batch)
                    continue
                if processed >= max_events:
                    # Re-queue the unfired tail so the simulator state
                    # stays consistent for post-mortem inspection.
                    for tail in batch[index:]:
                        if not tail.state:
                            heapq.heappush(heap,
                                           (tail.time, tail.seq, tail))
                    del batch[:]
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; "
                        "likely a self-scheduling loop")
                event.state = _FIRED
                if not event.daemon:
                    self._foreground_pending -= 1
                event.callback()
                processed += 1
                self.events_processed += 1
            del batch[:]
            # Fired events surface at the shadow heap's top in the same
            # time order they were dispatched, so this prune is
            # amortized O(1) per event and keeps the shadow heap sized
            # by *pending* work, not total history.
            fg = self._fg_heap
            while fg and fg[0][2].state:
                heapq.heappop(fg)
        if until is not None:
            self.now = max(self.now, until)

    def _drain_stream(self, stream: EventStream, until: float | None,
                      max_events: int, processed: int) -> int:
        """Fire ``stream`` entries until something else must run first.

        Returns the updated processed-event count, or ``-1`` when the
        ``until`` horizon was reached (the caller returns).  The inner
        loop is the bulk-arrival hot path: per firing it costs one list
        index, one heap-top peek, and the callback — a callback may
        schedule heap events, cancel or jump this stream, or register
        new streams, so every guard is re-checked each iteration.
        """
        heap = self._heap
        times = stream.times
        n = len(times)
        multi = len(self._streams) > 1
        while True:
            i = stream.index
            if i >= n or stream.cancelled:
                break
            t = times[i]
            if heap and heap[0][0] <= t:
                break  # tie rule: heap events fire first
            if multi or len(self._streams) > 1:
                multi = True
                other = min((s.peek_time() for s in self._streams
                             if s is not stream
                             and s.peek_time() is not None),
                            default=None)
                if other is not None and other < t:
                    break
            if until is not None and t > until:
                self.now = until
                return -1
            if processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; "
                    "likely a self-scheduling loop")
            if t > self.now:
                self.now = t
            stream.index = i + 1
            if not stream.daemon:
                self._foreground_pending -= 1
            stream.callback(i)
            processed += 1
            self.events_processed += 1
        return processed

    def peek_time(self) -> float | None:
        """Time of the next pending event or stream firing, or None."""
        heap = self._heap
        while heap and heap[0][2].state:
            heapq.heappop(heap)
        for event in self._dispatching:
            if not event.state:
                return self.now
        best = heap[0][0] if heap else None
        if self._streams:
            stream = self._earliest_stream()
            if stream is not None:
                head = stream.peek_time()
                if best is None or head < best:
                    best = head
        return best

    def peek_foreground_time(self) -> float | None:
        """Time of the next pending *non-daemon* event, or None.

        This is the "is there still work" question a periodic control
        loop must ask before re-arming itself: with two or more loops
        running, :meth:`peek_time` always sees the other loop's next
        tick and the loops would keep the simulation alive forever.
        The no-work answer — the one that ends every replay — is O(1)
        off the foreground-pending counter; the next-time answer is an
        amortized-O(1) peek at the shadow foreground heap.
        """
        if self._foreground_pending == 0:
            return None
        for event in self._dispatching:
            if not event.state and not event.daemon:
                return self.now
        fg = self._fg_heap
        while fg and fg[0][2].state:
            heapq.heappop(fg)
        best = fg[0][0] if fg else None
        for stream in self._streams:
            if stream.daemon:
                continue
            head = stream.peek_time()
            if head is not None and (best is None or head < best):
                best = head
        return best

"""Tests for the optimized hot paths.

Covers the regression guarantees the optimization pass makes:
``schedule_at`` round-off clamping, bounded cancel state, firing-order
parity between the tuple-heap simulator and the seed simulator kept
below as a reference, bound-handle export parity, trace sampling + span
pooling, MAC-accounting parity on the packed kernel path, and the
preprocessing grid cache.
"""

import dataclasses
import heapq
import itertools
from collections.abc import Callable

import numpy as np
import pytest

from repro.serving.events import Simulator


# ----------------------------------------------------------------------
# Seed simulator (dataclass events + cancelled-seq set)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, order=True)
class LegacyEvent:
    """A scheduled callback (ordered by time, then insertion sequence)."""

    time: float
    seq: int
    callback: Callable[[], None] = dataclasses.field(compare=False)
    cancelled: bool = dataclasses.field(default=False, compare=False)
    daemon: bool = dataclasses.field(default=False, compare=False)


class LegacySimulator:
    """The seed event loop, byte-for-byte in behaviour.

    Heap entries are frozen ordered dataclasses (every push/pop pays
    field-by-field ``__lt__``), cancellation goes through an auxiliary
    seq set (which leaks on cancel-after-fire), and every event pops
    individually.  API-compatible with the optimized simulator.
    """

    def __init__(self) -> None:
        self._heap: list[LegacyEvent] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._cancelled: set[int] = set()
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None],
                 daemon: bool = False) -> LegacyEvent:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = LegacyEvent(self._now + delay, next(self._seq), callback,
                            daemon=daemon)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None],
                    daemon: bool = False) -> LegacyEvent:
        """Schedule ``callback`` at an absolute virtual time."""
        return self.schedule(time - self._now, callback, daemon=daemon)

    def cancel(self, event: LegacyEvent) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        self._cancelled.add(event.seq)

    def run(self, until: float | None = None,
            max_events: int = 10_000_000) -> None:
        """Process events until the heap drains or ``until`` is reached."""
        processed = 0
        while self._heap:
            if processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; "
                    "likely a self-scheduling loop")
            event = heapq.heappop(self._heap)
            if event.seq in self._cancelled:
                self._cancelled.discard(event.seq)
                continue
            if until is not None and event.time > until:
                heapq.heappush(self._heap, event)  # leave it for later
                self._now = until
                return
            self._now = event.time
            event.callback()
            processed += 1
            self.events_processed += 1
        if until is not None:
            self._now = max(self._now, until)

    def peek_time(self) -> float | None:
        """Time of the next pending event, or None when idle."""
        while self._heap and self._heap[0].seq in self._cancelled:
            self._cancelled.discard(heapq.heappop(self._heap).seq)
        return self._heap[0].time if self._heap else None

    def peek_foreground_time(self) -> float | None:
        """Time of the next pending *non-daemon* event, or None."""
        best: float | None = None
        for event in self._heap:
            if event.daemon or event.seq in self._cancelled:
                continue
            if best is None or event.time < best:
                best = event.time
        return best



class TestScheduleAtClamp:
    """Float round-off near ``now`` must not kill a replay."""

    def test_ulp_past_target_clamps_to_now(self):
        # A cumulative-sum arrival trace lands the clock on a value
        # whose float neighbourhood the next schedule_at target falls
        # just below.
        sim = Simulator()
        fired = []
        t = 0.1 + 0.2  # 0.30000000000000004
        sim.schedule_at(t, lambda: sim.schedule_at(
            0.3, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [t]

    def test_genuinely_past_target_still_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(0.5, lambda: None)

    def test_clamp_scales_with_magnitude(self):
        # At now=1e6 a ULP is ~1e-10; an absolute tolerance would
        # either miss it or swallow real milliseconds.
        sim = Simulator()
        sim.schedule(1e6, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(1e6 - 1e-10, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1e6]


class TestBoundedCancelState:
    """Cancel bookkeeping must not outlive the event (seed leak)."""

    def test_cancel_after_fire_holds_no_state(self):
        # The seed simulator put cancelled seqs in a set that only
        # lazy-deletion at pop could drain — cancelling an event that
        # already fired leaked the entry forever.  The optimized
        # simulator keeps no auxiliary structure at all.
        sim = Simulator()
        events = [sim.schedule(i * 0.001, lambda: None)
                  for i in range(100)]
        sim.run()
        for event in events:
            sim.cancel(event)  # all no-ops: already fired
        assert not sim._heap and not sim._fg_heap
        assert all(e.fired and not e.cancelled for e in events)

    def test_seed_simulator_exhibits_the_leak(self):
        # Documents what the test above guards against.
        sim = LegacySimulator()
        events = [sim.schedule(i * 0.001, lambda: None)
                  for i in range(100)]
        sim.run()
        for event in events:
            sim.cancel(event)
        assert len(sim._cancelled) == 100  # leaked forever

    def test_cancelled_entries_drain_from_both_heaps(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        for i in range(50):
            sim.cancel(sim.schedule(0.5, lambda: None))
        sim.run()
        assert keep.fired
        assert not sim._heap and not sim._fg_heap

    def test_foreground_pending_tracks_cancel(self):
        sim = Simulator()
        event = sim.schedule(0.5, lambda: None)
        assert sim.peek_foreground_time() == 0.5
        sim.cancel(event)
        assert sim.peek_foreground_time() is None
        sim.cancel(event)  # double-cancel must not underflow
        assert sim.peek_foreground_time() is None


class TestLegacyParity:
    """The tuple-heap loop must fire exactly like the seed loop."""

    @staticmethod
    def _workload(sim):
        order = []
        cancelable = []

        def make(i):
            def cb():
                order.append(i)
                if i % 3 == 0:
                    cancelable.append(
                        sim.schedule(0.125, lambda: order.append(-i)))
                if i % 4 == 0 and cancelable:
                    sim.cancel(cancelable.pop())
                if i % 11 == 0:
                    sim.peek_foreground_time()
            return cb

        for i in range(500):
            # (i % 50) collides timestamps: heavy tie traffic.
            sim.schedule_at((i % 50) * 0.01, make(i),
                            daemon=(i % 13 == 0))
        sim.run()
        return order

    def test_firing_order_identical_under_ties_and_cancels(self):
        assert (self._workload(Simulator())
                == self._workload(LegacySimulator()))

    def test_events_processed_identical(self):
        new, old = Simulator(), LegacySimulator()
        self._workload(new)
        self._workload(old)
        assert new.events_processed == old.events_processed

    def test_run_until_parity(self):
        def staged(sim):
            seen = []
            for i in range(20):
                sim.schedule(i * 0.1, lambda i=i: seen.append(i))
            sim.run(until=0.95)
            seen.append(("paused", sim.now))
            sim.run()
            return seen

        assert staged(Simulator()) == staged(LegacySimulator())


class TestBoundHandleParity:
    """labels() handles must be observationally identical to kwargs."""

    @staticmethod
    def _scrape(registry):
        from repro.serving.exporter import export_registry

        return export_registry(registry)

    def test_counter_gauge_histogram_exports_match(self):
        from repro.serving.observability import MetricsRegistry

        kwargs_reg = MetricsRegistry(clock=lambda: 2.5)
        bound_reg = MetricsRegistry(clock=lambda: 2.5)

        c = kwargs_reg.counter("reqs_total", "Requests.")
        g = kwargs_reg.gauge("depth", "Depth.")
        h = kwargs_reg.histogram("lat_seconds", "Latency.")
        for _ in range(3):
            c.inc(2.0, model="m", status="ok")
        g.set(4.0, model="m")
        g.add(-1.5, model="m")
        for v in (0.001, 0.4, 99.0):
            h.observe(v, stage="infer")

        bc = bound_reg.counter("reqs_total", "Requests.").labels(
            model="m", status="ok")
        bg = bound_reg.gauge("depth", "Depth.").labels(model="m")
        bh = bound_reg.histogram("lat_seconds", "Latency.").labels(
            stage="infer")
        for _ in range(3):
            bc.inc(2.0)
        bg.set(4.0)
        bg.add(-1.5)
        for v in (0.001, 0.4, 99.0):
            bh.observe(v)

        assert self._scrape(bound_reg) == self._scrape(kwargs_reg)
        assert bc.value() == 6.0 and bg.value() == 2.5

    def test_bound_and_kwargs_paths_share_series(self):
        from repro.serving.observability import MetricsRegistry

        registry = MetricsRegistry()
        counter = registry.counter("mix_total", "Mixed paths.")
        handle = counter.labels(tier="edge")
        handle.inc()
        counter.inc(tier="edge")  # kwargs path, same series
        assert counter.value(tier="edge") == 2.0
        assert handle.value() == 2.0

    def test_unobserved_bound_histogram_leaves_no_series(self):
        from repro.serving.observability import MetricsRegistry

        registry = MetricsRegistry()
        histogram = registry.histogram("quiet_seconds", "Never hit.")
        histogram.labels(stage="idle")  # bound but never observed
        assert histogram.label_sets() == []


class TestTraceSampling:
    """Sampling bounds trace retention without touching metrics."""

    def _replay(self, rate, n=40):
        from repro.continuum.network import get_link
        from repro.continuum.pipeline import ContinuumReplayer
        from repro.serving.batcher import BatcherConfig
        from repro.serving.observability import MetricsRegistry
        from repro.serving.request import Request
        from repro.serving.server import ModelConfig, TritonLikeServer

        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        server = TritonLikeServer(sim, registry=registry)
        server.register(ModelConfig(
            "m", lambda n: 0.01,
            batcher=BatcherConfig(max_batch_size=4,
                                  max_queue_delay=0.002)))
        replayer = ContinuumReplayer(
            server, get_link("station_ethernet"),
            edge_preprocess_time=lambda n: 0.002 * n,
            image_bytes=100_000.0, registry=registry,
            trace_sample_rate=rate)
        for i in range(n):
            sim.schedule(i * 0.02,
                         lambda i=i: replayer.submit(
                             Request("m", request_id=i + 1)))
        sim.run()
        return replayer, registry

    def test_quarter_rate_retains_quarter_of_traces(self):
        replayer, _ = self._replay(0.25)
        assert len(replayer.traces) == 10
        assert all(t.sampled for t in replayer.traces)

    def test_sampling_leaves_metrics_identical(self):
        from repro.serving.exporter import export_registry

        _, full = self._replay(1.0)
        _, sampled = self._replay(0.25)
        assert export_registry(sampled) == export_registry(full)

    def test_unsampled_requests_still_served_and_counted(self):
        replayer, registry = self._replay(0.0)
        assert replayer.traces == []
        finished = registry.get("continuum_requests_total")
        assert finished.total() == 40.0

    def test_span_pool_reuses_records(self):
        from repro.serving.tracectx import SpanPool, TraceContext

        pool = SpanPool()
        ctx = TraceContext(1, pool=pool)
        first = ctx.begin("a", 0.0)
        ctx.end(first, 1.0)
        ctx.close(1.0)
        released = {id(ctx.root), id(first)}
        ctx.recycle()
        assert len(pool) == 2
        ctx2 = TraceContext(2, pool=pool)
        reused = ctx2.begin("b", 2.0)
        # Both records of the new context come from the freed pool —
        # zero allocations for the unsampled steady state.
        assert {id(ctx2.root), id(reused)} == released
        assert reused.name == "b" and not reused.closed

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            self._replay(1.5)


class TestMacTallyPackedParity:
    """Packed fast path must charge exactly the seed MAC counts."""

    def _tiny(self):
        from repro.models.functional import init_vit_weights
        from repro.models.vit import ViTConfig

        cfg = ViTConfig("tally_probe", img_size=32, patch_size=8,
                        dim=64, depth=2, heads=2)
        weights = init_vit_weights(cfg, seed=3)
        x = np.random.default_rng(9).standard_normal(
            (2, 3, 32, 32)).astype(np.float32)
        return cfg, weights, x

    def test_vit_macs_identical_and_logits_close(self):
        from repro.models.functional import MacTally, vit_forward
        from repro.models.workspace import WeightPack

        cfg, weights, x = self._tiny()
        slow_tally, fast_tally = MacTally(), MacTally()
        slow = vit_forward(cfg, weights, x, tally=slow_tally)
        fast = vit_forward(cfg, weights, x, tally=fast_tally,
                           pack=WeightPack(weights))
        assert fast_tally.macs == slow_tally.macs > 0
        np.testing.assert_allclose(fast, slow, rtol=1e-4, atol=1e-5)

    def test_build_functional_packed_matches_unpacked(self):
        from repro.models.functional import build_functional

        packed = build_functional("vit_tiny", seed=1, packed=True)
        loose = build_functional("vit_tiny", seed=1, packed=False)
        x = np.random.default_rng(4).standard_normal(
            (1, *packed.input_shape)).astype(np.float32)
        np.testing.assert_allclose(packed(x), loose(x),
                                   rtol=1e-4, atol=1e-5)
        assert packed.pack is not None and packed.pack.packed_count > 0
        assert loose.pack is None


class TestGridCache:
    """Cached sampling grids must not change preprocessing output."""

    def test_resize_identical_across_calls(self):
        from repro.preprocessing.ops import resize_bilinear

        rng = np.random.default_rng(2)
        img = rng.integers(0, 255, size=(60, 80, 3)).astype(np.uint8)
        first = resize_bilinear(img, 48, 48)
        again = resize_bilinear(img, 48, 48)  # cached grid path
        np.testing.assert_array_equal(again, first)

    def test_warp_identical_across_calls(self):
        from repro.preprocessing.ops import (ground_plane_homography,
                                             warp_perspective)

        rng = np.random.default_rng(3)
        img = rng.integers(0, 255, size=(60, 80, 3)).astype(np.uint8)
        hom = ground_plane_homography(80, 60)
        first = warp_perspective(img, hom, 60, 80)
        again = warp_perspective(img, hom, 60, 80)
        np.testing.assert_array_equal(again, first)

    def test_cache_is_bounded(self):
        from repro.preprocessing.ops import _GridCache

        cache = _GridCache(maxsize=2)
        for i in range(5):
            cache.get(("k", i), lambda: (np.zeros(1),))
        assert len(cache._entries) == 2

    def test_cached_grids_are_read_only(self):
        from repro.preprocessing.ops import _GridCache

        cache = _GridCache(maxsize=2)
        grid, = cache.get(("ro",), lambda: (np.zeros(3),))
        with pytest.raises(ValueError):
            grid[0] = 1.0

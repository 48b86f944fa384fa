"""Tests for the byte-accounted cache store (repro.cache.store)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import FrameFingerprint
from repro.cache.store import (
    CacheEntry,
    CacheStats,
    CacheStore,
    FIFOEviction,
    FrequencySketch,
    LRUEviction,
)
from repro.hardware.memory import MemoryPool


def fp(bits: int) -> FrameFingerprint:
    """A fingerprint whose dhash is the given bit pattern."""
    return FrameFingerprint(dhash=bits, blocks=0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


class TestLookupAndMatch:
    def test_exact_hit_and_miss(self, clock):
        store = CacheStore(1024, clock)
        store.insert(fp(0b1), "v", 10)
        assert store.lookup(fp(0b1)).value == "v"
        assert store.lookup(fp(0b10)) is None
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_threshold_matches_nearby_fingerprints(self, clock):
        store = CacheStore(1024, clock, match_threshold=2)
        store.insert(fp(0b1111), "v", 10)
        assert store.lookup(fp(0b1100)).value == "v"  # distance 2
        assert store.lookup(fp(0b0000)) is None       # distance 4

    def test_closest_entry_wins(self, clock):
        store = CacheStore(1024, clock, match_threshold=4)
        store.insert(fp(0b1111), "far", 10)
        store.insert(fp(0b1110), "near", 10)
        assert store.lookup(fp(0b1100)).value == "near"

    def test_tie_breaks_to_oldest_entry(self, clock):
        # The two residents are 4 bits apart (distinct content), the
        # probe is 2 bits from each: equidistant -> oldest entry wins.
        store = CacheStore(1024, clock, match_threshold=2)
        store.insert(fp(0b0011), "first", 10)
        store.insert(fp(0b1100), "second", 10)
        assert store.lookup(fp(0b0110)).value == "first"

    def test_reinsert_within_threshold_replaces(self, clock):
        # A near-duplicate fingerprint is the *same* content: inserting
        # it refreshes the resident entry instead of duplicating it.
        store = CacheStore(1024, clock, match_threshold=2)
        store.insert(fp(0b01), "old", 10)
        store.insert(fp(0b10), "new", 10)
        assert len(store) == 1
        assert store.lookup(fp(0b01)).value == "new"

    def test_peek_does_not_mutate(self, clock):
        store = CacheStore(1024, clock)
        store.insert(fp(1), "v", 10)
        assert store.peek(fp(1))
        assert not store.peek(fp(2))
        assert store.stats.lookups == 0


class TestTTL:
    def test_expired_match_counts_stale_and_misses(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=5.0)
        store.insert(fp(1), "v", 10)
        clock.now = 6.0
        assert store.lookup(fp(1)) is None
        assert store.stats.stale == 1
        assert store.stats.misses == 1
        assert len(store) == 0

    def test_fresh_entry_still_hits(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=5.0)
        store.insert(fp(1), "v", 10)
        clock.now = 4.9
        assert store.lookup(fp(1)) is not None

    def test_reinsert_refreshes_freshness(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=5.0)
        store.insert(fp(1), "old", 10)
        clock.now = 4.0
        store.insert(fp(1), "new", 10)
        clock.now = 8.0
        assert store.lookup(fp(1)).value == "new"
        assert len(store) == 1

    def test_expire_sweeps_all_stale(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=1.0)
        store.insert(fp(1), "a", 10)
        store.insert(fp(2), "b", 10)
        clock.now = 2.0
        assert store.expire() == 2
        assert store.stats.evictions == 2

    def test_peek_respects_ttl(self, clock):
        store = CacheStore(1024, clock, ttl_seconds=1.0)
        store.insert(fp(1), "v", 10)
        clock.now = 2.0
        assert not store.peek(fp(1))


class TestEviction:
    def test_lru_evicts_least_recently_used(self, clock):
        store = CacheStore(30, clock, eviction=LRUEviction())
        store.insert(fp(1), "a", 10)
        store.insert(fp(2), "b", 10)
        store.insert(fp(3), "c", 10)
        clock.now = 1.0
        store.lookup(fp(1))  # refresh a
        store.insert(fp(4), "d", 10)
        assert store.peek(fp(1)) and not store.peek(fp(2))

    def test_fifo_ignores_recency(self, clock):
        store = CacheStore(20, clock, eviction=FIFOEviction())
        store.insert(fp(1), "a", 10)
        store.insert(fp(2), "b", 10)
        clock.now = 1.0
        store.lookup(fp(1))
        store.insert(fp(3), "c", 10)
        assert not store.peek(fp(1)) and store.peek(fp(2))

    def test_oversized_value_is_uncacheable(self, clock):
        store = CacheStore(100, clock)
        assert not store.insert(fp(1), "v", 101)
        assert store.stats.uncacheable == 1

    def test_byte_accounting_tracks_residency(self, clock):
        store = CacheStore(100, clock)
        store.insert(fp(1), "a", 40)
        store.insert(fp(2), "b", 40)
        assert store.used_bytes == 80
        store.insert(fp(3), "c", 40)  # evicts one
        assert store.used_bytes == 80
        assert store.stats.evictions == 1

    def test_invalid_sizes_rejected(self, clock):
        store = CacheStore(100, clock)
        with pytest.raises(ValueError, match="size_bytes"):
            store.insert(fp(1), "v", 0)
        with pytest.raises(ValueError, match="capacity"):
            CacheStore(0, clock)


class TestTinyLFUAdmission:
    def test_cold_candidate_cannot_displace_hot_victim(self, clock):
        store = CacheStore(10, clock, admission=FrequencySketch())
        store.insert(fp(1), "hot", 10)
        for _ in range(5):
            store.lookup(fp(1))  # trains the sketch
        assert not store.insert(fp(2), "cold", 10)
        assert store.stats.admission_rejects == 1
        assert store.peek(fp(1))

    def test_hot_candidate_displaces_cold_victim(self, clock):
        store = CacheStore(10, clock, admission=FrequencySketch())
        store.insert(fp(1), "cold", 10)
        for _ in range(5):
            store.lookup(fp(2))  # misses, but trains the candidate
        assert store.insert(fp(2), "hot", 10)
        assert not store.peek(fp(1))

    def test_reject_keeps_the_drops_made_before_it(self, clock):
        # A refused insert does not restore the resident set: the
        # near-duplicate it replaced and the victims evicted by earlier
        # passes of the eviction loop stay gone.
        store = CacheStore(30, clock, match_threshold=2,
                           admission=FrequencySketch())
        store.insert(fp(0b0001), "near", 5)
        store.insert(fp(0xAB << 20 | 0x5A5), "cold", 10)
        store.insert(fp(0xCD << 40 | 0x3C3), "hot", 15)
        clock.now = 1.0
        for _ in range(5):
            store.lookup(fp(0xCD << 40 | 0x3C3))
        store.lookup(fp(0b0011))  # hits "near", trains the candidate
        assert not store.insert(fp(0b0011), "candidate", 25)
        assert [e.value for e in store.entries()] == ["hot"]
        assert store.used_bytes == 15
        assert store.stats.admission_rejects == 1
        assert store.stats.evictions == 1

    def test_no_admission_filter_always_displaces(self, clock):
        store = CacheStore(10, clock)
        store.insert(fp(1), "a", 10)
        assert store.insert(fp(2), "b", 10)


class TestFrequencySketch:
    def test_estimate_tracks_increments(self):
        sketch = FrequencySketch()
        for _ in range(3):
            sketch.increment(42)
        assert sketch.estimate(42) == 3
        assert sketch.estimate(43) == 0

    def test_counters_cap(self):
        sketch = FrequencySketch()
        for _ in range(40):
            sketch.increment(7)
        assert sketch.estimate(7) == 15

    def test_aging_halves_counts(self):
        sketch = FrequencySketch(sample_size=10)
        for _ in range(10):
            sketch.increment(1)
        assert sketch.estimate(1) <= 5

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="width"):
            FrequencySketch(width=100)
        with pytest.raises(ValueError, match="depth"):
            FrequencySketch(depth=0)
        with pytest.raises(ValueError, match="sample_size"):
            FrequencySketch(sample_size=0)


class TestMemoryPoolCharging:
    def test_resident_entries_charge_the_pool(self, clock):
        pool = MemoryPool(1000, name="jetson")
        store = CacheStore(500, clock, pool=pool, name="edge")
        store.insert(fp(1), "v", 200)
        assert pool.used_bytes == 200
        assert "cache:edge" in pool.breakdown()

    def test_eviction_frees_the_pool(self, clock):
        pool = MemoryPool(1000)
        store = CacheStore(200, clock, pool=pool)
        store.insert(fp(1), "a", 150)
        store.insert(fp(2), "b", 150)  # evicts a
        assert pool.used_bytes == 150

    def test_squeezed_pool_sheds_cache_first(self, clock):
        # Non-cache tenants (engine buffers) shrink the pool: the cache
        # gives up residency gracefully instead of raising OOM.
        pool = MemoryPool(300)
        store = CacheStore(300, clock, pool=pool)
        store.insert(fp(1), "a", 100)
        pool.allocate(150, tag="engine")
        assert store.insert(fp(2), "b", 120)  # sheds entry a
        assert not store.peek(fp(1))

    def test_pool_too_tight_is_uncacheable(self, clock):
        pool = MemoryPool(100)
        pool.allocate(90, tag="engine")
        store = CacheStore(100, clock, pool=pool)
        assert not store.insert(fp(1), "v", 50)
        assert store.stats.uncacheable == 1

    def test_clear_releases_everything(self, clock):
        pool = MemoryPool(1000)
        store = CacheStore(500, clock, pool=pool)
        store.insert(fp(1), "a", 100)
        store.insert(fp(2), "b", 100)
        store.clear()
        assert pool.used_bytes == 0 and len(store) == 0


class ReferenceStore:
    """A linear-scan model of :class:`CacheStore`'s contract.

    Entries live in a list; every probe scans all of them with
    ``FrameFingerprint.distance`` and keeps the lowest
    ``(distance, sequence)``, and ``used_bytes`` re-sums the list.
    """

    def __init__(self, capacity_bytes, clock, match_threshold, eviction,
                 ttl_seconds, admission, pool):
        self.capacity_bytes = float(capacity_bytes)
        self.clock = clock
        self.match_threshold = match_threshold
        self.eviction = eviction
        self.ttl_seconds = ttl_seconds
        self.admission = admission
        self.pool = pool
        self.stats = CacheStats()
        self.resident = []
        self.sequence = 0

    @property
    def used_bytes(self):
        return sum(e.size_bytes for e in self.resident)

    def entries(self):
        return sorted(self.resident, key=lambda e: e.sequence)

    def _match(self, key):
        ranked = [(key.distance(e.fingerprint), e.sequence, e)
                  for e in self.resident]
        ranked = [r for r in ranked if r[0] <= self.match_threshold]
        return min(ranked, key=lambda r: r[:2])[2] if ranked else None

    def _expired(self, entry, now):
        return (self.ttl_seconds is not None
                and now - entry.inserted_at > self.ttl_seconds)

    def _drop(self, entry):
        self.resident.remove(entry)
        if entry.allocation is not None:
            self.pool.free(entry.allocation)
            entry.allocation = None

    def lookup(self, key):
        now = self.clock()
        if self.admission is not None:
            self.admission.increment(key.packed)
        entry = self._match(key)
        if entry is not None and self._expired(entry, now):
            self._drop(entry)
            self.stats.stale += 1
            entry = None
        if entry is None:
            self.stats.misses += 1
            return None
        entry.hits += 1
        entry.last_access_at = now
        self.stats.hits += 1
        return entry

    def peek(self, key):
        entry = self._match(key)
        return entry is not None and not self._expired(entry,
                                                       self.clock())

    def _hotter_victim(self, key, victim):
        return (self.admission is not None
                and self.admission.estimate(key.packed)
                < self.admission.estimate(victim.fingerprint.packed))

    def insert(self, key, value, size_bytes):
        now = self.clock()
        if size_bytes > self.capacity_bytes:
            self.stats.uncacheable += 1
            return False
        existing = self._match(key)
        if existing is not None:
            self._drop(existing)
        while self.used_bytes + size_bytes > self.capacity_bytes:
            victim = self.eviction.victim(self.resident)
            if self._hotter_victim(key, victim):
                self.stats.admission_rejects += 1
                return False
            self._drop(victim)
            self.stats.evictions += 1
        allocation = None
        if self.pool is not None:
            while self.resident and not self.pool.can_fit(size_bytes):
                self._drop(self.eviction.victim(self.resident))
                self.stats.evictions += 1
            if not self.pool.can_fit(size_bytes):
                self.stats.uncacheable += 1
                return False
            allocation = self.pool.allocate(size_bytes, tag="cache")
        self.resident.append(CacheEntry(
            fingerprint=key, value=value, size_bytes=float(size_bytes),
            inserted_at=now, last_access_at=now, sequence=self.sequence,
            allocation=allocation))
        self.sequence += 1
        self.stats.insertions += 1
        return True

    def expire(self):
        if self.ttl_seconds is None:
            return 0
        now = self.clock()
        expired = [e for e in self.resident if self._expired(e, now)]
        for entry in expired:
            self._drop(entry)
        self.stats.evictions += len(expired)
        return len(expired)

    def clear(self):
        for entry in list(self.resident):
            self._drop(entry)


def _entry_state(entry):
    """Every field of an entry but its pool handle (pools differ)."""
    if entry is None:
        return None
    state = dataclasses.asdict(entry)
    state["allocation"] = entry.allocation is not None
    return state


#: Near-duplicate keys: one of six random 80-bit bases with up to two
#: of four spread bit positions flipped, so thresholds 0-8 see exact
#: hits, near hits, ties and misses, and keys recur often enough to
#: train the admission sketch.
_BASES = (0x269E_F2A7_4DE4_52E6_B438, 0x0C5C_A6A3_A450_6513_270E,
          0x892F_D23F_0824_128B_2F33, 0x9531_5D9D_C9F8_1818_E811,
          0x81E7_E8E2_5D94_0ED9_0475, 0x1600_0999_50D8_36F6_75CC)
keys = st.builds(
    lambda base, flips: base ^ sum({1 << bit for bit in flips}),
    st.sampled_from(_BASES),
    st.lists(st.sampled_from([0, 23, 47, 71]), max_size=2),
).map(lambda packed: FrameFingerprint(dhash=packed >> 16,
                                      blocks=packed & 0xFFFF))

#: A probe repeats up to four times, so some keys get hot in the sketch.
_probe = st.tuples(st.sampled_from(["lookup", "peek"]), keys,
                   st.integers(1, 4))
_insert = st.tuples(st.just("insert"), keys,
                    st.sampled_from([1, 2, 3, 5, 8, 13, 20, 30, 41]))
_other = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("expire")),
    st.tuples(st.just("squeeze"), st.integers(1, 40)),
    st.tuples(st.just("release")),
)
#: Probes and inserts are each 3/8 of the operations.
operations = st.lists(
    st.sampled_from([_probe] * 3 + [_insert] * 3 + [_other] * 2)
    .flatmap(lambda kind: kind), min_size=20, max_size=80)


class TestDifferentialAgainstLinearScan:
    """The keyed store behaves exactly like a linear-scan store."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(threshold=st.integers(0, 8),
           eviction=st.sampled_from([LRUEviction, FIFOEviction]),
           ttl=st.sampled_from([None, 0.5, 2.0]),
           admission=st.booleans(),
           pooled=st.booleans(),
           ops=operations)
    def test_same_outcomes_stats_and_residency(self, threshold, eviction,
                                               ttl, admission, pooled,
                                               ops):
        clock = FakeClock()

        def build(cls):
            pool = MemoryPool(50) if pooled else None
            sketch = (FrequencySketch(width=16, sample_size=24)
                      if admission else None)
            return cls(40, clock, match_threshold=threshold,
                       eviction=eviction(), ttl_seconds=ttl,
                       admission=sketch, pool=pool), pool

        store, pool = build(CacheStore)
        model, model_pool = build(ReferenceStore)
        tenants = []
        for step, (op, *args) in enumerate(ops):
            if op == "advance":
                clock.now += args[0]
                continue
            if op == "squeeze":
                # A non-cache tenant takes pool space from both stores.
                if pool is not None and pool.can_fit(args[0]):
                    tenants.append((pool.allocate(args[0]),
                                    model_pool.allocate(args[0])))
                continue
            if op == "release":
                if tenants:
                    ours, theirs = tenants.pop(0)
                    pool.free(ours)
                    model_pool.free(theirs)
                continue
            if op == "insert":
                args, repeat = [args[0], f"v{step}", args[1]], 1
            elif op in ("lookup", "peek"):
                args, repeat = args[:1], args[1]
            else:
                repeat = 1
            for _ in range(repeat):
                got = getattr(store, op)(*args)
                want = getattr(model, op)(*args)
                if op == "lookup":
                    assert _entry_state(got) == _entry_state(want), step
                else:
                    assert got == want, (step, op)
            assert store.stats == model.stats, step
            # repr: the same value and the same type (an empty sum is 0).
            assert repr(store.used_bytes) == repr(model.used_bytes), step
            assert len(store) == len(model.resident), step
            if pool is not None:
                assert pool.used_bytes == model_pool.used_bytes, step
        assert ([_entry_state(e) for e in store.entries()]
                == [_entry_state(e) for e in model.entries()])
        store.clear()
        model.clear()
        assert len(store) == 0 and repr(store.used_bytes) == "0"
        if pool is not None:
            assert pool.used_bytes == model_pool.used_bytes


class TestGeometryGuard:
    def test_mismatched_probe_raises_even_on_equal_packed_key(self,
                                                              clock):
        # 8x8/4x4 and 4x4/8x8 keys can pack to the same integer; the
        # store still refuses to compare them.
        store = CacheStore(1024, clock)
        store.insert(FrameFingerprint(dhash=5, blocks=3), "v", 10)
        other = FrameFingerprint(dhash=0, blocks=5 << 16 | 3,
                                 hash_size=4, block_grid=8)
        assert other.packed == store.entries()[0].fingerprint.packed
        for probe in (store.lookup, store.peek):
            with pytest.raises(ValueError, match="geometry"):
                probe(other)
        with pytest.raises(ValueError, match="geometry"):
            store.insert(other, "w", 10)

"""Byte-accounted cache stores on the simulator clock.

:class:`CacheStore` holds values keyed by
:class:`~repro.cache.keys.FrameFingerprint` with *content-aware* lookup:
a probe hits any entry within the store's Hamming-distance threshold,
not just bit-identical keys.  The store is sized in **bytes**, not
entries — on unified-memory edge devices the cache competes with
preprocessing buffers and the engine for the same physical pool, so a
:class:`~repro.hardware.memory.MemoryPool` can be attached and every
resident entry charges it (the Fig. 8 "combined memory consumption"
constraint extends to the cache).

Eviction is pluggable (:class:`LRUEviction`, :class:`FIFOEviction`),
freshness is bounded by an optional TTL (expired entries count as
*stale* — a miss that also names its cause), and admission is optionally
guarded by a TinyLFU-style :class:`FrequencySketch`: a candidate only
displaces a victim it is provably hotter than, which keeps one-shot
scans (a panning camera) from flushing the working set.

Everything runs on a caller-supplied ``clock`` (wire it to
``lambda: sim.now``) and is deterministic: the frequency sketch uses
fixed multiplicative hashing, never wall time or Python's randomized
string hashing.
"""

from __future__ import annotations

import abc
import dataclasses
import itertools
from collections.abc import Callable, Collection

from repro.cache.keys import FrameFingerprint

#: Fixed odd multipliers for the sketch's row hashes (splitmix-style).
_SKETCH_SEEDS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                 0x165667B19E3779F9, 0x27D4EB2F165667C5)


class FrequencySketch:
    """TinyLFU's approximate frequency counter (count-min with aging).

    ``depth`` independent rows of ``width`` 4-bit-style counters (we
    cap at 15 like the paper's implementation); :meth:`increment` on
    every cache reference, :meth:`estimate` answers "how hot is this
    key".  After ``sample_size`` increments every counter is halved —
    the aging step that lets the sketch track a *moving* working set.
    """

    _COUNTER_CAP = 15

    def __init__(self, width: int = 1024, depth: int = 4,
                 sample_size: int = 10_000):
        if width < 16 or width & (width - 1):
            raise ValueError("width must be a power of two >= 16")
        if not 1 <= depth <= len(_SKETCH_SEEDS):
            raise ValueError(
                f"depth must be in 1..{len(_SKETCH_SEEDS)}")
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        self.width = width
        self.depth = depth
        self.sample_size = sample_size
        self._rows = [[0] * width for _ in range(depth)]
        self._increments = 0

    def _indices(self, key: int) -> list[int]:
        mask = self.width - 1
        return [((key * _SKETCH_SEEDS[row] + row) >> 17) & mask
                for row in range(self.depth)]

    def increment(self, key: int) -> None:
        """Record one reference to ``key`` (ages the sketch as needed)."""
        for row, index in zip(self._rows, self._indices(key)):
            if row[index] < self._COUNTER_CAP:
                row[index] += 1
        self._increments += 1
        if self._increments >= self.sample_size:
            self._age()

    def estimate(self, key: int) -> int:
        """Approximate reference count of ``key`` (never underestimates
        by more than the aging halvings; may overestimate on collisions)."""
        return min(row[index]
                   for row, index in zip(self._rows, self._indices(key)))

    def _age(self) -> None:
        for row in self._rows:
            for i, value in enumerate(row):
                row[i] = value >> 1
        self._increments //= 2


@dataclasses.dataclass
class CacheEntry:
    """One resident value: fingerprint key, payload, byte cost, ages."""

    fingerprint: FrameFingerprint
    value: object
    size_bytes: float
    inserted_at: float
    last_access_at: float
    #: Monotone insertion sequence — the deterministic LRU/FIFO tie-break.
    sequence: int
    hits: int = 0
    #: Live reservation when the store charges a memory pool.
    allocation: object | None = None


class EvictionPolicy(abc.ABC):
    """Chooses which resident entry to displace when space is needed."""

    name = "abstract"

    @abc.abstractmethod
    def victim(self, entries: Collection[CacheEntry]) -> CacheEntry:
        """The entry to evict (``entries`` is non-empty, in insertion
        order)."""


class LRUEviction(EvictionPolicy):
    """Evict the least recently *used* entry (access-ordered)."""

    name = "lru"

    def victim(self, entries: Collection[CacheEntry]) -> CacheEntry:
        """Oldest ``last_access_at`` wins; insertion order breaks ties."""
        return min(entries, key=lambda e: (e.last_access_at, e.sequence))


class FIFOEviction(EvictionPolicy):
    """Evict the oldest *inserted* entry regardless of access."""

    name = "fifo"

    def victim(self, entries: Collection[CacheEntry]) -> CacheEntry:
        """Lowest insertion sequence wins."""
        return min(entries, key=lambda e: e.sequence)


@dataclasses.dataclass
class CacheStats:
    """Monotone counters describing a store's lifetime behaviour."""

    hits: int = 0
    misses: int = 0
    #: Lookups that found a match past its TTL (also counted as misses).
    stale: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Insertions refused by the TinyLFU admission filter.
    admission_rejects: int = 0
    #: Insertions refused because the value exceeds the whole capacity.
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        """Total probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 before any probe)."""
        return self.hits / self.lookups if self.lookups else 0.0


class CacheStore:
    """A byte-bounded, content-aware store on the simulator clock.

    Parameters
    ----------
    capacity_bytes:
        Total payload budget; inserts evict until the candidate fits.
    clock:
        Virtual-time source (``lambda: sim.now``).
    match_threshold:
        Hamming budget for content-aware lookup (0 = exact fingerprints
        only).
    eviction:
        An :class:`EvictionPolicy`; defaults to LRU.
    ttl_seconds:
        Result freshness bound; a matching entry older than this counts
        as *stale*, is dropped, and the lookup misses (field results
        must be revalidated periodically — the scene may really have
        changed in ways the fingerprint quantizes away).
    admission:
        A :class:`FrequencySketch` enabling TinyLFU admission: every
        lookup trains the sketch, and an insert that needs an eviction
        only proceeds while the candidate is at least as hot as each
        victim.
    pool:
        Optional :class:`~repro.hardware.memory.MemoryPool`; resident
        entries hold live allocations in it, so the cache shows up in
        the unified-memory accounting next to engine and preprocessing
        buffers.
    """

    def __init__(self, capacity_bytes: float,
                 clock: Callable[[], float],
                 match_threshold: int = 0,
                 eviction: EvictionPolicy | None = None,
                 ttl_seconds: float | None = None,
                 admission: FrequencySketch | None = None,
                 pool=None, name: str = "cache"):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if match_threshold < 0:
            raise ValueError("match_threshold must be >= 0")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.capacity_bytes = float(capacity_bytes)
        self._clock = clock
        self.match_threshold = match_threshold
        self.eviction = eviction if eviction is not None else LRUEviction()
        self.ttl_seconds = ttl_seconds
        self.admission = admission
        self.pool = pool
        self.name = name
        self.stats = CacheStats()
        # Resident entries keyed by packed fingerprint, in insertion
        # (= sequence) order.  A near-duplicate insert drops its match
        # first, so each packed key is resident at most once.
        self._entries: dict[int, CacheEntry] = {}
        #: (hash_size, block_grid) shared by every resident entry.
        self._geometry: tuple[int, int] | None = None
        # Running Σ size_bytes; the int 0 of an empty sum when empty.
        self._used_bytes: float = 0
        self._sequence = itertools.count()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> float:
        """Bytes held by resident entries (a running total)."""
        return self._used_bytes

    def entries(self) -> list[CacheEntry]:
        """Snapshot of resident entries in insertion order."""
        return list(self._entries.values())

    # ------------------------------------------------------------------
    def _match(self, fp: FrameFingerprint) -> CacheEntry | None:
        """Closest resident entry within the threshold (ties: oldest).

        An exact key is the unique distance-0 entry, so it needs one
        dict lookup; otherwise one XOR-and-popcount per resident entry,
        in sequence order, keeps the first closest.
        """
        entries = self._entries
        if not entries:
            return None
        if (fp.hash_size, fp.block_grid) != self._geometry:
            # Raises the geometry error against a resident entry.
            fp.distance(next(iter(entries.values())).fingerprint)
        key = fp.packed
        found = entries.get(key)
        if found is not None or self.match_threshold == 0:
            return found
        best = self.match_threshold + 1
        for packed, entry in entries.items():
            distance = (key ^ packed).bit_count()
            if distance < best:
                best, found = distance, entry
        return found

    def _expired(self, entry: CacheEntry, now: float) -> bool:
        return (self.ttl_seconds is not None
                and now - entry.inserted_at > self.ttl_seconds)

    def _drop(self, entry: CacheEntry) -> None:
        del self._entries[entry.fingerprint.packed]
        self._used_bytes = (self._used_bytes - entry.size_bytes
                            if self._entries else 0)
        if entry.allocation is not None:
            self.pool.free(entry.allocation)
            entry.allocation = None

    def lookup(self, fp: FrameFingerprint) -> CacheEntry | None:
        """Probe for a frame; returns the hit entry or None.

        Trains the admission sketch, refreshes LRU recency on a hit,
        and retires (counting ``stale``) a matching entry past its TTL.
        """
        now = self._clock()
        if self.admission is not None:
            self.admission.increment(fp.packed)
        entry = self._match(fp)
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

    def peek(self, fp: FrameFingerprint) -> bool:
        """Whether a probe *would* hit right now (no state mutated)."""
        entry = self._match(fp)
        return entry is not None and not self._expired(entry,
                                                       self._clock())

    def insert(self, fp: FrameFingerprint, value: object,
               size_bytes: float) -> bool:
        """Make a value resident; returns whether it was admitted.

        A resident near-duplicate (the closest match within the
        threshold) is dropped first: the new value replaces it.  Then
        entries are evicted per the policy until the candidate fits.
        With TinyLFU admission the candidate must be at least as hot as
        every victim it displaces; the first hotter victim refuses the
        insert, but the drops already made stand: the replaced
        near-duplicate and every victim evicted before the refusal are
        gone.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        now = self._clock()
        if size_bytes > self.capacity_bytes:
            self.stats.uncacheable += 1
            return False
        existing = self._match(fp)
        if existing is not None:
            # Re-insert refreshes the value and the freshness clock.
            self._drop(existing)
        while self._used_bytes + size_bytes > self.capacity_bytes:
            victim = self.eviction.victim(self._entries.values())
            if (self.admission is not None
                    and self.admission.estimate(fp.packed)
                    < self.admission.estimate(
                        victim.fingerprint.packed)):
                self.stats.admission_rejects += 1
                return False
            self._drop(victim)
            self.stats.evictions += 1
        allocation = None
        if self.pool is not None:
            if not self.pool.can_fit(size_bytes):
                # The pool is squeezed by non-cache tenants (engine,
                # preprocessing buffers): shed cache entries first, and
                # give up gracefully if the cache alone cannot help.
                while self._entries and not self.pool.can_fit(size_bytes):
                    self._drop(self.eviction.victim(
                        self._entries.values()))
                    self.stats.evictions += 1
                if not self.pool.can_fit(size_bytes):
                    self.stats.uncacheable += 1
                    return False
            allocation = self.pool.allocate(size_bytes,
                                            tag=f"cache:{self.name}")
        entry = CacheEntry(
            fingerprint=fp, value=value, size_bytes=float(size_bytes),
            inserted_at=now, last_access_at=now,
            sequence=next(self._sequence), allocation=allocation)
        self._entries[fp.packed] = entry
        self._geometry = (fp.hash_size, fp.block_grid)
        self._used_bytes += entry.size_bytes
        self.stats.insertions += 1
        return True

    def expire(self) -> int:
        """Drop every TTL-expired entry now; returns how many went."""
        if self.ttl_seconds is None:
            return 0
        now = self._clock()
        expired = [e for e in self._entries.values()
                   if self._expired(e, now)]
        for entry in expired:
            self._drop(entry)
        self.stats.evictions += len(expired)
        return len(expired)

    def clear(self) -> None:
        """Drop every resident entry (stats are kept)."""
        for entry in list(self._entries.values()):
            self._drop(entry)

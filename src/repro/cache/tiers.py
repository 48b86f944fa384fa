"""The two-tier cache hierarchy across the compute continuum.

The paper's CRSA raw-camera scenario pays three costs per frame — edge
preprocessing, uplink transfer, cloud preprocessing + inference — and a
fixed-mount camera repeats frames so aggressively that most of that
spend re-derives an answer the system already produced.  Two tiers
attack different stages:

* **edge result cache** (``edge_result``): fingerprint-keyed inference
  *results* held on the field device.  A hit short-circuits everything —
  edge preprocessing, the uplink, the whole cloud serving path — and
  answers locally in the lookup time.
* **cloud preprocessed-tensor cache** (``cloud_tensor``): the
  preprocessing backend's *output tensors* held next to the engine.  A
  hit skips the preprocess stage (CRSA's CPU-bound perspective warp,
  the Fig. 7 outlier) and enqueues straight into inference.

:class:`CacheTier` wraps a :class:`~repro.cache.store.CacheStore` with
per-tier accounting, registry metrics (``cache_requests_total`` by
tier/outcome, ``cache_bytes``/``cache_entries`` gauges), and trace
instants (``cache_lookup``); :class:`CacheHierarchy` bundles the tiers
behind the names the serving and continuum layers look up.
"""

from __future__ import annotations

from repro.cache.keys import FrameFingerprint
from repro.cache.store import CacheStore
from repro.serving.observability import ensure_registry

#: Canonical tier names the integration points address.
EDGE_RESULT = "edge_result"
CLOUD_TENSOR = "cloud_tensor"


class CacheTier:
    """One named tier: a store plus observability.

    ``stage`` names the pipeline stage a hit short-circuits (shown in
    reports); ``registry`` (a
    :class:`~repro.serving.observability.MetricsRegistry`, or a private
    one when None) receives the tier's counters and gauges so a
    Prometheus scrape carries live hit-ratio and residency data.
    """

    def __init__(self, name: str, store: CacheStore, stage: str,
                 registry=None):
        self.name = name
        self.store = store
        self.stage = stage
        registry = ensure_registry(registry)
        # The tier label is fixed for the object's lifetime, so bind the
        # handles once; per-lookup updates then skip label-key
        # construction entirely.
        requests = registry.counter(
            "cache_requests_total", "Cache lookups by tier and outcome.")
        self._c_requests = {
            outcome: requests.labels(tier=name, outcome=outcome)
            for outcome in ("hit", "stale", "miss")}
        self._c_evictions = registry.counter(
            "cache_evictions_total",
            "Cache entries displaced, by tier.").labels(tier=name)
        self._g_bytes = registry.gauge(
            "cache_bytes",
            "Resident cache payload bytes per tier.").labels(tier=name)
        self._g_entries = registry.gauge(
            "cache_entries",
            "Resident cache entries per tier.").labels(tier=name)
        self._sync_gauges()

    # ------------------------------------------------------------------
    def _sync_gauges(self) -> None:
        self._g_bytes.set(self.store.used_bytes)
        self._g_entries.set(len(self.store))

    def lookup(self, fp: FrameFingerprint, trace=None,
               now: float | None = None) -> object | None:
        """Probe the tier; returns the cached value or None.

        Emits a ``cache_lookup`` trace instant (tier, outcome, distance
        config) when a :class:`~repro.serving.tracectx.TraceContext` is
        passed, and counts hit/miss/stale into the registry.
        """
        stale_before = self.store.stats.stale
        entry = self.store.lookup(fp)
        if entry is not None:
            outcome = "hit"
        elif self.store.stats.stale > stale_before:
            outcome = "stale"
        else:
            outcome = "miss"
        self._c_requests[outcome].inc()
        self._sync_gauges()
        if trace is not None and now is not None:
            trace.instant("cache_lookup", now, category="cache",
                          tier=self.name, outcome=outcome,
                          threshold=self.store.match_threshold)
        return entry.value if entry is not None else None

    def insert(self, fp: FrameFingerprint, value: object,
               size_bytes: float) -> bool:
        """Insert into the tier's store; mirrors gauges and evictions."""
        evicted_before = self.store.stats.evictions
        admitted = self.store.insert(fp, value, size_bytes)
        newly_evicted = self.store.stats.evictions - evicted_before
        if newly_evicted:
            self._c_evictions.inc(newly_evicted)
        self._sync_gauges()
        return admitted

    def peek(self, fp: FrameFingerprint) -> bool:
        """Non-mutating hit test (no stats, no recency refresh)."""
        return self.store.peek(fp)

    @property
    def hit_ratio(self) -> float:
        """Lifetime hit ratio of the tier."""
        return self.store.stats.hit_ratio

    def summary(self) -> dict:
        """One report row: counts, ratio, and residency for this tier."""
        stats = self.store.stats
        return {
            "tier": self.name,
            "stage": self.stage,
            "lookups": stats.lookups,
            "hits": stats.hits,
            "misses": stats.misses,
            "stale": stats.stale,
            "hit_ratio": stats.hit_ratio,
            "evictions": stats.evictions,
            "admission_rejects": stats.admission_rejects,
            "entries": len(self.store),
            "used_bytes": self.store.used_bytes,
            "capacity_bytes": self.store.capacity_bytes,
        }


class CacheHierarchy:
    """The continuum's cache tiers, addressed by canonical name.

    Either tier may be ``None`` (cache that stage disabled); every
    consumer treats a missing tier as a guaranteed miss, so a
    hierarchy-less and a tier-less configuration behave identically.
    """

    def __init__(self, edge: CacheTier | None = None,
                 cloud: CacheTier | None = None):
        self._tiers: dict[str, CacheTier] = {}
        if edge is not None:
            self._tiers[EDGE_RESULT] = edge
        if cloud is not None:
            self._tiers[CLOUD_TENSOR] = cloud

    @property
    def edge(self) -> CacheTier | None:
        """The edge result tier (None when disabled)."""
        return self._tiers.get(EDGE_RESULT)

    @property
    def cloud(self) -> CacheTier | None:
        """The cloud preprocessed-tensor tier (None when disabled)."""
        return self._tiers.get(CLOUD_TENSOR)

    def tier(self, name: str) -> CacheTier | None:
        """Look up a tier by canonical name (None when disabled)."""
        if name not in (EDGE_RESULT, CLOUD_TENSOR):
            raise KeyError(f"unknown cache tier {name!r}")
        return self._tiers.get(name)

    def lookup(self, name: str, fp: FrameFingerprint, trace=None,
               now: float | None = None) -> object | None:
        """Probe one tier (a missing tier is a silent miss)."""
        tier = self.tier(name)
        if tier is None or fp is None:
            return None
        return tier.lookup(fp, trace=trace, now=now)

    def insert(self, name: str, fp: FrameFingerprint, value: object,
               size_bytes: float) -> bool:
        """Insert into one tier (no-op False when the tier is off)."""
        tier = self.tier(name)
        if tier is None or fp is None:
            return False
        return tier.insert(fp, value, size_bytes)

    def peek(self, name: str, fp: FrameFingerprint) -> bool:
        """Non-mutating hit test against one tier."""
        tier = self.tier(name)
        return tier is not None and fp is not None and tier.peek(fp)

    def summaries(self) -> list[dict]:
        """Report rows for every enabled tier (edge first)."""
        order = (EDGE_RESULT, CLOUD_TENSOR)
        return [self._tiers[name].summary() for name in order
                if name in self._tiers]

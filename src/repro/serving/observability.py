"""Live observability for the serving substrate.

The paper's whole argument rests on measuring *where* serving time goes
(queue delay vs. batch execution vs. preprocessing, Figs. 6-8), and
"Beyond Inference" (arXiv:2403.12981) shows the server-side overheads —
queueing, batching, scheduling — routinely dominate DNN serving cost.
Summarizing completed responses after the fact (:mod:`repro.serving.
metrics`) cannot show a queue growing, an instance pool saturating, or a
rejection storm *while it happens*; this module can:

* :class:`MetricsRegistry` — a Prometheus-style registry of
  :class:`Counter`, :class:`Gauge`, and fixed-bucket :class:`Histogram`
  metrics; gauge updates are stamped on the simulator clock, and
  histogram exemplars carry their sim time;
* :class:`TimeSeriesSampler` — a periodic sampler the server drives on
  its own event loop, recording queue depth, queued images, busy/total
  instances and in-flight batches per model as a time series.

The server, batcher, and backend instances emit into the registry as
requests flow; :func:`repro.serving.exporter.export_registry` renders a
scrape, and :func:`repro.analysis.report.registry_stage_breakdown`
summarizes the per-stage histograms.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from collections.abc import Callable, Iterable

import numpy as np

#: Canonical label encoding: sorted (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]

#: Default latency buckets (seconds): 0.5 ms .. 30 s, roughly 1-2-5.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
)


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _frozen_clock() -> float:
    """Clock restored on unpickled metrics (no simulator to read).

    A metric that crossed a process boundary (a sweep shard returning
    its registry to the parent) has no live simulator behind it.  A
    gauge's recorded ``last_updated`` stamps (and a histogram's
    exemplar stamps) are preserved, and any *further* gauge update or
    exemplar in the parent is stamped 0.0 — merge folds recorded
    state, it never re-observes.
    """
    return 0.0


class HandleCache(dict):
    """Bound handles resolved on first use: ``cache[key]`` calls
    ``bind(key)`` the first time a key is read and is a plain dict
    lookup after that."""

    __slots__ = ("_bind",)

    def __init__(self, bind: Callable):
        super().__init__()
        self._bind = bind

    def __missing__(self, key):
        value = self[key] = self._bind(key)
        return value


class Metric:
    """Base class for one named metric family (all label sets)."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 clock: Callable[[], float]):
        self.name = name
        self.help = help
        self._clock = clock
        #: Bound per-label-set handles, keyed like the value stores.
        self._children = HandleCache(self._make_child)

    def labels(self, **labels: str):
        """A handle bound to one label set (the steady-state fast path).

        Instrumenting code resolves the handle once — at construction,
        when the label values are known — and each subsequent update is
        a direct store into the family's value dict: no kwargs
        packing, no per-call sort, no key tuple allocation.  Handles
        write through to the parent family, so exports and reads stay
        byte-identical to the keyword-argument path.
        """
        return self._children[_label_key(labels)]

    def _make_child(self, key: LabelKey):
        raise NotImplementedError(
            f"{self.kind} metrics do not support bound handles")

    def label_sets(self) -> list[LabelKey]:
        """Every label set this metric has been updated with."""
        raise NotImplementedError

    def _merge_help(self, other: "Metric") -> None:
        if not self.help and other.help:
            self.help = other.help

    def _check_mergeable(self, other: "Metric") -> None:
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge {getattr(other, 'kind', type(other))} "
                f"metric into {self.kind} metric {self.name!r}")
        if other.name != self.name:
            raise ValueError(
                f"cannot merge metric {other.name!r} into {self.name!r}")

    # Registries (and the metrics inside them) cross process boundaries
    # when a sweep shard returns its results to the parent.  Bound
    # handles and the clock both hold references into the shard's live
    # simulator, so neither survives the trip: handles are re-resolved
    # lazily on the other side, and the clock freezes (see
    # :func:`_frozen_clock`).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_clock"] = None
        del state["_children"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._children = HandleCache(self._make_child)
        if self._clock is None:
            self._clock = _frozen_clock


class BoundCounter:
    """A :class:`Counter` handle pre-bound to one label set."""

    __slots__ = ("_values", "_key", "name")

    def __init__(self, parent: "Counter", key: LabelKey):
        self._values = parent._values
        self._key = key
        self.name = parent.name

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the bound series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        values, key = self._values, self._key
        values[key] = values.get(key, 0.0) + amount

    def value(self) -> float:
        """Current value of the bound series (0 if never set)."""
        return self._values.get(self._key, 0.0)


class BoundGauge:
    """A :class:`Gauge` handle pre-bound to one label set."""

    __slots__ = ("_values", "_last", "_clock", "_key", "name")

    def __init__(self, parent: "Gauge", key: LabelKey):
        self._values = parent._values
        self._last = parent.last_updated
        self._clock = parent._clock
        self._key = key
        self.name = parent.name

    def set(self, value: float) -> None:
        """Set the bound series to ``value``."""
        self._values[self._key] = float(value)
        self._last[self._key] = self._clock()

    def add(self, amount: float) -> None:
        """Adjust the bound series by ``amount`` (either sign)."""
        values, key = self._values, self._key
        values[key] = values.get(key, 0.0) + amount
        self._last[key] = self._clock()

    def value(self) -> float:
        """Current value of the bound series (0 if never set)."""
        return self._values.get(self._key, 0.0)


class BoundHistogram:
    """A :class:`Histogram` handle pre-bound to one label set.

    The series record is resolved lazily on first observation so a
    handle that never observes leaves no empty series in the scrape
    (exactly the keyword-path behaviour).
    """

    __slots__ = ("_parent", "_key", "_series", "_bounds", "_clock",
                 "name")

    def __init__(self, parent: "Histogram", key: LabelKey):
        self._parent = parent
        self._key = key
        self._series: _HistogramSeries | None = parent._series.get(key)
        self._bounds = parent.buckets
        self._clock = parent._clock
        self.name = parent.name

    def observe(self, value: float, trace_id: str | None = None) -> None:
        """Record one observation into the bound series.

        ``trace_id`` attaches an OpenMetrics exemplar — the
        ``(value, trace_id, sim_time)`` witness for the bucket the
        observation lands in (last observation wins, which is
        deterministic under the sim clock) — when the family has
        exemplars enabled; it is ignored otherwise.
        """
        series = self._series
        if series is None:
            series = self._series = self._parent._ensure_series(self._key)
        index = bisect_left(self._bounds, value)
        series.bucket_counts[index] += 1
        series.sum += value
        series.count += 1
        if trace_id is not None and self._parent._exemplars_enabled:
            exemplars = series.exemplars
            if exemplars is None:
                exemplars = series.exemplars = {}
            exemplars[index] = (value, str(trace_id), self._clock())

    def observe_many(self, values) -> None:
        """Record a whole array of observations in one vectorized pass.

        The bulk ingestion path for the hybrid fluid engine: a
        saturated stretch produces its latency samples as one ndarray,
        and folding them in one value at a time would cost a Python
        bisect per sample.  ``searchsorted`` + ``bincount`` reproduce
        the scalar path's bucketing exactly.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        series = self._series
        if series is None:
            series = self._series = self._parent._ensure_series(self._key)
        counts = np.bincount(
            np.searchsorted(self._bounds, values, side="left"),
            minlength=len(self._bounds) + 1)
        bucket_counts = series.bucket_counts
        for index, count in enumerate(counts):
            if count:
                bucket_counts[index] += int(count)
        series.sum += float(values.sum())
        series.count += int(values.size)


class Counter(Metric):
    """A monotonically increasing value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str,
                 clock: Callable[[], float]):
        super().__init__(name, help, clock)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        self.labels(**labels).inc(amount)

    def _make_child(self, key: LabelKey) -> BoundCounter:
        return BoundCounter(self, key)

    def merge(self, other: "Counter") -> "Counter":
        """Fold another shard's counter into this one (sum per series).

        Addition is commutative and associative, so any merge order
        over a set of shards produces the same totals — the property
        the sweep engine's byte-identical-scrape contract rests on.
        """
        self._check_mergeable(other)
        values = self._values
        for key, value in other._values.items():
            values[key] = values.get(key, 0.0) + value
        self._merge_help(other)
        return self

    def label_sets(self) -> list[LabelKey]:
        return sorted(self._values)

    def value(self, **labels: str) -> float:
        """Current value of the labelled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def items(self) -> list[tuple[LabelKey, float]]:
        """(labels, value) pairs in sorted label order."""
        return sorted(self._values.items())


class Gauge(Metric):
    """A value that can go up and down per label set.

    Gauges are the only metrics stamped on the clock: a point-in-time
    reading needs its time for :meth:`merge` to keep the freshest one,
    while counters and histograms merge by summing.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str,
                 clock: Callable[[], float]):
        super().__init__(name, help, clock)
        self._values: dict[LabelKey, float] = {}
        #: Simulator time of the most recent update per label set.
        self.last_updated: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled series to ``value``."""
        self.labels(**labels).set(value)

    def add(self, amount: float, **labels: str) -> None:
        """Adjust the labelled series by ``amount`` (either sign)."""
        self.labels(**labels).add(amount)

    def _make_child(self, key: LabelKey) -> BoundGauge:
        return BoundGauge(self, key)

    def merge(self, other: "Gauge") -> "Gauge":
        """Fold another shard's gauge into this one (freshest wins).

        A gauge is a point-in-time reading, so the series with the
        later ``last_updated`` sim-time stamp survives.  An exact tie
        (two shards sampling the same label set at the same virtual
        time) keeps the larger value — an arbitrary but commutative
        rule, so the merged scrape is independent of merge order.
        """
        self._check_mergeable(other)
        values = self._values
        stamps = self.last_updated
        for key, value in other._values.items():
            theirs = other.last_updated.get(key, float("-inf"))
            ours = stamps.get(key, float("-inf"))
            if key not in values or theirs > ours or (
                    theirs == ours and value > values[key]):
                values[key] = value
        self._merge_freshness(other)
        self._merge_help(other)
        return self

    def _merge_freshness(self, other: "Gauge") -> None:
        """Fold ``other``'s freshness stamps (per-key max) into ours."""
        mine = self.last_updated
        for key, stamp in other.last_updated.items():
            if stamp > mine.get(key, float("-inf")):
                mine[key] = stamp

    def label_sets(self) -> list[LabelKey]:
        return sorted(self._values)

    def value(self, **labels: str) -> float:
        """Current value of the labelled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def remove(self, **labels: str) -> bool:
        """Drop the labelled series entirely (returns whether it existed).

        Prometheus client libraries expose exactly this for gauges whose
        label dimension tracks live objects (a model that was unloaded,
        a replica that was released): a stale series must leave the
        scrape, not linger at its last value.
        """
        key = _label_key(labels)
        existed = self._values.pop(key, None) is not None
        self.last_updated.pop(key, None)
        return existed

    def items(self) -> list[tuple[LabelKey, float]]:
        """(labels, value) pairs in sorted label order."""
        return sorted(self._values.items())


@dataclasses.dataclass
class _HistogramSeries:
    """Bucket counts + sum + count for one label set.

    ``exemplars`` maps a bucket index to the most recent
    ``(value, trace_id, sim_time)`` observation that carried a trace
    id — the OpenMetrics exemplar for that bucket.  It stays ``None``
    until the family opts in via :meth:`Histogram.enable_exemplars`,
    so plain histograms pay nothing.
    """

    bucket_counts: list[int]
    sum: float = 0.0
    count: int = 0
    exemplars: dict[int, tuple[float, str, float]] | None = None


class Histogram(Metric):
    """Fixed-bucket distribution per label set (Prometheus semantics).

    Buckets are upper bounds; observation counts are kept per bucket
    (non-cumulative internally, rendered cumulatively with a final
    ``+Inf`` bucket by the exporter).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 clock: Callable[[], float],
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, clock)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")
        if any(b <= 0 for b in self.buckets):
            raise ValueError("bucket bounds must be positive")
        self._series: dict[LabelKey, _HistogramSeries] = {}
        self._exemplars_enabled = False

    def enable_exemplars(self) -> "Histogram":
        """Opt this family into per-bucket exemplar recording.

        After enabling, ``observe(value, trace_id=...)`` stores the
        ``(value, trace_id, sim_time)`` witness for the bucket hit and
        the exporter renders it in OpenMetrics ``# {trace_id="..."}``
        syntax.  Off by default so the scrape of an unrelated run
        stays byte-identical.
        """
        self._exemplars_enabled = True
        return self

    def _ensure_series(self, key: LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries([0] * (len(self.buckets) + 1))
            self._series[key] = series
        return series

    def observe(self, value: float, *, trace_id: str | None = None,
                **labels: str) -> None:
        """Record one observation into the labelled series.

        The bucket index comes from a binary search over the sorted
        bounds: ``bisect_left`` returns the first bound ``>= value``
        (Prometheus' ``le`` semantics) and the overflow ``+Inf`` bucket
        when the value exceeds every bound.  ``trace_id`` attaches an
        exemplar when the family has :meth:`enable_exemplars` on.
        """
        self.labels(**labels).observe(value, trace_id)

    def observe_many(self, values, **labels: str) -> None:
        """Vectorized batch ingestion into the labelled series (see
        :meth:`BoundHistogram.observe_many`)."""
        self.labels(**labels).observe_many(values)

    def _make_child(self, key: LabelKey) -> BoundHistogram:
        return BoundHistogram(self, key)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another shard's histogram into this one.

        Bucket counts, sums, and observation counts add per series —
        exactly what sequentially observing both shards' samples into
        one histogram would have produced, so quantiles derived from
        the merged buckets are *re-accumulated*, never averaged.  A
        bucket-layout mismatch raises ``ValueError``: adding counts
        across different bounds would silently corrupt every quantile.

        Exemplars keep the witness with the latest sim-time stamp per
        bucket (ties broken by value, then trace id — commutative, so
        merge order cannot change the scrape).
        """
        self._check_mergeable(other)
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name!r} bucket layouts conflict: "
                f"{self.buckets} vs {other.buckets}")
        for key, theirs in other._series.items():
            series = self._ensure_series(key)
            counts = series.bucket_counts
            for index, count in enumerate(theirs.bucket_counts):
                counts[index] += count
            series.sum += theirs.sum
            series.count += theirs.count
            if theirs.exemplars:
                exemplars = series.exemplars
                if exemplars is None:
                    exemplars = series.exemplars = {}
                for index, candidate in theirs.exemplars.items():
                    value, trace_id, stamp = candidate
                    incumbent = exemplars.get(index)
                    if incumbent is None or (
                            (stamp, value, trace_id) >
                            (incumbent[2], incumbent[0], incumbent[1])):
                        exemplars[index] = candidate
        self._exemplars_enabled = (self._exemplars_enabled
                                   or other._exemplars_enabled)
        self._merge_help(other)
        return self

    def label_sets(self) -> list[LabelKey]:
        return sorted(self._series)

    def count(self, **labels: str) -> int:
        """Observations recorded for the labelled series."""
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: str) -> float:
        """Sum of observations for the labelled series."""
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def mean(self, **labels: str) -> float:
        """Mean observation (0 when the series is empty)."""
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return 0.0
        return series.sum / series.count

    def cumulative_buckets(self, **labels: str) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs; bound inf is last."""
        series = self._series.get(_label_key(labels))
        counts = (series.bucket_counts if series is not None
                  else [0] * (len(self.buckets) + 1))
        out, running = [], 0
        for bound, count in zip((*self.buckets, float("inf")), counts):
            running += count
            out.append((bound, running))
        return out

    def items(self) -> list[tuple[LabelKey, _HistogramSeries]]:
        """(labels, series) pairs in sorted label order."""
        return sorted(self._series.items())


class MetricsRegistry:
    """A named collection of metrics sharing one clock.

    ``clock`` supplies the timestamp stamped on every gauge update and
    histogram exemplar — wire it to the simulator (``lambda: sim.now``)
    so gauge freshness lives on virtual time, exactly like a scraped
    production endpoint.  Counter and histogram updates never read
    it: they merge by summing, so they need no stamp.  Metric
    constructors are get-or-create: instrumenting code may re-request a
    metric by name and receives the existing instance (a kind mismatch
    is a programming error and raises).
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._metrics: dict[str, Metric] = {}

    @property
    def now(self) -> float:
        """Current clock reading (the simulator's virtual time)."""
        return self._clock()

    def _get_or_create(self, cls, name: str, help: str,
                       **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            return existing
        metric = cls(name, help, self._clock, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        """Get or create a fixed-bucket :class:`Histogram`.

        Re-requesting an existing histogram with a *different* bucket
        layout raises: silently returning the old layout would leave
        the caller observing into bounds it never asked for, skewing
        every quantile derived from the scrape.
        """
        requested = tuple(sorted(buckets))
        metric = self._get_or_create(Histogram, name, help,
                                     buckets=requested)
        if metric.buckets != requested:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{metric.buckets}, conflicting with requested "
                f"{requested}")
        return metric

    def get(self, name: str) -> Metric | None:
        """Look up a metric by name (None if absent)."""
        return self._metrics.get(name)

    def collect(self) -> list[Metric]:
        """Every registered metric, in name order (scrape order)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry (a sweep shard's) into this one.

        Per metric family: counters and histogram series add, gauges
        keep the freshest reading, histogram exemplars keep the latest
        witness — every rule commutative and associative, so folding N
        shard registries produces a byte-identical
        :func:`~repro.serving.exporter.export_registry` scrape
        regardless of merge order or worker count.  A kind mismatch or
        a histogram bucket-layout conflict raises ``ValueError`` (the
        shards were not measuring the same thing).

        Merging mutates and returns ``self``; ``other`` is not
        modified.  Fold shard registries into a fresh
        ``MetricsRegistry()`` to keep the originals intact (see
        :func:`repro.sweep.merge.merge_registries`).
        """
        for name in sorted(other._metrics):
            theirs = other._metrics[name]
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = self.histogram(name, theirs.help,
                                          buckets=theirs.buckets)
                elif isinstance(theirs, Counter):
                    mine = self.counter(name, theirs.help)
                elif isinstance(theirs, Gauge):
                    mine = self.gauge(name, theirs.help)
                else:
                    raise ValueError(
                        f"cannot merge unknown metric kind "
                        f"{theirs.kind!r} for {name!r}")
            mine.merge(theirs)
        return self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_clock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._clock is None:
            self._clock = _frozen_clock


def ensure_registry(registry: MetricsRegistry | None,
                    clock: Callable[[], float] | None = None,
                    ) -> MetricsRegistry:
    """``registry``, or a private one on ``clock`` when it is None, so
    a component built without a registry still records unconditionally
    (into one nobody scrapes)."""
    return registry if registry is not None else MetricsRegistry(clock)


# ----------------------------------------------------------------------
# Time-series sampling
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SamplePoint:
    """One sampler tick: the server's instantaneous state."""

    time: float
    #: Requests waiting per model queue.
    queue_depth: dict[str, int]
    #: Images waiting per model queue.
    queued_images: dict[str, int]
    #: Instances currently executing, per model.
    busy_instances: dict[str, int]
    #: Instance-group size per model (constant, kept for utilization).
    total_instances: dict[str, int]
    #: Batches executing right now (== busy instances: one batch each).
    inflight_batches: int

    @property
    def utilization(self) -> float:
        """Busy fraction of the whole instance pool at this instant."""
        total = sum(self.total_instances.values())
        if total == 0:
            return 0.0
        return sum(self.busy_instances.values()) / total


class TimeSeriesSampler:
    """Periodic sampling of a server's live state on the sim clock.

    ``start()`` schedules the first tick; each tick records a
    :class:`SamplePoint`, mirrors it into the registry's gauges, and
    re-arms itself while the simulation still has work pending — so the
    sampler never keeps an otherwise-finished simulation alive.
    """

    def __init__(self, server, interval: float = 0.05,
                 max_samples: int = 1_000_000):
        if not 0 < interval < float("inf"):  # NaN compares false too
            raise ValueError("sampling interval must be positive and "
                             "finite")
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.server = server
        self.interval = interval
        self.max_samples = max_samples
        self.samples: list[SamplePoint] = []
        self._running = False
        #: Set (sticky) when the run hit ``max_samples`` — a capped
        #: time series is visibly capped, never silently short.
        self.truncated = False
        self._seen_models: set[str] = set()
        metrics = server.metrics
        self._gauges = tuple(metrics.gauge(name, help) for name, help in (
            ("queue_depth", "Requests waiting per model queue."),
            ("queued_images", "Images waiting per model queue."),
            ("busy_instances", "Instances currently executing per model."),
            ("total_instances", "Instance-group size per model.")))
        #: Bound per-model gauge handles, resolved once per model.
        self._model_handles = HandleCache(lambda model: tuple(
            gauge.labels(model=model) for gauge in self._gauges))
        self._g_inflight = metrics.gauge(
            "inflight_batches", "Batches executing right now.").labels()

    def start(self) -> None:
        """Begin sampling at the current virtual time."""
        if self._running:
            raise RuntimeError("sampler already started")
        self._running = True
        self.server.sim.schedule(0.0, self._tick, daemon=True)

    def stop(self) -> None:
        """Stop sampling after the current tick."""
        self._running = False

    def sample_now(self) -> SamplePoint:
        """Record one sample at the current virtual time."""
        server = self.server
        models = set(server.model_names())
        point = SamplePoint(
            time=server.sim.now,
            queue_depth={m: server.queue_depth(m) for m in models},
            queued_images={m: server.queued_images(m) for m in models},
            busy_instances={m: server.busy_instances(m)
                            for m in models},
            total_instances={m: server.total_instances(m)
                             for m in models},
            inflight_batches=server.inflight_batches(),
        )
        self.samples.append(point)
        for model in models:
            depth, images, busy, total = self._model_handles[model]
            depth.set(point.queue_depth[model])
            images.set(point.queued_images[model])
            busy.set(point.busy_instances[model])
            total.set(point.total_instances[model])
        self._g_inflight.set(point.inflight_batches)
        # A model unloaded since the last tick must leave the scrape:
        # its gauges would otherwise report the pre-unload values
        # forever (a stale series, the classic unload bug).
        for model in self._seen_models - models:
            self._model_handles.pop(model, None)
            for gauge in self._gauges:
                gauge.remove(model=model)
        self._seen_models = models
        return point

    def _tick(self) -> None:
        if not self._running:
            return
        self.sample_now()
        if len(self.samples) >= self.max_samples:
            self._running = False
            if not self.truncated:
                self.truncated = True
                # Created lazily at first truncation so the scrape of
                # an uncapped run is byte-identical to before this
                # counter existed.
                self.server.metrics.counter(
                    "sampler_truncated_total",
                    "Sampler runs stopped early by max_samples.",
                ).inc()
            return
        # Re-arm only while workload events are pending: a heap holding
        # nothing but control-loop daemon ticks means the run is over
        # and the sampler must not prolong it.
        if self.server.sim.peek_foreground_time() is not None:
            self.server.sim.schedule(self.interval, self._tick,
                                     daemon=True)
        else:
            self._running = False

    # ------------------------------------------------------------------
    def series(self, field: str, model: str | None = None,
               ) -> tuple[list[float], list[float]]:
        """Extract one (times, values) series from the samples.

        ``field`` is a :class:`SamplePoint` attribute; per-model fields
        need ``model`` (or aggregate across models when omitted).
        """
        times, values = [], []
        for point in self.samples:
            raw = getattr(point, field)
            if isinstance(raw, dict):
                value = (raw[model] if model is not None
                         else sum(raw.values()))
            else:
                value = raw
            times.append(point.time)
            values.append(float(value))
        return times, values

    def render_timeline(self, width: int = 48) -> str:
        """ASCII time series: queue depth + utilization per tick."""
        if width < 10:
            raise ValueError("width must be >= 10")
        if not self.samples:
            return "(no samples)\n"
        _, depths = self.series("queue_depth")
        peak = max(max(depths), 1.0)
        lines = [f"{'t (s)':>8s}  {'queue':>5s}  {'busy':>4s}  "
                 f"{'util':>5s}  depth"]
        for point, depth in zip(self.samples, depths):
            bar = "#" * int(round(depth / peak * width))
            busy = sum(point.busy_instances.values())
            lines.append(
                f"{point.time:8.3f}  {int(depth):5d}  {busy:4d}  "
                f"{point.utilization:5.0%}  {bar}")
        return "\n".join(lines) + "\n"

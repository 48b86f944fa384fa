"""Merge-determinism tests: registries and summaries.

The sweep engine's contract is that merged output is byte-identical
regardless of worker count, completion order, or merge order.  These
tests attack each reduction from that angle: shuffle the fold order,
vary the pool size, and compare scrapes and tables byte for byte.
"""

import pickle
import random

import pytest

from repro.serving.exporter import export_registry
from repro.serving.observability import MetricsRegistry
from repro.sweep import (
    BucketSummary,
    SweepRunner,
    SweepSpec,
    merge_registries,
    merge_summaries,
    normal_ci,
)


def _registry(clock_value=0.0):
    return MetricsRegistry(clock=lambda: clock_value)


class TestCounterMerge:
    def test_sums_per_label_set(self):
        a, b = _registry(), _registry()
        a.counter("req_total", "h").inc(3.0, model="vit")
        b.counter("req_total", "h").inc(4.0, model="vit")
        b.counter("req_total", "h").inc(2.0, model="resnet")
        merged = a._metrics["req_total"].merge(b._metrics["req_total"])
        assert merged.value(model="vit") == 7.0
        assert merged.value(model="resnet") == 2.0

    def test_type_and_name_mismatch_raise(self):
        a, b = _registry(), _registry()
        counter = a.counter("x_total", "h")
        with pytest.raises(ValueError):
            counter.merge(b.gauge("x_total", "h"))
        with pytest.raises(ValueError):
            counter.merge(b.counter("y_total", "h"))


class TestGaugeMerge:
    def test_freshest_reading_wins(self):
        early, late = _registry(1.0), _registry(5.0)
        early.gauge("depth", "h").set(10.0, stage="infer")
        late.gauge("depth", "h").set(3.0, stage="infer")
        forward = _registry()._metrics  # noqa: F841 - explicit merges below
        a = early._metrics["depth"]
        b = late._metrics["depth"]
        assert a.merge(b).value(stage="infer") == 3.0

    def test_tie_keeps_larger_value_commutatively(self):
        a, b = _registry(2.0), _registry(2.0)
        a.gauge("depth", "h").set(1.0)
        b.gauge("depth", "h").set(9.0)
        merged_ab = a._metrics["depth"].merge(b._metrics["depth"])
        c, d = _registry(2.0), _registry(2.0)
        c.gauge("depth", "h").set(9.0)
        d.gauge("depth", "h").set(1.0)
        merged_cd = c._metrics["depth"].merge(d._metrics["depth"])
        assert merged_ab.value() == merged_cd.value() == 9.0


class TestHistogramMerge:
    def test_counts_sum_and_count_add(self):
        a, b = _registry(), _registry()
        ha = a.histogram("lat_seconds", "h", buckets=(0.1, 1.0))
        hb = b.histogram("lat_seconds", "h", buckets=(0.1, 1.0))
        ha.observe(0.05, model="m")
        hb.observe(0.5, model="m")
        hb.observe(5.0, model="m")
        ha.merge(hb)
        series = ha._series[(("model", "m"),)]
        assert series.bucket_counts == [1, 1, 1]
        assert series.count == 3
        assert series.sum == pytest.approx(5.55)

    def test_bucket_layout_conflict_raises(self):
        a, b = _registry(), _registry()
        ha = a.histogram("lat_seconds", "h", buckets=(0.1, 1.0))
        hb = b.histogram("lat_seconds", "h", buckets=(0.1, 2.0))
        with pytest.raises(ValueError, match="bucket layouts conflict"):
            ha.merge(hb)

    def test_exemplar_latest_sim_time_wins(self):
        a, b = _registry(1.0), _registry(9.0)
        ha = a.histogram("lat_seconds", "h").enable_exemplars()
        hb = b.histogram("lat_seconds", "h").enable_exemplars()
        ha.observe(0.003, trace_id="old")
        hb.observe(0.004, trace_id="new")  # same bucket, later stamp
        ha.merge(hb)
        series = next(iter(ha._series.values()))
        (value, trace_id, stamp), = series.exemplars.values()
        assert trace_id == "new" and stamp == 9.0


class TestRegistryMerge:
    @staticmethod
    def _shard_registry(seed):
        registry = _registry(float(seed))
        registry.counter("req_total", "req").inc(seed + 1, model="vit")
        registry.gauge("depth", "depth").set(seed * 2.0)
        registry.histogram("lat_seconds", "lat").observe(
            0.01 * (seed + 1), model="vit")
        return registry

    def test_scrape_independent_of_merge_order(self):
        registries = [self._shard_registry(s) for s in range(6)]
        scrapes = set()
        for ordering_seed in range(5):
            shuffled = list(registries)
            random.Random(ordering_seed).shuffle(shuffled)
            scrapes.add(export_registry(merge_registries(shuffled)))
        assert len(scrapes) == 1

    def test_merge_creates_missing_metrics_with_their_buckets(self):
        target = MetricsRegistry()
        source = _registry()
        source.histogram("lat_seconds", "lat",
                         buckets=(0.5, 2.0)).observe(1.0)
        target.merge(source)
        assert target._metrics["lat_seconds"].buckets == (0.5, 2.0)
        # and the source registry is untouched by the fold
        assert source._metrics["lat_seconds"]._series

    def test_registry_survives_pickling_without_its_clock(self):
        registry = self._shard_registry(3)
        clone = pickle.loads(pickle.dumps(registry))
        assert (export_registry(clone) == export_registry(registry))


class TestBucketSummary:
    def test_quantiles_reaccumulate_rather_than_average(self):
        # Two skewed shards: averaging their p95s would be ~5.05; the
        # re-accumulated p95 of the union is in the tail bucket.
        fast = BucketSummary.from_values([0.01] * 95 + [0.1] * 5,
                                         bounds=(0.05, 1.0, 20.0))
        slow = BucketSummary.from_values([10.0] * 100,
                                         bounds=(0.05, 1.0, 20.0))
        merged = merge_summaries([fast, slow])
        assert merged.count == 200
        assert merged.quantile(0.95) == 10.0  # clamped to observed max
        assert merged.quantile(0.25) == 0.05
        assert merged.mean == pytest.approx((0.01 * 95 + 0.1 * 5
                                             + 10.0 * 100) / 200)

    def test_merge_order_cannot_change_counts_or_quantiles(self):
        # Counts and bucket-walk quantiles are exactly order-free;
        # float sums (the mean) are only order-free to the ULP, which
        # is why the engine always folds in shard-index order.
        shards = [BucketSummary.from_values([0.001 * i, 0.02 * i])
                  for i in range(1, 6)]
        reference = merge_summaries(shards).as_dict()
        shuffled = list(shards)
        random.Random(3).shuffle(shuffled)
        redone = merge_summaries(shuffled).as_dict()
        for key in ("count", "min", "max", "p50", "p95", "p99"):
            assert redone[key] == reference[key]
        assert redone["mean"] == pytest.approx(reference["mean"],
                                               rel=1e-12)

    def test_bounds_conflict_raises(self):
        a = BucketSummary.from_values([1.0], bounds=(0.5, 2.0))
        b = BucketSummary.from_values([1.0], bounds=(0.5, 3.0))
        with pytest.raises(ValueError, match="layouts conflict"):
            a.merge(b)
        with pytest.raises(ValueError):
            merge_summaries([])

    def test_empty_and_degenerate_cases(self):
        empty = BucketSummary.empty(bounds=(1.0,))
        assert empty.quantile(0.5) == 0.0 and empty.mean == 0.0
        assert empty.as_dict()["min"] == 0.0
        with pytest.raises(ValueError):
            empty.quantile(1.5)
        with pytest.raises(ValueError):
            BucketSummary.empty(bounds=())


class TestNormalCI:
    def test_known_interval(self):
        mean, half_width = normal_ci([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        # s = sqrt(5/3); hw = 1.96 * s / 2
        assert half_width == pytest.approx(1.9600 * (5 / 3) ** 0.5 / 2)

    def test_single_value_and_validation(self):
        assert normal_ci([7.0]) == (7.0, 0.0)
        with pytest.raises(ValueError):
            normal_ci([])
        with pytest.raises(ValueError):
            normal_ci([1.0, 2.0], confidence=0.8)

    def test_deterministic(self):
        values = [0.1 * i for i in range(10)]
        assert normal_ci(values) == normal_ci(values)


class TestEndToEndDeterminism:
    """The headline contract: worker count cannot change merged bytes."""

    SPEC = dict(worker="repro.sweep.workloads:replay_sparse_diurnal",
                base_params={"duration": 300.0, "peak_rate": 3.0},
                replications=3, base_seed=21)

    @staticmethod
    def _merged(jobs, shuffle_seed=None):
        result = SweepRunner(jobs=jobs).run(SweepSpec(
            **TestEndToEndDeterminism.SPEC))
        result.raise_on_error()
        values = result.values()
        if shuffle_seed is not None:
            values = list(values)
            random.Random(shuffle_seed).shuffle(values)
        scrape = export_registry(
            merge_registries(v["registry"] for v in values))
        table = merge_summaries(
            v["summary"] for v in values).as_dict()
        return scrape, table

    def test_byte_identical_across_worker_counts(self):
        reference = self._merged(1)
        for jobs in (2, 8):
            assert self._merged(jobs) == reference

    def test_byte_identical_under_shuffled_merge_order(self):
        reference = self._merged(1)
        assert self._merged(2, shuffle_seed=9) == reference

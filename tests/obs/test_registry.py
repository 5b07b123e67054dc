"""Registry instrument semantics and the snapshot merge algebra."""

import copy


import pytest

from repro.errors import GTMError
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    accumulate_snapshot,
)


class TestCounter:
    def test_inc_and_labels(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.5)
        counter.inc(3, label="x")
        assert counter.value() == 3.5
        assert counter.value("x") == 3.0
        assert counter.total() == 6.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(GTMError):
            counter.inc(-1)

    def test_snapshot_sorted_by_label(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(1, label="z")
        counter.inc(1, label="a")
        assert list(counter.snapshot()["series"]) == ["a", "z"]


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5, label="s0")
        gauge.set(2, label="s0")
        assert gauge.value("s0") == 2.0


class TestHistogram:
    def test_bucketing_and_stats(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # upper-inclusive edges + one overflow bucket
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.5)
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.mean() == pytest.approx(106.5 / 4)

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(GTMError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))

    def test_empty_mean_is_zero(self):
        assert Histogram("h").mean() == 0.0

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram("h", buckets=(10.0, 20.0, 40.0))
        for value in (2.0, 12.0, 14.0, 18.0, 38.0):
            hist.observe(value)
        # rank 3 of 5 lands in the (10, 20] bucket (3 entries); the
        # p50 rank is its 2nd entry -> 10 + 10 * (2/3)
        assert hist.quantile(0.5) == pytest.approx(10 + 10 * 2 / 3)
        # extremes clamp to the observed range, not bucket edges
        assert hist.quantile(0.0) == 2.0
        assert hist.quantile(1.0) == 38.0

    def test_quantile_edge_cases(self):
        hist = Histogram("h", buckets=(10.0,))
        assert hist.quantile(0.5) is None  # empty
        hist.observe(4.0)
        # a single observation reports itself despite the coarse bucket
        assert hist.quantile(0.5) == 4.0
        hist.observe(99.0)  # overflow bucket: only max is known
        assert hist.quantile(1.0) == 99.0
        with pytest.raises(GTMError):
            hist.quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(GTMError):
            registry.gauge("m")
        with pytest.raises(GTMError):
            registry.histogram("m")

    def test_snapshot_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        assert list(registry.snapshot()) == ["alpha", "zeta"]


def sample_snapshot(scale=1.0):
    registry = MetricsRegistry()
    registry.counter("ops").inc(10 * scale)
    registry.counter("ops").inc(2 * scale, label="x")
    registry.gauge("occ").set(3 * scale, label="shard0")
    hist = registry.histogram("lat", buckets=(1.0, 10.0))
    hist.observe(0.5 * scale)
    hist.observe(20.0 * scale)
    return registry.snapshot()


def merge_snapshots(left, right):
    """Two snapshots folded into a fresh accumulator."""
    merged = {}
    accumulate_snapshot(merged, left)
    accumulate_snapshot(merged, right)
    return merged


class TestMergeSnapshots:
    def test_counters_add_gauges_max_histograms_sum(self):
        merged = merge_snapshots(sample_snapshot(1.0), sample_snapshot(2.0))
        assert merged["ops"]["series"] == {"": 30.0, "x": 6.0}
        assert merged["occ"]["series"] == {"shard0": 6.0}
        assert merged["lat"]["count"] == 4
        assert merged["lat"]["counts"] == [2, 0, 2]
        assert merged["lat"]["min"] == 0.5
        assert merged["lat"]["max"] == 40.0

    def test_commutative(self):
        a, b = sample_snapshot(1.0), sample_snapshot(3.0)
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_disjoint_names_pass_through(self):
        merged = merge_snapshots(
            {"a": {"kind": "counter", "series": {"": 1.0}}},
            {"b": {"kind": "counter", "series": {"": 2.0}}})
        assert merged["a"]["series"] == {"": 1.0}
        assert merged["b"]["series"] == {"": 2.0}

    def test_inputs_untouched(self):
        a, b = sample_snapshot(), sample_snapshot()
        before = copy.deepcopy((a, b))
        merge_snapshots(a, b)
        assert (a, b) == before

    def test_kind_mismatch_raises(self):
        with pytest.raises(GTMError):
            merge_snapshots(
                {"m": {"kind": "counter", "series": {}}},
                {"m": {"kind": "gauge", "series": {}}})

    def test_bucket_mismatch_raises(self):
        left = MetricsRegistry()
        left.histogram("h", buckets=(1.0,)).observe(0.5)
        right = MetricsRegistry()
        right.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(GTMError):
            merge_snapshots(left.snapshot(), right.snapshot())


class TestAccumulateSnapshot:
    def test_first_fold_copies(self):
        source = sample_snapshot()
        acc = {}
        accumulate_snapshot(acc, source)
        acc["ops"]["series"][""] = 999.0
        assert source["ops"]["series"][""] == 10.0

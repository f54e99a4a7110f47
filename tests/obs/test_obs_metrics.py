"""Metric primitives: counters, gauges, histograms, families, registry.

The load-bearing contracts: histogram bucket *boundaries* (a value equal
to an upper bound must land in that bucket, Prometheus ``le`` semantics),
the label-cardinality guard (a runaway label set must fail loudly, not
eat the process), and registry idempotence (two modules asking for the
same family share it; asking with a different shape is an error).
"""

from __future__ import annotations

import math

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    get_registry,
)


class TestCounter:
    def test_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        c = Counter()
        with pytest.raises(ConfigurationError):
            c.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12.0


class TestHistogramBuckets:
    def test_value_on_boundary_lands_in_that_bucket(self):
        h = Histogram(buckets=(0.1, 0.5, 1.0))
        h.observe(0.1)
        h.observe(0.5)
        h.observe(1.0)
        snap = h.snapshot()
        # le="0.1" is cumulative >= 1: the 0.1 observation is <= 0.1.
        assert snap["buckets"]["0.1"] == 1
        assert snap["buckets"]["0.5"] == 1
        assert snap["buckets"]["1.0"] == 1
        assert snap["inf"] == 0

    def test_epsilon_above_boundary_spills_to_next_bucket(self):
        h = Histogram(buckets=(0.1, 0.5, 1.0))
        h.observe(0.1 + 1e-9)
        snap = h.snapshot()
        assert snap["buckets"]["0.1"] == 0
        assert snap["buckets"]["0.5"] == 1

    def test_overflow_goes_to_inf(self):
        h = Histogram(buckets=(0.1, 0.5))
        h.observe(7.0)
        snap = h.snapshot()
        assert snap["inf"] == 1
        assert snap["count"] == 1
        assert snap["sum"] == pytest.approx(7.0)

    def test_observe_with_count_equals_repeated_observes(self):
        batched = Histogram(buckets=(1, 2, 4))
        batched.observe(2, count=5)
        batched.observe(9, count=2)
        single = Histogram(buckets=(1, 2, 4))
        for v in [2] * 5 + [9] * 2:
            single.observe(v)
        assert batched.snapshot() == single.snapshot()
        assert batched.snapshot()["count"] == 7
        assert batched.snapshot()["sum"] == 28

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(0.5, 0.1))

    def test_quantiles_interpolate(self):
        h = Histogram(buckets=(0.1, 0.2, 0.4, 0.8, 1.6))
        for v in (0.05, 0.15, 0.3, 0.3, 0.3, 0.6, 0.6, 1.0, 1.2, 1.5):
            h.observe(v)
        # p50 falls inside the (0.2, 0.4] bucket.
        assert 0.2 < h.quantile(0.5) <= 0.4
        assert h.quantile(0.99) <= 1.6
        assert h.quantile(0.0) <= h.quantile(1.0)

    def test_quantile_of_empty_histogram_is_nan(self):
        h = Histogram(buckets=DEFAULT_BUCKETS)
        assert math.isnan(h.quantile(0.5))


class TestLabelCardinality:
    def test_label_sets_capped(self):
        reg = Registry()
        family = reg.counter(
            "runaway_total", "runaway", labelnames=("id",), max_label_sets=4
        )
        for i in range(4):
            family.labels(id=str(i)).inc()
        with pytest.raises(ConfigurationError, match="label sets"):
            family.labels(id="too-many")

    def test_existing_label_set_unaffected_by_cap(self):
        reg = Registry()
        family = reg.counter(
            "capped_total", "capped", labelnames=("id",), max_label_sets=2
        )
        family.labels(id="a").inc()
        family.labels(id="b").inc()
        # Re-touching known children is always allowed at the cap.
        family.labels(id="a").inc()
        assert family.labels(id="a").value == 2.0

    def test_unknown_labelname_rejected(self):
        reg = Registry()
        family = reg.counter("one_total", "one", labelnames=("stage",))
        with pytest.raises(ConfigurationError):
            family.labels(shard="0")

    def test_missing_labelname_rejected(self):
        reg = Registry()
        family = reg.counter(
            "two_total", "two", labelnames=("stage", "shard")
        )
        with pytest.raises(ConfigurationError):
            family.labels(stage="detect")


class TestRegistry:
    def test_getters_idempotent(self):
        reg = Registry()
        a = reg.counter("hits_total", "hits")
        b = reg.counter("hits_total", "hits")
        assert a is b

    def test_kind_mismatch_rejected(self):
        reg = Registry()
        reg.counter("thing", "thing")
        with pytest.raises(ConfigurationError):
            reg.gauge("thing", "thing")

    def test_labelnames_mismatch_rejected(self):
        reg = Registry()
        reg.counter("labeled_total", "labeled", labelnames=("a",))
        with pytest.raises(ConfigurationError):
            reg.counter("labeled_total", "labeled", labelnames=("b",))

    def test_unlabelled_family_proxies_to_sole_child(self):
        reg = Registry()
        counter = reg.counter("plain_total", "plain")
        counter.inc(3)
        gauge = reg.gauge("depth", "depth")
        gauge.set(7)
        hist = reg.histogram("lat", "lat", buckets=(1.0, 2.0))
        hist.observe(1.5)
        snap = reg.snapshot()
        assert snap["plain_total"]["samples"][0]["value"] == 3.0
        assert snap["depth"]["samples"][0]["value"] == 7.0
        assert snap["lat"]["samples"][0]["count"] == 1

    def test_snapshot_is_plain_data(self):
        reg = Registry()
        reg.counter("x_total", "x", labelnames=("k",)).labels(k="v").inc()
        snap = reg.snapshot()
        sample = snap["x_total"]["samples"][0]
        assert sample["labels"] == {"k": "v"}
        assert isinstance(sample["value"], float)

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()

"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import json

import pytest

from repro.obs import metrics as metrics_module
from repro.obs.catalogue import BLOCK_RATIO, BLOCKS_TOTAL, DEFAULT_RATIO_BUCKETS, REDUCING_SPEED
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _MetricFamily,
    get_registry,
    set_registry,
)
from tests.core.test_engine_equivalence import DECISION_PRESETS, _decision_trace


class TestCounter:
    def test_starts_at_zero(self):
        counter = Counter("c")
        assert counter.value() == 0.0

    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_labels_separate_series(self):
        counter = Counter("c")
        counter.inc(1, channel="a")
        counter.inc(2, channel="b")
        assert counter.value(channel="a") == 1
        assert counter.value(channel="b") == 2
        assert counter.total() == 3

    def test_label_order_is_canonical(self):
        counter = Counter("c")
        counter.inc(1, a="1", b="2")
        counter.inc(1, b="2", a="1")
        assert counter.value(a="1", b="2") == 2
        assert counter.series_count == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_cardinality_cap(self):
        counter = Counter("c", max_series=3)
        for i in range(3):
            counter.inc(key=str(i))
        with pytest.raises(ValueError, match="max_series"):
            counter.inc(key="overflow")
        # existing series still writable after the cap is hit
        counter.inc(key="0")
        assert counter.value(key="0") == 2


class TestGauge:
    def test_unset_returns_default(self):
        gauge = Gauge("g")
        assert gauge.value() is None
        assert gauge.value(default=1.5) == 1.5

    def test_set_and_overwrite(self):
        gauge = Gauge("g")
        gauge.set(2.0, codec="lz")
        gauge.set(3.0, codec="lz")
        assert gauge.value(codec="lz") == 3.0

    def test_has_and_remove(self):
        gauge = Gauge("g")
        gauge.set(1.0, codec="lz")
        assert gauge.has(codec="lz")
        gauge.remove(codec="lz")
        assert not gauge.has(codec="lz")
        gauge.remove(codec="lz")  # idempotent


class TestHistogram:
    def test_requires_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=[])

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=[1.0, 0.5])
        with pytest.raises(ValueError):
            Histogram("h", boundaries=[1.0, 1.0])

    def test_bucket_edges_are_upper_inclusive(self):
        hist = Histogram("h", boundaries=[1.0, 10.0])
        hist.observe(0.5)   # bucket 0 (<= 1.0)
        hist.observe(1.0)   # bucket 0 (edge is inclusive)
        hist.observe(5.0)   # bucket 1 (<= 10.0)
        hist.observe(50.0)  # overflow bucket
        snap = hist.snapshot()
        assert snap["counts"] == [2, 1, 1]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(56.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 50.0
        assert snap["mean"] == pytest.approx(56.5 / 4)

    def test_snapshot_none_for_unseen_labels(self):
        hist = Histogram("h", boundaries=[1.0])
        assert hist.snapshot(channel="x") is None

    def test_labelled_series_independent(self):
        hist = Histogram("h", boundaries=[1.0])
        hist.observe(0.5, method="lz")
        hist.observe(2.0, method="bw")
        assert hist.snapshot(method="lz")["counts"] == [1, 0]
        assert hist.snapshot(method="bw")["counts"] == [0, 1]

    def test_default_seconds_buckets_are_sorted(self):
        assert list(DEFAULT_SECONDS_BUCKETS) == sorted(DEFAULT_SECONDS_BUCKETS)


class TestMetricsRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c")
        second = registry.counter("c")
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_histogram_boundary_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=[1.0, 2.0])
        with pytest.raises(ValueError, match="different boundaries"):
            registry.histogram("h", boundaries=[1.0, 3.0])
        # identical boundaries are fine
        registry.histogram("h", boundaries=[1.0, 2.0])

    def test_family_is_built_from_its_catalogue_row_once(self):
        registry = MetricsRegistry()
        ratio = registry.family(BLOCK_RATIO)
        assert registry.family(BLOCK_RATIO) is ratio
        assert registry.histogram(BLOCK_RATIO.name, DEFAULT_RATIO_BUCKETS) is ratio
        assert (ratio.kind, ratio.help) == ("histogram", BLOCK_RATIO.help)
        assert ratio.boundaries == DEFAULT_RATIO_BUCKETS
        with pytest.raises(ValueError, match="already registered as histogram"):
            registry.counter(BLOCK_RATIO.name)

    def test_new_series_must_carry_the_rows_label_keys(self):
        blocks = MetricsRegistry().family(BLOCKS_TOTAL)
        blocks.inc(channel="feed", method="huffman")
        with pytest.raises(ValueError, match="'repro_blocks_total'.*'chanel' is unknown"):
            blocks.inc(chanel="feed", method="huffman")  # the typo that forked a series
        with pytest.raises(ValueError, match="'repro_blocks_total'.*'method' is missing"):
            blocks.inc(channel="feed")
        blocks.inc(channel="feed", method="huffman")  # existing series unaffected
        assert blocks.series_count == 1
        assert blocks.total() == 2

    def test_family_registered_by_bare_name_is_unconstrained(self):
        registry = MetricsRegistry()
        adhoc = registry.counter(BLOCKS_TOTAL.name)
        adhoc.inc(anything="goes")
        assert registry.family(BLOCKS_TOTAL) is adhoc
        assert adhoc.value(anything="goes") == 1

    def test_as_dict_and_json_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c", help="a counter").inc(2, channel="a")
        registry.gauge("g").set(1.5)
        registry.histogram("h", boundaries=[1.0]).observe(0.5)
        parsed = json.loads(registry.to_json())
        assert parsed["c"]["kind"] == "counter"
        assert parsed["c"]["series"][0]["labels"] == {"channel": "a"}
        assert parsed["c"]["series"][0]["value"] == 2
        assert parsed["g"]["series"][0]["value"] == 1.5
        assert parsed["h"]["series"][0]["counts"] == [1, 0]

    def test_names_and_contains(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert registry.names() == ["a", "b"]
        assert "a" in registry
        assert "z" not in registry

    def test_default_registry_swap(self):
        replacement = MetricsRegistry()
        previous = set_registry(replacement)
        try:
            assert get_registry() is replacement
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestLabelResolution:
    """A label set already seen resolves to its key by one lookup on the
    call's own pairs; what a series is, and what may become one, is unchanged."""

    def test_any_kwarg_order_lands_on_one_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h", boundaries=[1.0])
        for order in ("ab", "ba", "ab"):
            labels = {key: {"a": "1", "b": "2"}[key] for key in order}
            counter.inc(**labels)
            gauge.add(1.0, **labels)
            histogram.observe(0.5, **labels)
        for labels in ({"a": "1", "b": "2"}, {"b": "2", "a": "1"}):
            assert counter.value(**labels) == gauge.value(**labels) == 3
            assert histogram.snapshot(**labels)["count"] == 3
        assert counter.series_count == gauge.series_count == histogram.series_count == 1

    def test_values_that_stringify_alike_share_a_series(self):
        counter = Counter("c")
        counter.inc(codec="1")
        counter.inc(codec=1)
        counter.inc(codec="1")
        assert counter.value(codec=1) == counter.value(codec="1") == 3
        assert counter.series_count == 1

    def test_values_that_compare_equal_but_stringify_apart_do_not(self):
        """``1 == 1.0 == True`` share a hash; their series are "1", "1.0", "True"."""
        counter = Counter("c")
        for value in ("1", 1, 1.0, True, 1, "1"):
            counter.inc(codec=value)
        assert counter.labelsets() == [{"codec": "1"}, {"codec": "1.0"}, {"codec": "True"}]
        assert [counter.value(codec=v) for v in ("1", 1.0, True)] == [4, 1, 1]

    def test_new_label_sets_are_still_validated_after_reads_and_writes(self):
        speeds = MetricsRegistry().family(REDUCING_SPEED)
        speeds.set(1.0, codec="huffman")
        assert speeds.value(codac="huffman") is None  # a read never validates or creates
        with pytest.raises(ValueError, match="'codac' is unknown"):
            speeds.set(2.0, codac="huffman")
        with pytest.raises(ValueError, match="'codec' is missing"):
            speeds.set(2.0)
        assert speeds.labelsets() == [{"codec": "huffman"}]

    def test_max_series_holds_after_warm_reads(self):
        counter = Counter("c", max_series=3)
        for i in range(10):
            assert counter.value(key=str(i)) == 0.0
        assert len(counter._keys) <= 2 * counter.max_series  # the memo is bounded
        for i in range(3):
            counter.inc(key=str(i))
        with pytest.raises(ValueError, match="max_series"):
            counter.inc(key="5")
        assert [counter.value(key=str(i)) for i in range(6)] == [1, 1, 1, 0, 0, 0]

    def test_a_series_read_as_absent_is_found_once_written(self):
        gauge = Gauge("g")
        assert gauge.value(b="2", a="1") is None and not gauge.has(a="1", b="2")
        gauge.set(4.0, a="1", b="2")
        assert gauge.value(b="2", a="1") == 4.0 and gauge.has(a="1", b="2")
        gauge.remove(b="2", a="1")
        assert gauge.value(a="1", b="2") is None and gauge.series_count == 0
        gauge.set(5.0, b="2", a="1")
        assert gauge.value(a="1", b="2") == 5.0
        gauge.clear()
        assert gauge.value(a="1", b="2") is None

    @pytest.mark.parametrize("preset", sorted(DECISION_PRESETS))
    def test_golden_replay_export_does_not_depend_on_the_memo(self, monkeypatch, preset):
        """The registry a golden replay fills exports byte for byte as one
        whose every call resolves through ``_label_key``."""
        memoized = _decision_trace(preset)["metrics_crc32"]
        calls = []
        label_key = metrics_module._label_key
        monkeypatch.setattr(
            _MetricFamily, "_key", lambda self, labels: calls.append(1) or label_key(labels)
        )
        assert _decision_trace(preset)["metrics_crc32"] == memoized
        assert calls

"""BlockTelemetry integration: engine hooks, traces, and the golden replay.

The last class is the PR's zero-drift acceptance gate: the Figure 8/11
replays must still reproduce ``golden_replay.json`` *exactly* with
telemetry attached, and the telemetry's own series must agree with the
fixture — observing a pipeline may never change it.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.engine import BlockEngine, BlockStats, CodecExecutor
from repro.experiments.replay import (
    figure8_commercial_replay,
    figure11_molecular_replay,
)
from repro.obs import BlockTelemetry, MetricsRegistry, TraceWriter, read_trace
from repro.obs.catalogue import (
    BLOCK_RATIO,
    BLOCKS_TOTAL,
    BYTES_IN_TOTAL,
    BYTES_OUT_TOTAL,
    COMPRESSION_SECONDS,
    FALLBACKS_TOTAL,
    record_execution,
)

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "core" / "golden_replay.json").read_text()
)

COMPRESSIBLE = b"abab" * 1024
INCOMPRESSIBLE = bytes(random.Random(20040431).randrange(256) for _ in range(4096))


class TestRecordExecution:
    def test_counters_and_histograms_land_under_labels(self):
        registry = MetricsRegistry()
        record_execution(
            registry,
            "test",
            BlockStats(
                method="lempel-ziv",
                requested_method="lempel-ziv",
                original_size=1000,
                compressed_size=400,
                compression_seconds=0.02,
                decompression_seconds=0.01,
            ),
        )
        labels = {"channel": "test", "method": "lempel-ziv"}
        assert registry.family(BLOCKS_TOTAL).value(**labels) == 1
        assert registry.family(BYTES_IN_TOTAL).value(**labels) == 1000
        assert registry.family(BYTES_OUT_TOTAL).value(**labels) == 400
        assert registry.family(COMPRESSION_SECONDS).snapshot(**labels)["count"] == 1
        ratio = registry.family(BLOCK_RATIO).snapshot(**labels)
        assert ratio["sum"] == pytest.approx(0.4)
        # no fallback happened, so no fallback series exists
        assert registry.family(FALLBACKS_TOTAL).total() == 0

    def test_fallback_counter_keeps_requested_method(self):
        registry = MetricsRegistry()
        record_execution(
            registry,
            "test",
            BlockStats(
                method="none",
                requested_method="huffman",
                original_size=1000,
                compressed_size=1000,
                compression_seconds=0.01,
                fell_back=True,
            ),
        )
        fallbacks = registry.family(FALLBACKS_TOTAL)
        assert fallbacks.value(channel="test", method="huffman") == 1
        # the execution itself is counted under the shipped method
        assert registry.family(BLOCKS_TOTAL).value(channel="test", method="none") == 1


class TestEngineIntegration:
    def test_observer_sees_every_executed_block(self):
        telemetry = BlockTelemetry(channel="engine-test")
        engine = BlockEngine(observers=[telemetry])
        engine.execute(COMPRESSIBLE, method="lempel-ziv")
        engine.execute(COMPRESSIBLE, method="none")
        assert telemetry.blocks_seen == 2
        assert telemetry.method_series() == ["lempel-ziv", "none"]
        assert telemetry.original_size_series() == [len(COMPRESSIBLE)] * 2
        registry = telemetry.registry
        assert registry.family(BLOCKS_TOTAL).total() == 2
        assert (
            registry.family(BYTES_IN_TOTAL).value(
                channel="engine-test", method="lempel-ziv"
            )
            == len(COMPRESSIBLE)
        )

    def test_expansion_guard_fallback_is_counted(self):
        class ExpandingCodec:
            name = "lempel-ziv"

            def compress(self, data):
                return data + b"!"

            def decompress(self, data):
                return data[:-1]

        telemetry = BlockTelemetry(channel="engine-test")
        executor = CodecExecutor(expansion_fallback=True)
        engine = BlockEngine(executor=executor, observers=[telemetry])
        _, stats = engine.execute(
            INCOMPRESSIBLE, method="lempel-ziv", codec=ExpandingCodec()
        )
        assert stats.fell_back, "an expanding codec must trip the expansion guard"
        fallbacks = telemetry.registry.family(FALLBACKS_TOTAL)
        assert fallbacks.value(channel="engine-test", method="lempel-ziv") == 1
        assert telemetry.method_series() == ["none"]

    def test_detached_observer_stops_recording(self):
        telemetry = BlockTelemetry()
        engine = BlockEngine()
        detach = engine.add_observer(telemetry)
        engine.execute(COMPRESSIBLE, method="none")
        detach()
        engine.execute(COMPRESSIBLE, method="none")
        assert telemetry.blocks_seen == 1

    def test_trace_events_mirror_the_stats(self):
        trace = TraceWriter()
        telemetry = BlockTelemetry(trace=trace, channel="traced")
        engine = BlockEngine(observers=[telemetry])
        engine.execute(COMPRESSIBLE, method="lempel-ziv")
        import io

        (record,) = read_trace(io.StringIO(trace.getvalue()))
        assert record["type"] == "event"
        assert record["name"] == "block"
        assert record["channel"] == "traced"
        assert record["method"] == "lempel-ziv"
        assert record["original_size"] == len(COMPRESSIBLE)
        assert record["compressed_size"] < len(COMPRESSIBLE)

    def test_keep_series_false_skips_retention(self):
        telemetry = BlockTelemetry(keep_series=False)
        engine = BlockEngine(observers=[telemetry])
        engine.execute(COMPRESSIBLE, method="none")
        assert telemetry.blocks_seen == 1
        assert telemetry.method_series() == []


class TestGoldenReplayZeroDrift:
    """Observability must not perturb the replays it observes."""

    @pytest.mark.parametrize(
        "name, replay",
        [
            ("figure8", figure8_commercial_replay),
            ("figure11", figure11_molecular_replay),
        ],
    )
    def test_telemetry_matches_golden_and_replay_unchanged(self, name, replay):
        golden = GOLDEN[name]
        telemetry = BlockTelemetry(channel=name)
        result = replay(observers=[telemetry])

        # the replay itself is still bit-exact against the fixture
        assert [r.method for r in result.records] == golden["methods"]
        assert [r.compressed_size for r in result.records] == golden["compressed_sizes"]
        assert [r.original_size for r in result.records] == golden["original_sizes"]
        assert [r.compression_time for r in result.records] == golden["compression_times"]

        # and the telemetry recorded the identical series
        assert telemetry.method_series() == golden["methods"]
        assert telemetry.original_size_series() == golden["original_sizes"]
        assert telemetry.compressed_size_series() == golden["compressed_sizes"]
        assert telemetry.blocks_seen == len(golden["methods"])

        # registry aggregates are consistent with the fixture totals
        registry = telemetry.registry
        assert registry.family(BLOCKS_TOTAL).total() == len(golden["methods"])
        assert registry.family(BYTES_OUT_TOTAL).total() == sum(
            golden["compressed_sizes"]
        )

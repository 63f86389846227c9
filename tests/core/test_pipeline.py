"""Unit tests for the adaptive block pipeline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.decision import Decision
from repro.core.engine import BlockStats
from repro.core.pipeline import (
    DEFAULT_BLOCK_SIZE,
    METHOD_CODES,
    AdaptivePipeline,
    BlockRecord,
    StreamResult,
)
from repro.core.policy import AdaptivePolicy, FixedPolicy
from repro.data.commercial import CommercialDataGenerator
from repro.netsim.clock import VirtualClock
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.link import PAPER_LINKS, SimulatedLink, make_link
from repro.netsim.loadtrace import LoadTrace
from tests.strategies import examples, link_names


def blocks(count=6, size=32 * 1024, seed=11):
    return list(CommercialDataGenerator(seed=seed).stream(size, count))


def pipeline(**kwargs):
    kwargs.setdefault("cost_model", DEFAULT_COSTS)
    kwargs.setdefault("cpu", SUN_FIRE)
    kwargs.setdefault("block_size", 32 * 1024)
    return AdaptivePipeline(**kwargs)


class TestBasics:
    def test_paper_block_size_default(self):
        assert DEFAULT_BLOCK_SIZE == 128 * 1024

    def test_method_codes_match_figures(self):
        assert METHOD_CODES == {
            "none": 1,
            "lempel-ziv": 2,
            "burrows-wheeler": 3,
            "huffman": 4,
        }

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            AdaptivePipeline(block_size=100)

    def test_negative_production_interval_rejected(self):
        with pytest.raises(ValueError):
            pipeline().run(blocks(1), make_link("1gbit"), production_interval=-1)


class TestRun:
    def test_one_record_per_block(self):
        result = pipeline().run(blocks(5), make_link("100mbit"))
        assert len(result.records) == 5
        assert [r.index for r in result.records] == list(range(5))

    def test_empty_blocks_skipped(self):
        result = pipeline().run([b"", b"x" * 32768, b""], make_link("100mbit"))
        assert len(result.records) == 1

    def test_total_bytes_accounted(self):
        data = blocks(4)
        result = pipeline().run(data, make_link("100mbit"))
        assert result.total_original_bytes == sum(len(b) for b in data)

    def test_deterministic_in_modeled_mode(self):
        a = pipeline().run(blocks(6), make_link("100mbit", seed=3))
        b = pipeline().run(blocks(6), make_link("100mbit", seed=3))
        assert [r.method for r in a.records] == [r.method for r in b.records]
        assert a.total_time == b.total_time

    def test_fast_link_mostly_uncompressed(self):
        result = pipeline().run(blocks(8), make_link("1gbit"))
        methods = [r.method for r in result.records[1:]]  # skip startup block
        assert methods.count("none") >= len(methods) - 1

    def test_slow_link_compresses(self):
        result = pipeline().run(blocks(8), make_link("1mbit"))
        compressed = [r for r in result.records if r.method != "none"]
        assert len(compressed) >= 6
        assert result.total_compressed_bytes < result.total_original_bytes

    def test_load_triggers_escalation(self):
        # constant heavy load on the 100mbit link
        trace = LoadTrace.from_pairs([(0, 60), (1000, 60)])
        link = SimulatedLink(PAPER_LINKS["100mbit"], seed=1, congestion_per_connection=0.5)
        result = pipeline().run(blocks(8), link, load=trace)
        assert any(r.method == "burrows-wheeler" for r in result.records)

    def test_production_interval_paces_blocks(self):
        result = pipeline().run(
            blocks(4), make_link("1gbit"), production_interval=2.0
        )
        starts = [r.start_time for r in result.records]
        assert starts == pytest.approx([0.0, 2.0, 4.0, 6.0], abs=0.5)

    def test_pipelined_no_slower_than_synchronous(self):
        data = blocks(10)
        sync = pipeline().run(data, make_link("1mbit", seed=2))
        piped = pipeline().run(data, make_link("1mbit", seed=2), pipelined=True)
        assert piped.total_time <= sync.total_time + 1e-9

    def test_verify_mode_roundtrips(self):
        result = pipeline(verify=True).run(blocks(3), make_link("1mbit"))
        assert len(result.records) == 3

    def test_custom_clock_used(self):
        clock = VirtualClock(start=100.0)
        result = pipeline().run(blocks(2), make_link("100mbit"), clock=clock)
        assert result.records[0].start_time == 100.0
        assert clock.now() > 100.0

    def test_sample_time_recorded_except_last_block(self):
        result = pipeline().run(blocks(3), make_link("1mbit"))
        assert result.records[0].sample_time > 0
        assert result.records[-1].sample_time == 0.0

    def test_fixed_none_policy_passthrough(self):
        result = pipeline(policy=FixedPolicy("none")).run(blocks(4), make_link("1mbit"))
        assert all(r.method == "none" for r in result.records)
        assert result.total_compressed_bytes == result.total_original_bytes
        assert result.total_compression_time == 0.0


class TestRecordsAndResult:
    def test_block_record_properties(self):
        stats = BlockStats(
            requested_method="lempel-ziv", method="lempel-ziv", original_size=1000,
            compressed_size=400, compression_seconds=0.01, decompression_seconds=0.02,
            index=0,
        )
        decision = Decision(
            method="lempel-ziv", lz_reduce_time=0.1, sending_time=0.3, effective_ratio=0.4
        )
        record = BlockRecord(
            stats=stats, decision=decision, start_time=0.0, send_start_time=0.1,
            send_time=0.2, sample_time=0.0, connections=8.0, lz_reducing_speed=1e6,
            sampled_ratio=0.4,
        )
        assert (record.index, record.original_size, record.compressed_size) == (0, 1000, 400)
        assert record.sending_time_estimate == 0.3
        assert record.ratio == 0.4
        assert record.bytes_saved == 600
        assert record.reducing_speed == pytest.approx(60000.0)
        assert record.method_code == 2
        assert record.delivery_time == pytest.approx(0.22)
        with pytest.raises(AttributeError):
            record.method = "none"

    @given(
        link_name=link_names(),
        preset=st.sampled_from(["table", "bicriteria", "placement"]),
        connections=st.floats(min_value=0.0, max_value=80.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @examples(20)
    def test_record_is_a_view_over_stats_and_decision(
        self, link_name, preset, connections, seed
    ):
        """Every old attribute name answers from the one object that holds
        the fact; nothing is stored twice."""
        costed = dict(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, native=False)
        policy = {
            "table": AdaptivePolicy,
            "bicriteria": lambda: AdaptivePolicy(policy="bicriteria", **costed),
            "placement": lambda: AdaptivePolicy(
                placement="auto", interference=0.15, downstream_factor=1.0, **costed
            ),
        }[preset]()
        link = SimulatedLink(PAPER_LINKS[link_name], seed=seed, congestion_per_connection=0.4)
        result = pipeline(policy=policy).run(
            blocks(4), link, load=LoadTrace.from_pairs([(0.0, connections)])
        )
        for i, record in enumerate(result.records):
            stats, decision = record.stats, record.decision
            assert record.index == stats.index == i
            assert record.method == decision.method == stats.requested_method
            assert record.params == decision.params
            assert record.placement == decision.placement
            assert record.relay_method == decision.relay_method
            assert record.sending_time_estimate == decision.sending_time
            assert record.original_size == stats.original_size
            assert record.compressed_size == stats.compressed_size
            assert record.compression_time == stats.compression_seconds
            assert record.decompression_time == stats.decompression_seconds
            assert record.ratio == stats.ratio
            assert record.bytes_saved == stats.bytes_saved
            assert record.reducing_speed == stats.reducing_speed

    def test_stream_result_aggregates(self):
        result = pipeline().run(blocks(5), make_link("1mbit", seed=7))
        summary = result.summary()
        assert summary["blocks"] == 5
        assert summary["total_time_s"] == result.total_time
        assert 0 < summary["overall_ratio"] <= 1.0
        assert sum(result.method_counts().values()) == 5

    def test_series_lengths(self):
        result = pipeline().run(blocks(4), make_link("1mbit"))
        assert len(result.method_series()) == 4
        assert len(result.compression_time_series()) == 4
        assert len(result.block_size_series()) == 4

    def test_compression_fraction_bounds(self):
        result = pipeline().run(blocks(6), make_link("1mbit"))
        assert 0.0 <= result.compression_time_fraction <= 1.0

    def test_empty_result(self):
        result = StreamResult([], 0.0)
        assert result.overall_ratio == 1.0
        assert result.compression_time_fraction == 0.0
        assert result.method_counts() == {}

    def test_deadline_misses(self):
        """Interactive pacing (§1): on a loaded slow link, uncompressed
        blocks blow the production deadline; adaptive compression keeps
        more of them inside it."""
        from repro.core.policy import FixedPolicy
        from repro.netsim.loadtrace import LoadTrace

        trace = LoadTrace.from_pairs([(0, 50)])
        deadline = 2.0
        data = blocks(12)

        def misses(policy):
            link = SimulatedLink(
                PAPER_LINKS["1mbit"], seed=4, congestion_per_connection=0.25
            )
            result = pipeline(policy=policy).run(
                data, link, load=trace, production_interval=deadline
            )
            return result.deadline_misses(deadline)

        assert misses(FixedPolicy("none")) > misses(None)

    def test_deadline_validation(self):
        result = StreamResult([], 0.0)
        with pytest.raises(ValueError):
            result.deadline_misses(0.0)


class TestAdaptationDynamics:
    def test_reacts_to_load_change(self):
        """No compression while idle, compression once load arrives."""
        trace = LoadTrace.from_pairs([(0, 0), (30, 60), (1000, 60)])
        link = SimulatedLink(PAPER_LINKS["100mbit"], seed=1, congestion_per_connection=0.5)
        result = pipeline().run(
            blocks(30), link, load=trace, production_interval=2.0
        )
        early = [r.method for r in result.records if r.start_time < 28][1:]
        # Allow a few blocks of EWMA convergence after the load step at t=30.
        late = [r.method for r in result.records if r.start_time > 48]
        assert early.count("none") == len(early)
        assert late and all(m != "none" for m in late)

    def test_recovers_when_load_drops(self):
        trace = LoadTrace.from_pairs([(0, 60), (40, 0), (1000, 0)])
        link = SimulatedLink(PAPER_LINKS["100mbit"], seed=1, congestion_per_connection=0.5)
        result = pipeline().run(
            blocks(30), link, load=trace, production_interval=2.0
        )
        late = [r.method for r in result.records if r.start_time > 60]
        assert late.count("none") >= len(late) - 2

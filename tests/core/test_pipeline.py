"""Unit tests for the adaptive block pipeline."""

import dataclasses
import gc
import math
import tracemalloc
import zlib
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.lz77 import Lz77Codec
from repro.compression.parallel import DegradingPool
from repro.core.bicriteria import codec_for
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
from repro.core.sampler import LzSampler
from repro.data.commercial import CommercialDataGenerator
from repro.netsim.clock import VirtualClock
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, CpuModel
from repro.netsim.link import PAPER_LINKS, SimulatedLink, make_link
from repro.netsim.loadtrace import LoadTrace
from repro.obs import metrics
from tests.strategies import examples, link_names, serial_pool


def blocks(count=6, size=32 * 1024, seed=11):
    return list(CommercialDataGenerator(seed=seed).stream(size, count))


def pipeline(**kwargs):
    kwargs.setdefault("cost_model", DEFAULT_COSTS)
    kwargs.setdefault("cpu", SUN_FIRE)
    kwargs.setdefault("block_size", 32 * 1024)
    return AdaptivePipeline(**kwargs)


def dialect_policy(dialect, cpu):
    """The three selector dialects, priced on ``cpu``."""
    costed = dict(cost_model=DEFAULT_COSTS, cpu=cpu, native=False)
    if dialect == "table":
        return AdaptivePolicy()
    if dialect == "bicriteria":
        return AdaptivePolicy(policy="bicriteria", **costed)
    return AdaptivePolicy(placement="auto", interference=0.15, downstream_factor=1.0, **costed)


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

    def test_wire_bytes_roundtrip(self):
        data = blocks(3)
        result = pipeline().run(data, make_link("1mbit"))
        assert len(result.records) == 3
        assert any(record.method != "none" for record in result.records)
        for block, record in zip(data, result.records):
            codec = codec_for(record.method, record.params)
            payload = codec.compress(block)
            assert zlib.crc32(payload) == record.payload_crc32
            assert codec.decompress(payload) == block

    def test_custom_clock_used(self):
        clock = VirtualClock()
        clock.advance(100.0)
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
        policy = dialect_policy(preset, SUN_FIRE)
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
        records = result.records
        assert result.total_original_bytes == sum(r.original_size for r in records)
        assert result.total_compressed_bytes == sum(r.compressed_size for r in records)
        assert result.total_compression_time == sum(r.compression_time for r in records)
        assert result.method_counts() == dict(Counter(r.method for r in records))
        assert result.placement_counts() == dict(Counter(r.placement for r in records))

    @given(
        values=st.lists(
            st.tuples(
                st.one_of(st.floats(allow_nan=True), st.integers(), st.none()),
                st.one_of(st.floats(allow_nan=True), st.just(math.nan)),
                st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.booleans()),
            ),
            max_size=6,
        )
    )
    @examples(40)
    def test_columns_give_back_every_value_equal_and_of_its_type(self, values):
        """Records are kept as columns; each value comes back with its
        type, and a NaN as the very object it was (``math.nan`` defaults
        compare equal only to themselves)."""
        built = []
        for i, (sampled, seconds, crc) in enumerate(values):
            stats = BlockStats("huffman", "huffman", 100 + i, 50, seconds, index=i)
            decision = Decision("huffman", seconds, 0.5, 0.5, modeled_seconds=seconds)
            built.append(
                BlockRecord(
                    stats=stats, decision=decision, start_time=float(i),
                    send_start_time=float(i), send_time=0.1, sample_time=0.0,
                    connections=0.0, lz_reducing_speed=math.inf, sampled_ratio=sampled,
                    payload_crc32=crc,
                )
            )
        rebuilt = StreamResult(built, 1.0).records
        assert len(rebuilt) == len(built)
        for got, want in zip(rebuilt, built):
            for part in ("stats", "decision", None):
                got_part = getattr(got, part) if part else got
                want_part = getattr(want, part) if part else want
                for field in dataclasses.fields(want_part):
                    a = getattr(got_part, field.name)
                    b = getattr(want_part, field.name)
                    if part is None and field.name in ("stats", "decision"):
                        continue
                    assert type(a) is type(b)
                    assert a is b or a == b

    def test_a_kept_result_holds_no_object_per_block(self):
        """A run's result costs a few machine words a block, so a caller
        that keeps every run grows with its block count by bytes, not by
        three dataclass instances and their boxed floats per block."""
        data, link = blocks(64, size=4096), make_link("1gbit")
        pipeline().run(data, link)  # registry, codec and policy state settle
        gc.collect()
        tracemalloc.start()
        try:
            kept = pipeline().run(data, link)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(kept.records) == 64
        assert grown < 400 * 64

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


class PerBlockSampler:
    """The reference: each probe is ``sampler.sample`` at its block's iteration."""

    def __init__(self, sampler):
        self.sampler = sampler

    def probe_runs(self, blocks):
        return [None] * len(blocks)

    def account(self, block, _run):
        return self.sampler.sample(block)


#: Sender CPU load flipping between idle and busy from one block to the next.
SQUARE_WAVE = LoadTrace.from_pairs([(t, 6.0 * (t % 2)) for t in range(8)])


@pytest.fixture(params=["codec-pool", "serial"])
def probe_pool(request, shared_pool):
    """The shared codec pool as this host starts it, or one forced serial."""
    shared_pool(serial_pool() if request.param == "serial" else None)
    return request.param


class TestRunWideProbes:
    """Every probe of a run is taken in one map before the loop and
    accounted at its block: the replay is that of per-block probing."""

    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("dialect", ["table", "bicriteria", "placement"])
    def test_identical_to_per_block_sampling(self, dialect, pipelined, probe_pool):
        data = blocks(6, size=16 * 1024)

        def replay(sampler_of):
            cpu = CpuModel("square-wave")
            run = AdaptivePipeline(
                policy=dialect_policy(dialect, cpu),
                block_size=16 * 1024,
                sampler=sampler_of(LzSampler(cost_model=DEFAULT_COSTS, cpu=cpu)),
                cost_model=DEFAULT_COSTS,
                cpu=cpu,
            )
            return run.run(
                data, make_link("1mbit", seed=3), production_interval=1.0,
                pipelined=pipelined, cpu_load=SQUARE_WAVE,
            )

        run_wide = replay(lambda sampler: sampler)
        reference = replay(PerBlockSampler)
        # Decision, BlockStats, payload_crc32, sample_time, sampled_ratio, ...
        assert run_wide.records == reference.records
        assert run_wide.total_time == reference.total_time
        # Block i+1's probe is priced at the load block i started under.
        for record in run_wide.records[:-1]:
            load = SQUARE_WAVE.connections_at(record.start_time)
            assert record.sample_time == DEFAULT_COSTS.compression_time(
                "lempel-ziv", 4096, CpuModel("at-block", load=load)
            )
        assert len({r.sample_time for r in run_wide.records[:-1]}) == 2

    def test_one_pool_submission_per_run(self, monkeypatch, shared_pool):
        pool = shared_pool(DegradingPool(1))
        submitted = []
        pool_map = pool.map

        def counting_map(fn, items):
            submitted.append(fn)
            return pool_map(fn, items)

        monkeypatch.setattr(pool, "map", counting_map)
        for cost_model in (DEFAULT_COSTS, None):  # modeled, then measured
            submitted.clear()
            run = pipeline(policy=FixedPolicy("huffman"), cost_model=cost_model)  # maps no chunks
            for runs in (1, 2):
                assert len(run.run(blocks(8), make_link("100mbit")).records) == 8
                assert len(submitted) == runs

    @pytest.mark.parametrize(
        "cost_model, compresses", [(DEFAULT_COSTS, 0), (None, 7)], ids=["modeled", "measured"]
    )
    def test_a_modeled_probe_is_its_size_and_a_measured_one_a_timed_compress(
        self, cost_model, compresses, shared_pool
    ):
        shared_pool(serial_pool())  # every probe runs here, where the spy counts it
        calls = []

        class SpyCodec(Lz77Codec):
            def compress(self, data):
                calls.append(len(data))
                return super().compress(data)

        codec = SpyCodec()
        sampler = LzSampler(codec=codec, cost_model=cost_model, cpu=SUN_FIRE)
        data = blocks(8)
        records = pipeline(
            policy=FixedPolicy("none"), sampler=sampler, cost_model=cost_model
        ).run(data, make_link("100mbit")).records
        assert calls == [4096] * compresses
        assert [r.sampled_ratio for r in records[1:]] == [
            codec.compressed_size(block[:4096]) / 4096 for block in data[1:]
        ]


#: The ``adaptive_fastlink`` dialects: the table, bicriteria, and
#: bicriteria placed ``auto`` with a relay and interference.
_FASTLINK_POLICIES = {
    "table": {},
    "bicriteria": dict(policy="bicriteria", cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, native=False),
    "placement": dict(
        policy="bicriteria", cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, native=False,
        placement="auto", interference=0.15, downstream_factor=1.0,
    ),
}


class TestSteadyStateBookkeeping:
    """After a run's first block, a block of the §2.5 loop on a fast link
    resolves no metric label set and looks up no registry family: the
    monitor and the policy write through series bound once per run."""

    @pytest.mark.parametrize("dialect", sorted(_FASTLINK_POLICIES))
    def test_blocks_after_the_first_resolve_no_label_set(self, dialect, monkeypatch, shared_pool):
        shared_pool(serial_pool())
        resolved = Counter()
        key, label_key, family = (
            metrics._MetricFamily._key, metrics._label_key, metrics.MetricsRegistry.family
        )
        monkeypatch.setattr(
            metrics._MetricFamily, "_key",
            lambda self, labels: resolved.update(["key"]) or key(self, labels),
        )
        monkeypatch.setattr(
            metrics, "_label_key", lambda labels: resolved.update(["key"]) or label_key(labels)
        )
        monkeypatch.setattr(
            metrics.MetricsRegistry, "family",
            lambda self, row: resolved.update(["family"]) or family(self, row),
        )
        policy = AdaptivePolicy(**_FASTLINK_POLICIES[dialect])
        marks = []  # the counts as each block's decision starts, then at the end
        choose = policy.choose
        monkeypatch.setattr(
            policy, "choose", lambda *args: marks.append(resolved.copy()) or choose(*args)
        )
        result = pipeline(policy=policy, block_size=128 * 1024).run(
            blocks(6, size=128 * 1024), make_link("1gbit")
        )
        marks.append(resolved.copy())
        per_block = [dict(after - before) for before, after in zip(marks, marks[1:])]
        assert len(per_block) == len(result.records) == 6
        assert per_block[0]  # the first block binds what the run writes
        assert per_block[1:] == [{}] * 5


class TestCpuLoadRestored:
    def test_second_run_on_the_same_cpu_is_priced_at_its_load(self):
        cpu = CpuModel("shared", load=0.5)
        ends_busy = LoadTrace.from_pairs([(0, 0.0), (1, 6.0)])
        run = pipeline(cpu=cpu)
        run.run(blocks(4), make_link("1mbit", seed=3), production_interval=1.0, cpu_load=ends_busy)
        assert cpu.load == 0.5
        second = run.run(blocks(4), make_link("1mbit", seed=3))
        fresh = pipeline(cpu=CpuModel("shared", load=0.5)).run(
            blocks(4), make_link("1mbit", seed=3)
        )
        assert second.records == fresh.records
        assert second.total_time == fresh.total_time

    def test_load_restored_when_the_run_raises(self):
        class FailsOnSecondBlock(FixedPolicy):
            def choose(self, block_size, sending_time, monitor, sample):
                if sample is not None:
                    raise RuntimeError("selector failed")
                return super().choose(block_size, sending_time, monitor, sample)

        cpu = CpuModel("shared")
        run = pipeline(cpu=cpu, policy=FailsOnSecondBlock("huffman"))
        with pytest.raises(RuntimeError):
            run.run(blocks(3), make_link("1mbit"), cpu_load=LoadTrace.from_pairs([(0, 4.0)]))
        assert cpu.load == 0.0

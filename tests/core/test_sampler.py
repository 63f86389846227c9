"""Unit tests for the 4 KB Lempel-Ziv sampling probe."""

import math

import pytest

from repro.core.engine import BlockStats
from repro.core.sampler import DEFAULT_SAMPLE_SIZE, LzSampler
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, ULTRA_SPARC, CpuModel


def _probe(sample_size: int, compressed_size: int, seconds: float) -> BlockStats:
    """The record ``LzSampler.sample`` returns for one probe."""
    return BlockStats("lempel-ziv", "lempel-ziv", sample_size, compressed_size, seconds)


class TestSampleResult:
    def test_ratio(self):
        assert _probe(4096, 1024, 0.01).ratio == 0.25

    def test_empty_sample_ratio_one(self):
        assert _probe(0, 0, 0.0).ratio == 1.0

    def test_reducing_speed(self):
        assert _probe(4096, 96, 0.001).reducing_speed == pytest.approx(4e6)

    def test_zero_time_infinite_when_saving(self):
        assert math.isinf(_probe(100, 50, 0.0).reducing_speed)
        assert _probe(100, 100, 0.0).reducing_speed == 0.0

    @pytest.mark.parametrize(
        "sample_size, compressed_size, seconds",
        [
            (0, 0, 0.0),  # zero-size sample
            (100, 50, 0.0),  # zero seconds, bytes saved
            (100, 100, 0.0),  # zero seconds, nothing saved
            (100, 130, 0.001),  # expansion
            (4096, 96, 0.001),
        ],
    )
    def test_metrics_are_the_shared_definitions(self, sample_size, compressed_size, seconds):
        """The probe's record defines no metric of its own: every edge case
        reads through ``ReductionMetrics``."""
        sample = _probe(sample_size, compressed_size, seconds)
        saved = max(0, sample_size - compressed_size)
        assert sample.ratio == (compressed_size / sample_size if sample_size else 1.0)
        assert sample.bytes_saved == saved
        if seconds:
            assert sample.reducing_speed == saved / seconds
        else:
            assert sample.reducing_speed == (math.inf if saved else 0.0)
        assert not {"ratio", "bytes_saved", "reducing_speed", "_seconds_attr"} & set(
            vars(BlockStats)
        )


class TestLzSampler:
    def test_default_sample_size_is_4kb(self):
        """Paper §2.5: 'compress the first 4KB of the next block'."""
        assert LzSampler().sample_size == DEFAULT_SAMPLE_SIZE == 4096

    def test_only_head_is_sampled(self, commercial_block):
        sampler = LzSampler(sample_size=1024)
        result = sampler.sample(commercial_block)
        assert result.original_size == 1024

    def test_short_block_sampled_whole(self):
        result = LzSampler().sample(b"short block")
        assert result.original_size == len(b"short block")

    def test_empty_block(self):
        result = LzSampler().sample(b"")
        assert result.original_size == 0
        assert result.ratio == 1.0

    def test_compressible_data_low_ratio(self, commercial_block):
        result = LzSampler().sample(commercial_block)
        assert result.ratio < 0.6

    def test_incompressible_data_high_ratio(self, random_block):
        result = LzSampler().sample(random_block)
        assert result.ratio > 0.9

    def test_measured_mode_positive_time(self, commercial_block):
        result = LzSampler().sample(commercial_block)
        assert result.compression_seconds > 0

    def test_modeled_mode_deterministic(self, commercial_block):
        sampler = LzSampler(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
        a = sampler.sample(commercial_block)
        b = sampler.sample(commercial_block)
        assert a.compression_seconds == b.compression_seconds
        assert a.compression_seconds == pytest.approx(
            DEFAULT_COSTS.compression_time("lempel-ziv", 4096, SUN_FIRE)
        )

    def test_modeled_mode_slower_cpu_slower_sample(self, commercial_block):
        fast = LzSampler(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE).sample(commercial_block)
        slow = LzSampler(cost_model=DEFAULT_COSTS, cpu=ULTRA_SPARC).sample(commercial_block)
        assert slow.compression_seconds > fast.compression_seconds
        assert slow.ratio == fast.ratio  # ratio is data-dependent only

    def test_too_small_sample_size_rejected(self):
        with pytest.raises(ValueError):
            LzSampler(sample_size=16)

    def test_custom_codec(self):
        from repro.compression.identity import IdentityCodec

        sampler = LzSampler(codec=IdentityCodec())
        result = sampler.sample(b"x" * 8192)
        assert result.ratio == 1.0


class TestProbeRunsAndAccounting:
    """A probe is a run (anywhere, ahead of time) plus its accounting."""

    @pytest.mark.parametrize("sample_size", [64, 1024, DEFAULT_SAMPLE_SIZE])
    def test_sample_is_the_accounted_run(self, sample_size, commercial_block):
        sampler = LzSampler(sample_size=sample_size, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
        blocks = [
            b"",  # empty head: no bytes, no seconds
            commercial_block[: sample_size // 2],  # shorter than the sample
            commercial_block[:sample_size],  # exactly one sample
            commercial_block,  # only the head is probed
            commercial_block[1000:],
        ]
        # One run-wide map (caller and codec pool), accounted block by block.
        runs = sampler.probe_runs(blocks)
        accounted = [sampler.account(block, run) for block, run in zip(blocks, runs)]
        assert accounted == [sampler.sample(block) for block in blocks]
        assert accounted[0] == BlockStats("lempel-ziv", "lempel-ziv", 0, 0, 0.0)
        assert [s.original_size for s in accounted[1:]] == [
            sample_size // 2, sample_size, sample_size, sample_size
        ]

    def test_account_prices_at_the_load_when_asked(self, commercial_block):
        cpu = CpuModel("dynamic")
        sampler = LzSampler(cost_model=DEFAULT_COSTS, cpu=cpu)
        (run,) = sampler.probe_runs([commercial_block])
        idle = sampler.account(commercial_block, run)
        cpu.load = 3.0
        busy = sampler.account(commercial_block, run)
        assert busy.compression_seconds == pytest.approx(4 * idle.compression_seconds)
        assert busy.compressed_size == idle.compressed_size

    def test_measured_run_carries_its_own_seconds(self, commercial_block):
        sampler = LzSampler()
        size, seconds = sampler.probe_runs([commercial_block])[0]
        result = sampler.account(commercial_block, (size, seconds))
        assert result.compression_seconds == seconds > 0
        assert result.compressed_size == size == len(sampler.codec.compress(commercial_block[:4096]))

    def test_modeled_run_is_the_untimed_size(self, commercial_block):
        sampler = LzSampler(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
        (run,) = sampler.probe_runs([commercial_block])
        assert run == (len(sampler.codec.compress(commercial_block[:4096])), 0.0)

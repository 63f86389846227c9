"""Unit tests for the 4 KB Lempel-Ziv sampling probe."""

import pytest

from repro.compression.base import CompressionResult
from repro.core.sampler import DEFAULT_SAMPLE_SIZE, LzSampler, SampleResult
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, ULTRA_SPARC


class TestSampleResult:
    def test_ratio(self):
        assert SampleResult(4096, 1024, 0.01).ratio == 0.25

    def test_empty_sample_ratio_one(self):
        assert SampleResult(0, 0, 0.0).ratio == 1.0

    def test_reducing_speed(self):
        assert SampleResult(4096, 96, 0.001).reducing_speed == pytest.approx(4e6)

    def test_zero_time_infinite_when_saving(self):
        import math

        assert math.isinf(SampleResult(100, 50, 0.0).reducing_speed)
        assert SampleResult(100, 100, 0.0).reducing_speed == 0.0


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
        """``SampleResult`` has no definitions of its own: the edge cases
        its deleted copies handled read the same through ``ReductionMetrics``."""
        sample = SampleResult(sample_size, compressed_size, seconds)
        shared = CompressionResult("lempel-ziv", sample_size, compressed_size, seconds)
        assert sample.original_size == sample_size
        assert sample.ratio == shared.ratio
        assert sample.bytes_saved == shared.bytes_saved == max(0, sample_size - compressed_size)
        assert sample.reducing_speed == shared.reducing_speed
        assert "ratio" not in vars(SampleResult) and "reducing_speed" not in vars(SampleResult)


class TestLzSampler:
    def test_default_sample_size_is_4kb(self):
        """Paper §2.5: 'compress the first 4KB of the next block'."""
        assert LzSampler().sample_size == DEFAULT_SAMPLE_SIZE == 4096

    def test_only_head_is_sampled(self, commercial_block):
        sampler = LzSampler(sample_size=1024)
        result = sampler.sample(commercial_block)
        assert result.sample_size == 1024

    def test_short_block_sampled_whole(self):
        result = LzSampler().sample(b"short block")
        assert result.sample_size == len(b"short block")

    def test_empty_block(self):
        result = LzSampler().sample(b"")
        assert result.sample_size == 0
        assert result.ratio == 1.0

    def test_compressible_data_low_ratio(self, commercial_block):
        result = LzSampler().sample(commercial_block)
        assert result.ratio < 0.6

    def test_incompressible_data_high_ratio(self, random_block):
        result = LzSampler().sample(random_block)
        assert result.ratio > 0.9

    def test_measured_mode_positive_time(self, commercial_block):
        result = LzSampler().sample(commercial_block)
        assert result.elapsed_seconds > 0

    def test_modeled_mode_deterministic(self, commercial_block):
        sampler = LzSampler(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
        a = sampler.sample(commercial_block)
        b = sampler.sample(commercial_block)
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.elapsed_seconds == pytest.approx(
            DEFAULT_COSTS.compression_time("lempel-ziv", 4096, SUN_FIRE)
        )

    def test_modeled_mode_slower_cpu_slower_sample(self, commercial_block):
        fast = LzSampler(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE).sample(commercial_block)
        slow = LzSampler(cost_model=DEFAULT_COSTS, cpu=ULTRA_SPARC).sample(commercial_block)
        assert slow.elapsed_seconds > fast.elapsed_seconds
        assert slow.ratio == fast.ratio  # ratio is data-dependent only

    def test_too_small_sample_size_rejected(self):
        with pytest.raises(ValueError):
            LzSampler(sample_size=16)

    def test_custom_codec(self):
        from repro.compression.identity import IdentityCodec

        sampler = LzSampler(codec=IdentityCodec())
        result = sampler.sample(b"x" * 8192)
        assert result.ratio == 1.0

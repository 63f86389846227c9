"""Unit tests for CPU models and codec cost calibration."""

import pytest

from repro.netsim.cpu import (
    DEFAULT_COSTS,
    SUN_FIRE,
    ULTRA_SPARC,
    CodecCost,
    CodecCostModel,
    CpuModel,
)


class TestCpuModel:
    def test_reference_scaling_is_identity(self):
        assert SUN_FIRE.scale_time(2.0) == 2.0
        assert SUN_FIRE.scale_speed(10.0) == 10.0

    def test_slower_machine_takes_longer(self):
        assert ULTRA_SPARC.scale_time(1.0) > 1.0
        assert ULTRA_SPARC.scale_speed(1.0) < 1.0

    def test_paper_speed_gap(self):
        """Figure 4: Sun-Fire reduces ~2.4x faster than the Ultra-Sparc."""
        ratio = SUN_FIRE.scale_speed(1.0) / ULTRA_SPARC.scale_speed(1.0)
        assert 2.0 < ratio < 3.0

    def test_load_slows_machine(self):
        loaded = CpuModel("busy", speed_factor=1.0, load=1.0)
        assert loaded.scale_time(1.0) == 2.0
        assert loaded.scale_speed(4.0) == 2.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CpuModel("x", speed_factor=0)
        with pytest.raises(ValueError):
            CpuModel("x", speed_factor=1.0, load=-0.5)


class TestCodecCost:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodecCost(compress_throughput=0, decompress_throughput=1, typical_ratio=0.5)
        with pytest.raises(ValueError):
            CodecCost(compress_throughput=1, decompress_throughput=1, typical_ratio=-1)


class TestCodecCostModel:
    def test_none_codec_auto_added(self):
        model = CodecCostModel({})
        assert model.compression_time("none", 10**9) < 0.01

    def test_unknown_codec_raises(self):
        with pytest.raises(KeyError):
            DEFAULT_COSTS.cost("snappy")

    def test_compression_time_scales_with_size(self):
        t1 = DEFAULT_COSTS.compression_time("huffman", 1 << 20)
        t2 = DEFAULT_COSTS.compression_time("huffman", 2 << 20)
        assert t2 == pytest.approx(2 * t1)

    def test_cpu_scaling_applied(self):
        fast = DEFAULT_COSTS.compression_time("lempel-ziv", 1 << 20, SUN_FIRE)
        slow = DEFAULT_COSTS.compression_time("lempel-ziv", 1 << 20, ULTRA_SPARC)
        assert slow > 2 * fast

    def test_default_model_figure3_time_ordering(self):
        """Huffman fastest, Burrows-Wheeler slowest (Figure 3)."""
        size = 1 << 20
        times = {
            m: DEFAULT_COSTS.compression_time(m, size)
            for m in ("huffman", "lempel-ziv", "arithmetic", "burrows-wheeler")
        }
        assert times["huffman"] < times["lempel-ziv"] < times["burrows-wheeler"]
        assert times["arithmetic"] > times["lempel-ziv"]

    def test_default_model_figure4_reducing_speed_ordering(self):
        """Huffman's reducing speed tops the chart, BW/arithmetic trail."""
        speeds = {
            m: DEFAULT_COSTS.reducing_speed(m)
            for m in ("huffman", "lempel-ziv", "arithmetic", "burrows-wheeler")
        }
        assert speeds["huffman"] > speeds["lempel-ziv"]
        assert speeds["lempel-ziv"] > speeds["burrows-wheeler"]
        assert speeds["lempel-ziv"] > speeds["arithmetic"]

    def test_codecs_listing(self):
        assert "none" in DEFAULT_COSTS.codecs()

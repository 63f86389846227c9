"""Unit tests for the codec registry and the Codec/timer primitives."""

import math

import pytest

from repro.compression.base import Codec, CodecError
from repro.core.engine import BlockStats, timed
from repro.compression.identity import IdentityCodec
from repro.compression.registry import (
    PAPER_METHODS,
    available_codecs,
    get_codec,
    register_codec,
    unregister_codec,
)


class TestRegistry:
    def test_paper_methods_all_registered(self):
        for name in PAPER_METHODS:
            assert get_codec(name).name == name

    def test_native_variants_registered(self):
        assert "lempel-ziv-native" in available_codecs()
        assert "burrows-wheeler-native" in available_codecs()

    def test_unknown_codec_raises(self):
        with pytest.raises(CodecError):
            get_codec("snappy")

    def test_instances_are_shared(self):
        assert get_codec("huffman") is get_codec("huffman")

    def test_register_and_unregister_custom(self):
        class Reverser(Codec):
            name = "reverser"

            def compress(self, data: bytes) -> bytes:
                return data[::-1]

            def decompress(self, payload: bytes) -> bytes:
                return payload[::-1]

        register_codec("reverser", Reverser)
        try:
            codec = get_codec("reverser")
            assert codec.decompress(codec.compress(b"abc")) == b"abc"
            assert "reverser" in available_codecs()
        finally:
            unregister_codec("reverser")
        with pytest.raises(CodecError):
            get_codec("reverser")

    def test_unregister_unknown_raises(self):
        with pytest.raises(CodecError):
            unregister_codec("never-existed")

    def test_register_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_codec("", IdentityCodec)

    def test_reregistration_replaces_instance(self):
        register_codec("temp", IdentityCodec)
        first = get_codec("temp")
        register_codec("temp", IdentityCodec)
        second = get_codec("temp")
        assert first is not second
        unregister_codec("temp")


class TestCompressionResult:
    """The record a compression returns (``BlockStats``) reads its metrics
    through ``ReductionMetrics``."""

    def test_ratio_and_saved(self):
        result = BlockStats("x", "x", 1000, 400, 0.5)
        assert result.ratio == 0.4
        assert result.bytes_saved == 600
        assert result.reducing_speed == 1200.0

    def test_expansion_clamps_saved(self):
        result = BlockStats("x", "x", 100, 150, 0.1)
        assert result.bytes_saved == 0
        assert result.reducing_speed == 0.0

    def test_empty_input_ratio(self):
        assert BlockStats("x", "x", 0, 0, 0.1).ratio == 1.0

    def test_zero_time_infinite_speed(self):
        result = BlockStats("x", "x", 100, 50, 0.0)
        assert math.isinf(result.reducing_speed)


class TestMeasure:
    def test_measure_identity(self):
        payload, seconds = timed(IdentityCodec().compress, b"hello")
        assert payload == b"hello"
        assert seconds >= 0

    def test_ratio_helper(self):
        assert IdentityCodec().ratio(b"abc") == 1.0
        assert IdentityCodec().ratio(b"") == 1.0

"""Unit tests for compression/decompression handlers."""

import pytest

from repro.core.engine import CodecExecutor
from repro.middleware.attributes import (
    ATTR_COMPRESSION_METHOD,
    ATTR_COMPRESSION_SECONDS,
    ATTR_ORIGINAL_SIZE,
)
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler, DecompressionHandler
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, ULTRA_SPARC


def _modeled(cpu):
    return CodecExecutor(DEFAULT_COSTS, cpu, expansion_fallback=True)


class TestCompressionHandler:
    def test_compresses_and_annotates(self, commercial_block):
        handler = CompressionHandler("lempel-ziv")
        event = Event(payload=commercial_block)
        compressed = handler(event)
        assert compressed.size < event.size
        assert compressed.attributes[ATTR_COMPRESSION_METHOD] == "lempel-ziv"
        assert compressed.attributes[ATTR_ORIGINAL_SIZE] == event.size
        assert compressed.attributes[ATTR_COMPRESSION_SECONDS] > 0

    def test_none_method_passthrough(self):
        handler = CompressionHandler("none")
        event = Event(payload=b"data")
        result = handler(event)
        assert result.payload == b"data"
        assert result.attributes[ATTR_COMPRESSION_METHOD] == "none"
        assert result.attributes[ATTR_COMPRESSION_SECONDS] == 0.0

    def test_unknown_method_rejected(self):
        from repro.compression.base import CodecError

        with pytest.raises(CodecError):
            CompressionHandler("lzma")

    def test_modeled_time_deterministic(self, commercial_block):
        handler = CompressionHandler("huffman", executor=_modeled(SUN_FIRE))
        a = handler(Event(payload=commercial_block))
        b = handler(Event(payload=commercial_block))
        assert (
            a.attributes[ATTR_COMPRESSION_SECONDS]
            == b.attributes[ATTR_COMPRESSION_SECONDS]
        )

    def test_modeled_time_scales_with_cpu(self, commercial_block):
        fast = CompressionHandler("huffman", executor=_modeled(SUN_FIRE))
        slow = CompressionHandler("huffman", executor=_modeled(ULTRA_SPARC))
        event = Event(payload=commercial_block)
        assert (
            slow(event).attributes[ATTR_COMPRESSION_SECONDS]
            > fast(event).attributes[ATTR_COMPRESSION_SECONDS]
        )

    def test_expansion_guard_ships_raw_with_truthful_method(self, random_block):
        """An expanding codec must not inflate the event; the receiver sees
        method "none" so the wire attribute stays truthful."""
        handler = CompressionHandler("huffman")
        result = handler(Event(payload=random_block))
        assert result.payload == random_block
        assert result.attributes[ATTR_COMPRESSION_METHOD] == "none"
        restored = DecompressionHandler()(result)
        assert restored.payload == random_block


class TestDecompressionHandler:
    @pytest.mark.parametrize("method", ["none", "huffman", "lempel-ziv", "burrows-wheeler"])
    def test_roundtrip_through_handlers(self, method, commercial_block):
        data = commercial_block[:16384]
        compress = CompressionHandler(method)
        decompress = DecompressionHandler()
        restored = decompress(compress(Event(payload=data)))
        assert restored.payload == data

    def test_missing_method_attribute_means_raw(self):
        handler = DecompressionHandler()
        event = Event(payload=b"raw bytes")
        assert handler(event).payload == b"raw bytes"

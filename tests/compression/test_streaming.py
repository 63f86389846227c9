"""Unit tests for the framed streaming compression API."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CodecError, CorruptStreamError
from repro.compression.streaming import (
    StreamingCompressor,
    StreamingDecompressor,
)
from tests.strategies import examples


def roundtrip(data, chunk=1000, block_size=4096, method="lempel-ziv", picker=None):
    compressor = StreamingCompressor(
        method=method, block_size=block_size, method_picker=picker
    )
    framed = bytearray()
    for start in range(0, len(data), chunk):
        framed += compressor.write(data[start : start + chunk])
    framed += compressor.flush()
    decompressor = StreamingDecompressor()
    out = bytearray()
    for start in range(0, len(framed), 777):  # deliberately odd chunking
        out += decompressor.write(bytes(framed[start : start + 777]))
    decompressor.close()
    return bytes(out), compressor, decompressor


class TestStreamingRoundtrip:
    def test_empty_stream(self):
        out, compressor, decompressor = roundtrip(b"")
        assert out == b""
        assert compressor.frames_emitted == 0
        assert decompressor.frames_decoded == 0

    def test_sub_block_stream(self):
        data = b"short message"
        out, compressor, _ = roundtrip(data)
        assert out == data
        assert compressor.frames_emitted == 1  # the flush frame

    def test_multi_block_stream(self, commercial_block):
        out, compressor, decompressor = roundtrip(commercial_block)
        assert out == commercial_block
        assert compressor.frames_emitted == decompressor.frames_decoded
        assert compressor.frames_emitted >= len(commercial_block) // 4096

    def test_exact_block_multiple(self):
        data = b"z" * 8192
        out, compressor, _ = roundtrip(data, block_size=4096)
        assert out == data
        assert compressor.frames_emitted == 2

    def test_ratio_tracks(self, commercial_block):
        _, compressor, _ = roundtrip(commercial_block)
        assert 0.1 < compressor.ratio < 0.9

    def test_per_block_method_picker(self, commercial_block, random_block):
        data = commercial_block[:8192] + random_block[:8192]
        chosen = []

        def picker(block):
            method = "lempel-ziv" if block.count(b"<") > 50 else "huffman"
            chosen.append(method)
            return method

        out, _, _ = roundtrip(data, block_size=8192, picker=picker)
        assert out == data
        assert set(chosen) == {"lempel-ziv", "huffman"}

    @pytest.mark.parametrize("method", ["none", "huffman", "lzw", "burrows-wheeler"])
    def test_all_methods(self, method, lowentropy_block):
        out, _, _ = roundtrip(lowentropy_block[:16384], method=method)
        assert out == lowentropy_block[:16384]

    @given(st.binary(max_size=20000), st.integers(min_value=1, max_value=5000))
    @examples(25)
    def test_roundtrip_property(self, data, chunk):
        out, _, _ = roundtrip(data, chunk=chunk)
        assert out == data


class TestStreamingEdgeCases:
    def test_write_after_flush_rejected(self):
        compressor = StreamingCompressor()
        compressor.flush()
        with pytest.raises(ValueError):
            compressor.write(b"more")

    def test_double_flush_is_empty(self):
        compressor = StreamingCompressor()
        compressor.write(b"abc")
        compressor.flush()
        assert compressor.flush() == b""

    def test_invalid_method_rejected_eagerly(self):
        with pytest.raises(CodecError):
            StreamingCompressor(method="rar")

    def test_tiny_block_size_rejected(self):
        with pytest.raises(ValueError):
            StreamingCompressor(block_size=100)

    def test_decompressor_waits_for_full_frame(self):
        compressor = StreamingCompressor(block_size=4096)
        framed = compressor.write(b"x" * 4096) + compressor.flush()
        decompressor = StreamingDecompressor()
        assert decompressor.write(framed[:3]) == b""
        assert decompressor.pending_bytes == 3
        assert decompressor.write(framed[3:]) == b"x" * 4096

    def test_close_mid_frame_raises(self):
        compressor = StreamingCompressor(block_size=4096)
        framed = compressor.write(b"y" * 4096) + compressor.flush()
        decompressor = StreamingDecompressor()
        decompressor.write(framed[:-2])
        with pytest.raises(CorruptStreamError):
            decompressor.close()

    def test_unknown_method_in_frame_raises(self):
        from repro.compression.varint import write_varint

        frame = bytearray()
        write_varint(frame, 4)
        frame += b"zstd"
        write_varint(frame, 0)
        with pytest.raises(CodecError):
            StreamingDecompressor().write(bytes(frame))

    def test_garbage_method_name_length_raises(self):
        # a huge name-length varint must be rejected, not buffered forever
        from repro.compression.varint import write_varint

        frame = bytearray()
        write_varint(frame, 10_000)
        frame += b"\x00" * 50
        with pytest.raises(CorruptStreamError):
            StreamingDecompressor().write(bytes(frame))

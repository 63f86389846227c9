"""Unit tests for the modified Burrows-Wheeler codec (chunked, resyncable)."""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.bwhuff import (
    CHUNK_TERMINATOR,
    DEFAULT_CHUNK_SIZE,
    BurrowsWheelerCodec,
    _decode_chunk,
    _decode_primary,
    _encode_primary,
    _joint_decode,
)
from tests.strategies import SEEDED_CORPORA, bw_in_process, examples, seeded_block


class TestPrimaryDigits:
    @pytest.mark.parametrize("value", [0, 1, 253, 254, 65535, 254**3 - 1])
    def test_roundtrip(self, value):
        assert _decode_primary(_encode_primary(value)) == value

    def test_digits_avoid_reserved_bytes(self):
        for value in (0, 254, 255, 100000):
            digits = _encode_primary(value)
            assert all(d < 254 for d in digits)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            _encode_primary(254**3)

    def test_invalid_digit_rejected(self):
        with pytest.raises(CorruptStreamError):
            _decode_primary(bytes([255, 0, 0]))


class TestBurrowsWheelerCodec:
    def test_empty(self):
        codec = BurrowsWheelerCodec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_byte(self):
        codec = BurrowsWheelerCodec()
        assert codec.decompress(codec.compress(b"!")) == b"!"

    def test_roundtrip_corpus(self, corpus):
        codec = BurrowsWheelerCodec()
        for name, data in corpus.items():
            assert codec.decompress(codec.compress(data)) == data, name

    def test_multi_chunk_roundtrip(self, commercial_block):
        codec = BurrowsWheelerCodec(chunk_size=4096)
        assert codec.decompress(codec.compress(commercial_block)) == commercial_block

    def test_chunk_boundary_sizes(self):
        codec = BurrowsWheelerCodec(chunk_size=1024)
        for size in (1023, 1024, 1025, 2048, 2049):
            data = bytes(i % 251 for i in range(size))
            assert codec.decompress(codec.compress(data)) == data

    def test_best_ratio_on_repetitive_data(self, commercial_block):
        from repro.compression.huffman import HuffmanCodec
        from repro.compression.lz77 import Lz77Codec

        bw = BurrowsWheelerCodec().ratio(commercial_block)
        lz = Lz77Codec().ratio(commercial_block)
        huff = HuffmanCodec().ratio(commercial_block)
        assert bw <= lz <= huff  # Figure 2 ordering

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            BurrowsWheelerCodec(chunk_size=16)
        with pytest.raises(ValueError):
            BurrowsWheelerCodec(chunk_size=254**3)

    def test_truncated_stream_raises(self):
        codec = BurrowsWheelerCodec()
        compressed = codec.compress(b"some data worth compressing " * 100)
        with pytest.raises((CorruptStreamError, EOFError)):
            codec.decompress(compressed[: len(compressed) // 2])

    def test_trailing_bytes_on_empty_raises(self):
        codec = BurrowsWheelerCodec()
        with pytest.raises(CorruptStreamError):
            codec.decompress(codec.compress(b"") + b"\x01")

    @given(st.binary(max_size=3000))
    @examples(40)
    def test_roundtrip_property(self, data):
        codec = BurrowsWheelerCodec(chunk_size=512)
        assert codec.decompress(codec.compress(data)) == data


class TestPooledChunks:
    """The chunk stages run on the caller and the shared codec pool; the
    bytes are those of the in-process loop, whatever the chunk count."""

    @pytest.mark.parametrize("corpus", sorted(SEEDED_CORPORA))
    @pytest.mark.parametrize(
        "size, chunk_size",
        [
            (DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE),
            (2 * DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE),
            (4 * DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE),
            (4 * DEFAULT_CHUNK_SIZE + 1, DEFAULT_CHUNK_SIZE),
            (4 * DEFAULT_CHUNK_SIZE, 8192),  # the bicriteria grid's variant
        ],
        ids=["1-chunk", "2-chunks", "4-chunks", "4-chunks+1", "16-chunks"],
    )
    def test_pooled_equals_in_process_loop(self, corpus, size, chunk_size):
        codec = BurrowsWheelerCodec(chunk_size=chunk_size)
        data = seeded_block(corpus, size)
        payload = codec.compress(data)
        assert payload == bw_in_process(codec, data)
        original_length, streams = _joint_decode(payload)
        assert original_length == len(data)
        assert b"".join(_decode_chunk(stream) for stream in streams) == data
        assert codec.decompress(payload) == data

    @pytest.mark.parametrize(
        "corpus, crc",
        [
            ("commercial", 0xC0691822),
            ("molecular", 0x09CCE426),
            ("logs", 0x6FDA24E4),
            ("timeseries", 0x744B8310),
        ],
    )
    def test_wire_bytes_pinned(self, corpus, crc):
        """CRC-32 of the 128 KB payloads the wall-clock benchmark sends."""
        payload = BurrowsWheelerCodec().compress(seeded_block(corpus, 131072))
        assert zlib.crc32(payload) == crc

    def test_memoryview_input(self, commercial_block):
        codec = BurrowsWheelerCodec(chunk_size=8192)
        assert codec.compress(memoryview(commercial_block)) == codec.compress(commercial_block)


class TestResynchronization:
    """Paper §2.4: decode from an arbitrary point, recover later chunks."""

    def _payload(self, chunks=8, chunk_size=1024):
        codec = BurrowsWheelerCodec(chunk_size=chunk_size)
        data = (b"chunky synchronized burrows wheeler stream | " * 200)[
            : chunks * chunk_size
        ]
        return codec, data, codec.compress(data)

    def test_decode_from_start_recovers_everything(self):
        codec, data, payload = self._payload()
        recovered, count = codec.decode_from(payload, 0)
        assert recovered == data
        assert count == 8

    def test_decode_from_middle_recovers_suffix(self):
        codec, data, payload = self._payload()
        start_bit = (len(payload) // 2) * 8
        recovered, count = codec.decode_from(payload, start_bit)
        assert 0 < count < 8
        assert recovered
        # Recovered chunks must be a contiguous suffix-aligned slice of the
        # original data (whole chunks, in order).
        assert recovered in data

    def test_decode_from_unaligned_bit_offset(self):
        codec, data, payload = self._payload()
        start_bit = (len(payload) // 2) * 8 + 3  # mid-byte: forces resync
        recovered, count = codec.decode_from(payload, start_bit)
        assert count >= 1
        assert recovered in data

    def test_decode_from_empty_payload(self):
        codec = BurrowsWheelerCodec()
        recovered, count = codec.decode_from(codec.compress(b""), 0)
        assert recovered == b""
        assert count == 0

    def test_terminator_never_in_chunk_bodies(self):
        codec = BurrowsWheelerCodec(chunk_size=512)
        data = bytes(range(256)) * 8
        # reconstruct the joint symbol stream by decompressing internals:
        # simply assert the public invariant instead — decode_from at 0
        # splits into exactly the expected number of chunks.
        payload = codec.compress(data)
        _, count = codec.decode_from(payload, 0)
        assert count == len(data) // 512


class TestResumeAtBlockBoundaries:
    """Sweep start offsets: recovery is always a chunk-aligned suffix.

    The 255 terminator is the only place a resynchronizing decoder may
    re-anchor, so whatever bit we start from, the recovered bytes must be
    exactly the last ``count`` whole chunks — never a partial chunk, never
    out-of-order data.
    """

    CHUNK = 1024
    CHUNKS = 6

    def _payload(self):
        codec = BurrowsWheelerCodec(chunk_size=self.CHUNK)
        data = (b"resume at arbitrary block boundaries | " * 400)[
            : self.CHUNKS * self.CHUNK
        ]
        return codec, data, codec.compress(data)

    def test_every_byte_offset_yields_chunk_aligned_suffix(self):
        codec, data, payload = self._payload()
        suffixes = {
            data[k * self.CHUNK :]: self.CHUNKS - k for k in range(self.CHUNKS + 1)
        }
        for start_byte in range(0, len(payload), 97):  # prime stride sweep
            recovered, count = codec.decode_from(payload, start_byte * 8)
            assert recovered in suffixes, f"start_byte={start_byte}"
            assert suffixes[recovered] == count, f"start_byte={start_byte}"

    def test_unaligned_bit_offsets_yield_chunk_aligned_suffix(self):
        codec, data, payload = self._payload()
        suffixes = {data[k * self.CHUNK :] for k in range(self.CHUNKS + 1)}
        midpoint = (len(payload) // 2) * 8
        for bit in range(midpoint, midpoint + 8):
            recovered, _ = codec.decode_from(payload, bit)
            assert recovered in suffixes, f"start_bit={bit}"

    def test_later_starts_recover_monotonically_less(self):
        codec, data, payload = self._payload()
        counts = [
            codec.decode_from(payload, start_byte * 8)[1]
            for start_byte in range(0, len(payload), 211)
        ]
        assert counts[0] == self.CHUNKS
        assert all(a >= b for a, b in zip(counts, counts[1:]))

"""Unit tests for the LZW (LZ78-family) codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.lzw import MAX_CODE_BITS, LzwCodec
from tests.strategies import examples


class TestLzwCodec:
    def test_empty(self):
        codec = LzwCodec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_byte(self):
        codec = LzwCodec()
        assert codec.decompress(codec.compress(b"A")) == b"A"

    def test_two_identical_bytes_kwkwk_seed(self):
        codec = LzwCodec()
        assert codec.decompress(codec.compress(b"aa")) == b"aa"

    def test_kwkwk_pattern(self):
        # 'abababab...' exercises the code==len(strings) special case.
        codec = LzwCodec()
        data = b"ab" * 2000
        assert codec.decompress(codec.compress(data)) == data

    def test_roundtrip_corpus(self, corpus):
        codec = LzwCodec()
        for name, data in corpus.items():
            assert codec.decompress(codec.compress(data)) == data, name

    def test_dictionary_reset_path(self):
        # Force enough distinct phrases to fill the 2**14 dictionary.
        codec = LzwCodec()
        import random

        rng = random.Random(9)
        data = bytes(rng.getrandbits(8) for _ in range(80000))
        assert codec.decompress(codec.compress(data)) == data

    def test_width_growth_boundaries(self):
        # Data sized to cross the 9->10 bit widening boundary (~256 phrases).
        codec = LzwCodec()
        data = bytes(range(256)) * 8
        assert codec.decompress(codec.compress(data)) == data

    def test_compresses_repetitive_text(self, commercial_block):
        codec = LzwCodec()
        ratio = codec.ratio(commercial_block)
        assert ratio < 0.6

    def test_lz77_beats_lzw_on_long_range_matches(self, commercial_block):
        # LZ77's 32 KB window catches long-range repeats LZW's phrase
        # dictionary cannot, which is why the paper's main method is LZ77.
        from repro.compression.lz77 import Lz77Codec

        assert Lz77Codec().ratio(commercial_block) < LzwCodec().ratio(commercial_block)

    def test_truncated_stream_raises(self):
        codec = LzwCodec()
        payload = codec.compress(b"hello hello hello")
        with pytest.raises(CorruptStreamError):
            codec.decompress(payload[: len(payload) // 2])

    def test_max_code_bits_sane(self):
        assert 10 <= MAX_CODE_BITS <= 20

    @given(st.binary(max_size=4096))
    @examples(60)
    def test_roundtrip_property(self, data):
        codec = LzwCodec()
        assert codec.decompress(codec.compress(data)) == data

    @given(st.text(alphabet="abc", max_size=3000).map(str.encode))
    @examples(40)
    def test_roundtrip_small_alphabet(self, data):
        codec = LzwCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestTailWidthBoundary:
    """Regression: streams ending exactly at a dictionary-widening point.

    The decoder appends a phantom dictionary entry after the final real
    code (it lags the encoder by one assignment), so the encoder must
    mirror that append before choosing the EOF width.  Found by the
    conformance kit: 16257 bytes of period-2 input made the decoder read
    EOF at 10 bits where the encoder wrote 9.
    """

    def test_exact_boundary_length(self):
        codec = LzwCodec()
        data = (b"ab" * 16257)[:16257]
        assert codec.decompress(codec.compress(data)) == data

    def test_lengths_around_every_widening_point(self):
        codec = LzwCodec()
        # Period-2 input emits one code per new pair, so dictionary growth
        # tracks input length closely; sweep a window around the 512-entry
        # boundary where the bug lived, plus the next power of two.
        for n in list(range(16240, 16280)) + list(range(65270, 65290)):
            data = (b"ab" * n)[:n]
            assert codec.decompress(codec.compress(data)) == data, n

    def test_single_emit_stream_unaffected(self):
        codec = LzwCodec()
        assert codec.decompress(codec.compress(b"q")) == b"q"

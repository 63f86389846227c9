"""Unit tests for LZ77 with Huffman-coded pointers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.lz77 import (
    MAX_MATCH,
    MIN_MATCH,
    Lz77Codec,
    tokenize,
)
from repro.verify.references import reference_lz77_decode


class TestTokenize:
    def test_no_repeats_all_literals(self):
        data = bytes(range(200))
        tokens = tokenize(data)
        assert all(isinstance(t, int) for t in tokens)
        assert bytes(tokens) == data

    def test_simple_repeat_produces_match(self):
        data = b"abcdefgh" * 10
        tokens = tokenize(data)
        matches = [t for t in tokens if isinstance(t, tuple)]
        assert matches, "repetition must produce at least one match"
        length, distance = matches[0]
        assert length >= MIN_MATCH
        assert distance >= 1

    def test_match_lengths_bounded(self):
        data = b"x" * 5000
        for token in tokenize(data):
            if isinstance(token, tuple):
                length, distance = token
                assert MIN_MATCH <= length <= MAX_MATCH
                assert distance >= 1

    def test_overlapping_match_self_reference(self):
        # 'aaaa...' forces distance < length (run encoding via overlap)
        data = b"a" * 300
        tokens = tokenize(data)
        assert any(isinstance(t, tuple) and t[1] < t[0] for t in tokens)

    def test_tokens_reconstruct_input(self):
        data = b"the quick brown fox " * 50 + b"jumps over the lazy dog" * 20
        out = bytearray()
        for token in tokenize(data):
            if isinstance(token, int):
                out.append(token)
            else:
                length, distance = token
                start = len(out) - distance
                for i in range(length):
                    out.append(out[start + i])
        assert bytes(out) == data

    def test_window_limits_match_distance(self):
        pattern = b"HELLOWORLD" + bytes(range(256)) * 8
        data = pattern + b"z" * 4096 + pattern
        for token in tokenize(data, window=1024):
            if isinstance(token, tuple):
                assert token[1] <= 1024


class TestLz77Codec:
    def test_empty(self):
        codec = Lz77Codec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_byte(self):
        codec = Lz77Codec()
        assert codec.decompress(codec.compress(b"q")) == b"q"

    def test_roundtrip_corpus(self, corpus):
        codec = Lz77Codec()
        for name, data in corpus.items():
            assert codec.decompress(codec.compress(data)) == data, name

    def test_repetitive_data_compresses_well(self, commercial_block):
        codec = Lz77Codec()
        assert codec.ratio(commercial_block) < 0.5

    def test_beats_plain_huffman_on_repetitive_data(self, commercial_block):
        from repro.compression.huffman import HuffmanCodec

        lz = Lz77Codec().ratio(commercial_block)
        huff = HuffmanCodec().ratio(commercial_block)
        assert lz < huff  # Figure 2 ordering

    def test_random_data_overhead_bounded(self, random_block):
        codec = Lz77Codec()
        assert codec.ratio(random_block) < 1.05

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            Lz77Codec(window=64)
        with pytest.raises(ValueError):
            Lz77Codec(window=10**6)

    def test_corrupted_stream_raises(self):
        codec = Lz77Codec()
        payload = bytearray(codec.compress(b"hello world, hello world, hello world"))
        payload[-1] ^= 0xFF
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(payload))

    def test_length_mismatch_detected(self):
        codec = Lz77Codec()
        payload = bytearray(codec.compress(b"abcd" * 100))
        # corrupt the original-length varint (first byte)
        payload[0] = (payload[0] + 1) & 0x7F or 1
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(payload))

    def test_long_match_at_max_length(self):
        codec = Lz77Codec()
        data = b"0123456789abcdef" * 64  # 1024 bytes, long matches
        assert codec.decompress(codec.compress(data)) == data

    @given(st.binary(max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        codec = Lz77Codec()
        assert codec.decompress(codec.compress(data)) == data

    @given(
        st.text(alphabet="ab", min_size=0, max_size=2000).map(str.encode),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_small_alphabet(self, data):
        # Small alphabets maximize overlapping self-referential matches.
        codec = Lz77Codec()
        assert codec.decompress(codec.compress(data)) == data


class TestOverlappedCopy:
    """A match whose distance is below its length replicates a pattern."""

    @pytest.mark.parametrize(
        "data, match",
        [
            (b"a" * 300, (MAX_MATCH, 1)),  # distance 1: a 258-byte run
            (b"abcde" + b"abcdea" + b"ZYXW", (6, 5)),  # distance = length - 1
            (b"abcde" + b"abcde" + b"ZYXW", (5, 5)),  # distance = length: no overlap
            (b"ab" * 200, (MAX_MATCH, 2)),
            (b"abcdefg" * 50, (MAX_MATCH, 7)),  # length not a multiple of distance
        ],
    )
    def test_matches_the_byte_at_a_time_copy(self, data, match):
        assert match in tokenize(data)
        codec = Lz77Codec()
        payload = codec.compress(data)
        assert codec.decompress(payload) == reference_lz77_decode(payload) == data

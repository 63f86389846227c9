"""Unit tests for LZ77 with Huffman-coded pointers."""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.lz77 import (
    MAX_MATCH,
    MIN_MATCH,
    Lz77Codec,
    tokenize,
)
from repro.verify.references import (
    reference_lz77_decode,
    reference_lz77_encode,
    reference_lz77_tokenize,
)
from tests.strategies import examples, seeded_block


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
    @examples(60)
    def test_roundtrip_property(self, data):
        codec = Lz77Codec()
        assert codec.decompress(codec.compress(data)) == data

    @given(
        st.text(alphabet="ab", min_size=0, max_size=2000).map(str.encode),
    )
    @examples(40)
    def test_roundtrip_small_alphabet(self, data):
        # Small alphabets maximize overlapping self-referential matches.
        codec = Lz77Codec()
        assert codec.decompress(codec.compress(data)) == data


#: The default codec and the two Lempel-Ziv points of the bicriteria grid.
_GRID = [Lz77Codec(), Lz77Codec(window=4096, max_chain=4), Lz77Codec(max_chain=32)]


class TestCompressedSize:
    """``compressed_size`` counts exactly the bytes ``compress`` writes."""

    @given(
        st.one_of(
            st.just(b""),
            st.binary(max_size=MIN_MATCH),
            st.builds(lambda byte, count: bytes([byte]) * count,
                      st.integers(0, 255), st.integers(0, 2000)),
            st.binary(max_size=3000),
        ),
        st.sampled_from(_GRID),
    )
    @examples(100)
    def test_is_the_written_length(self, data, codec):
        assert codec.compressed_size(data) == len(codec.compress(data))

    def test_seeded_heads_and_blocks(self, corpus):
        for codec in _GRID:
            for data in corpus.values():
                for block in (data[:4096], data):
                    assert codec.compressed_size(block) == len(codec.compress(block))


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


#: The matcher's two knobs at their extremes and defaults.
_PARAMETERS = [(w, c) for w in (256, 1024, 32768) for c in (1, 2, 8)]

#: Match lengths either side of every threshold that decides wire bytes:
#: the minimum match, dense vs every-third insertion (16/17), the
#: good-enough early exit (63/64) and the longest match (257/258).
_THRESHOLD_LENGTHS = [4, 5, 15, 16, 17, 18, 62, 63, 64, 65, 256, 257, 258, 259, 300]


def _assert_matches_scalar(data, window=32768, max_chain=8):
    """Token for token and byte for byte against the hash-chain oracle."""
    assert tokenize(data, window, max_chain) == reference_lz77_tokenize(data, window, max_chain)
    codec = Lz77Codec(window=window, max_chain=max_chain)
    payload = codec.compress(data)
    assert payload == reference_lz77_encode(data, window, max_chain)
    assert codec.decompress(payload) == data


def _low_entropy(max_symbols, max_size):
    return st.integers(min_value=1, max_value=max_symbols).flatmap(
        lambda k: st.lists(st.integers(min_value=0, max_value=k - 1), max_size=max_size)
    ).map(bytes)


@st.composite
def _repeated_prefixes(draw):
    """A few seed strings, each recurring as prefixes of assorted lengths
    with fresh bytes in between: many candidates per chain, ties, matches
    that stop at a threshold, and a match reaching the end of the buffer."""
    seeds = draw(st.lists(st.binary(min_size=4, max_size=300), min_size=1, max_size=3))
    pieces = []
    for _ in range(draw(st.integers(min_value=2, max_value=12))):
        seed = draw(st.sampled_from(seeds))
        cut = draw(st.sampled_from(_THRESHOLD_LENGTHS + [len(seed)]))
        pieces.append(seed[:cut])
        pieces.append(draw(st.binary(max_size=6)))
    pieces.append(draw(st.sampled_from(seeds))[: draw(st.integers(min_value=0, max_value=8))])
    return b"".join(pieces)


class TestArrayParseMatchesScalar:
    """The array match finder and field packer against ``verify.references``."""

    @pytest.mark.parametrize("size", list(range(0, 10)) + [16, 17, 64, 258, 259, 1000])
    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_short_periods(self, size, period):
        _assert_matches_scalar((b"abc"[:period] * size)[:size])

    @pytest.mark.parametrize("window, max_chain", _PARAMETERS)
    def test_every_parameter_pair(self, window, max_chain, commercial_block, lowentropy_block):
        _assert_matches_scalar(commercial_block[:12000], window, max_chain)
        _assert_matches_scalar(lowentropy_block[:6000], window, max_chain)

    @pytest.mark.parametrize("max_chain", [0, -1])
    def test_chain_depth_below_one_keeps_the_newest(self, max_chain, lowentropy_block):
        _assert_matches_scalar(lowentropy_block[:3000], max_chain=max_chain)

    @pytest.mark.parametrize("length", _THRESHOLD_LENGTHS)
    @pytest.mark.parametrize("tail", [0, 1, 2, 3, 4])
    def test_match_lengths_at_the_thresholds(self, length, tail):
        # One repeat of exactly ``length`` bytes, then ``tail`` fresh bytes:
        # tail < 4 leaves positions that have no 4-byte prefix at all.
        body = bytes((7 * i + i // 251) % 251 for i in range(length))
        data = body + b"\xfe\xff" + body + bytes(range(251, 251 + tail))
        _assert_matches_scalar(data)
        assert (min(length, MAX_MATCH), length + 2) in tokenize(data)

    def test_longer_candidate_further_back_wins_and_ties_go_to_the_nearest(self):
        data = b"abcdefgh1XY2abcdeQ3abcdeR4abcdefgZ5abcde!"
        _assert_matches_scalar(data)
        tokens = tokenize(data)
        assert (7, 26) in tokens  # "abcdefg" from the start, past two shorter candidates
        assert tokens[-2] == (5, 9)  # "abcde": four candidates tie, the nearest wins

    def test_a_good_match_ends_the_search(self):
        # The nearest candidate matches 70 bytes (>= 64): the search stops
        # there although the one behind it would match 90.
        body = bytes(range(100, 200))
        data = body + b"\x01\x02" + body[:70] + b"\x03\x04" + body[:90]
        _assert_matches_scalar(data)
        tokens = tokenize(data)
        assert [t for t in tokens if isinstance(t, tuple)] == [(70, 102), (70, 72), (20, 174)]

    def test_skipped_positions_of_a_long_match_are_not_candidates(self):
        # After the 30-byte repeat, "cdef" exists at offsets 2 (literal run)
        # and inside the match at a position the every-third rule skipped.
        body = bytes(range(97, 127))
        data = body + b"--" + body + b"##" + body[2:10]
        _assert_matches_scalar(data)

    @given(st.binary(max_size=3000), st.sampled_from(_PARAMETERS))
    @examples(80)
    def test_arbitrary_bytes(self, data, parameters):
        _assert_matches_scalar(data, *parameters)

    @given(_low_entropy(max_symbols=4, max_size=3000), st.sampled_from(_PARAMETERS))
    @examples(80)
    def test_low_entropy_alphabets(self, data, parameters):
        _assert_matches_scalar(data, *parameters)

    @given(_repeated_prefixes(), st.sampled_from(_PARAMETERS))
    @examples(120)
    def test_repeated_prefixes(self, data, parameters):
        _assert_matches_scalar(data, *parameters)

    def test_buffer_protocol_input(self, commercial_block):
        block = commercial_block[:5000]
        assert Lz77Codec().compress(memoryview(bytearray(block))) == Lz77Codec().compress(block)
        assert tokenize(bytearray(block)) == tokenize(block)


def _distinct(count):
    """``count`` distinct bytes, so no 4-byte prefix repeats among them."""
    return bytes(11 * i % 251 for i in range(count))


class TestWordStep:
    """Where the eight-byte word compare could differ from a byte-at-a-time one."""

    @pytest.mark.parametrize("length", range(4, 13))
    def test_matches_ending_around_the_word_boundary(self, length):
        body = _distinct(length)
        data = body + b"\xfe\xff" + body + b"\xfd" + body[: length - 1] + b"\xfc"
        _assert_matches_scalar(data)
        assert (length, length + 2) in tokenize(data)

    @pytest.mark.parametrize("tail", range(1, 9))
    @pytest.mark.parametrize("fill", [b"\x00", b"\xff", b"q"])
    def test_matches_in_the_last_bytes_of_the_buffer(self, tail, fill):
        # The earlier copy is followed by ``fill``; past the buffer's end the
        # word reads zero padding, which agrees with a zero fill.
        body = b"wxyz" + fill * 12
        data = body + b"\x01\x02" + body[:tail]
        _assert_matches_scalar(data)
        if tail >= MIN_MATCH:
            assert tokenize(data)[-1] == (tail, len(body) + 2)

    @pytest.mark.parametrize("agree", [7, 8, 9, 15, 16, 17])
    def test_candidates_that_agree_on_whole_words_then_differ(self, agree):
        body = _distinct(40)
        data = body + b"\x01" + body[:agree] + b"\x02" + body[: agree + 1] + b"\x03" + body
        _assert_matches_scalar(data)
        _assert_matches_scalar(data, window=256, max_chain=1)

    @pytest.mark.parametrize(
        "pattern", [b"\x00", b"\xff", b"\x00\xff", b"\xff\x00\x00", b"\x00" * 7 + b"\x01"]
    )
    @pytest.mark.parametrize("size", [5, 8, 9, 16, 17, 300])
    def test_zero_and_ff_runs(self, pattern, size):
        _assert_matches_scalar((pattern * size)[:size] + b"\x80" + (pattern * size)[: size // 2])

    @given(
        st.lists(st.sampled_from([0x00, 0xFF, 0x01, 0x80, 0x7F, 0xFE]), max_size=3000).map(bytes),
        st.sampled_from(_PARAMETERS),
    )
    @examples(60)
    def test_zero_and_ff_heavy_inputs(self, data, parameters):
        _assert_matches_scalar(data, *parameters)

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))])
    def test_bytearray_and_memoryview_input(self, wrap, lowentropy_block):
        block = lowentropy_block[:4000] + bytes(9)
        assert tokenize(wrap(block)) == reference_lz77_tokenize(block)
        assert Lz77Codec().compress(wrap(block)) == reference_lz77_encode(block)

    def test_smallest_window_and_shortest_chain(self, commercial_block, lowentropy_block):
        _assert_matches_scalar(commercial_block[:8000], window=256, max_chain=1)
        _assert_matches_scalar(lowentropy_block[:8000], window=256, max_chain=1)


class TestWireBytesPinned:
    """CRC-32 of the encoder's output on seeded corpora: any change to the
    parse or the field layout moves one of these."""

    @pytest.mark.parametrize(
        "corpus, size, crc",
        [
            ("commercial", 4096, 0x2810866B),
            ("commercial", 131072, 0xA68CF52E),
            ("molecular", 4096, 0xA3EE2F7B),
            ("molecular", 131072, 0xC716CA91),
            ("logs", 4096, 0x3E6D4426),
            ("logs", 131072, 0x5F94A381),
            ("timeseries", 4096, 0x888322CC),
            ("timeseries", 131072, 0x3904E416),
        ],
    )
    def test_compress_crc(self, corpus, size, crc):
        block = seeded_block(corpus, size)
        assert len(block) == size
        assert zlib.crc32(Lz77Codec().compress(block)) == crc

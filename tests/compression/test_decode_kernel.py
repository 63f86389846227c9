"""The array decode kernel against its scalar oracles.

One per-position successor map serves the Huffman, Lempel-Ziv and
Burrows-Wheeler decoders; these properties hold it to the per-symbol
loops in :mod:`repro.verify.references` on everything a hostile or merely
unlucky stream can contain — incomplete codes, 15-bit codewords, starts
that are not codeword boundaries, truncation — and pin the allocation
bound a forged length field must hit before anything is sized from it.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import get_codec
from repro.compression.base import CorruptStreamError
from repro.compression.huffman import _SPAN_BYTES, MAX_CODE_LENGTH, HuffmanCode, HuffmanCodec
from repro.compression.varint import read_varint, write_varint
from repro.verify.fuzz import _mutate
from repro.verify.references import reference_huffman_decode, reference_lz77_decode
from tests.strategies import examples


def _outcome(decode, *args):
    """The result, or the class of the exception — what the two must share."""
    try:
        return decode(*args)
    except Exception as exc:  # noqa: BLE001 - the class *is* the observation
        return type(exc)


def _decode(code, data, start_bit, count):
    """``HuffmanCode.decode_array`` with the symbols as a list, as the
    oracle returns them."""
    symbols, end_bit = code.decode_array(data, start_bit, count)
    return symbols.tolist(), end_bit


@st.composite
def length_profiles(draw):
    """Code-length profiles: optimal, 15-bit-limited, single-symbol, incomplete."""
    kind = draw(st.sampled_from(["optimal", "limited", "single", "incomplete"]))
    if kind == "single":
        size = draw(st.integers(min_value=1, max_value=40))
        lengths = [0] * size
        lengths[draw(st.integers(min_value=0, max_value=size - 1))] = 1
        return lengths
    if kind == "limited":
        # Fibonacci-like weights force the unclamped tree past 15 levels.
        size = draw(st.integers(min_value=24, max_value=60))
        weights, a, b = [], 1, 1
        for _ in range(size):
            weights.append(a)
            a, b = b, a + b
        lengths = HuffmanCode.from_frequencies(weights).lengths
        assert max(lengths) == MAX_CODE_LENGTH
        return lengths
    frequencies = draw(
        st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=300)
    )
    if not any(frequencies):
        frequencies[0] = 1
    lengths = HuffmanCode.from_frequencies(frequencies).lengths
    present = [symbol for symbol, length in enumerate(lengths) if length]
    if kind == "incomplete" and len(present) > 1:
        # Drop one codeword: its windows now match nothing.
        lengths[draw(st.sampled_from(present))] = 0
    return lengths


class TestHuffmanKernelMatchesReference:
    @given(
        lengths=length_profiles(),
        body=st.binary(min_size=0, max_size=400),
        start=st.integers(min_value=0, max_value=64),
        count=st.integers(min_value=0, max_value=900),
    )
    @examples(300)
    def test_arbitrary_bits(self, lengths, body, start, count):
        # Arbitrary bytes are a stream that is valid until it is not.
        code = HuffmanCode(lengths)
        start = min(start, len(body) * 8)
        kernel = _outcome(_decode, code, body, start, count)
        reference = _outcome(reference_huffman_decode, code, body, start, count)
        assert kernel == reference
        assert kernel is CorruptStreamError or isinstance(kernel, tuple)

    @given(
        lengths=length_profiles(),
        picks=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=600),
        start=st.integers(min_value=0, max_value=40),
        cut=st.integers(min_value=0, max_value=6),
        data=st.data(),
    )
    @examples(200)
    def test_encoded_stream_any_start_any_truncation(self, lengths, picks, start, cut, data):
        code = HuffmanCode(lengths)
        present = [symbol for symbol, length in enumerate(lengths) if length]
        symbols = [present[pick % len(present)] for pick in picks]
        stream = code.encode(np.array(symbols))
        stream = stream[: max(0, len(stream) - cut)]
        start = min(start, len(stream) * 8)
        count = data.draw(st.integers(min_value=0, max_value=len(symbols) + 2))
        kernel = _outcome(_decode, code, stream, start, count)
        reference = _outcome(reference_huffman_decode, code, stream, start, count)
        assert kernel == reference
        if start == 0 and cut == 0 and count <= len(symbols):
            assert kernel[0] == symbols[:count]

    def test_memoryview_payload(self):
        code = HuffmanCode.from_frequencies([5, 3, 2, 1])
        symbols = [0, 1, 2, 3, 0, 0, 1] * 40
        stream = code.encode(np.array(symbols))
        assert _decode(code, memoryview(stream), 0, len(symbols))[0] == symbols

    def test_start_past_the_end_is_corruption(self):
        code = HuffmanCode.from_frequencies([1, 1])
        with pytest.raises(CorruptStreamError):
            _decode(code, b"\x00", 9, 1)
        assert _decode(code, b"\x00", 9, 0) == ([], 9)


class TestBitWindows:
    @given(st.binary(max_size=40))
    @examples(100)
    def test_every_window_is_the_next_fifteen_bits(self, data):
        bits = "".join(format(byte, "08b") for byte in data)
        padded = bits + "0" * (MAX_CODE_LENGTH + 8)
        expected = [int(padded[i : i + MAX_CODE_LENGTH], 2) for i in range(len(bits) + 1)]
        pmap = HuffmanCode([1, 1]).position_map(data)
        assert pmap.windows_at(np.arange(len(bits) + 1)).tolist() == expected
        dense = pmap._span_windows(0, len(data) + 1)
        assert dense.dtype == np.uint16
        assert dense.tolist()[: len(bits) + 1] == expected


class TestSpans:
    """The map is built a span at a time; walks must not notice."""

    def test_walks_cross_span_boundaries(self):
        rng = random.Random(7)
        symbols = rng.choices(range(6), weights=[40, 25, 15, 10, 6, 4], k=120_000)
        code = HuffmanCode.from_frequencies(np.bincount(symbols, minlength=6).tolist())
        stream = code.encode(np.array(symbols))
        assert len(stream) > 2 * _SPAN_BYTES  # three spans at least
        assert _decode(code, stream, 0, len(symbols))[0] == symbols
        edge = _SPAN_BYTES * 8
        for start, count in ((edge - 3, 500), (edge, 9), (edge + 5, 4000), (2 * edge - 1, 70)):
            kernel = _outcome(_decode, code, stream, start, count)
            assert isinstance(kernel, tuple)
            assert kernel == _outcome(reference_huffman_decode, code, stream, start, count)

    def test_stop_bit_and_limit_across_spans(self):
        symbols = [0, 1, 1, 0, 1] * 30_000
        code = HuffmanCode([1, 1])
        stream = code.encode(np.array(symbols))
        pmap = code.position_map(stream)
        chain = pmap.chain(5, 10**12, stop_bit=140_001)
        assert chain.tolist() == list(range(5, 140_002))
        assert pmap.chain(131_070, 7).tolist() == list(range(131_070, 131_078))
        assert pmap.chain(pmap.end_bit, 3).tolist() == [pmap.end_bit, pmap.end_bit + 1]


class TestLz77KernelMatchesReference:
    @given(st.binary(max_size=3000), st.integers(min_value=0, max_value=2**32))
    @examples(150)
    def test_mutated_streams(self, data, seed):
        codec = get_codec("lempel-ziv")
        payload = codec.compress(data * 3)
        rng = random.Random(seed)
        for _ in range(4):
            mutated = _mutate(payload, rng)
            kernel = _outcome(codec.decompress, mutated)
            assert kernel == _outcome(reference_lz77_decode, mutated)
            assert kernel is CorruptStreamError or isinstance(kernel, bytes)

    def test_clean_streams(self, corpus):
        codec = get_codec("lempel-ziv")
        for name, data in corpus.items():
            payload = codec.compress(data[:20_000])
            assert codec.decompress(payload) == reference_lz77_decode(payload), name


def _forge(payload: bytes, fields: int, keep: int) -> bytes:
    """``payload`` with its first ``fields`` varints replaced by 2**40 and
    everything after the code-length tables cut to ``keep`` bytes."""
    offset = 0
    for _ in range(fields):
        _, offset = read_varint(payload, offset)
    header = bytearray()
    for _ in range(fields):
        write_varint(header, 1 << 40)
    return bytes(header) + payload[offset : offset + keep]


class TestForgedLengthIsRejectedBeforeAllocation:
    """A header field must not size an array the stream cannot back."""

    DATA = b"a forged length field must not demand terabytes " * 40

    @pytest.mark.parametrize(
        "name, fields, tables",
        [("huffman", 1, 128), ("lempel-ziv", 1, 158), ("burrows-wheeler", 2, 128)],
    )
    def test_two_to_the_forty(self, name, fields, tables):
        codec = get_codec(name)
        payload = codec.compress(self.DATA)
        assert codec.decompress(payload) == self.DATA  # tables built, caches warm
        forged = _forge(payload, fields, tables + 64)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError):
                codec.decompress(forged)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_cold_caches_stay_under_the_limit_too(self):
        # A never-seen length profile builds its (cached) tables inside the
        # call; the bound must hold with that included.
        rng = np.random.default_rng(5)
        data = bytes(rng.integers(0, 97, 3000, dtype=np.uint8))
        for name, fields, tables in (("huffman", 1, 128), ("lempel-ziv", 1, 158)):
            forged = _forge(get_codec(name).compress(data), fields, tables + 64)
            tracemalloc.start()
            try:
                with pytest.raises(CorruptStreamError):
                    get_codec(name).decompress(forged)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, name

    def test_symbol_count_check_is_exact(self):
        code = HuffmanCode([1, 1])
        assert _decode(code, b"\xaa", 0, 8) == ([1, 0] * 4, 8)
        with pytest.raises(CorruptStreamError):
            _decode(code, b"\xaa", 0, 9)

    def test_huffman_codec_roundtrip_unaffected(self):
        codec = HuffmanCodec()
        assert codec.decompress(codec.compress(self.DATA)) == self.DATA

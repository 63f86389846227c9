"""Unit tests for canonical length-limited Huffman coding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.bitio import BitReader, BitWriter
from repro.compression.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCode,
    HuffmanCodec,
    _decode_tables,
    huffman_code_lengths,
)
from repro.verify.references import (
    StreamDecoder,
    reference_canonical_codes,
    reference_decode_tables,
    reference_huffman_code_lengths,
)
from tests.strategies import examples


class TestCodeLengths:
    def test_empty_frequencies(self):
        assert huffman_code_lengths([0, 0, 0]) == [0, 0, 0]

    def test_single_symbol_gets_one_bit(self):
        assert huffman_code_lengths([0, 5, 0]) == [0, 1, 0]

    def test_two_equal_symbols(self):
        assert huffman_code_lengths([3, 3]) == [1, 1]

    def test_skewed_distribution_gives_short_code_to_common_symbol(self):
        lengths = huffman_code_lengths([1000, 10, 10, 10])
        assert lengths[0] == min(lengths)

    def test_kraft_inequality_holds(self):
        lengths = huffman_code_lengths([5, 9, 12, 13, 16, 45])
        kraft = sum(2 ** (MAX_CODE_LENGTH - l) for l in lengths if l)
        assert kraft <= 2**MAX_CODE_LENGTH

    def test_optimal_for_classic_example(self):
        # Cover's classic: probabilities .25 .25 .2 .15 .15
        lengths = huffman_code_lengths([25, 25, 20, 15, 15])
        expected_cost = 25 * 2 + 25 * 2 + 20 * 2 + 15 * 3 + 15 * 3
        cost = sum(f * l for f, l in zip([25, 25, 20, 15, 15], lengths))
        assert cost == expected_cost

    def test_length_limiting_kicks_in_for_fibonacci_frequencies(self):
        # Fibonacci frequencies force a maximally skewed tree.
        fib = [1, 1]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        lengths = huffman_code_lengths(fib)
        assert max(lengths) <= MAX_CODE_LENGTH
        kraft = sum(2 ** (MAX_CODE_LENGTH - l) for l in lengths if l)
        assert kraft <= 2**MAX_CODE_LENGTH

    @given(st.lists(st.integers(min_value=0, max_value=10000), min_size=1, max_size=300))
    @examples(50)
    def test_lengths_always_decodable(self, freqs):
        lengths = huffman_code_lengths(freqs)
        present = [l for l in lengths if l]
        if not present:
            return
        kraft = sum(2 ** (MAX_CODE_LENGTH - l) for l in present)
        assert kraft <= 2**MAX_CODE_LENGTH
        # every nonzero frequency must get a code, zero frequencies must not
        for freq, length in zip(freqs, lengths):
            assert (length > 0) == (freq > 0)


_FIBONACCI = [1, 1]
while len(_FIBONACCI) < 40:
    _FIBONACCI.append(_FIBONACCI[-1] + _FIBONACCI[-2])


def _tie_heavy_frequencies(alphabet: int) -> st.SearchStrategy:
    """Frequency vectors where the merge order hangs on the tiebreak."""
    weights = st.one_of(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10000),
        st.sampled_from([0, 1, 1, 2, 4, 8, 1 << 20]),
        st.sampled_from([0] + _FIBONACCI),
    )
    position = st.integers(min_value=0, max_value=alphabet - 1)
    constant = st.integers(min_value=1, max_value=1000)
    return st.one_of(
        st.lists(weights, min_size=alphabet, max_size=alphabet),
        constant.map(lambda value: [value] * alphabet),
        st.builds(
            lambda at, big: [1] * at + [big] + [1] * (alphabet - at - 1), position, constant
        ),
        st.just([1 << (sym % 21) for sym in range(alphabet)]),
        # Fibonacci weights are the most lopsided tree there is: past 16
        # of them the lengths are clamped and the Kraft sum repaired.
        st.just((_FIBONACCI * 8)[:alphabet]),
        st.permutations((_FIBONACCI * 8)[:alphabet]),
        st.just([_FIBONACCI[sym // 2 % 40] if sym % 2 else 0 for sym in range(alphabet)]),
        st.builds(lambda at, value: [0] * at + [value] + [0] * (alphabet - at - 1), position, constant),
        st.builds(
            lambda a, b, value: [value if sym in (a, b) else 0 for sym in range(alphabet)],
            position, position, constant,
        ),
    )


class TestConstructionMatchesOracles:
    """Two-queue lengths, per-length-count codes and ``np.repeat`` tables
    against the heap of symbol lists, the sorted walk and the
    slice-assign builder: identical, not merely equally good."""

    @pytest.mark.parametrize("alphabet", [2, 3, 30, 256, 286])
    @given(data=st.data())
    @examples(60)
    def test_lengths_codes_and_tables(self, alphabet, data):
        frequencies = data.draw(_tie_heavy_frequencies(alphabet))
        lengths = huffman_code_lengths(frequencies)
        assert lengths == reference_huffman_code_lengths(frequencies)
        assert HuffmanCode(lengths).codes == reference_canonical_codes(lengths)
        for table, oracle in zip(
            _decode_tables.__wrapped__(tuple(lengths)), reference_decode_tables(lengths)
        ):
            assert table.dtype == oracle.dtype
            assert np.array_equal(table, oracle)
            assert not table.flags.writeable

    @pytest.mark.parametrize("max_length", [4, 8, 40])
    def test_other_length_limits(self, max_length):
        frequencies = (_FIBONACCI * 2)[:16]
        assert huffman_code_lengths(frequencies, max_length) == reference_huffman_code_lengths(
            frequencies, max_length
        )

    def test_accepts_any_sequence(self):
        frequencies = [5, 0, 9, 9, 1, 0, 3]
        expected = reference_huffman_code_lengths(frequencies)
        assert huffman_code_lengths(tuple(frequencies)) == expected
        assert huffman_code_lengths(np.array(frequencies)) == expected

    @pytest.mark.parametrize(
        "lengths",
        [
            [MAX_CODE_LENGTH + 1, 1],
            [-1, 1],
            [255, 1],
            [256, 1],
            [1, 1, 1],
            [1, 2, 2, MAX_CODE_LENGTH],
            [2] * 5,
            [0, 1, 1, 0, MAX_CODE_LENGTH],
        ],
    )
    def test_bad_profiles_rejected(self, lengths):
        with pytest.raises(CorruptStreamError):
            HuffmanCode(lengths)

    def test_full_and_incomplete_profiles_accepted(self):
        assert HuffmanCode([1, 1]).codes == [0, 1]
        assert HuffmanCode([2, 2, 2, 2]).codes == [0, 1, 2, 3]
        assert HuffmanCode([0, 0]).codes == [0, 0]
        # One 15-bit codeword: windows past it match nothing.
        sparse = HuffmanCode([0, MAX_CODE_LENGTH])
        symbols, bits = sparse.decode_tables()
        assert bits[0] == MAX_CODE_LENGTH and symbols[0] == 1
        assert not bits[1:].any()


class TestHuffmanCode:
    def test_canonical_codes_are_prefix_free(self):
        code = HuffmanCode.from_frequencies([10, 7, 5, 2, 1])
        strings = [s for s in code.code_strings if s]
        for i, a in enumerate(strings):
            for j, b in enumerate(strings):
                if i != j:
                    assert not b.startswith(a)

    def test_table_roundtrip(self):
        code = HuffmanCode.from_frequencies([3, 1, 4, 1, 5, 9, 2, 6])
        writer = BitWriter()
        code.write_table(writer)
        reader = BitReader(writer.getvalue())
        restored = HuffmanCode.read_table(reader, 8)
        assert restored.lengths == code.lengths
        assert restored.codes == code.codes

    def test_invalid_lengths_rejected(self):
        with pytest.raises(CorruptStreamError):
            HuffmanCode([MAX_CODE_LENGTH + 1])

    def test_kraft_violation_rejected(self):
        # three 1-bit codes cannot coexist
        with pytest.raises(CorruptStreamError):
            HuffmanCode([1, 1, 1])

    def test_encode_decode_symbols(self):
        symbols = [0, 1, 2, 1, 0, 0, 3, 2, 1, 0]
        code = HuffmanCode.from_symbols(symbols, 4)
        bits = code.encode_bitstring(symbols)
        padding = (-len(bits)) % 8
        data = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big")
        decoded, end_bit = code.decode_symbols(data, 0, len(symbols))
        assert decoded == symbols
        assert end_bit == len(bits)

    def test_bitstring_matches_per_symbol_writer(self):
        # encode_bitstring is the one whole-block encoder; writing each
        # codeword through a BitWriter must produce the identical stream.
        symbols = [2, 0, 1, 1, 2, 2, 2]
        code = HuffmanCode.from_symbols(symbols, 3)
        writer = BitWriter()
        for sym in symbols:
            writer.write_bits(code.codes[sym], code.lengths[sym])
        bits = code.encode_bitstring(symbols)
        padding = (-len(bits)) % 8
        expected = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big") if bits else b""
        assert writer.getvalue() == expected

    def test_absent_symbol_has_no_codeword(self):
        code = HuffmanCode.from_frequencies([1, 1, 0])
        assert code.lengths[2] == 0
        assert code.code_strings[2] == ""

    def test_expected_bits(self):
        code = HuffmanCode.from_frequencies([1, 1])
        assert code.expected_bits([10, 20]) == 30

    def test_self_synchronization_from_wrong_offset(self):
        # Decoding from a shifted offset must lock back on: after a few
        # symbols the decoder tracks the true codeword boundaries (§2.4).
        symbols = ([0] * 50 + [1] * 25 + [2] * 12 + [3] * 6) * 30
        code = HuffmanCode.from_symbols(symbols, 4)
        bits = code.encode_bitstring(symbols)
        padding = (-len(bits)) % 8
        data = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big")
        full, _ = code.decode_symbols(data, 0, len(symbols))
        shifted, _ = code.decode_symbols(data, 3, len(symbols) - 16)
        # The tail of the shifted decode must realign with the true stream.
        tail = shifted[-50:]
        text_full = "".join(map(str, full))
        assert "".join(map(str, tail)) in text_full


class TestStreamDecoder:
    def test_mixed_codes_and_raw_bits(self):
        code = HuffmanCode.from_frequencies([5, 3, 2])
        writer = BitWriter()
        for sym in (0, 2):
            writer.write_bits(code.codes[sym], code.lengths[sym])
        writer.write_bits(0b1011, 4)
        writer.write_bits(code.codes[1], code.lengths[1])
        decoder = StreamDecoder(writer.getvalue())
        assert decoder.read_code(code) == 0
        assert decoder.read_code(code) == 2
        assert decoder.read_bits(4) == 0b1011
        assert decoder.read_code(code) == 1

    def test_exhaustion_raises(self):
        decoder = StreamDecoder(b"")
        with pytest.raises(CorruptStreamError):
            decoder.read_bits(1)

    def test_bit_position_tracks(self):
        decoder = StreamDecoder(b"\xff\x00")
        decoder.read_bits(3)
        assert decoder.bit_position == 3


class TestHuffmanCodec:
    def test_empty(self):
        codec = HuffmanCodec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_byte(self):
        codec = HuffmanCodec()
        assert codec.decompress(codec.compress(b"z")) == b"z"

    def test_single_symbol_run(self):
        codec = HuffmanCodec()
        data = b"\x07" * 5000
        compressed = codec.compress(data)
        assert codec.decompress(compressed) == data
        assert len(compressed) < len(data) / 4

    def test_roundtrip_corpus(self, corpus):
        codec = HuffmanCodec()
        for name, data in corpus.items():
            assert codec.decompress(codec.compress(data)) == data, name

    def test_low_entropy_compresses_well(self, lowentropy_block):
        codec = HuffmanCodec()
        assert codec.ratio(lowentropy_block) < 0.35

    def test_random_data_does_not_explode(self, random_block):
        codec = HuffmanCodec()
        assert codec.ratio(random_block) < 1.05

    def test_trailing_garbage_detected_for_empty(self):
        codec = HuffmanCodec()
        with pytest.raises(CorruptStreamError):
            codec.decompress(codec.compress(b"") + b"!")

    @given(st.binary(max_size=4096))
    @examples(60)
    def test_roundtrip_property(self, data):
        codec = HuffmanCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestDecodeTableCache:
    def test_equal_length_codes_share_tables(self):
        from repro.compression.huffman import _decode_tables

        a = HuffmanCode.from_frequencies([10, 7, 5, 2, 1])
        b = HuffmanCode.from_frequencies([100, 70, 50, 20, 10])  # same shape
        assert a.lengths == b.lengths
        a._ensure_decode_table()
        b._ensure_decode_table()
        # lru_cache returns the identical table objects for identical keys.
        assert a._decode_symbols is b._decode_symbols
        assert a._decode_lengths is b._decode_lengths
        info = _decode_tables.cache_info()
        assert info.hits >= 1

    def test_cached_decode_stays_correct(self):
        symbols = [0, 1, 2, 1, 0, 3, 3, 3, 2]
        first = HuffmanCode.from_symbols(symbols, 4)
        second = HuffmanCode(list(first.lengths))  # cache hit path
        bits = first.encode_bitstring(symbols)
        padding = (-len(bits)) % 8
        data = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big")
        decoded, _ = second.decode_symbols(data, 0, len(symbols))
        assert decoded == symbols

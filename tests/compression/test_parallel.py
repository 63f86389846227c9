"""Unit tests for parallel compression and parallel Huffman decoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.huffman import HuffmanCode, HuffmanCodec
from repro.compression.identity import IdentityCodec
from repro.compression.lz77 import Lz77Codec
from repro.compression.parallel import (
    ParallelCodec,
    huffman_segment_table,
    parallel_huffman_decode,
)
from tests.strategies import examples


class TestParallelCodec:
    def codec(self, chunk_size=4096, workers=3):
        return ParallelCodec(Lz77Codec(), chunk_size=chunk_size, workers=workers)

    def test_name_reflects_base(self):
        assert self.codec().name == "parallel:lempel-ziv"

    def test_empty(self):
        codec = self.codec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_chunk(self):
        codec = self.codec()
        data = b"small payload"
        assert codec.decompress(codec.compress(data)) == data

    def test_multi_chunk_roundtrip(self, commercial_block):
        codec = self.codec()
        assert codec.decompress(codec.compress(commercial_block)) == commercial_block

    def test_exact_chunk_boundary(self):
        codec = self.codec(chunk_size=1024)
        data = b"x" * 4096
        assert codec.decompress(codec.compress(data)) == data

    def test_roundtrip_corpus(self, corpus):
        codec = self.codec()
        for name, data in corpus.items():
            assert codec.decompress(codec.compress(data)) == data, name

    def test_ratio_close_to_sequential(self, commercial_block):
        parallel_ratio = self.codec(chunk_size=16384).ratio(commercial_block)
        sequential_ratio = Lz77Codec().ratio(commercial_block)
        # chunking costs some context; the overhead must stay modest
        assert parallel_ratio < sequential_ratio + 0.08

    def test_random_access_chunk(self, commercial_block):
        codec = self.codec(chunk_size=8192)
        payload = codec.compress(commercial_block)
        third_chunk = codec.decompress_chunk(payload, 2)
        assert third_chunk == commercial_block[2 * 8192 : 3 * 8192]

    def test_random_access_out_of_range(self):
        codec = self.codec()
        payload = codec.compress(b"abc")
        with pytest.raises(IndexError):
            codec.decompress_chunk(payload, 5)

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptStreamError):
            self.codec().decompress(b"XXXX\x00")

    def test_truncated_container_rejected(self):
        payload = self.codec().compress(b"hello world " * 500)
        with pytest.raises(CorruptStreamError):
            self.codec().decompress(payload[:-4])

    def test_trailing_garbage_rejected(self):
        payload = self.codec().compress(b"hello world " * 50)
        with pytest.raises(CorruptStreamError):
            self.codec().decompress(payload + b"!")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ParallelCodec(IdentityCodec(), chunk_size=100)
        with pytest.raises(ValueError):
            ParallelCodec(IdentityCodec(), workers=0)

    def test_works_with_any_base(self, lowentropy_block):
        for base in (IdentityCodec(), HuffmanCodec()):
            codec = ParallelCodec(base, chunk_size=4096)
            assert codec.decompress(codec.compress(lowentropy_block)) == lowentropy_block

    @given(st.binary(max_size=20000))
    @examples(30)
    def test_roundtrip_property(self, data):
        codec = ParallelCodec(Lz77Codec(), chunk_size=2048, workers=2)
        assert codec.decompress(codec.compress(data)) == data


def _encode(symbols, alphabet=256):
    code = HuffmanCode.from_symbols(symbols, alphabet)
    bits = code.encode_bitstring(symbols)
    padding = (-len(bits)) % 8
    data = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big")
    return code, data


class TestParallelHuffmanDecode:
    def _skewed_symbols(self, n=30000):
        return ([0] * 8 + [1] * 4 + [2] * 2 + [3]) * (n // 15)

    def test_matches_sequential(self):
        symbols = self._skewed_symbols()
        code, data = _encode(symbols, 4)
        decoded = parallel_huffman_decode(code, data, len(symbols), segments=5)
        assert decoded == symbols

    def test_single_segment_degenerates_to_sequential(self):
        symbols = self._skewed_symbols(3000)
        code, data = _encode(symbols, 4)
        assert parallel_huffman_decode(code, data, len(symbols), segments=1) == symbols

    @pytest.mark.parametrize("segments", [2, 3, 4, 8, 16])
    def test_various_segment_counts(self, segments):
        symbols = self._skewed_symbols(12000)
        code, data = _encode(symbols, 4)
        assert (
            parallel_huffman_decode(code, data, len(symbols), segments=segments)
            == symbols
        )

    def test_more_segments_than_bytes(self):
        symbols = [0, 1, 0, 0, 1]
        code, data = _encode(symbols, 2)
        assert parallel_huffman_decode(code, data, len(symbols), segments=64) == symbols

    def test_real_text(self, commercial_block):
        symbols = list(commercial_block[:40000])
        code, data = _encode(symbols)
        assert parallel_huffman_decode(code, data, len(symbols), segments=6) == symbols

    def test_zero_symbols(self):
        code, data = _encode([0, 1], 2)
        assert parallel_huffman_decode(code, data, 0) == []

    def test_count_beyond_stream_raises(self):
        symbols = [0, 1] * 50
        code, data = _encode(symbols, 2)
        with pytest.raises(CorruptStreamError):
            parallel_huffman_decode(code, data, 10**6, segments=3)

    def test_invalid_segments(self):
        code, data = _encode([0, 1], 2)
        with pytest.raises(ValueError):
            parallel_huffman_decode(code, data, 2, segments=0)

    def test_segment_table_spillover_lands_on_boundary(self):
        symbols = self._skewed_symbols(4000)
        code, data = _encode(symbols, 4)
        boundaries, decoded, final_bit = huffman_segment_table(code, data, 0, 100)
        assert boundaries[0] == 0
        assert final_bit >= 100
        assert len(decoded) == len(boundaries)

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=4000))
    @examples(25)
    def test_roundtrip_property(self, symbols):
        code, data = _encode(symbols)
        decoded = parallel_huffman_decode(code, data, len(symbols), segments=4)
        assert decoded == symbols


class TestParallelHuffmanEdgeCases:
    """Degenerate streams: empty input, single-segment, and speculation
    that never synchronizes (forcing the sequential re-decode path)."""

    def test_empty_input_zero_symbols(self):
        code, _ = _encode([0, 1], 2)
        assert parallel_huffman_decode(code, b"", 0) == []
        assert parallel_huffman_decode(code, b"", 0, segments=8) == []

    def test_empty_input_with_symbols_expected_raises(self):
        code, _ = _encode([0, 1], 2)
        with pytest.raises(CorruptStreamError):
            parallel_huffman_decode(code, b"", 1, segments=4)

    def test_stream_shorter_than_one_segment(self):
        # 3 one-bit symbols fit in a single byte, so even segments=4
        # collapses to a single speculative segment.
        symbols = [0, 1, 0]
        code, data = _encode(symbols, 2)
        assert len(data) == 1
        assert parallel_huffman_decode(code, data, len(symbols), segments=4) == symbols

    def _fixed_length_code(self):
        """A 32-symbol uniform alphabet yields 5-bit fixed-length codes.

        Fixed-length codes never self-synchronize: a speculative decode
        entering at a byte boundary that is not a multiple of the code
        length stays mis-aligned forever, so stitching must fall back to
        the sequential re-decode path for the whole segment.
        """
        symbols = list(range(32)) * 126  # uniform frequencies -> balanced tree
        code = HuffmanCode.from_symbols(symbols, 32)
        for symbol in range(32):
            assert len(code.encode_bitstring([symbol])) == 5
        return code

    def test_never_synchronizing_speculation_is_discarded(self):
        code = self._fixed_length_code()
        symbols = [(i * 7) % 32 for i in range(4001)]
        bits = code.encode_bitstring(symbols)
        padding = (-len(bits)) % 8
        data = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big")

        # A segment starting at bit 5008 (byte 626, != 0 mod 5) speculates
        # boundaries all congruent to 3 mod 5 — never a true boundary.
        boundaries, _, _ = huffman_segment_table(code, data, 5008, 5008 + 400)
        assert boundaries
        assert all(bit % 5 == 3 for bit in boundaries)

        # 4001 symbols * 5 bits pad to 2501 bytes, making every interior
        # segment start land off the 5-bit grid; the decode must still be
        # exact via sequential re-decode of the unsynchronized segments.
        total_bits = len(data) * 8
        span = ((total_bits // 4) + 7) & ~7
        starts = [index * span for index in range(1, 4) if index * span < total_bits]
        assert starts, "expected interior segment starts"
        assert all(start % 5 != 0 for start in starts)
        decoded = parallel_huffman_decode(code, data, len(symbols), segments=4)
        assert decoded == symbols

    @pytest.mark.parametrize("segments", [2, 3, 8])
    def test_never_synchronizing_various_segment_counts(self, segments):
        code = self._fixed_length_code()
        symbols = [(i * 11) % 32 for i in range(1603)]
        bits = code.encode_bitstring(symbols)
        padding = (-len(bits)) % 8
        data = int(bits + "0" * padding, 2).to_bytes((len(bits) + padding) // 8, "big")
        decoded = parallel_huffman_decode(code, data, len(symbols), segments=segments)
        assert decoded == symbols


class TestPoolStrategies:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            ParallelCodec(Lz77Codec(), strategy="green-threads")

    @pytest.mark.parametrize("strategy", ["threads", "processes", "serial"])
    def test_wire_bytes_identical_across_strategies(self, strategy, corpus):
        data = corpus["commercial"][: 96 * 1024]
        reference = ParallelCodec(Lz77Codec(), strategy="serial").compress(data)
        codec = ParallelCodec(Lz77Codec(), strategy=strategy)
        payload = codec.compress(data)
        assert payload == reference
        assert codec.decompress(payload) == data

    def test_process_strategy_decompresses_serial_payload(self, corpus):
        data = corpus["lowentropy"][: 64 * 1024]
        payload = ParallelCodec(Lz77Codec(), strategy="serial").compress(data)
        assert ParallelCodec(Lz77Codec(), strategy="processes").decompress(payload) == data

    def test_broken_pool_degrades_to_serial(self, corpus):
        data = corpus["commercial"][: 64 * 1024]
        reference = ParallelCodec(Lz77Codec(), strategy="serial").compress(data)
        codec = ParallelCodec(Lz77Codec(), strategy="processes")
        codec._make_executor = lambda: (_ for _ in ()).throw(OSError("fork failed"))
        assert codec.compress(data) == reference
        assert codec.strategy == "serial"
        assert codec.degradations == 1
        # Degraded codec keeps working without a pool.
        assert codec.decompress(reference) == data

"""Unit tests for the adaptive arithmetic codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.arithmetic import (
    _CODE_BITS,
    AdaptiveByteModel,
    ArithmeticCodec,
    ContextArithmeticCodec,
)
from repro.compression.base import CorruptStreamError
from tests.strategies import examples


class TestAdaptiveByteModel:
    def test_initial_uniform(self):
        model = AdaptiveByteModel()
        assert model.total == 257
        assert all(model.frequency(s) == 1 for s in (0, 100, 256))

    def test_cumulative_is_monotone(self):
        model = AdaptiveByteModel()
        values = [model.cumulative(s) for s in range(258)]
        assert values == sorted(values)
        assert values[0] == 0
        assert values[-1] == model.total

    def test_update_increases_frequency(self):
        model = AdaptiveByteModel()
        before = model.frequency(42)
        model.update(42)
        assert model.frequency(42) > before

    def test_find_inverts_cumulative(self):
        model = AdaptiveByteModel()
        for _ in range(50):
            model.update(7)
        for symbol in (0, 7, 8, 200, 256):
            low = model.cumulative(symbol)
            high = model.cumulative(symbol + 1)
            assert model.find(low) == symbol
            assert model.find(high - 1) == symbol

    def test_rescale_keeps_all_symbols_positive(self):
        model = AdaptiveByteModel()
        for _ in range(5000):
            model.update(1)
        assert model.frequency(255) >= 1
        assert model.frequency(1) > model.frequency(2)


class TestArithmeticCodec:
    def test_empty(self):
        codec = ArithmeticCodec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_byte(self):
        codec = ArithmeticCodec()
        assert codec.decompress(codec.compress(b"\x00")) == b"\x00"

    def test_roundtrip_corpus(self, corpus):
        codec = ArithmeticCodec()
        for name, data in corpus.items():
            sample = data[:8192]  # arithmetic is slow by design
            assert codec.decompress(codec.compress(sample)) == sample, name

    def test_low_entropy_beats_huffman_floor(self, lowentropy_block):
        # Arithmetic codes use fractional bits, so a skewed distribution
        # must compress below 1 bit/symbol where Huffman cannot.
        data = bytes(b % 2 for b in lowentropy_block[:8192])  # 2-symbol skew
        codec = ArithmeticCodec()
        compressed = codec.compress(data)
        assert len(compressed) < len(data) / 4

    def test_highly_compressible(self):
        codec = ArithmeticCodec()
        data = b"\x05" * 20000
        compressed = codec.compress(data)
        assert len(compressed) < 200
        assert codec.decompress(compressed) == data

    def test_adapts_to_shifting_distribution(self):
        codec = ArithmeticCodec()
        data = b"a" * 4000 + b"b" * 4000
        assert codec.decompress(codec.compress(data)) == data

    @given(st.binary(max_size=1024))
    @examples(40)
    def test_roundtrip_property(self, data):
        codec = ArithmeticCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestContextArithmeticCodec:
    def test_empty(self):
        codec = ContextArithmeticCodec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_byte(self):
        codec = ContextArithmeticCodec()
        assert codec.decompress(codec.compress(b"Q")) == b"Q"

    def test_roundtrip_corpus(self, corpus):
        codec = ContextArithmeticCodec()
        for name, data in corpus.items():
            sample = data[:6144]
            assert codec.decompress(codec.compress(sample)) == sample, name

    def test_order1_beats_order0_on_text(self, commercial_block):
        """Conditioning on the previous byte captures digraph structure."""
        sample = commercial_block[:16384]
        order0 = len(ArithmeticCodec().compress(sample))
        order1 = len(ContextArithmeticCodec().compress(sample))
        assert order1 < order0 * 0.85

    def test_deterministic_sequences_near_free(self):
        # 'abcabcabc...' is fully predicted by an order-1 model
        codec = ContextArithmeticCodec()
        data = b"abc" * 3000
        assert len(codec.compress(data)) < len(data) / 10

    def test_roundtrip_alternating_contexts(self):
        codec = ContextArithmeticCodec()
        data = bytes([0, 255] * 2000)
        assert codec.decompress(codec.compress(data)) == data

    @given(st.binary(max_size=768))
    @examples(30)
    def test_roundtrip_property(self, data):
        codec = ContextArithmeticCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestPaddingBound:
    """A stream that lost its end-of-stream symbol is rejected, not decoded
    out of zero padding until a size guard trips."""

    @pytest.mark.parametrize("codec_class", [ArithmeticCodec, ContextArithmeticCodec])
    def test_truncated_stream_rejected_within_padding_budget(self, codec_class, monkeypatch):
        # The stream of a long enough all-zero block, cut before its
        # end-of-stream symbol, is all zero bits: every bit of it — and every
        # bit of padding after it — decodes as more zero bytes, at a small
        # fraction of a bit each once the model has adapted.
        forged = bytes(300)
        assert codec_class().compress(bytes(4000)).startswith(bytes(8))

        decoded = 0
        update = AdaptiveByteModel.update

        def counting_update(model, symbol):
            nonlocal decoded
            decoded += 1
            update(model, symbol)

        monkeypatch.setattr(AdaptiveByteModel, "update", counting_update)
        with pytest.raises(CorruptStreamError):
            codec_class().decompress(forged)
        # A saturated model spends at least 1/200 bit per symbol, and the
        # decoder may read the stream plus _CODE_BITS of padding.
        assert decoded < 200 * (len(forged) * 8 + _CODE_BITS)

    @pytest.mark.parametrize("codec_class", [ArithmeticCodec, ContextArithmeticCodec])
    def test_empty_payload_rejected(self, codec_class):
        with pytest.raises(CorruptStreamError):
            codec_class().decompress(b"")

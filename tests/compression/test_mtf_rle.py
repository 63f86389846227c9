"""Unit tests for move-to-front and the 254-capped RLE stage."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.mtf import mtf_decode, mtf_encode
from repro.compression.rle import ESCAPE, MAX_RUN, rle_decode, rle_encode
from repro.verify.references import (
    reference_mtf_decode,
    reference_mtf_encode,
    reference_rle_encode,
)
from tests.strategies import examples, rle_adversarial_payloads


class TestMtf:
    def test_empty(self):
        assert mtf_encode(b"") == b""
        assert mtf_decode(b"") == b""

    def test_first_occurrence_emits_byte_value(self):
        # With the identity initial table, byte b first appears as index b.
        assert mtf_encode(b"\x05") == b"\x05"

    def test_repeat_emits_zero(self):
        encoded = mtf_encode(b"zz")
        assert encoded[1] == 0

    def test_runs_become_zeros(self):
        encoded = mtf_encode(b"m" * 100)
        assert encoded[1:] == b"\x00" * 99

    def test_alternation_emits_ones(self):
        encoded = mtf_encode(b"ababab")
        assert list(encoded[2:]) == [1, 1, 1, 1]

    def test_roundtrip_corpus(self, corpus):
        for name, data in corpus.items():
            sample = data[:16384]
            assert mtf_decode(mtf_encode(sample)) == sample, name

    def test_index_255_reachable(self):
        # Access byte 255 first (index 255), then byte 254 (now at 255).
        data = bytes([255, 254])
        encoded = mtf_encode(data)
        assert encoded[0] == 255
        assert mtf_decode(encoded) == data

    @given(st.binary(max_size=2048))
    @examples(60)
    def test_roundtrip_property(self, data):
        assert mtf_decode(mtf_encode(data)) == data


class TestRle:
    def test_empty(self):
        assert rle_encode(b"") == b""
        assert rle_decode(b"") == b""

    def test_no_255_in_output(self, corpus):
        for name, data in corpus.items():
            encoded = rle_encode(data[:16384])
            assert 255 not in encoded, name

    def test_zero_run_compressed(self):
        data = b"\x00" * 100
        encoded = rle_encode(data)
        assert len(encoded) < 10
        assert rle_decode(encoded) == data

    def test_run_capped_at_254(self):
        data = b"\x00" * 1000
        encoded = rle_encode(data)
        # escape arguments encoding runs must not exceed MAX_RUN
        i = 0
        while i < len(encoded):
            if encoded[i] == ESCAPE:
                assert encoded[i + 1] <= MAX_RUN
                i += 2
            else:
                i += 1
        assert rle_decode(encoded) == data

    def test_short_zero_runs_stay_raw(self):
        assert rle_encode(b"\x00\x00") == b"\x00\x00"

    def test_literal_254_escaped(self):
        assert rle_encode(bytes([254])) == bytes([ESCAPE, 0])
        assert rle_decode(bytes([ESCAPE, 0])) == bytes([254])

    def test_literal_255_escaped(self):
        assert rle_encode(bytes([255])) == bytes([ESCAPE, 1])
        assert rle_decode(bytes([ESCAPE, 1])) == bytes([255])

    def test_decode_rejects_raw_255(self):
        with pytest.raises(CorruptStreamError):
            rle_decode(b"\xff")

    def test_decode_rejects_escape_255(self):
        with pytest.raises(CorruptStreamError):
            rle_decode(bytes([ESCAPE, 255]))

    def test_decode_rejects_truncated_escape(self):
        with pytest.raises(CorruptStreamError):
            rle_decode(bytes([ESCAPE]))

    def test_roundtrip_corpus(self, corpus):
        for name, data in corpus.items():
            sample = data[:16384]
            assert rle_decode(rle_encode(sample)) == sample, name

    @given(st.binary(max_size=2048))
    @examples(60)
    def test_roundtrip_property(self, data):
        assert rle_decode(rle_encode(data)) == data

    @given(rle_adversarial_payloads())
    @examples(40)
    def test_roundtrip_adversarial_alphabet(self, data):
        encoded = rle_encode(data)
        assert 255 not in encoded
        assert rle_decode(encoded) == data


class TestVectorizedMatchesReference:
    """The numpy run-boundary rewrites must be byte-equal to the scalar loops."""

    def test_mtf_corpus(self, corpus):
        for name, data in corpus.items():
            sample = data[:16384]
            encoded = mtf_encode(sample)
            assert encoded == reference_mtf_encode(sample), name
            assert mtf_decode(encoded) == reference_mtf_decode(encoded), name

    def test_rle_corpus(self, corpus):
        for name, data in corpus.items():
            sample = data[:16384]
            assert rle_encode(sample) == reference_rle_encode(sample), name

    @given(st.binary(max_size=2048))
    @examples(60)
    def test_mtf_property(self, data):
        assert mtf_encode(data) == reference_mtf_encode(data)

    @given(rle_adversarial_payloads())
    @examples(60)
    def test_rle_property(self, data):
        assert rle_encode(data) == reference_rle_encode(data)

    @given(st.binary(max_size=2048))
    @examples(40)
    def test_rle_property_general(self, data):
        assert rle_encode(data) == reference_rle_encode(data)

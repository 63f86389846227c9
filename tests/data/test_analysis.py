"""Unit tests for the data-characteristic analysis (entropy / repetition)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.analysis import (
    DataProfile,
    profile,
    recommended_methods,
    repetition_fraction,
    shannon_entropy,
)
from tests.strategies import examples


class TestEntropy:
    def test_empty(self):
        assert shannon_entropy(b"") == 0.0

    def test_single_symbol_zero_entropy(self):
        assert shannon_entropy(b"a" * 1000) == 0.0

    def test_uniform_two_symbols_one_bit(self):
        assert shannon_entropy(b"ab" * 500) == pytest.approx(1.0)

    def test_uniform_256_symbols_eight_bits(self):
        assert shannon_entropy(bytes(range(256)) * 10) == pytest.approx(8.0)

    def test_bounded(self, corpus):
        for data in corpus.values():
            assert 0.0 <= shannon_entropy(data) <= 8.0

    @given(st.binary(min_size=1, max_size=2000))
    @examples(50)
    def test_entropy_in_range_property(self, data):
        assert 0.0 <= shannon_entropy(data) <= 8.0


class TestRepetition:
    def test_too_short(self):
        assert repetition_fraction(b"ab") == 0.0

    def test_pure_repetition_near_one(self):
        assert repetition_fraction(b"abcd" * 500) > 0.95

    def test_no_repetition_near_zero(self):
        data = bytes(range(256)) + bytes(range(255, -1, -1))
        # every 4-gram unique in this construction? close to it
        assert repetition_fraction(data) < 0.2

    def test_random_data_low(self, random_block):
        assert repetition_fraction(random_block) < 0.1

    def test_commercial_high(self, commercial_block):
        assert repetition_fraction(commercial_block[:32768]) > 0.5

    def test_sample_size_guard(self):
        with pytest.raises(ValueError):
            repetition_fraction(b"\x00" * (2**20 + 1))

    @given(st.binary(max_size=2000))
    @examples(50)
    def test_fraction_in_range_property(self, data):
        assert 0.0 <= repetition_fraction(data) <= 1.0


class TestProfileAndRecommendation:
    def test_both_characteristics(self):
        data = b"abab" * 4000  # low entropy AND repetitive
        p = profile(data)
        assert p.characteristic == "both"
        assert recommended_methods(p)[0] == "burrows-wheeler"

    def test_incompressible(self, random_block):
        p = profile(random_block)
        assert p.characteristic == "incompressible"
        assert recommended_methods(p) == ["none"]

    def test_repetitive_but_high_entropy(self, commercial_block):
        p = profile(commercial_block[:32768])
        assert p.repetitive
        assert "lempel-ziv" in recommended_methods(p)

    def test_low_entropy_iid(self):
        import random as _random

        rng = _random.Random(2)
        data = bytes(rng.choices([0, 1, 2], weights=[90, 8, 2], k=16384))
        p = profile(data)
        assert p.low_entropy
        recommendations = recommended_methods(p)
        assert "huffman" in recommendations
        assert "burrows-wheeler" in recommendations

    def test_dataclass_fields(self):
        p = DataProfile(entropy_bits_per_byte=3.0, repetition=0.9)
        assert p.low_entropy and p.repetitive
        assert p.characteristic == "both"

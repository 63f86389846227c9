"""Unit tests for the suffix-array Burrows-Wheeler transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.bwt import bwt_inverse, bwt_transform, suffix_array
from repro.verify.references import reference_bwt_transform


class TestSuffixArray:
    def test_empty(self):
        assert len(suffix_array(np.array([], dtype=np.int64))) == 0

    def test_banana(self):
        # suffixes of "banana\x00"-style with sentinel appended by caller
        text = np.array([2, 1, 3, 1, 3, 1, 0], dtype=np.int64)  # b=2,a=1,n=3,$=0
        sa = suffix_array(text).tolist()
        # $  a$  ana$  anana$  banana$  na$  nana$
        assert sa == [6, 5, 3, 1, 0, 4, 2]

    def test_all_equal_with_sentinel(self):
        text = np.array([1, 1, 1, 1, 0], dtype=np.int64)
        sa = suffix_array(text).tolist()
        assert sa == [4, 3, 2, 1, 0]

    def test_matches_naive_sort(self):
        rng = np.random.default_rng(3)
        data = rng.integers(1, 5, size=200).tolist() + [0]
        arr = np.array(data, dtype=np.int64)
        sa = suffix_array(arr).tolist()
        naive = sorted(range(len(data)), key=lambda i: data[i:])
        assert sa == naive

    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=80))
    @settings(max_examples=50)
    def test_property_matches_naive(self, values):
        data = values + [0]
        arr = np.array(data, dtype=np.int64)
        assert suffix_array(arr).tolist() == sorted(
            range(len(data)), key=lambda i: data[i:]
        )


def _assert_sorted_suffixes(data: bytes, sa) -> None:
    """``sa`` is *the* suffix array: a permutation whose consecutive
    suffixes strictly increase (suffixes of one string are all distinct,
    so that order is unique — it is ``sorted(range(n), key=suffix)``)."""
    assert sorted(sa) == list(range(len(data)))
    for earlier, later in zip(sa, sa[1:]):
        assert data[earlier:] < data[later:]


class TestSuffixArrayLongRepeats:
    """Inputs on which prefix doubling needs every round it can take."""

    SIZES = [1, 2, 7, 8, 64, 32768]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize(
        "pattern", [b"\x07", b"ab", bytes(range(255))], ids=["all-equal", "period-2", "period-255"]
    )
    def test_equals_sorted_suffixes(self, pattern, size):
        data = (pattern * (size // len(pattern) + 1))[:size]
        sa = suffix_array(np.frombuffer(data, dtype=np.uint8)).tolist()
        if size <= 64:
            assert sa == sorted(range(size), key=lambda i: data[i:])
        _assert_sorted_suffixes(data, sa)

    @pytest.mark.parametrize("size", SIZES)
    def test_transform_matches_reference_and_inverts(self, size):
        rng = np.random.default_rng(size)
        data = bytes(rng.integers(97, 100, size, dtype=np.uint8))
        last, primary = bwt_transform(data)
        if size <= 64:
            assert (last, primary) == reference_bwt_transform(data)
        assert bwt_inverse(last, primary) == data

    def test_without_a_sentinel_shorter_suffix_sorts_first(self):
        assert suffix_array(np.array([5, 5, 5])).tolist() == [2, 1, 0]
        assert suffix_array(np.array([0, 0])).tolist() == [1, 0]

    def test_wide_symbols(self):
        # Symbols too wide to pack more than one per word still sort.
        values = [2**40, 3, 2**40, 3, 2**40]
        assert suffix_array(np.array(values)).tolist() == sorted(
            range(len(values)), key=lambda i: values[i:]
        )


class TestBwtTransform:
    def test_empty(self):
        assert bwt_transform(b"") == (b"", 0)

    def test_output_is_permutation(self):
        data = b"the burrows wheeler transform"
        last, primary = bwt_transform(data)
        assert sorted(last) == sorted(data)
        assert 0 <= primary <= len(data)

    def test_known_banana(self):
        last, primary = bwt_transform(b"banana")
        restored = bwt_inverse(last, primary)
        assert restored == b"banana"

    def test_groups_runs(self):
        # BWT of repetitive text clusters identical characters.
        data = b"she sells sea shells by the sea shore " * 20
        last, _ = bwt_transform(data)
        runs = sum(1 for a, b in zip(last, last[1:]) if a == b)
        baseline = sum(1 for a, b in zip(data, data[1:]) if a == b)
        assert runs > baseline

    def test_periodic_input(self):
        data = b"ab" * 500
        last, primary = bwt_transform(data)
        assert bwt_inverse(last, primary) == data

    def test_all_identical(self):
        data = b"\xee" * 1000
        last, primary = bwt_transform(data)
        assert bwt_inverse(last, primary) == data


class TestBwtInverse:
    def test_primary_out_of_range(self):
        with pytest.raises(CorruptStreamError):
            bwt_inverse(b"abc", 17)

    def test_negative_primary(self):
        with pytest.raises(CorruptStreamError):
            bwt_inverse(b"abc", -1)

    def test_empty_with_bad_primary(self):
        with pytest.raises(CorruptStreamError):
            bwt_inverse(b"", 3)

    def test_corrupt_column_detected_or_garbage(self):
        data = b"hello hello hello hello"
        last, primary = bwt_transform(data)
        mangled = bytes(reversed(last))
        try:
            restored = bwt_inverse(mangled, primary)
            assert restored != data
        except CorruptStreamError:
            pass  # also acceptable

    def test_roundtrip_corpus(self, corpus):
        for name, data in corpus.items():
            sample = data[: 32 * 1024]
            last, primary = bwt_transform(sample)
            assert bwt_inverse(last, primary) == sample, name

    @given(st.binary(max_size=2048))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        last, primary = bwt_transform(data)
        assert bwt_inverse(last, primary) == data


class TestInverseMatchesSequentialReference:
    """The pointer-doubling inverse must equal the classic one-step walk."""

    @staticmethod
    def sequential_inverse(last_column: bytes, primary: int) -> bytes:
        n = len(last_column)
        if n == 0:
            return b""
        m = n + 1
        column = np.empty(m, dtype=np.int64)
        values = np.frombuffer(last_column, dtype=np.uint8).astype(np.int64) + 1
        column[:primary] = values[:primary]
        column[primary] = 0
        column[primary + 1 :] = values[primary:]
        order = np.argsort(column, kind="stable")
        lf = np.empty(m, dtype=np.int64)
        lf[order] = np.arange(m)
        shifted = []  # 0..256: byte values are stored +1, sentinel is 0
        row = primary
        for _ in range(m):
            shifted.append(int(column[row]))
            row = int(lf[row])
        shifted.reverse()
        assert shifted[-1] == 0  # sentinel must close the orbit
        return bytes(value - 1 for value in shifted[:-1])

    def test_corpus(self, corpus):
        for name, data in corpus.items():
            sample = data[: 16 * 1024]
            last, primary = bwt_transform(sample)
            assert bwt_inverse(last, primary) == self.sequential_inverse(last, primary), name

    @given(st.binary(max_size=2048))
    @settings(max_examples=60, deadline=None)
    def test_property(self, data):
        last, primary = bwt_transform(data)
        assert bwt_inverse(last, primary) == self.sequential_inverse(last, primary)

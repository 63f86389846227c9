"""Unit tests for the suffix-array Burrows-Wheeler transform."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.bwhuff import BurrowsWheelerCodec
from repro.compression.bwt import bwt_inverse, bwt_transform, suffix_array
from repro.verify.references import reference_bwt_inverse, reference_bwt_transform
from tests.strategies import examples


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
    @examples(50)
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


def _sorted_suffixes(values) -> list:
    """The definition: positions ordered by the suffix that starts there."""
    values = list(values)
    return sorted(range(len(values)), key=lambda start: values[start:])


#: Inputs on which the seed round, the refinement of tied groups or the
#: packing of symbol and position into one word has something to get wrong.
_ADVERSARIAL = {
    "n=1": [7],
    "n=2-equal": [4, 4],
    "n=2-descending": [9, 2],
    "n=3": [1, 0, 1],
    "all-equal": [3] * 130,
    "all-zero": [0] * 130,
    "period-2": [1, 2] * 70,
    "period-3": [2, 0, 1] * 50,
    # One repeat longer than every doubling width below the input: ties
    # survive until the known prefix outgrows the sequence.
    "long-repeat": ([5] * 63 + [6]) * 4 + [5] * 63,
    "zeros-before-the-end": [3, 0, 0, 1, 0, 0, 0],
    "ascending": list(range(100)),
    "descending": list(range(100, 0, -1)),
    "above-255": [300, 256, 300, 1000, 256, 300, 256, 300, 1000],
    # Too wide to share a word with a position: sorted on dense ranks.
    "sparse-alphabet": [2**62, 5, 2**62, 5, 2**61, 2**62, 5, 2**62, 5],
    "wide-and-tied": [2**62 + 1] * 40 + [0] + [2**62 + 1] * 40,
}


class TestSuffixArrayAdversarial:
    @pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_equals_sorted_suffixes(self, name, dtype):
        values = _ADVERSARIAL[name]
        sa = suffix_array(np.array(values, dtype=dtype))
        assert sa.dtype == np.int64
        assert sa.tolist() == _sorted_suffixes(values)

    def test_repeat_longer_than_every_doubling_width_below_the_chunk(self):
        data = b"x" * 20000 + b"y" + b"x" * 12767
        sa = suffix_array(np.frombuffer(data, dtype=np.uint8)).tolist()
        _assert_sorted_suffixes(data, sa)
        last, primary = bwt_transform(data)
        assert bwt_inverse(last, primary) == data

    def test_narrow_dtype_input(self):
        values = [200, 100, 200, 100, 255, 0]
        assert suffix_array(np.array(values, dtype=np.uint8)).tolist() == _sorted_suffixes(values)

    def test_values_above_int64(self):
        values = [2**64 - 1, 0, 2**64 - 1, 5]
        assert suffix_array(np.array(values, dtype=np.uint64)).tolist() == _sorted_suffixes(values)

    def test_negative_values_rejected(self):
        # Used to wrap through uint64 and return [4, 2, 0, 3, 1].
        with pytest.raises(ValueError):
            suffix_array(np.array([3, -2, 3, -5, 1]))

    @given(
        st.lists(
            st.sampled_from([0, 1, 2, 255, 256, 70000, 2**40, 2**62]), min_size=1, max_size=60
        ),
        st.integers(min_value=1, max_value=6),
    )
    @examples(80)
    def test_property_repeats_over_mixed_widths(self, values, period):
        repeated = (values[:period] * len(values))[: len(values)]
        for sequence in (values, repeated):
            assert suffix_array(np.array(sequence)).tolist() == _sorted_suffixes(sequence)


class TestTransformAndInverseMatchOracles:
    CASES = {
        "one-byte": b"q",
        "two-equal": b"zz",
        "three": b"aba",
        "all-equal": b"\x07" * 200,
        "period-2": b"ab" * 100,
        "period-3": b"abc" * 67,
        "long-repeat": (b"x" * 63 + b"y") * 3 + b"x" * 63,
        "zeros-at-the-end": b"ab\x00\x00\x00",
        "zeros-everywhere": b"\x00" * 150,
        "top-byte": b"\xff\x00\xff\xff\x00" * 30,
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fixed_cases(self, name):
        data = self.CASES[name]
        last, primary = bwt_transform(data)
        assert (last, primary) == reference_bwt_transform(data)
        assert bwt_inverse(last, primary) == reference_bwt_inverse(last, primary) == data

    @given(st.binary(max_size=200), st.integers(min_value=0, max_value=200))
    @examples(80)
    def test_inverse_agrees_on_any_column(self, column, primary):
        # Not only on columns a transform produced: a forged column or
        # primary index decodes to the same bytes, or the same refusal.
        def outcome(inverse):
            try:
                return inverse(column, primary)
            except CorruptStreamError as exc:
                return str(exc)

        assert outcome(bwt_inverse) == outcome(reference_bwt_inverse)


class TestCodecChunkSizes:
    @pytest.mark.parametrize("chunk_size", [64, 1000, 32768, 65536])
    def test_roundtrip_across_chunk_boundaries(self, chunk_size, commercial_block):
        codec = BurrowsWheelerCodec(chunk_size=chunk_size)
        repeat = (b"abcabcab" * (chunk_size // 8 + 1))[: chunk_size + 17]
        for data in (commercial_block[: 2 * chunk_size + 5], repeat, b"\x00" * (chunk_size + 1)):
            assert codec.decompress(codec.compress(data)) == data


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
    @examples(60)
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
    @examples(60)
    def test_property(self, data):
        last, primary = bwt_transform(data)
        assert bwt_inverse(last, primary) == self.sequential_inverse(last, primary)

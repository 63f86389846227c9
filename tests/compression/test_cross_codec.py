"""Cross-codec invariants: every registered codec on every corpus class,
plus the qualitative relationships the paper's Figure 1 table asserts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import available_codecs, get_codec
from tests.strategies import examples

# The lossy codecs only accept float64 payloads and are not lossless;
# they have their own suite (test_lossy.py).
ALL_CODECS = sorted(
    name for name in available_codecs() if get_codec(name).family != "lossy"
)
FAST_CODECS = [c for c in ALL_CODECS if not c.startswith("arithmetic")]


@pytest.mark.parametrize("name", ALL_CODECS)
def test_roundtrip_all_codecs_all_corpora(name, corpus):
    codec = get_codec(name)
    for label, data in corpus.items():
        sample = data[:8192] if name.startswith("arithmetic") else data
        assert codec.decompress(codec.compress(sample)) == sample, (name, label)


@pytest.mark.parametrize("name", ALL_CODECS)
def test_compress_is_deterministic(name, commercial_block):
    codec = get_codec(name)
    sample = commercial_block[:8192]
    assert codec.compress(sample) == codec.compress(sample)


@pytest.mark.parametrize("name", [c for c in ALL_CODECS if c != "none"])
def test_no_catastrophic_expansion(name, random_block):
    codec = get_codec(name)
    sample = random_block[:8192]
    # LZW inherently emits 9-14 bit codes for ~1.4-byte phrases on random
    # data (classic `compress` behaved the same); everything else must stay
    # near 1:1.
    bound = 1.5 if name == "lzw" else 1.2
    assert len(codec.compress(sample)) < len(sample) * bound + 1024


def test_figure1_compression_efficiency_ordering(commercial_block):
    """BW excellent > LZ good > Huffman/arithmetic poor on repetitive data."""
    ratios = {
        name: get_codec(name).ratio(commercial_block)
        for name in ("burrows-wheeler", "lempel-ziv", "huffman")
    }
    assert ratios["burrows-wheeler"] < ratios["lempel-ziv"] < ratios["huffman"]


def test_low_entropy_entropy_coders_work(lowentropy_block):
    """Figure 1: Huffman/arithmetic excellent on low-entropy data."""
    sample = lowentropy_block[:8192]
    assert get_codec("huffman").ratio(sample) < 0.5
    assert get_codec("arithmetic").ratio(sample) < 0.5


def test_lempel_ziv_poor_on_low_entropy_without_repeats():
    """Figure 1: LZ 'Poor' on low entropy *without* string repetition."""
    import random

    rng = random.Random(17)
    # i.i.d. skewed bytes: low entropy but few long exact repeats
    data = bytes(rng.choices(range(16), weights=[50] + [3] * 15, k=16384))
    lz = get_codec("lempel-ziv").ratio(data)
    huff = get_codec("huffman").ratio(data)
    assert huff < lz + 0.15  # entropy coding at least competitive here


@given(st.binary(min_size=0, max_size=1500))
@examples(25)
def test_roundtrip_property_all_fast_codecs(data):
    for name in FAST_CODECS:
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data, name

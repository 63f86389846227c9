"""Differential oracles: stdlib wire counterparts, scalar loops, pools."""

import bz2
import zlib

from repro.verify.corpus import CorpusGenerator
from repro.verify.differential import (
    counterpart_for,
    diff_scalar_vectorized,
    diff_serial_parallel,
    diff_wire_counterpart,
    differential_failures,
    run_differential,
)


def _small_corpus():
    return CorpusGenerator(size=4096).as_dict()


class TestWireCounterparts:
    def test_known_counterparts(self):
        assert counterpart_for("lempel-ziv-native").label == "zlib"
        assert counterpart_for("burrows-wheeler-native").label == "bz2"
        assert counterpart_for("huffman") is None

    def test_no_counterpart_yields_no_results(self):
        assert diff_wire_counterpart("huffman", "case", b"data") == []

    def test_zlib_cross_decode(self):
        data = _small_corpus()["commercial"]
        results = diff_wire_counterpart("lempel-ziv-native", "commercial", data)
        assert len(results) == 2
        assert not differential_failures(results)

    def test_stdlib_really_shares_the_wire(self):
        # Belt and braces: assert the premise directly, not just via the kit.
        from repro.compression.registry import get_codec

        data = _small_corpus()["lowentropy"]
        assert zlib.decompress(get_codec("lempel-ziv-native").compress(data)) == data
        assert bz2.decompress(get_codec("burrows-wheeler-native").compress(data)) == data


class TestScalarVectorized:
    def test_hot_loops_match_references(self):
        data = _small_corpus()["rle-adversarial"]
        results = diff_scalar_vectorized("rle-adversarial", data)
        assert not differential_failures(results)
        subjects = {result.subject for result in results}
        assert {"mtf-encode", "rle-encode", "bwt-transform"} <= subjects
        assert {"huffman-decode", "huffman-decode-resync", "lz77-decode"} <= subjects

    def test_timings_are_recorded(self):
        data = _small_corpus()["lowentropy"]
        results = diff_scalar_vectorized("lowentropy", data)
        timed = [r for r in results if r.subject_seconds or r.reference_seconds]
        assert timed, "measure_callable timings missing from differential results"


class TestSerialParallel:
    def test_pool_strategy_never_reaches_the_wire(self):
        data = _small_corpus()["commercial"]
        results = diff_serial_parallel("huffman", "commercial", data)
        assert not differential_failures(results)


def test_full_sweep_passes():
    results = run_differential(corpus=_small_corpus())
    failures = differential_failures(results)
    assert not failures, "\n".join(
        f"{f.kind} {f.subject} {f.case}: {f.detail}" for f in failures
    )

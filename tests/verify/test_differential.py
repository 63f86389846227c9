"""Differential oracles: stdlib wire counterparts, scalar loops, pools."""

import bz2
import functools
import types
import zlib

from repro.verify import references
from repro.verify.corpus import CorpusGenerator
from repro.verify.differential import (
    _ROWS,
    REFERENCE_COUNTERPARTS,
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


def _reachable_names(function, seen=None):
    """Every global or attribute name ``function`` can reach: its own code,
    nested lambdas and comprehensions, closure cells, ``partial`` parts."""
    seen = set() if seen is None else seen
    if isinstance(function, functools.partial):
        for part in (function.func, *function.args):
            _reachable_names(part, seen)
        return seen
    function = getattr(function, "__func__", function)
    seen.add(getattr(function, "__name__", ""))
    code = getattr(function, "__code__", None)
    pending = [code] if code is not None else []
    while pending:
        code = pending.pop()
        seen.update(code.co_names)
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for cell in getattr(function, "__closure__", None) or ():
        if callable(cell.cell_contents):
            _reachable_names(cell.cell_contents, seen)
    return seen


class TestRowTable:
    """The table is the sweep: no oracle without a row, no row dropped."""

    SUBJECTS = {
        "huffman-decode", "huffman-decode-resync", "lz77-decode",
        "huffman-lengths", "huffman-decode-tables",
        "mtf-encode", "rle-encode", "lz77-tokenize", "lz77-encode",
        "mtf-decode", "rle-decode", "bwt-transform", "bwt-inverse",
        "delta-zigzag", "undelta-zigzag",
        "bitpack-1", "bitpack-7", "bitpack-12", "bitpack-24", "bitpack-33", "bitpack-64",
    }

    def test_every_reference_is_some_rows_oracle(self):
        """An import plus a comment used to satisfy check.sh's word count;
        only being (or being called by) a row's ``oracle`` pins anything."""
        oracles = set()
        for row in _ROWS:
            oracles |= _reachable_names(row.oracle)
        wanted = {name for name in references.__all__ if name.startswith("reference_")}
        assert len(wanted) == 17
        assert not wanted - oracles, f"oracles without a row: {sorted(wanted - oracles)}"

    def test_kernel_side_never_calls_an_oracle(self):
        for row in _ROWS:
            leaked = {n for n in _reachable_names(row.kernel) if n.startswith("reference_")}
            assert not leaked, f"{row.subject}: kernel side reaches {sorted(leaked)}"

    def test_subjects_and_sweep_size_are_pinned(self):
        assert {row.subject for row in _ROWS} == self.SUBJECTS
        assert len(_ROWS) == len(self.SUBJECTS)
        results = run_differential()
        wire = set(REFERENCE_COUNTERPARTS) & {r.subject for r in results}
        parallel = {"parallel:huffman", "parallel:lempel-ziv"}
        assert {r.subject for r in results} == self.SUBJECTS | wire | parallel
        # 5 cases x (21 rows + 2 directions per wire counterpart) + 2 x 2 pool checks
        assert len(results) == 5 * (21 + 2 * len(wire)) + 4
        assert len(wire) != 2 or (len(results), len(self.SUBJECTS | wire | parallel)) == (129, 25)
        assert all(r.subject_seconds > 0 and r.reference_seconds > 0
                   for r in results if r.kind == "scalar-vectorized")

    def test_a_diverging_kernel_and_a_wrong_inverse_both_fail(self):
        from repro.verify.differential import _compare, _Row

        data = _small_corpus()["commercial"]
        diverged = _compare(_Row("x", lambda d: d[::-1], lambda d: d), "case", data)
        assert not diverged.passed and "diverged" in diverged.detail
        both_wrong = _Row("x", lambda d: d[:-1], lambda d: d[:-1], restored=lambda out: out)
        unrestored = _compare(both_wrong, "case", data)
        assert not unrestored.passed and "restore" in unrestored.detail
        assert _compare(_Row("x", len, len, lambda d: None), "case", data) is None


def test_full_sweep_passes():
    results = run_differential(corpus=_small_corpus())
    failures = differential_failures(results)
    assert not failures, "\n".join(
        f"{f.kind} {f.subject} {f.case}: {f.detail}" for f in failures
    )

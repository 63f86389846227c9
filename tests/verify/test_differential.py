"""Differential oracles: stdlib wire counterparts, scalar loops, the codec pool."""

import bz2
import functools
import math
import types
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bicriteria import FrontierPoint, default_candidates, evaluate_candidates
from repro.core.engine import BlockStats
from repro.core.placement import raw_breakeven_seconds
from repro.netsim.cpu import DEFAULT_COSTS, CpuModel
from repro.verify import references
from repro.verify.corpus import CorpusGenerator
from repro.verify.references import reference_evaluate_candidates, reference_evaluate_placements
from tests.strategies import examples
from repro.verify.differential import (
    _ROWS,
    REFERENCE_COUNTERPARTS,
    _placed,
    _placed_exactly,
    _priced_exactly,
    counterpart_for,
    diff_scalar_vectorized,
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
        with_seconds = [r for r in results if r.subject_seconds or r.reference_seconds]
        assert with_seconds, "engine.timed timings missing from differential results"


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
        "huffman-decode", "huffman-decode-resync", "huffman-encode", "lz77-decode",
        "huffman-lengths", "huffman-decode-tables",
        "mtf-encode", "rle-encode", "lz77-tokenize", "lz77-encode", "lz77-size",
        "mtf-decode", "rle-decode", "bwt-transform", "bwt-inverse",
        "delta-zigzag", "undelta-zigzag",
        "bitpack-1", "bitpack-7", "bitpack-12", "bitpack-24", "bitpack-33", "bitpack-64",
        "template-values", "evaluate-candidates", "evaluate-placements",
    }

    def test_every_reference_is_some_rows_oracle(self):
        """An import plus a comment used to satisfy check.sh's word count;
        only being (or being called by) a row's ``oracle`` pins anything."""
        oracles = set()
        for row in _ROWS:
            oracles |= _reachable_names(row.oracle)
        wanted = {name for name in references.__all__ if name.startswith("reference_")}
        assert len(wanted) == 21
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
        pooled = {"burrows-wheeler"}
        assert {r.subject for r in results} == self.SUBJECTS | wire | pooled
        # 5 cases x (26 rows + 2 directions per wire counterpart) + 2 pool checks
        assert len(results) == 5 * (26 + 2 * len(wire)) + 2
        assert len(wire) != 2 or (len(results), len(self.SUBJECTS | wire | pooled)) == (152, 29)
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


_BLOCK_SIZES = (1000, 4096, 64 * 1024, 128 * 1024)
_grids = st.lists(st.sampled_from(_BLOCK_SIZES), min_size=1, max_size=3).map(
    lambda sizes: sum((default_candidates(size, native=False) for size in sizes), ())
)
_speed = st.one_of(
    st.sampled_from((math.inf, 0.0, -1.0, math.nan)), st.floats(1.0, 1e9)
)
_probe = st.one_of(
    st.none(),
    st.sampled_from((math.nan, -0.25, 1.5, 0.0)),
    st.floats(0.0, 3.0),
    st.integers(1, 8192).map(
        lambda size: BlockStats("lempel-ziv", "lempel-ziv", 4096, size, 0.001)
    ),
)
_cpu = st.one_of(
    st.none(), st.sampled_from((0.0, 0.5, 3.0)).map(lambda load: CpuModel("c", load=load))
)
_speeds = st.dictionaries(st.sampled_from(("lempel-ziv", "huffman", "burrows-wheeler")), _speed)
_pricing_case = st.tuples(
    _grids,
    st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    st.sampled_from((None, DEFAULT_COSTS)),
    _cpu,
    st.one_of(st.none(), _speeds),
    _probe,
    st.one_of(st.none(), st.sampled_from(_BLOCK_SIZES)),
)


class TestEvaluateCandidatesOracle:
    """The price sheet prices every spec bit for bit as the per-spec loop."""

    @given(case=_pricing_case)
    @examples(200)
    def test_every_frontier_point_field_is_bit_identical(self, case):
        assert _priced_exactly(evaluate_candidates, [case]) == _priced_exactly(
            reference_evaluate_candidates, [case]
        )

    def test_negative_sending_time_is_refused_by_both(self):
        case = (default_candidates(4096, native=False), -1.0, DEFAULT_COSTS, None, None, None, None)
        for evaluate in (evaluate_candidates, reference_evaluate_candidates):
            with pytest.raises(ValueError):
                evaluate(*case)

    def test_a_one_ulp_drift_is_caught(self):
        case = (default_candidates(4096, native=False), 0.01, DEFAULT_COSTS, None, None, 0.3, None)

        def drifted(*args):
            return {
                spec: type(point)(**{**vars(point), "ratio": math.nextafter(point.ratio, 9.0)})
                for spec, point in evaluate_candidates(*args).items()
            }

        assert _priced_exactly(drifted, [case]) != _priced_exactly(evaluate_candidates, [case])


_seconds = st.one_of(st.sampled_from((0.0, 1e-3, 0.25)), st.floats(0.0, 10.0))
_point = st.builds(
    FrontierPoint,
    method=st.sampled_from(("lempel-ziv", "huffman", "none")),
    params=st.sampled_from(((), (("max_chain", 4),))),
    block_size=st.just(128 * 1024),
    ratio=st.one_of(st.sampled_from((0.0, 0.5, 1.0, 1.25)), st.floats(0.0, 2.0)),
    compress_seconds=_seconds,
    transfer_seconds=_seconds,
    decompress_seconds=_seconds,
)
_placement_case = st.tuples(
    st.one_of(st.none(), _point),
    _seconds,
    st.one_of(st.none(), _seconds),
    st.sampled_from((0.0, 0.15, 1.0)),
)


class TestEvaluatePlacementsOracle:
    """The named-tuple rows and the spelled-out ``min`` are the dataclass
    rows and keyed ``min`` they replaced, every field bit for bit."""

    @given(case=_placement_case)
    @examples(200)
    def test_every_row_and_the_choice_are_bit_identical(self, case):
        assert _placed_exactly(_placed, [case]) == _placed_exactly(
            reference_evaluate_placements, [case]
        )

    @given(point=_point.filter(lambda p: p.method != "none" and p.ratio < 1.0))
    @examples(100)
    def test_nextafter_steps_across_the_knee_choose_alike(self, point):
        knee = raw_breakeven_seconds(point, 0.15)
        cases = [
            (point, raw, down, 0.15)
            for raw in (math.nextafter(knee, 0.0), knee, math.nextafter(knee, math.inf))
            for down in (None, raw)
        ]
        assert _placed_exactly(_placed, cases) == _placed_exactly(
            reference_evaluate_placements, cases
        )

    def test_a_changed_tie_rule_is_caught(self):
        """``raw`` and ``producer`` tie exactly on the knee: a choice that
        takes the first listed tie (``raw``) instead of the preferred one
        no longer matches."""
        point = FrontierPoint("lempel-ziv", (), 4096, 0.5, 1.0, 0.0, 0.0)
        case = (point, raw_breakeven_seconds(point), None, 0.0)

        def first_listed_tie(*args):
            costs, _ = _placed(*args)
            return costs, min(costs.values(), key=lambda c: c.total_seconds)

        assert _placed(*case)[1].placement == "producer"
        assert _placed_exactly(first_listed_tie, [case]) != _placed_exactly(
            reference_evaluate_placements, [case]
        )

"""Integration tests: the experiment harnesses reproduce the paper's shapes.

Each test regenerates (a scaled-down version of) a figure and asserts the
qualitative claims the paper makes about it — who wins, in which regime,
and in what direction the selector moves.
"""

import pytest

from repro.experiments import (
    FIG8_CONFIG,
    HEADLINE_CONFIG,
    METHOD_ORDER,
    PAPER_FIG5,
    ReplayConfig,
    commercial_blocks,
    figure2_ratios,
    figure4_reducing_speeds,
    figure5_link_speeds,
    figure6_molecular_ratios,
    figure7_trace_series,
    figure1_rows,
    headline_comparison,
    molecular_blocks,
    run_replay,
)
from repro.core.policy import FixedPolicy


SMALL_FIG8 = ReplayConfig(block_count=64, production_interval=2.5)


@pytest.fixture(scope="module")
def commercial_model():
    """One host calibration of the commercial sample for Figures 2, 3 and 4."""
    return figure2_ratios()


class TestFigure1:
    def test_rows_cover_all_characteristics(self):
        rows = figure1_rows()
        labels = [label for label, _ in rows]
        assert "compression-time" in labels
        assert "string-repetitions" in labels
        assert len(rows) == 6


class TestFigure2:
    def test_commercial_ratio_ordering(self, commercial_model):
        percent = {m: 100 * commercial_model.cost(m).typical_ratio for m in METHOD_ORDER}
        # Paper: BW 34 < LZ 41 < Arith 46 ~ Huff 47
        assert percent["burrows-wheeler"] < percent["lempel-ziv"]
        assert percent["lempel-ziv"] < percent["huffman"]
        assert abs(percent["arithmetic"] - percent["huffman"]) < 8
        # all in a plausible band, nothing degenerate
        assert 15 < percent["burrows-wheeler"] < 50
        assert 45 < percent["huffman"] < 80


class TestFigure3:
    def test_time_ordering(self, commercial_model):
        costs = {m: commercial_model.cost(m) for m in METHOD_ORDER}
        assert costs["huffman"].compress_throughput > costs["burrows-wheeler"].compress_throughput
        # Arithmetic decompression is the worst of all methods (paper Fig 3).
        assert costs["arithmetic"].decompress_throughput == min(
            c.decompress_throughput for c in costs.values()
        )


class TestFigure4:
    def test_two_machines_ratio(self, commercial_model):
        speeds = figure4_reducing_speeds(commercial_model)
        assert set(speeds) == {"Sun-Fire-280R", "Ultra-Sparc"}
        for method in speeds["Sun-Fire-280R"]:
            fast = speeds["Sun-Fire-280R"][method]
            slow = speeds["Ultra-Sparc"][method]
            assert fast / slow == pytest.approx(1 / 0.42, rel=1e-6)

    def test_huffman_tops_arithmetic_bottoms(self, commercial_model):
        """The robust Figure 4 shape: Huffman's reducing speed dominates and
        arithmetic's is the worst.  (The BW-vs-LZ ordering is
        implementation-specific: our numpy BWT outruns our pure-Python LZ
        matcher, unlike the paper's C implementations — the paper-calibrated
        DEFAULT_COSTS preserve the original ordering and carry the modeled
        replays; see EXPERIMENTS.md.)"""
        speeds = figure4_reducing_speeds(commercial_model)["Sun-Fire-280R"]
        assert speeds["huffman"] == max(speeds.values())
        assert speeds["arithmetic"] == min(speeds.values())


class TestFigure5:
    def test_link_speeds_match_paper(self):
        measured = figure5_link_speeds(transfers=300)
        for name, (paper_speed, paper_stddev) in PAPER_FIG5.items():
            m = measured[name]
            assert m.mean_mb_per_s == pytest.approx(paper_speed, rel=0.08), name
            assert m.stddev_percent == pytest.approx(paper_stddev, rel=0.35), name

    def test_ordering(self):
        measured = figure5_link_speeds(transfers=100)
        assert (
            measured["1gbit"].mean_mb_per_s
            > measured["100mbit"].mean_mb_per_s
            > measured["1mbit"].mean_mb_per_s
            > measured["international"].mean_mb_per_s
        )


class TestFigure6:
    def test_field_signature(self):
        percent = {
            field: {m: 100 * model.cost(m).typical_ratio for m in METHOD_ORDER}
            for field, model in figure6_molecular_ratios(atom_count=4096).items()
        }
        coords = percent["coordinates"]
        types = percent["type"]
        velocity = percent["velocity"]
        # coordinates barely compress with any method
        assert min(coords.values()) > 75
        # types compress extremely well with dictionary methods
        assert types["burrows-wheeler"] < 10
        assert types["lempel-ziv"] < 10
        # velocities sit in between
        assert types["burrows-wheeler"] < velocity["burrows-wheeler"] < coords["burrows-wheeler"]


class TestFigure7:
    def test_trace_shape(self):
        series = figure7_trace_series()
        times = [t for t, _ in series]
        levels = [c for _, c in series]
        assert times[0] == 0.0
        assert times[-1] >= 159.0
        assert levels[0] == 0
        assert max(levels) >= 10
        assert max(levels) <= 20


class TestFigures8to10:
    @pytest.fixture(scope="class")
    def replay(self):
        return run_replay(commercial_blocks(SMALL_FIG8), SMALL_FIG8)

    def test_fig8_progression(self, replay):
        """No compression while quiet; LZ/BW once load arrives."""
        codes = dict(replay.method_series())
        early = [c for t, c in codes.items() if t < 5]
        assert 1 in early  # uncompressed phase exists
        methods = [c for _, c in replay.method_series()]
        assert 2 in methods  # Lempel-Ziv used
        assert 3 in methods  # Burrows-Wheeler used under peaks

    def test_fig9_compression_times_track_method(self, replay):
        by_method = {}
        for record in replay.records:
            by_method.setdefault(record.method, []).append(record.compression_time)
        if "burrows-wheeler" in by_method and "lempel-ziv" in by_method:
            assert min(by_method["burrows-wheeler"]) > max(
                t for t in by_method["lempel-ziv"]
            ) * 1.5

    def test_fig10_compressed_blocks_smaller_when_compressing(self, replay):
        sizes = {r.method: r.compressed_size for r in replay.records}
        if "none" in sizes and "burrows-wheeler" in sizes:
            assert sizes["burrows-wheeler"] < sizes["none"] * 0.6

    def test_overall_reduction_significant(self, replay):
        """'the size reduction of the data is significant and clear'"""
        assert replay.overall_ratio < 0.7


class TestFigures11and12:
    @pytest.fixture(scope="class")
    def replay(self):
        return run_replay(molecular_blocks(SMALL_FIG8), SMALL_FIG8)

    def test_fig11_huffman_dominates_compressed_blocks(self, replay):
        counts = replay.method_counts()
        compressed = {m: c for m, c in counts.items() if m != "none"}
        if compressed:
            assert max(compressed, key=compressed.get) == "huffman"

    def test_fig11_dictionary_methods_rare_but_present(self, replay):
        counts = replay.method_counts()
        dictionary = counts.get("lempel-ziv", 0) + counts.get("burrows-wheeler", 0)
        assert dictionary < counts.get("huffman", 0) + counts.get("none", 0)

    def test_fig12_sizes_barely_shrink(self, replay):
        """Molecular data 'cannot be compressed well'."""
        assert replay.overall_ratio > 0.6


class TestHeadline:
    @pytest.fixture(scope="class")
    def rows(self):
        config = ReplayConfig(
            block_count=48,
            production_interval=0.0,
            trace_offset=20.0,
            pipelined=True,
        )
        return headline_comparison(config, baselines=["none"])

    def test_commercial_adaptive_wins_big(self, rows):
        by_key = {(r.dataset, r.policy): r for r in rows}
        adaptive = by_key[("commercial", "adaptive")].total_seconds
        none = by_key[("commercial", "fixed:none")].total_seconds
        assert none / adaptive > 1.8  # paper: 2.72x

    def test_molecular_no_benefit(self, rows):
        by_key = {(r.dataset, r.policy): r for r in rows}
        adaptive = by_key[("molecular", "adaptive")].total_seconds
        none = by_key[("molecular", "fixed:none")].total_seconds
        assert abs(none - adaptive) / none < 0.25  # paper: ~5% loss

    def test_compression_dominates_commercial_time(self, rows):
        by_key = {(r.dataset, r.policy): r for r in rows}
        assert by_key[("commercial", "adaptive")].compression_fraction > 0.4

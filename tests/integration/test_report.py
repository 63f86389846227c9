"""Integration test: the live reproduction report."""

import pytest

from repro.experiments import ReplayConfig, generate_report


@pytest.fixture(scope="module")
def report(one_calibration_round):
    small = ReplayConfig(block_count=16, production_interval=2.5)
    headline = ReplayConfig(
        block_count=16, production_interval=0.0, trace_offset=20.0, pipelined=True
    )
    return generate_report(replay_config=small, headline_config=headline)


class TestGenerateReport:
    def test_contains_every_figure_section(self, report):
        for heading in (
            "Figure 1",
            "Figures 2-3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figures 8-10",
            "Figures 11-12",
            "Headline",
        ):
            assert heading in report

    def test_markdown_tables_well_formed(self, report):
        lines = report.splitlines()
        for index, line in enumerate(lines):
            if line.startswith("|") and set(line.strip("|")) <= {"-", "|"}:
                header = lines[index - 1]
                assert header.count("|") == line.count("|")

    def test_paper_reference_numbers_present(self, report):
        assert "10.7142" in report
        assert "29.1388" in report

    def test_methods_named(self, report):
        for method in ("burrows-wheeler", "lempel-ziv", "huffman", "arithmetic"):
            assert method in report

"""Integration tests for the §1 multi-link and CPU-load claims."""

import pytest

from repro.core import AdaptivePipeline, LzSampler
from repro.data.commercial import CommercialDataGenerator
from repro.experiments.multilink import multilink_matrix
from repro.netsim import (
    DEFAULT_COSTS,
    PAPER_LINKS,
    CpuModel,
    LoadTrace,
    SimulatedLink,
)


#: Every cell of the 12-block matrix, exact: (link, load) -> (adaptive s,
#: uncompressed s, auto s, adaptive methods, auto placements).  The
#: replays are modeled-cost and seeded, so any change to these numbers is
#: a change to the scenario, not noise.
PINNED_MATRIX = {
    ("1gbit", "low-load"): (
        0.07181260367867152,
        0.05834547390649723,
        0.05834547390649723,
        {"huffman": 1, "none": 11},
        {"raw": 12},
    ),
    ("1gbit", "high-load"): (
        0.7010794281780952,
        0.972673056410453,
        0.7933400289966966,
        {"huffman": 1, "lempel-ziv": 11},
        {"raw": 6, "producer": 6},
    ),
    ("100mbit", "low-load"): (
        0.21892015183077249,
        0.21056436632014594,
        0.21056436632014594,
        {"huffman": 1, "none": 11},
        {"raw": 12},
    ),
    ("100mbit", "high-load"): (
        1.3676614007782988,
        3.541194227442481,
        1.470499966195403,
        {"huffman": 1, "lempel-ziv": 5, "burrows-wheeler": 6},
        {"raw": 1, "producer": 11},
    ),
    ("dsl", "low-load"): (
        6.0045469578137745,
        16.380506154354784,
        6.0045469578137745,
        {"huffman": 1, "burrows-wheeler": 11},
        {"producer": 12},
    ),
    ("dsl", "high-load"): (
        98.12006251047643,
        275.5886046240313,
        98.12006251047643,
        {"huffman": 1, "burrows-wheeler": 11},
        {"producer": 12},
    ),
    ("1mbit", "low-load"): (
        3.725085681061014,
        10.277167767731225,
        3.725085681061014,
        {"huffman": 1, "burrows-wheeler": 11},
        {"producer": 12},
    ),
    ("1mbit", "high-load"): (
        61.865220805679506,
        174.3278520514308,
        61.865220805679506,
        {"huffman": 1, "burrows-wheeler": 11},
        {"producer": 12},
    ),
    ("international", "low-load"): (
        20.565621624829575,
        59.49997960558301,
        20.565621624829575,
        {"huffman": 1, "burrows-wheeler": 11},
        {"producer": 12},
    ),
    ("international", "high-load"): (
        344.69833184974516,
        1007.6596532949109,
        344.69833184974516,
        {"huffman": 1, "burrows-wheeler": 11},
        {"producer": 12},
    ),
}


@pytest.fixture(scope="module")
def matrix():
    return multilink_matrix()


class TestMultilinkClaims:
    def _cell(self, matrix, link, load):
        return next(c for c in matrix if c.link == link and c.load_label == load)

    def test_every_cell_pinned(self, matrix):
        got = {
            (c.link, c.load_label): (
                c.adaptive_seconds,
                c.uncompressed_seconds,
                c.auto_seconds,
                c.adaptive_methods,
                c.auto_placements,
            )
            for c in matrix
        }
        assert got == PINNED_MATRIX

    def test_intranet_utility_less_evident(self, matrix):
        """'In Intranets, however, the utility of compression is less
        evident' — the unloaded gigabit cell must show no real speedup."""
        cell = self._cell(matrix, "1gbit", "low-load")
        assert cell.speedup < 1.3
        # and the selector mostly refuses to compress there
        assert cell.adaptive_methods.get("none", 0) >= 8

    def test_international_improves_in_both_scenarios(self, matrix):
        """'significantly improve ... U.S. to an Israeli university
        machine, in both low-load and high-load usage scenarios'"""
        for load in ("low-load", "high-load"):
            assert self._cell(matrix, "international", load).speedup > 2.0

    def test_dsl_notable_advantage(self, matrix):
        """'even when using broadband links like DSL, notable performance
        advantages are attained'"""
        assert self._cell(matrix, "dsl", "low-load").speedup > 1.8

    def test_speedup_grows_as_links_slow(self, matrix):
        low = {c.link: c.speedup for c in matrix if c.load_label == "low-load"}
        assert low["1gbit"] < low["1mbit"]
        assert low["100mbit"] < low["international"]

    def test_stronger_methods_on_slower_links(self, matrix):
        fast = self._cell(matrix, "1gbit", "low-load").adaptive_methods
        slow = self._cell(matrix, "international", "low-load").adaptive_methods
        assert fast.get("burrows-wheeler", 0) == 0
        assert slow.get("burrows-wheeler", 0) > 5

    def test_auto_placement_rides_every_cell(self, matrix):
        """Each cell carries the placement-aware run: on the unloaded
        gigabit intranet the break-even model ships raw outright, and it
        never loses to uncompressed transfer anywhere."""
        for cell in matrix:
            assert sum(cell.auto_placements.values()) == 12
            assert cell.auto_seconds > 0
            assert cell.speedup_auto == pytest.approx(
                cell.uncompressed_seconds / cell.auto_seconds
            )
        fast = self._cell(matrix, "1gbit", "low-load")
        assert fast.auto_placements.get("raw", 0) == 12
        assert fast.auto_seconds <= fast.uncompressed_seconds * (1 + 1e-9)


class TestCpuLoadAdaptation:
    def test_busy_cpu_deescalates_method(self):
        """'better compression methods are used when CPU loads are low';
        when the sender CPU gets busy mid-run the selector backs off."""
        cpu = CpuModel("dynamic", speed_factor=1.0)
        pipeline = AdaptivePipeline(
            cost_model=DEFAULT_COSTS,
            cpu=cpu,
            sampler=LzSampler(cost_model=DEFAULT_COSTS, cpu=cpu),
        )
        blocks = list(CommercialDataGenerator(seed=3).stream(128 * 1024, 40))
        link = SimulatedLink(PAPER_LINKS["1mbit"], seed=1)
        cpu_trace = LoadTrace.from_pairs([(0, 0), (30, 20), (60, 0)])
        result = pipeline.run(
            blocks, link, production_interval=2.0, cpu_load=cpu_trace
        )
        strength = {"none": 0, "huffman": 1, "lempel-ziv": 2, "burrows-wheeler": 3}
        idle = [r for r in result.records if 6 < r.start_time < 28]
        busy = [r for r in result.records if 44 < r.start_time < 60]
        recovered = [r for r in result.records if r.start_time > 70]
        mean = lambda rs: sum(strength[r.method] for r in rs) / len(rs)
        assert mean(busy) < mean(idle)
        assert mean(recovered) > mean(busy)

    def test_cpu_load_requires_cpu_model(self):
        pipeline = AdaptivePipeline(cost_model=DEFAULT_COSTS)
        trace = LoadTrace.from_pairs([(0, 1)])
        with pytest.raises(ValueError):
            pipeline.run([b"x" * 2048], SimulatedLink(PAPER_LINKS["1mbit"]), cpu_load=trace)

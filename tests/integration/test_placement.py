"""Integration: the DTSchedule-style placement time-breakdown matrix."""

from dataclasses import replace

import pytest

from repro.experiments.placement import (
    LINK_CLASSES,
    PLACEMENT_MODES_ORDER,
    UPSTREAM_LINK,
    placement_breakdown,
    placement_failures,
)

BLOCKS = 6


@pytest.fixture(scope="module")
def matrix():
    return placement_breakdown(total_blocks=BLOCKS)


def _cell(matrix, link, mode):
    return next(c for c in matrix if c.link == link and c.mode == mode)


class TestPlacementVerdict:
    def test_real_matrix_satisfies_it(self, matrix):
        assert placement_failures(matrix) == []

    def test_each_broken_promise_is_named_per_link(self, matrix):
        def tampered(link, mode, downstream_crc32=None, **schedule):
            """The matrix with one cell's schedule seconds (or CRC) changed."""

            def tamper(cell):
                cell = replace(cell, schedule=replace(cell.schedule, **schedule))
                crc = cell.downstream_crc32 if downstream_crc32 is None else downstream_crc32
                return replace(cell, downstream_crc32=crc)

            return [tamper(c) if (c.link, c.mode) == (link, mode) else c for c in matrix]

        producer = _cell(matrix, "1mbit", "producer")
        [slow] = placement_failures(
            tampered("1mbit", "auto", makespan=producer.makespan * 1.01)
        )
        assert slow.startswith("1mbit: auto makespan")
        [serial] = placement_failures(
            tampered("1gbit", "auto", serial_seconds=producer.serial_seconds * 2)
        )
        assert serial.startswith("1gbit: auto serial")
        [busy] = placement_failures(tampered("100mbit", "consumer", compress_seconds=0.5))
        assert busy.startswith("100mbit: consumer arrangement spent")
        [crc] = placement_failures(tampered("international", "consumer", downstream_crc32=1))
        assert crc.startswith("international: consumer downstream CRC")


class TestPlacementBreakdown:
    def test_full_matrix_shape(self, matrix):
        assert len(matrix) == len(LINK_CLASSES) * len(PLACEMENT_MODES_ORDER)
        assert {c.link for c in matrix} == set(LINK_CLASSES)
        assert UPSTREAM_LINK in LINK_CLASSES
        for cell in matrix:
            assert cell.blocks == BLOCKS
            assert sum(cell.placements.values()) == BLOCKS
            assert cell.makespan <= cell.serial_seconds * (1 + 1e-9)
            assert cell.serial_seconds == pytest.approx(
                cell.compress_seconds
                + cell.wire_seconds
                + cell.relay_seconds
                + cell.decompress_seconds
            )

    def test_forced_modes_are_pure(self, matrix):
        for link in LINK_CLASSES:
            for mode in ("producer", "raw", "consumer"):
                assert _cell(matrix, link, mode).placements == {mode: BLOCKS}

    def test_consumer_mode_has_empty_producer_bar(self, matrix):
        """The DTSchedule offload signature: no producer-side compression."""
        for link in LINK_CLASSES:
            consumer = _cell(matrix, link, "consumer")
            assert consumer.compress_seconds == 0.0
            assert consumer.relay_seconds > 0.0
            assert consumer.decompress_seconds > 0.0

    def test_raw_mode_runs_no_codec(self, matrix):
        for link in LINK_CLASSES:
            raw = _cell(matrix, link, "raw")
            assert raw.compress_seconds == 0.0
            assert raw.relay_seconds == 0.0
            assert raw.decompress_seconds == 0.0
            assert raw.wire_seconds > 0.0

    def test_auto_never_loses_to_producer(self, matrix):
        for link in LINK_CLASSES:
            producer = _cell(matrix, link, "producer")
            auto = _cell(matrix, link, "auto")
            assert auto.makespan <= producer.makespan * (1 + 1e-9), link
            assert auto.serial_seconds <= producer.serial_seconds * (1 + 1e-9), link

    def test_auto_regimes_follow_the_links(self, matrix):
        """Fast links ship raw; slow links take the consumer offload."""
        assert _cell(matrix, "1gbit", "auto").placements == {"raw": BLOCKS}
        slow = _cell(matrix, "international", "auto").placements
        assert slow.get("raw", 0) == 0

    def test_relay_bytes_match_producer_bytes(self, matrix):
        """Byte-exactness: both compressed arrangements share one CRC chain."""
        for link in LINK_CLASSES:
            producer = _cell(matrix, link, "producer")
            consumer = _cell(matrix, link, "consumer")
            assert consumer.downstream_crc32 == producer.downstream_crc32, link

    def test_deterministic(self, matrix):
        again = placement_breakdown(total_blocks=BLOCKS)
        assert [
            (c.link, c.mode, c.makespan, c.downstream_crc32) for c in again
        ] == [(c.link, c.mode, c.makespan, c.downstream_crc32) for c in matrix]

    def test_validation(self):
        with pytest.raises(ValueError):
            placement_breakdown(total_blocks=0)
        with pytest.raises(ValueError):
            placement_breakdown(total_blocks=2, interference=-0.1)

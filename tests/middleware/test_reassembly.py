"""Unit tests for out-of-order delivery and ordered reassembly."""

import pytest

from repro.compression.framing import decode_frame
from repro.data.commercial import CommercialDataGenerator
from repro.middleware.chaos import ChaosWire, ReliableEventLink
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler, DecompressionHandler
from repro.middleware.reassembly import OrderedReassembly
from repro.middleware.transport import WireFormat
from repro.netsim.faults import FaultPlan, FaultRule, RetryPolicy


def event(sequence, payload=b"x"):
    return Event(payload=payload, sequence=sequence)


class TestOrderedReassembly:
    def test_in_order_passthrough(self):
        released = []
        buffer = OrderedReassembly(released.append)
        for seq in (1, 2, 3):
            buffer.push(event(seq))
        assert [e.sequence for e in released] == [1, 2, 3]
        assert buffer.pending == 0

    def test_out_of_order_buffered_and_released(self):
        released = []
        buffer = OrderedReassembly(released.append)
        for seq in (2, 3, 1):
            buffer.push(event(seq))
        assert [e.sequence for e in released] == [1, 2, 3]

    def test_large_shuffle(self):
        import random

        released = []
        buffer = OrderedReassembly(released.append)
        sequences = list(range(1, 101))
        random.Random(7).shuffle(sequences)
        for seq in sequences:
            buffer.push(event(seq))
        assert [e.sequence for e in released] == list(range(1, 101))
        assert buffer.gaps == 0

    def test_duplicate_dropped(self):
        released = []
        buffer = OrderedReassembly(released.append)
        buffer.push(event(1))
        buffer.push(event(1))
        buffer.push(event(2))
        assert [e.sequence for e in released] == [1, 2]

    def test_gap_declared_on_overflow(self):
        released = []
        buffer = OrderedReassembly(released.append, max_pending=3)
        for seq in (2, 3, 4, 5):  # sequence 1 never arrives
            buffer.push(event(seq))
        assert [e.sequence for e in released] == [2, 3, 4, 5]
        assert buffer.gaps == 1

    def test_flush_reports_missing(self):
        released = []
        buffer = OrderedReassembly(released.append)
        buffer.push(event(1))
        buffer.push(event(4))
        buffer.push(event(6))
        missing = buffer.flush()
        assert missing == [2, 3, 5]
        assert [e.sequence for e in released] == [1, 4, 6]

    def test_custom_first_sequence(self):
        released = []
        buffer = OrderedReassembly(released.append, first_sequence=10)
        buffer.push(event(10))
        assert released

    def test_invalid_max_pending(self):
        with pytest.raises(ValueError):
            OrderedReassembly(lambda e: None, max_pending=0)


class TestCompressedOutOfOrderStream:
    """The §2.4 scenario: Burrows-Wheeler blocks delivered out of order
    decompress independently and reassemble into the original stream."""

    BLOCKS = list(CommercialDataGenerator(seed=8).stream(16 * 1024, 12))

    def _compressed_events(self):
        compress = CompressionHandler("burrows-wheeler")
        return [
            compress(Event(payload=block, sequence=i + 1))
            for i, block in enumerate(self.BLOCKS)
        ]

    @staticmethod
    def _reorder_plan():
        return FaultPlan([FaultRule(kind="reorder", probability=0.5)], seed=11)

    def test_burrows_wheeler_blocks_survive_reordering(self):
        wire = ChaosWire(self._reorder_plan())
        arrivals = []
        for event in self._compressed_events():
            arrivals.extend(wire.send(WireFormat.encode(event)))
        arrivals.extend(wire.flush())

        decompress = DecompressionHandler()
        restored: list = []
        reassembly = OrderedReassembly(lambda e: restored.append(e.payload))
        arrival_order = []
        for data in arrivals:
            # Blocks decode on arrival, some ahead of their predecessors.
            event = decompress(WireFormat.from_frame(decode_frame(data)[0]))
            arrival_order.append(event.sequence)
            reassembly.push(event)

        assert arrival_order != sorted(arrival_order)
        assert sorted(arrival_order) == list(range(1, len(self.BLOCKS) + 1))
        assert b"".join(restored) == b"".join(self.BLOCKS)
        assert reassembly.gaps == 0

    def test_reliable_link_delivers_reordered_stream_byte_exact(self):
        decompress = DecompressionHandler()
        restored: list = []
        wire = ChaosWire(self._reorder_plan())
        link = ReliableEventLink(
            wire,
            lambda e: restored.append(decompress(e).payload),
            retry=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        for event in self._compressed_events():
            link.send(event)
        assert link.close() == []

        assert wire.plan.counts["reorder"] > 0
        assert link.retries > 0  # a held transmission is re-sent
        assert b"".join(restored) == b"".join(self.BLOCKS)

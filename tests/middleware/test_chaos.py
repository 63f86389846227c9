"""The hostile wire and the recovery protocol on top of it."""

import io

import pytest

from repro.middleware.channels import EventChannel
from repro.middleware.chaos import ChaosWire, DeliveryError, ReliableEventLink
from repro.middleware.events import Event
from repro.middleware.reassembly import OrderedReassembly
from repro.middleware.transport import TransportBridge, WireFormat
from repro.netsim.clock import VirtualClock
from repro.netsim.faults import FaultExhaustedError, FaultPlan, FaultRule, RetryPolicy
from repro.netsim.link import PAPER_LINKS, SimulatedLink
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceWriter, read_trace


def make_events(count, channel="chan"):
    return [
        Event(
            payload=bytes([i]) * (32 + i),
            attributes={},
            channel_id=channel,
            sequence=i + 1,
            timestamp=float(i),
        )
        for i in range(count)
    ]


def fast_retry(max_attempts=6, seed=0):
    return RetryPolicy(
        max_attempts=max_attempts, base_delay=0.01, max_delay=0.1, seed=seed
    )


class TestChaosWire:
    def test_clean_wire_passes_bytes_through(self):
        wire = ChaosWire(FaultPlan([]))
        assert wire.send(b"hello") == [b"hello"]
        assert wire.sends == 1
        assert wire.bytes_sent == 5

    def test_drop_and_duplicate(self):
        plan = FaultPlan(
            [FaultRule(kind="drop", index=0), FaultRule(kind="duplicate", index=1)]
        )
        wire = ChaosWire(plan)
        assert wire.send(b"a") == []
        assert wire.send(b"b") == [b"b", b"b"]

    def test_corrupt_damages_exactly_one_byte(self):
        plan = FaultPlan([FaultRule(kind="corrupt", index=0)], seed=3)
        wire = ChaosWire(plan)
        (arrived,) = wire.send(b"x" * 40)
        assert arrived != b"x" * 40
        assert len(arrived) == 40

    def test_reorder_holds_then_swaps(self):
        plan = FaultPlan([FaultRule(kind="reorder", index=0)])
        wire = ChaosWire(plan)
        assert wire.send(b"first") == []
        assert wire.send(b"second") == [b"second", b"first"]
        assert wire.flush() == []

    def test_flush_releases_tail_hold(self):
        plan = FaultPlan([FaultRule(kind="reorder", index=0)])
        wire = ChaosWire(plan)
        wire.send(b"only")
        assert wire.flush() == [b"only"]

    def test_timing_charged_to_clock(self):
        clock = VirtualClock()
        link = SimulatedLink(PAPER_LINKS["1mbit"], seed=0)
        plan = FaultPlan([FaultRule(kind="delay", index=0, delay=2.0)])
        wire = ChaosWire(plan, link=link, clock=clock)
        wire.send(b"z" * 1024)
        assert clock.now() > 2.0
        assert wire.seconds_charged == pytest.approx(clock.now())


class TestReliableEventLink:
    def test_clean_delivery_in_order(self):
        received = []
        link = ReliableEventLink(ChaosWire(FaultPlan([])), received.append)
        events = make_events(5)
        attempts = [link.send(e) for e in events]
        assert attempts == [1] * 5
        assert [e.sequence for e in received] == [1, 2, 3, 4, 5]
        assert [e.payload for e in received] == [e.payload for e in events]
        assert link.close() == []

    def test_corrupt_frame_rejected_then_recovered_byte_exact(self):
        received = []
        plan = FaultPlan([FaultRule(kind="corrupt", index=0)], seed=7)
        link = ReliableEventLink(
            ChaosWire(plan), received.append, retry=fast_retry()
        )
        (event,) = make_events(1)
        assert link.send(event) == 2
        assert link.frames_rejected == 1
        assert link.retries == 1
        assert received[0].payload == event.payload

    def test_drop_recovered_with_backoff_on_clock(self):
        clock = VirtualClock()
        plan = FaultPlan([FaultRule(kind="drop", index=0)])
        link = ReliableEventLink(
            ChaosWire(plan, clock=clock),
            lambda e: None,
            retry=fast_retry(),
            clock=clock,
        )
        link.send(make_events(1)[0])
        assert clock.now() == pytest.approx(link.recovery_seconds)
        assert link.recovery_seconds > 0

    def test_duplicate_delivered_once(self):
        received = []
        plan = FaultPlan([FaultRule(kind="duplicate")])  # duplicate everything
        link = ReliableEventLink(ChaosWire(plan), received.append)
        for event in make_events(4):
            link.send(event)
        assert link.duplicates_dropped == 4
        assert [e.sequence for e in received] == [1, 2, 3, 4]

    def test_reorder_released_in_sequence_order(self):
        received = []
        plan = FaultPlan([FaultRule(kind="reorder", index=0)])
        link = ReliableEventLink(
            ChaosWire(plan), received.append, retry=fast_retry()
        )
        first, second = make_events(2)
        # First send is held; the retry transmission releases it (and the
        # held copy becomes the duplicate the dedupe layer absorbs).
        link.send(first)
        link.send(second)
        assert [e.sequence for e in received] == [1, 2]

    def test_exhaustion_raises_delivery_error(self):
        plan = FaultPlan([FaultRule(kind="drop")])  # every transmission
        link = ReliableEventLink(
            ChaosWire(plan), lambda e: None, retry=fast_retry(max_attempts=3)
        )
        with pytest.raises(DeliveryError):
            link.send(make_events(1)[0])
        assert link.retries == 2

    @pytest.mark.parametrize(
        "retry", [fast_retry(max_attempts=4, seed=9), RetryPolicy(max_attempts=3, base_delay=0.0)]
    )
    def test_exhaustion_follows_the_one_schedule(self, retry):
        """``max_attempts`` transmissions, the clock charged the schedule's
        waits (this wire's transfers are free) — and a zero wait still
        counts as a retry."""
        clock = VirtualClock()
        wire = ChaosWire(FaultPlan([FaultRule(kind="drop")]), clock=clock)
        link = ReliableEventLink(wire, lambda e: None, retry=retry)
        with pytest.raises(FaultExhaustedError):
            link.send(make_events(1)[0])
        assert wire.sends == retry.max_attempts
        assert link.retries == retry.max_attempts - 1
        assert clock.now() == sum(wait for _, wait in retry.attempts())

    def test_observability_counters_and_trace(self):
        registry = MetricsRegistry()
        sink = io.StringIO()
        tracer = TraceWriter(sink)
        plan = FaultPlan(
            [FaultRule(kind="corrupt", index=0), FaultRule(kind="drop", index=2)],
            seed=1,
        )
        link = ReliableEventLink(
            ChaosWire(plan),
            lambda e: None,
            retry=fast_retry(),
            registry=registry,
            tracer=tracer,
        )
        for event in make_events(3):
            link.send(event)
        assert registry.counter("repro_frames_rejected_total").value() == 1
        assert registry.counter("repro_event_retries_total").value() == 2
        records = list(read_trace(io.StringIO(sink.getvalue())))
        names = [r["name"] for r in records]
        assert "chaos.frame_rejected" in names
        assert "chaos.retry" in names
        assert names.count("chaos.deliver") == 3

    def test_deterministic_across_runs(self):
        def run():
            received = []
            plan = FaultPlan(
                [
                    FaultRule(kind="drop", probability=0.2),
                    FaultRule(kind="corrupt", probability=0.1),
                    FaultRule(kind="duplicate", probability=0.1),
                ],
                seed=99,
            )
            link = ReliableEventLink(
                ChaosWire(plan), received.append, retry=fast_retry(seed=99)
            )
            for event in make_events(30):
                link.send(event)
            link.close()
            return (
                [e.payload for e in received],
                link.retries,
                link.frames_rejected,
                link.duplicates_dropped,
            )

        assert run() == run()


class TestReassemblyRerequest:
    def test_damaged_fragment_discarded_and_rerequested(self):
        asked = []
        out = []
        reassembly = OrderedReassembly(out.append, request=asked.append)
        events = {e.sequence: e for e in make_events(4)}
        reassembly.push(events[2])
        reassembly.push(events[3])
        assert reassembly.missing() == [1]
        reassembly.damaged(2)
        assert asked == [2]
        assert reassembly.rerequested == 1
        assert reassembly.missing() == [1, 2]
        # The re-sent copy plus the head fill the gap; order is preserved.
        reassembly.push(events[1])
        reassembly.push(events[2])
        assert [e.sequence for e in out] == [1, 2, 3]

    def test_damaged_after_release_is_noop(self):
        asked = []
        reassembly = OrderedReassembly(lambda e: None, request=asked.append)
        reassembly.push(make_events(1)[0])
        reassembly.damaged(1)
        assert asked == []
        assert reassembly.rerequested == 0


class TestFaultyTransportBridge:
    def test_bridge_without_plan_unchanged(self):
        clock = VirtualClock()
        link = SimulatedLink(PAPER_LINKS["1gbit"], seed=0)
        bridge = TransportBridge(link, clock)
        local = EventChannel("chan")
        mirror = bridge.export(local)
        received = []
        mirror.subscribe(received.append)
        local.submit(Event(payload=b"data"))
        assert len(received) == 1


class TestWireFormatIntegrity:
    def test_wireformat_frames_carry_crc(self):
        (event,) = make_events(1)
        wire = WireFormat.encode(event)
        # v2 magic: the over-long-varint version marker.
        assert wire[:2] == b"\x80\x00"
        decoded = WireFormat.decode(wire)
        assert decoded.payload == event.payload

"""Corrupting in-memory transport + reliable delivery for the middleware.

The simulation bridges charge *time* for transfers but never damage the
bytes; this module supplies the hostile wire.  :class:`ChaosWire` is an
in-memory byte pipe that applies a seeded
:class:`~repro.netsim.faults.FaultPlan` to every framed transmission —
dropping, duplicating, reordering, delaying, or byte-corrupting it — and
:class:`ReliableEventLink` is the recovery protocol on top: every event
is framed with a CRC32 (:mod:`repro.compression.framing` v2), corrupt
arrivals are *rejected by the checksum* (never decoded into garbage),
duplicates are deduplicated by sequence, out-of-order arrivals pass
through :class:`~repro.middleware.reassembly.OrderedReassembly`, and
undelivered events are retried under a
:class:`~repro.netsim.faults.RetryPolicy` with capped exponential
backoff + deterministic jitter, every wait charged to the injected clock
(no wall-clock reads anywhere in this module).

All recovery activity is observable: counters land in a
:class:`~repro.obs.metrics.MetricsRegistry` and per-event delivery spans
(with attempt counts) in a :class:`~repro.obs.trace.TraceWriter` when
either is attached.  This is the substrate the ``chaos`` gate drives
to prove byte-exact recovery under every seeded fault plan.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..compression.base import CorruptStreamError
from ..compression.framing import decode_frame
from ..netsim.clock import Clock
from ..netsim.faults import FaultExhaustedError, FaultPlan, RetryPolicy
from ..netsim.link import SimulatedLink
from ..obs.catalogue import (
    DELIVERIES_FAILED_TOTAL,
    DUPLICATES_DROPPED_TOTAL,
    EVENT_RETRIES_TOTAL,
    FRAGMENTS_REREQUESTED_TOTAL,
    FRAMES_REJECTED_TOTAL,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceWriter
from .events import Event
from .reassembly import OrderedReassembly
from .transport import WireFormat

__all__ = ["ChaosWire", "DeliveryError", "ReliableEventLink"]


class DeliveryError(FaultExhaustedError):
    """An event could not be delivered within the retry budget."""


class ChaosWire:
    """An in-memory byte pipe that applies a fault plan per transmission.

    Each :meth:`send` is one wire transmission (indexed for the plan's
    schedule).  Returns the list of byte strings that *arrive* at the
    receiver for that send — possibly empty (drop, or held for
    reordering), possibly two copies (duplicate), possibly damaged
    (corrupt).  A ``reorder`` fault holds the transmission in a slot and
    releases it after the *next* send's arrivals, swapping their order;
    :meth:`flush` releases anything still held.

    Timing: when a :class:`~repro.netsim.link.SimulatedLink` and clock
    are attached, every transmission charges the link's transfer time
    plus any scheduled ``delay`` to the clock — so recovery cost is
    visible to virtual time exactly like real traffic.
    """

    def __init__(
        self,
        plan: FaultPlan,
        link: Optional[SimulatedLink] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.plan = plan
        self.link = link
        self.clock = clock
        self.sends = 0
        self.bytes_sent = 0
        self.seconds_charged = 0.0
        self._held: List[bytes] = []

    def send(self, data: bytes) -> List[bytes]:
        """Transmit ``data`` once; returns what arrives (in arrival order)."""
        index = self.sends
        self.sends += 1
        self.bytes_sent += len(data)
        decision = self.plan.decide(index)
        seconds = decision.delay
        if self.link is not None:
            seconds += self.link.transfer_time(len(data))
        if seconds and self.clock is not None:
            self.clock.advance(seconds)
        self.seconds_charged += seconds
        if decision.dropped:
            arrived: List[bytes] = []
        else:
            copy = (
                self.plan.corrupt(data, index, decision.corrupt_rule)
                if decision.corrupted
                else data
            )
            arrived = [copy, copy] if decision.duplicated else [copy]
        if decision.reordered and arrived:
            self._held.extend(arrived)
            return []
        # Anything held from an earlier reordered send arrives *after*
        # this send's copies — the order swap.
        arrivals = arrived + self._held
        self._held = []
        return arrivals

    def flush(self) -> List[bytes]:
        """Release transmissions still held by reorder faults."""
        held, self._held = self._held, []
        return held


class ReliableEventLink:
    """At-least-once event delivery over a :class:`ChaosWire`, made exactly-once.

    The sender side frames each event (CRC32-checked v2 frames) and
    transmits until the receiver side has accepted it or the retry
    budget is exhausted (:class:`DeliveryError`).  The receiver side
    rejects corrupt frames by checksum, drops duplicates by sequence,
    re-requests damaged fragments through the retry loop, and releases
    events to ``deliver`` strictly in sequence order via
    :class:`~repro.middleware.reassembly.OrderedReassembly`.
    """

    def __init__(
        self,
        wire: ChaosWire,
        deliver: Callable[[Event], None],
        retry: RetryPolicy = RetryPolicy(),
        clock: Optional[Clock] = None,
        first_sequence: int = 1,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[TraceWriter] = None,
    ) -> None:
        self.wire = wire
        self.retry = retry
        self.clock = clock if clock is not None else wire.clock
        self.registry = registry
        self.tracer = tracer
        self.reassembly = OrderedReassembly(
            deliver, first_sequence=first_sequence, request=self._note_rerequest
        )
        self._accepted: set = set()
        self.events_sent = 0
        self.retries = 0
        self.frames_rejected = 0
        self.duplicates_dropped = 0
        self.rerequests = 0
        self.recovery_seconds = 0.0

    # -- observability -----------------------------------------------------------

    def _note_rerequest(self, sequence: int) -> None:
        self.rerequests += 1
        if self.registry is not None:
            self.registry.family(FRAGMENTS_REREQUESTED_TOTAL).inc()
        if self.tracer is not None:
            self.tracer.event("chaos.rerequest", sequence=sequence)

    # -- the protocol ------------------------------------------------------------

    def _receive(self, arrivals: List[bytes]) -> None:
        """Receiver side: checksum-check, dedupe, and reassemble arrivals."""
        for data in arrivals:
            try:
                frame, _ = decode_frame(data)
                event = WireFormat.from_frame(frame)
            except (CorruptStreamError, ValueError, KeyError) as exc:
                self.frames_rejected += 1
                if self.registry is not None:
                    self.registry.family(FRAMES_REJECTED_TOTAL).inc()
                if self.tracer is not None:
                    self.tracer.event("chaos.frame_rejected", reason=str(exc))
                continue
            if event.sequence in self._accepted:
                self.duplicates_dropped += 1
                if self.registry is not None:
                    self.registry.family(DUPLICATES_DROPPED_TOTAL).inc()
                continue
            self._accepted.add(event.sequence)
            self.reassembly.push(event)

    def send(self, event: Event) -> int:
        """Deliver ``event`` reliably; returns the number of attempts used."""
        wire_bytes = WireFormat.encode(event)
        self.events_sent += 1
        for attempt, backoff in self.retry.attempts():
            if attempt > 1:
                if self.clock is not None:
                    self.clock.advance(backoff)
                self.retries += 1
                self.recovery_seconds += backoff
                if self.registry is not None:
                    self.registry.family(EVENT_RETRIES_TOTAL).inc()
                if self.tracer is not None:
                    self.tracer.event(
                        "chaos.retry",
                        sequence=event.sequence,
                        attempt=attempt - 1,
                        backoff=backoff,
                    )
            self._receive(self.wire.send(wire_bytes))
            if event.sequence in self._accepted:
                if self.tracer is not None:
                    self.tracer.span(
                        "chaos.deliver",
                        duration=0.0,
                        sequence=event.sequence,
                        attempts=attempt,
                    )
                return attempt
        if self.registry is not None:
            self.registry.family(DELIVERIES_FAILED_TOTAL).inc()
        raise DeliveryError(
            f"event sequence {event.sequence} undelivered after "
            f"{attempt} attempts"
        )

    def close(self) -> List[int]:
        """Flush reorder holds and the reassembly buffer; returns missing seqs."""
        self._receive(self.wire.flush())
        return self.reassembly.flush()

"""The seeded traffic and the hostile wire every gate scenario shares.

One commercial-event builder and one ``RetryPolicy`` budget, so the
smoke ``chaos_recovery`` section, the chaos matrix and the placement
relay leg all drive the same :class:`~repro.middleware.chaos.ChaosWire`
+ :class:`~repro.middleware.chaos.ReliableEventLink` arrangement and
differ only in their fault plan and their traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ...data.commercial import CommercialDataGenerator
from ...middleware.chaos import ChaosWire, ReliableEventLink
from ...middleware.events import Event
from ...netsim.clock import VirtualClock
from ...netsim.faults import FaultPlan, RetryPolicy
from ...netsim.link import PAPER_LINKS, SimulatedLink
from ...obs.metrics import MetricsRegistry
from ...obs.trace import TraceWriter

__all__ = ["RETRY", "WireRun", "run_hostile", "seeded_blocks", "seeded_events"]

#: Retry budget: generous enough that every seeded plan recovers, tight
#: enough that a runaway retry loop fails the gate.
RETRY = dict(max_attempts=8, base_delay=0.01, multiplier=2.0, max_delay=0.2)


def seeded_blocks(block_size: int, count: int) -> List[bytes]:
    """The seeded commercial stream every gate scenario cuts its blocks from."""
    return list(CommercialDataGenerator(seed=2004).stream(block_size, count))


def seeded_events(
    channel: str,
    block_size: int,
    count: int,
    shape: Optional[Callable[[int, bytes], Tuple[bytes, Dict[str, object]]]] = None,
) -> List[Event]:
    """Seeded commercial blocks as in-sequence events on ``channel``.

    ``shape(index, block)`` returns the ``(payload, attributes)`` an event
    carries (a compressing producer, a placement annotation); without it
    events carry the raw block and no attributes.
    """
    events = []
    for index, block in enumerate(seeded_blocks(block_size, count)):
        payload, attributes = shape(index, block) if shape else (block, {})
        events.append(
            Event(
                payload=payload,
                attributes=attributes,
                channel_id=channel,
                sequence=index + 1,
                timestamp=float(index),
            )
        )
    return events


class WireRun(NamedTuple):
    """What one run through the hostile wire did — comparable, so
    :meth:`GateContext.twice` can demand that it reproduces."""

    missing: Tuple[int, ...]
    attempts: Tuple[int, ...]
    injected: Dict[str, int]
    retries: int
    frames_rejected: int
    duplicates_dropped: int
    rerequests: int
    recovery_seconds: float
    virtual_seconds: float


def run_hostile(
    plan: FaultPlan,
    events: Sequence[Event],
    deliver: Callable[[Event], object],
    seed: int,
    tracer: Optional[TraceWriter] = None,
) -> WireRun:
    """Send ``events`` over a reliable link whose 100 MBit wire ``plan`` damages.

    Faults and backoff are charged to a virtual clock; recovery is
    bounded by :data:`RETRY` seeded with ``seed``.
    """
    clock = VirtualClock()
    wire = ChaosWire(
        plan, link=SimulatedLink(PAPER_LINKS["100mbit"], seed=2), clock=clock
    )
    reliable = ReliableEventLink(
        wire,
        deliver,
        retry=RetryPolicy(seed=seed, **RETRY),
        registry=MetricsRegistry(),
        tracer=tracer,
    )
    attempts = tuple(reliable.send(event) for event in events)
    missing = tuple(reliable.close())
    return WireRun(
        missing=missing,
        attempts=attempts,
        injected=plan.counts.copy(),
        retries=reliable.retries,
        frames_rejected=reliable.frames_rejected,
        duplicates_dropped=reliable.duplicates_dropped,
        rerequests=reliable.rerequests,
        recovery_seconds=reliable.recovery_seconds,
        virtual_seconds=clock.now(),
    )

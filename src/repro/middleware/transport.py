"""Transport encapsulation layer (paper §3.2).

"ECho channels utilize a transport encapsulation layer that efficiently
multiplexes multiple connections from a single address space."

:class:`TransportBridge` carries events from channels in one (simulated)
address space to mirror channels in another, over a single
:class:`~repro.netsim.link.SimulatedLink` shared by all exported channels
— the multiplexing.  Every delivery charges the simulated clock with the
link's transfer time under the current load and annotates the event with
its wire size and transport time, which is exactly the end-to-end signal
the adaptive consumer measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..compression.framing import (
    Frame,
    decode_frame,
    encode_frame,
    encode_frame_parts,
)
from ..netsim.clock import Clock
from ..netsim.faults import RetryPolicy
from ..netsim.link import SimulatedLink
from ..netsim.loadtrace import LoadTrace
from ..netsim.rudp import RateControlledTransport

# RetryPolicy is defined transport-agnostically in repro.netsim.faults and
# re-exported here: middleware recovery (tcp.py, chaos.py) shares one
# retry schedule with the simulated links.
from .channels import EventChannel, Subscription
from .events import Event

__all__ = [
    "ATTR_TRANSPORT_SECONDS",
    "ATTR_WIRE_SIZE",
    "ATTR_TRANSPORT_RETRANSMISSIONS",
    "RetryPolicy",
    "WireFormat",
    "TransportBridge",
    "RudpBridge",
    "TransportStats",
]

ATTR_TRANSPORT_SECONDS = "transport.seconds"
ATTR_WIRE_SIZE = "transport.wire_size"
ATTR_TRANSPORT_RETRANSMISSIONS = "transport.retransmissions"

#: ``json.dumps(obj, separators=(",", ":"))`` builds this very encoder on
#: every call; one instance per process writes the same bytes.
_encode_header = json.JSONEncoder(separators=(",", ":")).encode


class WireFormat:
    """Self-describing event encoding used on the wire.

    One :mod:`repro.compression.framing` frame whose header is a JSON
    document carrying channel id, sequence, timestamp, and the attribute
    map (attributes are required to be JSON-encodable — they are globally
    *interpreted*, so opaque objects would defeat the purpose).  The
    event payload is the frame payload; parsing goes through the shared
    frame parser, so any framing-aware peer can recover the event.
    """

    @staticmethod
    def encode(event: Event) -> bytearray:
        """One owned frame buffer for the event (no trailing copy)."""
        return encode_frame(WireFormat._header(event), event.payload)

    @staticmethod
    def encode_parts(event: Event) -> list:
        """The event frame as a gather list for vectored socket writes.

        The payload element is the event's own payload object — a large
        payload never gets copied into a contiguous wire buffer.
        """
        return encode_frame_parts(WireFormat._header(event), event.payload)

    @staticmethod
    def _header(event: Event) -> bytes:
        return _encode_header(
            {
                "channel": event.channel_id,
                "sequence": event.sequence,
                "timestamp": event.timestamp,
                "attributes": event.attributes,
            }
        ).encode()

    @staticmethod
    def from_frame(frame: Frame, **stamps: Any) -> Event:
        """Reconstruct an event from an already-parsed frame.

        The payload is taken as-is — a view-backed frame yields a
        view-backed event (zero-copy receive); sinks that retain the
        event past the receive buffer's lifetime must copy.  ``stamps``
        are what the receiving transport observed (seconds, wire size):
        they land after the header's own attributes, in the order given,
        so the event is built once rather than copied to be stamped.
        """
        header = json.loads(frame.header_bytes)
        attributes = header["attributes"]
        if not isinstance(attributes, dict):
            attributes = dict(attributes)  # a hostile header: coerce or raise
        attributes.update(stamps)
        return Event(
            payload=frame.payload,
            attributes=attributes,
            channel_id=header["channel"],
            sequence=header["sequence"],
            timestamp=header["timestamp"],
        )

    @staticmethod
    def decode(data: bytes, **stamps: Any) -> Event:
        frame, _ = decode_frame(data)
        return WireFormat.from_frame(frame, **stamps)


@dataclass
class TransportStats:
    """Aggregate counters for one bridge."""

    events: int = 0
    wire_bytes: int = 0
    transfer_seconds: float = 0.0
    per_channel_events: Dict[str, int] = field(default_factory=dict)


class TransportBridge:
    """Moves events between two address spaces over one shared link.

    The wire charges time and never damages bytes; the hostile wire and
    its recovery protocol are :class:`~repro.middleware.chaos.ChaosWire`
    and :class:`~repro.middleware.chaos.ReliableEventLink`.  Each
    delivery runs on the thread that submitted the event.
    """

    def __init__(
        self,
        link: SimulatedLink,
        clock: Clock,
        load: Optional[LoadTrace] = None,
        advance_clock: bool = True,
    ) -> None:
        self.link = link
        self.clock = clock
        self.load = load
        self.advance_clock = advance_clock
        self.stats = TransportStats()
        self._exports: List[Tuple[EventChannel, EventChannel, Subscription]] = []

    def export(self, local: EventChannel, remote: Optional[EventChannel] = None) -> EventChannel:
        """Mirror ``local`` into the remote space; returns the mirror channel."""
        mirror = remote if remote is not None else EventChannel(f"{local.channel_id}@remote")
        subscription = local.subscribe(lambda event: self._deliver(event, mirror))
        self._exports.append((local, mirror, subscription))
        return mirror

    def unexport(self, local: EventChannel) -> None:
        """Stop mirroring ``local`` (its wire traffic ceases immediately)."""
        remaining = []
        for channel, mirror, subscription in self._exports:
            if channel is local:
                subscription.cancel()
            else:
                remaining.append((channel, mirror, subscription))
        self._exports = remaining

    def exported_channels(self) -> List[str]:
        return [channel.channel_id for channel, _, _ in self._exports]

    def _deliver(self, event: Event, mirror: EventChannel) -> None:
        wire = WireFormat.encode(event)
        connections = (
            self.load.connections_at(self.clock.now()) if self.load is not None else 0.0
        )
        seconds = self.link.transfer_time(len(wire), connections)
        self._account(wire, mirror, seconds)

    def _account(
        self, wire: bytearray, mirror: EventChannel, seconds: float, **stamps
    ) -> None:
        """The tail of every delivery: charge the clock, decode the event
        with what the transport observed stamped on, count it, hand it to
        the mirror."""
        if self.advance_clock:
            self.clock.advance(seconds)
        wire_size = len(wire)
        received = WireFormat.decode(
            wire, **{ATTR_TRANSPORT_SECONDS: seconds, ATTR_WIRE_SIZE: wire_size, **stamps}
        )
        self.stats.events += 1
        self.stats.wire_bytes += wire_size
        self.stats.transfer_seconds += seconds
        self.stats.per_channel_events[received.channel_id] = (
            self.stats.per_channel_events.get(received.channel_id, 0) + 1
        )
        mirror.submit_stamped(received)


class RudpBridge(TransportBridge):
    """A transport bridge running over the IQ-RUDP model (paper ref [14]).

    Events are carried by a :class:`~repro.netsim.rudp.RateControlledTransport`
    instead of the plain link: each delivery pays packetization, pacing,
    and retransmission costs, and the AIMD rate state persists across
    events.  The delivered event additionally carries the per-event
    retransmission count — transport-level information the middleware can
    surface to the application, which is exactly IQ-RUDP's "coordinating
    application adaptation with network transport" premise.
    """

    def __init__(
        self,
        transport: "RateControlledTransport",
        clock: Clock,
        load: Optional[LoadTrace] = None,
        advance_clock: bool = True,
    ) -> None:
        super().__init__(transport.packet_link.link, clock, load=load, advance_clock=advance_clock)
        self.transport = transport

    def _deliver(self, event: Event, mirror: EventChannel) -> None:
        wire = WireFormat.encode(event)
        connections = (
            self.load.connections_at(self.clock.now()) if self.load is not None else 0.0
        )
        report = self.transport.transfer(len(wire), connections)
        self._account(
            wire,
            mirror,
            report.elapsed,
            **{ATTR_TRANSPORT_RETRANSMISSIONS: report.retransmissions},
        )

"""Quality monitoring — the "IQ" in IQ-ECho (paper §3.1, ref [36]).

"ECho can transport performance information ... across end users and
address spaces and across different implementation layers."  The
:class:`ChannelMonitor` is the middleware-level producer of that
performance information: subscribed to any channel (typically a mirror on
the consumer side), it aggregates delivery statistics — event rate,
throughput, compression effectiveness, transport latency — over a sliding
window and publishes them into a :class:`QualityAttributes` namespace
where any layer (the adaptive controller, the application, an operator
console) can read them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from ..netsim.clock import Clock, VirtualClock
from ..obs.catalogue import (
    CHANNEL_EVENTS_TOTAL,
    CHANNEL_ORIGINAL_BYTES_TOTAL,
    CHANNEL_QUALITY,
    CHANNEL_WIRE_BYTES_TOTAL,
)
from ..obs.metrics import MetricsRegistry
from .attributes import (
    ATTR_COMPRESSION_METHOD,
    ATTR_ORIGINAL_SIZE,
    QualityAttributes,
)
from .channels import EventChannel, Subscription
from .events import Event
from .transport import ATTR_TRANSPORT_SECONDS, ATTR_WIRE_SIZE

__all__ = ["ChannelQuality", "ChannelMonitor"]

#: Attribute name prefix under which monitors publish, completed with the
#: channel id: ``quality.<channel_id>``.
QUALITY_ATTR_PREFIX = "quality"


@dataclass(frozen=True)
class ChannelQuality:
    """One snapshot of a channel's observed quality."""

    channel_id: str
    events: int
    event_rate: float          # events / second over the window
    goodput: float             # application bytes / second over the window
    wire_throughput: float     # wire bytes / second over the window
    mean_transport_seconds: float
    compression_ratio: float   # wire / original over the window

    def as_dict(self) -> dict:
        return {
            "channel_id": self.channel_id,
            "events": self.events,
            "event_rate": self.event_rate,
            "goodput": self.goodput,
            "wire_throughput": self.wire_throughput,
            "mean_transport_seconds": self.mean_transport_seconds,
            "compression_ratio": self.compression_ratio,
        }


class ChannelMonitor:
    """Sliding-window quality aggregation for one channel.

    When given a :class:`~repro.obs.metrics.MetricsRegistry` the monitor
    doubles as an obs producer: per-event counters (events, original and
    wire bytes) accumulate as they arrive, and every :meth:`publish`
    refreshes ``repro_channel_quality_*`` gauges — all labeled with the
    channel id, so many monitors can share one registry.
    """

    def __init__(
        self,
        channel: EventChannel,
        clock: Optional[Clock] = None,
        attributes: Optional[QualityAttributes] = None,
        window: int = 32,
        publish_every: int = 1,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        if publish_every < 1:
            raise ValueError("publish_every must be positive")
        self.channel = channel
        self.clock = clock if clock is not None else VirtualClock()
        self.attributes = attributes
        self.registry = registry
        self.window = window
        self.publish_every = publish_every
        self.total_events = 0
        # (arrival_time, original_size, wire_size, transport_seconds)
        self._samples: Deque[Tuple[float, int, int, float]] = deque(maxlen=window)
        self._subscription: Subscription = channel.subscribe(self._on_event)

    def detach(self) -> None:
        """Stop observing the channel."""
        self._subscription.cancel()

    def _on_event(self, event: Event) -> None:
        self.total_events += 1
        original = int(event.attributes.get(ATTR_ORIGINAL_SIZE, event.size))
        wire = int(event.attributes.get(ATTR_WIRE_SIZE, event.size))
        transport = float(event.attributes.get(ATTR_TRANSPORT_SECONDS, 0.0))
        self._samples.append((self.clock.now(), original, wire, transport))
        if self.registry is not None:
            channel_id = self.channel.channel_id
            method = str(event.attributes.get(ATTR_COMPRESSION_METHOD, "none"))
            self.registry.family(CHANNEL_EVENTS_TOTAL).inc(channel=channel_id, method=method)
            self.registry.family(CHANNEL_ORIGINAL_BYTES_TOTAL).inc(original, channel=channel_id)
            self.registry.family(CHANNEL_WIRE_BYTES_TOTAL).inc(wire, channel=channel_id)
        if self.attributes is not None and self.total_events % self.publish_every == 0:
            self.publish()

    def snapshot(self) -> ChannelQuality:
        """Current quality over the window."""
        samples = list(self._samples)
        if not samples:
            return ChannelQuality(
                channel_id=self.channel.channel_id,
                events=0,
                event_rate=0.0,
                goodput=0.0,
                wire_throughput=0.0,
                mean_transport_seconds=0.0,
                compression_ratio=1.0,
            )
        span = max(samples[-1][0] - samples[0][0], 1e-9)
        total_original = sum(original for _, original, _, _ in samples)
        total_wire = sum(wire for _, _, wire, _ in samples)
        total_transport = sum(seconds for _, _, _, seconds in samples)
        return ChannelQuality(
            channel_id=self.channel.channel_id,
            events=len(samples),
            event_rate=(len(samples) - 1) / span if len(samples) > 1 else 0.0,
            goodput=total_original / span,
            wire_throughput=total_wire / span,
            mean_transport_seconds=total_transport / len(samples),
            compression_ratio=(total_wire / total_original) if total_original else 1.0,
        )

    def publish(self) -> ChannelQuality:
        """Publish the current snapshot into the attribute namespace.

        With a registry attached, the snapshot also lands in the
        ``repro_channel_quality_*`` gauges.
        """
        quality = self.snapshot()
        if self.attributes is not None:
            self.attributes.set(
                f"{QUALITY_ATTR_PREFIX}.{self.channel.channel_id}", quality.as_dict()
            )
        if self.registry is not None:
            for field_name, row in CHANNEL_QUALITY.items():
                self.registry.family(row).set(
                    getattr(quality, field_name), channel=self.channel.channel_id
                )
        return quality

"""IQ-ECho facade: adaptive compressed event streaming (paper §3).

This module wires the pieces of §3.2 together exactly as the paper
describes the integration:

* the producer publishes raw blocks to a base channel, with the 4 KB
  Lempel-Ziv sampling probe run "integrated into the producer-side
  actions taken on events" (§4.1) and its results attached as quality
  attributes;
* one *derived channel* exists per compression method, each applying a
  :class:`~repro.middleware.handlers.CompressionHandler` producer-side;
* a :class:`TransportBridge` multiplexes whichever derived channels have
  remote subscribers over the simulated link;
* the consumer-side :class:`AdaptiveSubscriber` measures end-to-end
  delivery, runs the §2.5 decision algorithm, and switches its
  subscription between derived channels — "the consumer can then
  unsubscribe from the original channel and subscribe to the new one,
  thereby connecting to an event stream with newly embedded data
  compression."

Producers never learn who consumes what; all coordination happens through
channel derivation and the shared :class:`QualityAttributes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..compression.registry import PAPER_METHODS
from ..core.decision import DecisionThresholds
from ..core.engine import CodecExecutor
from ..core.monitor import ReducingSpeedMonitor
from ..core.policy import AdaptivePolicy
from ..core.sampler import LzSampler
from ..netsim.bandwidth import EwmaBandwidthEstimator
from ..netsim.clock import Clock, VirtualClock
from ..netsim.cpu import CodecCostModel, CpuModel
from ..netsim.link import SimulatedLink
from ..netsim.loadtrace import LoadTrace
from .attributes import (
    ATTR_COMPRESSION_METHOD,
    ATTR_COMPRESSION_SECONDS,
    ATTR_LZ_REDUCING_SPEED,
    ATTR_ORIGINAL_SIZE,
    ATTR_SAMPLED_RATIO,
    QualityAttributes,
)
from .channels import ChannelError, EventChannel, Subscription
from .events import Event
from .handlers import CompressionHandler, DecompressionHandler
from .transport import ATTR_TRANSPORT_SECONDS, ATTR_WIRE_SIZE, TransportBridge

__all__ = ["EchoSystem", "SamplingPublisher", "AdaptiveSubscriber", "DeliveryRecord"]


class EchoSystem:
    """A named registry of channels plus the shared attribute namespace."""

    def __init__(self) -> None:
        self._channels: Dict[str, EventChannel] = {}
        self.attributes = QualityAttributes()

    def create_channel(self, channel_id: str) -> EventChannel:
        if channel_id in self._channels:
            raise ChannelError(f"channel {channel_id!r} already exists")
        channel = EventChannel(channel_id)
        self._channels[channel_id] = channel
        return channel

    def get_channel(self, channel_id: str) -> EventChannel:
        try:
            return self._channels[channel_id]
        except KeyError:
            raise ChannelError(f"no channel {channel_id!r}") from None

    def channel_ids(self) -> List[str]:
        return sorted(self._channels)


class SamplingPublisher:
    """Producer-side publisher with the §2.5 sampling probe built in.

    ``publish`` submits the *previous* pending block after probing the new
    one, so each published event carries the sampling attributes that
    apply to it — mirroring "fork a sampling process to compress the
    first 4KB of the next block".
    """

    def __init__(
        self,
        channel: EventChannel,
        sampler: Optional[LzSampler] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.channel = channel
        self.sampler = sampler if sampler is not None else LzSampler()
        self.clock = clock if clock is not None else VirtualClock()
        self.published = 0

    def publish(self, block: bytes) -> None:
        """Probe and publish one block."""
        sample = self.sampler.sample(block)
        event = Event(
            payload=block,
            attributes={
                ATTR_SAMPLED_RATIO: sample.ratio,
                ATTR_LZ_REDUCING_SPEED: sample.reducing_speed,
            },
            timestamp=self.clock.now(),
        )
        self.channel.submit(event)
        self.published += 1


@dataclass(frozen=True)
class DeliveryRecord:
    """What the adaptive consumer observed for one delivered event."""

    sequence: int
    timestamp: float
    method: str
    original_size: int
    wire_size: int
    transport_seconds: float
    sampled_ratio: Optional[float]


class AdaptiveSubscriber:
    """Consumer-side adaptive controller (paper §3.2).

    Subscribes to the derived channel of its current method, measures
    every delivery end to end, and re-runs the selection algorithm (the
    table preset of :class:`~repro.core.policy.AdaptivePolicy`); when
    the decision changes it re-subscribes to a different derived channel
    and announces the change through the shared quality attributes.
    """

    def __init__(
        self,
        system: EchoSystem,
        source: EventChannel,
        bridge: TransportBridge,
        thresholds: DecisionThresholds = DecisionThresholds(),
        methods: Optional[List[str]] = None,
        cost_model: Optional[CodecCostModel] = None,
        cpu: Optional[CpuModel] = None,
        on_delivery: Optional[Callable[[DeliveryRecord], None]] = None,
        consumer_id: Optional[str] = None,
    ) -> None:
        self.system = system
        self.source = source
        self.bridge = bridge
        self.policy = AdaptivePolicy(thresholds)
        self.consumer_id = consumer_id
        self.methods = list(methods) if methods is not None else list(PAPER_METHODS)
        self.monitor = ReducingSpeedMonitor()
        self.estimator = EwmaBandwidthEstimator()
        self.decompressor = DecompressionHandler()
        self.on_delivery = on_delivery
        self.records: List[DeliveryRecord] = []
        self.switches = 0

        self._derived: Dict[str, EventChannel] = {}
        self._mirrors: Dict[str, EventChannel] = {}
        self._executor = CodecExecutor(cost_model, cpu, expansion_fallback=True)
        self._subscription: Optional[Subscription] = None
        self._current_method: Optional[str] = None
        self._switch_to("none")

    @property
    def current_method(self) -> str:
        assert self._current_method is not None
        return self._current_method

    # -- channel plumbing ----------------------------------------------------------

    def _derived_for(self, method: str) -> EventChannel:
        """Lazily derive the compression channel for ``method`` and export it."""
        if method not in self._derived:
            handler = CompressionHandler(method, executor=self._executor)
            suffix = f"/{self.consumer_id}" if self.consumer_id else ""
            derived = self.source.derive(
                handler, f"{self.source.channel_id}/{method}{suffix}"
            )
            self._derived[method] = derived
        return self._derived[method]

    def _switch_to(self, method: str) -> None:
        if method == self._current_method:
            return
        if method not in self.methods:
            raise ChannelError(f"method {method!r} not offered by this subscriber")
        if self._subscription is not None:
            self._subscription.cancel()
            previous = self._derived[self._current_method]
            self.bridge.unexport(previous)
        derived = self._derived_for(method)
        mirror = self._mirrors.get(method)
        refreshed = self.bridge.export(derived, mirror)
        self._mirrors[method] = refreshed
        self._subscription = refreshed.subscribe(self._on_event)
        if self._current_method is not None:
            self.switches += 1
        self._current_method = method
        attribute = ATTR_COMPRESSION_METHOD
        if self.consumer_id:
            attribute = f"{ATTR_COMPRESSION_METHOD}.{self.consumer_id}"
        self.system.attributes.set(attribute, method)

    # -- delivery path -----------------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        decompressed = self.decompressor(event)
        method = event.attributes.get(ATTR_COMPRESSION_METHOD, "none")
        original_size = int(event.attributes.get(ATTR_ORIGINAL_SIZE, decompressed.size))
        wire_size = int(event.attributes.get(ATTR_WIRE_SIZE, event.size))
        transport_seconds = float(event.attributes.get(ATTR_TRANSPORT_SECONDS, 0.0))
        sampled_ratio = event.attributes.get(ATTR_SAMPLED_RATIO)
        lz_speed = event.attributes.get(ATTR_LZ_REDUCING_SPEED)

        if transport_seconds > 0:
            self.estimator.observe(wire_size, transport_seconds)
        if lz_speed is not None:
            # Producer-side probe results arrive as attributes; fold them
            # into the consumer's reducing-speed view.
            self.monitor.observe_speed("lempel-ziv", float(lz_speed))

        record = DeliveryRecord(
            sequence=event.sequence,
            timestamp=event.timestamp,
            method=method,
            original_size=original_size,
            wire_size=wire_size,
            transport_seconds=transport_seconds,
            sampled_ratio=sampled_ratio,
        )
        self.records.append(record)
        if self.on_delivery is not None:
            self.on_delivery(record)

        self._reconsider(original_size, sampled_ratio)

    def _reconsider(self, block_size: int, sampled_ratio: Optional[float]) -> None:
        bandwidth = self.estimator.estimate
        if bandwidth is None or bandwidth <= 0 or block_size <= 0:
            return
        decision = self.policy.choose(
            block_size, block_size / bandwidth, self.monitor, sampled_ratio
        )
        if decision.method in self.methods:
            self._switch_to(decision.method)

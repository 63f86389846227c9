"""ECho-like event middleware with integrated configurable compression
(paper §3): channels, handlers, derived channels, quality attributes, a
multiplexing transport bridge over simulated links, and the adaptive
consumer that switches compression methods at runtime."""

from .attributes import (
    ATTR_BANDWIDTH,
    ATTR_COMPRESSION_METHOD,
    ATTR_COMPRESSION_SECONDS,
    ATTR_CPU_LOAD,
    ATTR_LZ_REDUCING_SPEED,
    ATTR_ORIGINAL_SIZE,
    ATTR_SAMPLED_RATIO,
    QualityAttributes,
)
from .channels import ChannelError, EventChannel, Subscription
from .chaos import ChaosWire, DeliveryError, ReliableEventLink
from .echo import AdaptiveSubscriber, DeliveryRecord, EchoSystem, SamplingPublisher
from .events import Event
from .attributes import ATTR_COMPRESSION_PARAMETERS
from .handlers import (
    CompressionHandler,
    DecompressionHandler,
    FilterHandler,
    Handler,
    TapHandler,
)
from .monitoring import ChannelMonitor, ChannelQuality
from .reassembly import OrderedReassembly
from .relay import (
    ATTR_PLACEMENT,
    ATTR_RELAY_METHOD,
    ATTR_RELAY_PARAMS,
    CompressionRelay,
    chain_crc,
)
from .tcp import ChannelServer, RemoteChannel
from .transport import (
    ATTR_TRANSPORT_RETRANSMISSIONS,
    ATTR_TRANSPORT_SECONDS,
    ATTR_WIRE_SIZE,
    RetryPolicy,
    RudpBridge,
    TransportBridge,
    TransportStats,
    WireFormat,
)

__all__ = [
    "ATTR_BANDWIDTH",
    "ATTR_COMPRESSION_METHOD",
    "ATTR_COMPRESSION_SECONDS",
    "ATTR_CPU_LOAD",
    "ATTR_LZ_REDUCING_SPEED",
    "ATTR_ORIGINAL_SIZE",
    "ATTR_SAMPLED_RATIO",
    "ATTR_PLACEMENT",
    "ATTR_RELAY_METHOD",
    "ATTR_RELAY_PARAMS",
    "ATTR_TRANSPORT_RETRANSMISSIONS",
    "ATTR_TRANSPORT_SECONDS",
    "ATTR_WIRE_SIZE",
    "AdaptiveSubscriber",
    "ChannelError",
    "ChannelMonitor",
    "ChannelServer",
    "ChannelQuality",
    "ChaosWire",
    "CompressionHandler",
    "CompressionRelay",
    "DecompressionHandler",
    "DeliveryError",
    "DeliveryRecord",
    "EchoSystem",
    "Event",
    "EventChannel",
    "FilterHandler",
    "Handler",
    "OrderedReassembly",
    "QualityAttributes",
    "ReliableEventLink",
    "RemoteChannel",
    "RetryPolicy",
    "RudpBridge",
    "SamplingPublisher",
    "Subscription",
    "TapHandler",
    "TransportBridge",
    "ATTR_COMPRESSION_PARAMETERS",
    "TransportStats",
    "WireFormat",
    "chain_crc",
]

"""Fan-out load generator: thousands of subscribers over netsim links.

The scenario behind the ``fanout_throughput`` bench gate and the
``repro fanout`` CLI: a population of simulated subscribers joins a set
of channels with heavy-tailed (Zipf) skew — a few hot channels carry
most of the audience, the long tail is sparse — and every subscriber
picks one of a small set of ``(method, params)`` compression choices,
also Zipf-skewed (most consumers want the popular configuration).  A
producer then publishes a commercial-data event stream to every
subscribed channel and the same delivery workload is costed two ways:

* **fabric** — through an inline :class:`~repro.fabric.broker.EventFabric`
  with a shared :class:`~repro.fabric.cache.BlockCache`: the codec runs
  once per distinct configuration per payload, everyone else is served
  from the cache;
* **baseline** — the pre-fabric middleware model: every subscriber's
  channel compresses independently, so the codec cost is charged once
  per *delivery*.

Both paths run on the calibrated cost model (modeled seconds, real
bytes) over a :class:`~repro.netsim.link.SimulatedLink`'s deterministic
mean transfer time, so the comparison is exact run-to-run.  Delivered
frames are CRC32-checked subscriber-by-subscriber against the baseline's
wire bytes: compress-once must be **byte-identical** to
compress-per-subscriber, merely cheaper.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..compression.framing import JUMBO_HEADER, parse_frame
from ..compression.varint import read_canonical_varint
from ..core.engine import CodecExecutor
from ..data.commercial import CommercialDataGenerator
from ..middleware.events import Event
from ..middleware.handlers import stamp_compression
from ..middleware.transport import WireFormat
from ..netsim.cpu import DEFAULT_COSTS, SUN_FIRE, CodecCostModel, CpuModel
from ..netsim.link import SimulatedLink, make_link
from ..obs.metrics import MetricsRegistry
from .batching import BatchConfig
from .broker import EventFabric
from .cache import BlockCache

__all__ = ["DEFAULT_SPECS", "FanoutConfig", "FanoutResult", "run_fanout"]

#: Eight distinct (method, params) choices — the "small number of open
#: channels" population of §3.2 at fan-out scale.  Params feed cache
#: keying and labels; registry codecs ignore them behaviorally, so two
#: param variants of one method really are two cache configurations.
DEFAULT_SPECS: Tuple[Tuple[str, Optional[Mapping[str, object]]], ...] = (
    ("burrows-wheeler", None),
    ("lempel-ziv", None),
    ("huffman", None),
    ("burrows-wheeler", {"chunk_kb": 16}),
    ("lempel-ziv", {"window": 32768}),
    ("huffman", {"table": "canonical"}),
    ("lempel-ziv", {"window": 65536}),
    ("burrows-wheeler", {"chunk_kb": 32}),
)


@dataclass(frozen=True)
class FanoutConfig:
    """One fan-out scenario (fully determined by its fields + seed)."""

    subscribers: int = 1024
    channels: int = 64
    events: int = 32
    event_size: int = 8 * 1024
    shards: int = 4
    specs: Tuple[Tuple[str, Optional[Mapping[str, object]]], ...] = DEFAULT_SPECS
    zipf_exponent: float = 1.1
    seed: int = 2004
    link: str = "1gbit"
    cache_entries: int = 1024
    cache_bytes: int = 64 * 1024 * 1024
    #: Coalesce each subscriber's frames into jumbo super-frames.  The
    #: CRC chains stay comparable to the unbatched baseline because the
    #: member frames ride the jumbo payload verbatim, in order.
    batch: bool = False
    batch_frames: int = 8
    batch_bytes: int = 60 * 1024

    def __post_init__(self) -> None:
        if self.subscribers < 1 or self.channels < 1 or self.events < 1:
            raise ValueError("subscribers, channels, and events must be positive")
        if not self.specs:
            raise ValueError("at least one (method, params) spec is required")


@dataclass
class FanoutResult:
    """Outcome of one scenario run (both cost paths + integrity checks)."""

    subscribers: int
    channels_used: int
    events_published: int
    deliveries: int
    fanout_ratio: float
    #: Virtual seconds: engine-accounted compression + link transfer.
    fabric_seconds: float
    baseline_seconds: float
    #: Codec runs each path actually charged for.
    fabric_compressions: int
    baseline_compressions: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_hit_rate: float
    #: Per-subscriber running CRC32 chains matched between the paths.
    crc_ok: bool
    #: CRC32 over the per-subscriber chain — one number for the bench gate.
    wire_crc32: int
    shard_events: List[int] = field(default_factory=list)
    #: Jumbo batching telemetry (zero when the scenario ran unbatched).
    batches_emitted: int = 0
    batched_frames: int = 0

    @property
    def speedup(self) -> float:
        if self.fabric_seconds <= 0.0:
            return float("inf")
        return self.baseline_seconds / self.fabric_seconds

    @property
    def fabric_events_per_second(self) -> float:
        return self.deliveries / self.fabric_seconds if self.fabric_seconds else 0.0

    @property
    def baseline_events_per_second(self) -> float:
        return self.deliveries / self.baseline_seconds if self.baseline_seconds else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "subscribers": self.subscribers,
            "channels_used": self.channels_used,
            "events_published": self.events_published,
            "deliveries": self.deliveries,
            "fanout_ratio": self.fanout_ratio,
            "fabric_seconds": self.fabric_seconds,
            "baseline_seconds": self.baseline_seconds,
            "speedup": self.speedup,
            "fabric_events_per_second": self.fabric_events_per_second,
            "baseline_events_per_second": self.baseline_events_per_second,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_evictions": self.cache_evictions,
        }


class _AccountingExecutor(CodecExecutor):
    """A CodecExecutor that totals the engine-accounted seconds it charged.

    The cache only consults the executor on a miss, so this total *is*
    the compression cost the fabric path actually paid — no second
    timing site, just a sum over the engine's own accounting.
    """

    def __init__(self, cost_model: CodecCostModel, cpu: CpuModel) -> None:
        super().__init__(cost_model=cost_model, cpu=cpu, expansion_fallback=True)
        self.seconds_charged = 0.0
        self.runs = 0

    def compress(self, method, block, codec=None):
        execution = super().compress(method, block, codec=codec)
        self.seconds_charged += execution.compression_seconds
        self.runs += 1
        return execution


def _zipf_weights(count: int, exponent: float) -> List[float]:
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def run_fanout(
    config: FanoutConfig = FanoutConfig(),
    registry: Optional[MetricsRegistry] = None,
) -> FanoutResult:
    """Run one fan-out scenario; deterministic for a given config."""
    rng = random.Random(config.seed)
    channel_weights = _zipf_weights(config.channels, config.zipf_exponent)
    spec_weights = _zipf_weights(len(config.specs), config.zipf_exponent)
    channel_of = rng.choices(range(config.channels), channel_weights, k=config.subscribers)
    spec_of = rng.choices(range(len(config.specs)), spec_weights, k=config.subscribers)

    link: SimulatedLink = make_link(config.link, seed=config.seed)
    fabric_executor = _AccountingExecutor(DEFAULT_COSTS, SUN_FIRE)
    cache = BlockCache(
        max_entries=config.cache_entries,
        max_bytes=config.cache_bytes,
        registry=registry,
    )
    fabric = EventFabric(
        shards=config.shards,
        executor=fabric_executor,
        cache=cache,
        registry=registry,
        mode="inline",
    )

    # -- wire up the population --------------------------------------------------
    fabric_crcs = [0] * config.subscribers
    fabric_send_seconds = [0.0]
    # Zero-copy audit: every sink sees the one shared view its delivery
    # group encoded, so counting runs of distinct wire objects must land
    # exactly on the fabric's encode counter.  Group members are served
    # consecutively in inline mode, and holding the previous view alive
    # makes the ``is`` comparison immune to id reuse.
    wire_views = {"last": None, "distinct": 0}
    batch_config = (
        BatchConfig(max_frames=config.batch_frames, max_bytes=config.batch_bytes)
        if config.batch
        else None
    )

    def make_sink(subscriber: int):
        def sink(event: Optional[Event], wire: Optional[memoryview]) -> None:
            assert wire is not None
            if config.batch:
                fabric_crcs[subscriber] = _crc_member_frames(wire, fabric_crcs[subscriber])
            else:
                assert isinstance(wire, memoryview) and wire.readonly
                if wire is not wire_views["last"]:
                    wire_views["last"] = wire
                    wire_views["distinct"] += 1
                fabric_crcs[subscriber] = zlib.crc32(wire, fabric_crcs[subscriber])
            fabric_send_seconds[0] += link.mean_transfer_time(len(wire))

        return sink

    for subscriber in range(config.subscribers):
        method, params = config.specs[spec_of[subscriber]]
        fabric.subscribe(
            f"feed/{channel_of[subscriber]}",
            make_sink(subscriber),
            method=method,
            params=params,
            wire=True,
            batch=batch_config,
        )

    channels_used = len(fabric.channels())

    # -- publish the stream through the fabric -----------------------------------
    payloads = list(
        CommercialDataGenerator(seed=config.seed).stream(config.event_size, config.events)
    )
    subscribed_channels = fabric.channels()
    for index, payload in enumerate(payloads):
        for channel_id in subscribed_channels:
            fabric.publish(
                channel_id,
                Event(
                    payload=payload,
                    channel_id=channel_id,
                    sequence=index + 1,
                    timestamp=float(index),
                ),
            )

    fabric.flush()  # drain any partially filled batches
    if not config.batch and fabric.wire_frames_encoded != wire_views["distinct"]:
        raise AssertionError(
            f"zero-copy fan-out violated: {fabric.wire_frames_encoded} frames "
            f"encoded but sinks observed {wire_views['distinct']} distinct views"
        )

    fabric_seconds = fabric_executor.seconds_charged + fabric_send_seconds[0]

    # -- the per-subscriber-compression baseline ---------------------------------
    # Pre-fabric middleware: every subscriber's derived channel runs the
    # codec itself.  Identical bytes (codecs are deterministic), so the
    # wire is computed once per (payload, spec) and the *cost* charged
    # once per delivery — exactly what thread-per-connection forwarding
    # with per-channel CompressionHandlers paid.
    baseline_executor = _AccountingExecutor(DEFAULT_COSTS, SUN_FIRE)
    baseline_crcs = [0] * config.subscribers
    baseline_seconds = 0.0
    baseline_compressions = 0
    subscribers_by_channel: Dict[int, List[int]] = {}
    for subscriber in range(config.subscribers):
        subscribers_by_channel.setdefault(channel_of[subscriber], []).append(subscriber)

    for index, payload in enumerate(payloads):
        # Codecs are deterministic, so the baseline's bytes for one
        # (payload, spec) are computed once and only the *cost* is
        # charged per delivery; the wire frame is rebuilt per channel
        # because its header carries the channel id.
        execution_by_spec: Dict[int, object] = {}
        for channel, members in sorted(subscribers_by_channel.items()):
            event = Event(
                payload=payload,
                channel_id=f"feed/{channel}",
                sequence=index + 1,
                timestamp=float(index),
            )
            channel_wires: Dict[int, bytes] = {}
            for subscriber in members:
                spec_index = spec_of[subscriber]
                execution = execution_by_spec.get(spec_index)
                if execution is None:
                    method, _params = config.specs[spec_index]
                    execution = baseline_executor.compress(method, payload)
                    execution_by_spec[spec_index] = execution
                wire = channel_wires.get(spec_index)
                if wire is None:
                    wire = WireFormat.encode(stamp_compression(event, execution))
                    channel_wires[spec_index] = wire
                baseline_crcs[subscriber] = zlib.crc32(wire, baseline_crcs[subscriber])
                baseline_seconds += execution.compression_seconds
                baseline_seconds += link.mean_transfer_time(len(wire))
                baseline_compressions += 1

    crc_ok = fabric_crcs == baseline_crcs
    combined = zlib.crc32(",".join(str(c) for c in fabric_crcs).encode())

    return FanoutResult(
        subscribers=config.subscribers,
        channels_used=channels_used,
        events_published=fabric.events_published,
        deliveries=fabric.deliveries_total,
        fanout_ratio=fabric.fanout_ratio,
        fabric_seconds=fabric_seconds,
        baseline_seconds=baseline_seconds,
        fabric_compressions=fabric_executor.runs,
        baseline_compressions=baseline_compressions,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        cache_evictions=cache.evictions,
        cache_hit_rate=cache.hit_rate,
        crc_ok=crc_ok,
        wire_crc32=combined,
        shard_events=list(fabric.shard_events),
        batches_emitted=fabric.batches_emitted,
        batched_frames=fabric.batched_frames_total,
    )


def _crc_member_frames(wire: memoryview, crc: int) -> int:
    """Chain ``crc`` over the member frames of ``wire``, jumbo or bare.

    Jumbo payloads carry the member frames verbatim and in order, so
    slicing them out by the offset table continues the exact CRC chain an
    unbatched delivery of the same frames would have produced — which is
    what lets a batched run share the bench baseline's integrity check.
    """
    parsed = parse_frame(wire)
    assert parsed is not None, "sink received a truncated frame"
    frame, _ = parsed
    if frame.header != JUMBO_HEADER:
        return zlib.crc32(wire, crc)
    payload = frame.payload
    count, offset = read_canonical_varint(payload, 0)
    lengths = []
    for _ in range(count):
        length, offset = read_canonical_varint(payload, offset)
        lengths.append(length)
    for length in lengths:
        crc = zlib.crc32(payload[offset : offset + length], crc)
        offset += length
    return crc

"""``fanout_shared``: compress once, deliver many, through the inline fabric.

512 subscribers over 32 channels share one ``BlockCache`` through four
``(method, params)`` groups.  Half of them take ``BatchConfig`` jumbo
frames, one in 64 parses + decompresses + CRC-checks what it receives,
and one ``CompressionRelay`` with eight downstream sinks hangs off the
busiest channel.  An op is one 8 KB payload published to every channel.
"""

from __future__ import annotations

import contextlib
import time
import zlib
from typing import Dict, List, Optional

from repro.compression.framing import parse_frame, unpack_jumbo_frame
from repro.core.engine import CodecExecutor
from repro.fabric.batching import BatchConfig, FrameBatcher
from repro.fabric.broker import EventFabric
from repro.fabric.cache import BlockCache
from repro.middleware.attributes import ATTR_COMPRESSION_METHOD
from repro.middleware.events import Event
from repro.middleware.handlers import DecompressionHandler
from repro.middleware.relay import CompressionRelay, chain_crc
from repro.middleware.transport import WireFormat

from harness import ATTR_OP, Segment, Tracer, per, traced_codecs
from inputs import corpus_blocks

SUBSCRIBERS = 512
CHANNELS = 32
EVENT_SIZE = 8 * 1024
#: Group order within a channel; ``none`` last, so the relay (a ``none``
#: subscriber) runs after the fabric's own lempel-ziv-native group and
#: finds its block in the shared cache.
GROUPS = ("lempel-ziv-native", "huffman", "burrows-wheeler-native", "none")
#: Decoding huffman runs at ~2 MB/s: one subscriber decoding it in the
#: loop would be a third of this workload's CPU and turn a fabric workload
#: into a second codec workload (bulk_paper_tcp already decodes huffman
#: on every cycle).  Its deliveries are instead CRC-recorded in the loop
#: and compared with a direct compression after the timed phase.
DEFERRED_CHECK = "huffman"
RELAY_METHOD = "lempel-ziv-native"
RELAY_SINKS = 8
BATCH = BatchConfig(max_frames=8, max_bytes=60 * 1024)
ZIPF_EXPONENT = 1.1


def channel_sizes(subscribers: int, channels: int) -> List[int]:
    """Zipf-skewed audience sizes (largest remainder, at least one each)."""
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, channels + 1)]
    spare = subscribers - channels
    shares = [w / sum(weights) * spare for w in weights]
    sizes = [1 + int(s) for s in shares]
    by_remainder = sorted(range(channels), key=lambda c: shares[c] - int(shares[c]), reverse=True)
    for c in by_remainder[: subscribers - sum(sizes)]:
        sizes[c] += 1
    return sizes


class FanoutShared:
    name = "fanout_shared"
    #: Everything runs inside publish spans on one thread; what no span
    #: covers is the generator loop.
    untraced_layer = "harness"
    kinds = 1

    def __init__(self, seed: int, scale: float = 1.0, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.payloads = corpus_blocks("commercial", seed, EVENT_SIZE, max(16, int(384 * scale)))
        self.crcs = [zlib.crc32(p) for p in self.payloads]
        self.segment_ops = BATCH.max_frames  # every batcher flushes exactly at the end
        self.published: List[int] = []  # payload index of every op, warm-up included
        self.wire_bytes = 0
        self.relay_bytes = 0
        self._verified: Dict[int, int] = {}
        self._bad_ops: set = set()
        self._done_at: Dict[int, float] = {}
        self._deferred: List[tuple] = []  # (op, crc32 of the delivered compressed payload)
        self.captured_wires: List[bytes] = []
        self._decompress = DecompressionHandler()
        self._cleanup = contextlib.ExitStack()
        if tracer is not None:
            self._cleanup.enter_context(
                traced_codecs(tracer, [g for g in GROUPS if g != "none"])
            )
        self._start()

    def _start(self) -> None:
        self.cache = BlockCache(max_entries=1024, max_bytes=64 * 1024 * 1024)
        self.executor = CodecExecutor(expansion_fallback=True)
        self.fabric = EventFabric(
            shards=4, executor=self.executor, cache=self.cache, mode="inline"
        )
        sizes = channel_sizes(SUBSCRIBERS, CHANNELS)
        self.channels = [f"feed/{c}" for c in range(CHANNELS)]
        verify_sink = self._spanned("harness.verify", self._verifying_sink)
        subscriber = 0
        self.verifiers = 0
        for channel, size in zip(self.channels, sizes):
            for member in range(size):
                # One in 64 verifies, alternating unbatched/batched.
                verifies = subscriber % 128 in (0, 65)
                self.verifiers += verifies
                self.fabric.subscribe(
                    channel,
                    verify_sink if verifies else self._counting_sink,
                    method=GROUPS[member % len(GROUPS)],
                    wire=True,
                    batch=BATCH if subscriber % 2 else None,
                )
                subscriber += 1
        self.relay = CompressionRelay(
            method=RELAY_METHOD, executor=self.executor, cache=self.cache
        )
        for sink in range(RELAY_SINKS):
            self.relay.subscribe(
                self._spanned("harness.verify", self._relay_verifying_sink)
                if sink == 0
                else self._relay_counting_sink
            )
        forward = self._spanned("relay.forward", self.relay)
        self.fabric.subscribe(self.channels[0], lambda event, wire: forward(event))
        self.checks_per_op = self.verifiers + 1

    def _spanned(self, name: str, call):
        return call if self.tracer is None else self.tracer.wrap(name, call)

    def close(self) -> None:
        self.fabric.close()
        self._cleanup.close()

    # -- sinks ---------------------------------------------------------------------

    def _counting_sink(self, event, wire) -> None:
        self.wire_bytes += len(wire)

    def _verifying_sink(self, event, wire) -> None:
        self.wire_bytes += len(wire)
        frame, _ = parse_frame(wire)
        members = unpack_jumbo_frame(frame)
        if members is None and self.tracer is not None and len(self.captured_wires) < 256:
            self.captured_wires.append(bytes(wire))
        for inner in [frame] if members is None else members:
            event = WireFormat.from_frame(inner)
            if event.attributes.get(ATTR_COMPRESSION_METHOD) == DEFERRED_CHECK:
                self._deferred.append((event.attributes[ATTR_OP], zlib.crc32(event.payload)))
                self._count(event.attributes[ATTR_OP])
            else:
                self._check(self._decompress(event))

    def _relay_counting_sink(self, event: Event) -> None:
        self.relay_bytes += event.size

    def _relay_verifying_sink(self, event: Event) -> None:
        self.relay_bytes += event.size
        self._check(self._decompress(event))

    def _check(self, event: Event) -> None:
        op = event.attributes[ATTR_OP]
        if zlib.crc32(event.payload) != self.crcs[self.published[op]]:
            self._bad_ops.add(op)
        self._count(op)

    def _count(self, op: int) -> None:
        seen = self._verified.get(op, 0) + 1
        self._verified[op] = seen
        if seen == self.checks_per_op:
            self._done_at[op] = time.perf_counter()

    # -- generator -----------------------------------------------------------------

    def warm_up(self) -> None:
        self.segment()

    def segment(self) -> Segment:
        tracer = self.tracer
        fabric = self.fabric
        first = len(self.published)
        deliveries_before = fabric.deliveries_total
        forwarded_before = self.relay.events_forwarded
        wire_before = self.wire_bytes + self.relay_bytes
        published_at: List[float] = []
        failed = 0
        cpu_before = time.process_time()
        started = time.perf_counter()
        for i in range(self.segment_ops):
            op = first + i
            index = op % len(self.payloads)
            self.published.append(index)
            payload = self.payloads[index]
            published_at.append(time.perf_counter())
            for channel in self.channels:
                event = Event(
                    payload=payload,
                    attributes={ATTR_OP: op},
                    channel_id=channel,
                    sequence=op + 1,
                    timestamp=float(op),
                )
                if tracer is None:
                    fabric.publish(channel, event)
                else:
                    with tracer.span("fabric.publish", op=op):
                        fabric.publish(channel, event)
        if tracer is None:
            fabric.flush()
        else:
            with tracer.span("fabric.publish", tag="flush"):
                fabric.flush()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_before

        latencies = []
        for i in range(self.segment_ops):
            op = first + i
            if op in self._done_at and op not in self._bad_ops:
                latencies.append(self._done_at[op] - published_at[i])
                if tracer is not None:
                    tracer.root(op, published_at[i], self._done_at[op])
            else:
                failed += 1
        delivered = (fabric.deliveries_total - deliveries_before) + RELAY_SINKS * (
            self.relay.events_forwarded - forwarded_before
        )
        return Segment(
            ops=self.segment_ops,
            failed=failed,
            app_bytes=delivered * EVENT_SIZE,
            wire_bytes=self.wire_bytes + self.relay_bytes - wire_before,
            wall_s=wall,
            cpu_s=cpu,
            latencies_s=latencies,
        )

    def relay_chain_ok(self) -> bool:
        """The relay's running CRC equals producer-side compression of the
        same payload sequence (its byte-exactness contract)."""
        reference = CodecExecutor(expansion_fallback=True)
        expected = chain_crc(
            reference.compress(RELAY_METHOD, self.payloads[i]).payload
            for i in self.published
        )
        return expected == self.relay.crc_chain

    def verify_after(self) -> int:
        """The deferred byte-exactness check, then the relay chain.

        A broken relay chain cannot be pinned on one op: all of them fail.
        """
        if not self.relay_chain_ok():
            return len(self.published)
        reference = CodecExecutor(expansion_fallback=True)
        expected: Dict[int, int] = {}
        bad = set()
        for op, crc in self._deferred:
            index = self.published[op]
            if index not in expected:
                payload = reference.compress(DEFERRED_CHECK, self.payloads[index]).payload
                expected[index] = zlib.crc32(payload)
            if crc != expected[index]:
                bad.add(op)
        return len(bad - self._bad_ops)

    # -- per-layer ledger (traced pass only) -----------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        totals = self.tracer.totals()
        zero = (0, 0.0, 0.0)
        _, publish_self, _ = totals.get("fabric.publish", zero)
        forwards, relay_self, _ = totals.get("relay.forward", zero)
        fabric = self.fabric
        shard_mean = sum(fabric.shard_events) / len(fabric.shard_events)
        metrics = {
            "fabric.publish_us_per_delivery": per(publish_self, fabric.deliveries_total, 1e6),
            "fabric.deliveries": fabric.deliveries_total,
            "fabric.wire_frames_encoded": fabric.wire_frames_encoded,
            "fabric.fanout_ratio": fabric.fanout_ratio,
            "fabric.shard_spread": per(max(fabric.shard_events), shard_mean),
            "fabric.subscriber_errors": fabric.subscriber_errors,
            "cache.hit_rate": self.cache.hit_rate,
            "cache.evictions": self.cache.evictions,
            "batching.frames_per_batch": per(fabric.batched_frames_total, fabric.batches_emitted),
            "relay.overhead_us_per_event": per(relay_self, forwards, 1e6),
            "relay.cache_hits": self.relay.cache_hits,
            "relay.crc_chain_ok": int(self.relay_chain_ok()),
        }
        metrics.update(staged_cache_probes(self.payloads[:64]))
        metrics.update(staged_batch_probes(self.captured_wires))
        return metrics


def staged_cache_probes(payloads: List[bytes]) -> Dict[str, float]:
    """``BlockCache.execute`` on the workload's own payloads, one thread.

    The miss overhead is what a miss costs beyond the bare executor call
    it wraps (keying, bookkeeping, the stored copy); a hit is the whole
    price of serving a remembered block.
    """
    method = "lempel-ziv-native"
    executor = CodecExecutor(expansion_fallback=True)
    cache = BlockCache()

    bare = miss = hit = 0.0
    for payload in payloads:  # interleaved, so host speed drifts cancel
        t0 = time.perf_counter()
        executor.compress(method, payload)
        t1 = time.perf_counter()
        cache.execute(executor, method, payload)
        t2 = time.perf_counter()
        cache.execute(executor, method, payload)
        t3 = time.perf_counter()
        bare += t1 - t0
        miss += t2 - t1
        hit += t3 - t2
    return {
        "cache.hit_us": per(hit, len(payloads), 1e6),
        "cache.miss_overhead_us": per(max(0.0, miss - bare), len(payloads), 1e6),
    }


def staged_batch_probes(frames: List[bytes], rounds: int = 20) -> Dict[str, float]:
    """``FrameBatcher.add`` (flushes included) on frames the fabric encoded."""
    batcher = FrameBatcher(BATCH)
    fills = []
    started = time.perf_counter()
    for _ in range(rounds):
        for frame in frames:
            flushed = batcher.add(frame)
            if flushed is not None:
                fills.append(flushed.fill_ratio(BATCH))
    elapsed = time.perf_counter() - started
    return {
        "batching.add_us_per_frame": per(elapsed, len(frames) * rounds, 1e6),
        "batching.fill_ratio": per(sum(fills), len(fills)),
    }


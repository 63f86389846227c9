"""The two loopback-TCP workloads: ``bulk_paper_tcp`` and ``small_events_tcp``.

Both drive the same real path::

    EventChannel.derive(CompressionHandler(m)) -> ChannelServer
        -> loopback TCP -> RemoteChannel -> derive(DecompressionHandler) -> sink

as one closed loop from one generator thread over one connection; they
differ only in what they send and how many ops may be in flight.
"""

from __future__ import annotations

import contextlib
import threading
import time
import traceback
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compression.framing import FrameDecoder, decode_frame, encode_frame_parts
from repro.core.engine import CodecExecutor
from repro.middleware.channels import EventChannel
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler, DecompressionHandler
from repro.middleware.tcp import ChannelServer, RemoteChannel
from repro.middleware.transport import WireFormat

from harness import ATTR_OP, Segment, Tracer, per, traced_codecs
from inputs import CORPORA, corpus_blocks

ATTR_METHOD = "bench.method"

#: Seconds an operation may stay undelivered before it counts as failed.
OP_DEADLINE_S = 30.0

#: An op to send: (payload, crc32 of the payload, compression method).
Item = Tuple[bytes, int, str]


def _items(payloads: Sequence[bytes], method: str) -> List[Item]:
    return [(payload, zlib.crc32(payload), method) for payload in payloads]


class _TracedExecutor(CodecExecutor):
    """A CodecExecutor whose compressions are spans (engine self time)."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(expansion_fallback=True)
        self.tracer = tracer
        self.fallbacks = 0

    def compress(self, method, block, codec=None):
        with self.tracer.span("engine.execute", tag=method):
            execution = super().compress(method, block, codec=codec)
        self.fallbacks += execution.fell_back
        return execution


class TcpWorkload:
    """Closed loop over one loopback connection, ``window`` ops in flight."""

    name = "tcp"
    #: CPU outside every span is the fabric shard loop and socket reader.
    untraced_layer = "message_path"
    window = 1
    methods: Tuple[str, ...] = ("none",)

    def __init__(self, seed: int, scale: float = 1.0, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.cycle, self.warm_items, self.segment_ops, self.kinds = self.plan(seed, scale)
        self._cursor = 0
        self._next_op = 0
        self._base = 0
        self._crcs: List[int] = []
        self._ok: List[Optional[bool]] = []
        self._done_at: List[float] = []
        self._permits = threading.Semaphore(self.window)
        # Traced-pass extras: sink-entry stamps and a sample of wire events.
        self._entered_at: Dict[int, float] = {}
        self._submit_returned: Dict[int, float] = {}
        self.transits: List[float] = []
        self.captured: List[Event] = []
        self._cleanup = contextlib.ExitStack()
        if tracer is not None:
            self._cleanup.enter_context(
                traced_codecs(tracer, [m for m in self.methods if m != "none"])
            )
        self._start()

    def plan(self, seed: int, scale: float) -> Tuple[List[Item], List[Item], int, int]:
        """(cycle of items, warm-up items, ops per segment, part kinds per cycle)."""
        raise NotImplementedError

    # -- the path ----------------------------------------------------------------

    def _start(self) -> None:
        tracer = self.tracer
        self.executor = _TracedExecutor(tracer) if tracer is not None else None
        handlers = {m: CompressionHandler(m, executor=self.executor) for m in self.methods}
        if len(handlers) == 1:
            compress = handlers[self.methods[0]]
        else:
            def compress(event: Event) -> Event:
                return handlers[event.attributes[ATTR_METHOD]](event)
        decompress = DecompressionHandler()
        deliver = self._on_delivery
        if tracer is not None:
            compress = tracer.wrap("handler.compress", compress, _op_of)
            decompress = tracer.wrap("handler.decompress", decompress, _op_of)
            deliver = tracer.wrap("harness.verify", deliver, _op_of)

        self.source = EventChannel(f"bench/{self.name}")
        wire_channel = self.source.derive(compress, channel_id=f"bench/{self.name}/wire")
        self.server = ChannelServer()
        self.server.offer(wire_channel)
        host, port = self.server.address
        dialed = time.perf_counter()
        self.remote = RemoteChannel(host, port, wire_channel.channel_id, timeout=2 * OP_DEADLINE_S)
        self.connect_s = time.perf_counter() - dialed
        if tracer is not None:
            self.remote.mirror.subscribe(self._on_sink_entry)
        self.remote.mirror.derive(decompress).subscribe(deliver)

    def close(self) -> None:
        self.remote.close()
        self.server.close()
        self._cleanup.close()

    # -- consumer side (runs on the RemoteChannel reader thread) -------------------

    def _on_sink_entry(self, event: Event) -> None:
        op = event.attributes[ATTR_OP]
        self._entered_at[op] = time.perf_counter()
        if len(self.captured) < 256:
            self.captured.append(event.with_payload(bytes(event.payload)))

    def _on_delivery(self, event: Event) -> None:
        index = event.attributes[ATTR_OP] - self._base
        if 0 <= index < len(self._ok) and self._ok[index] is None:
            self._ok[index] = zlib.crc32(event.payload) == self._crcs[index]
            self._done_at[index] = time.perf_counter()
        self._permits.release()

    # -- generator side -----------------------------------------------------------

    def warm_up(self) -> None:
        self._run(self.warm_items)

    def segment(self) -> Segment:
        cycle = self.cycle
        items = [cycle[(self._cursor + i) % len(cycle)] for i in range(self.segment_ops)]
        kind = self._cursor % self.kinds
        self._cursor = (self._cursor + self.segment_ops) % len(cycle)
        segment = self._run(items)
        segment.kind = kind
        return segment

    def _run(self, items: Sequence[Item]) -> Segment:
        count = len(items)
        self._base = base = self._next_op
        self._next_op += count
        self._crcs = [crc for _, crc, _ in items]
        self._ok = [None] * count
        self._done_at = [0.0] * count
        submitted_at = [0.0] * count
        tracer = self.tracer
        wire_before = self.remote.wire_bytes
        cpu_before = time.process_time()
        started = time.perf_counter()
        stalled = False
        for index, (payload, _, method) in enumerate(items):
            if not self._permits.acquire(timeout=OP_DEADLINE_S):
                stalled = True
                break
            attributes = {ATTR_OP: base + index}
            if len(self.methods) > 1:
                attributes[ATTR_METHOD] = method
            event = Event(payload=payload, attributes=attributes)
            submitted_at[index] = time.perf_counter()
            try:
                if tracer is None:
                    self.source.submit(event)
                else:
                    with tracer.span("tcp.submit", op=base + index):
                        self.source.submit(event)
                    self._submit_returned[base + index] = time.perf_counter()
            except Exception:
                traceback.print_exc()
                self._ok[index] = False
                self._permits.release()
        held = 0
        while not stalled and held < self.window:
            if self._permits.acquire(timeout=OP_DEADLINE_S):
                held += 1
            else:
                stalled = True
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_before
        for _ in range(held):
            self._permits.release()

        latencies = [
            self._done_at[i] - submitted_at[i] for i in range(count) if self._ok[i]
        ]
        if tracer is not None:
            for i in range(count):
                op = base + i
                if self._ok[i]:
                    tracer.root(op, submitted_at[i], self._done_at[i])
                    self.transits.append(self._entered_at[op] - self._submit_returned[op])
        delivered = sum(len(items[i][0]) for i in range(count) if self._ok[i])
        return Segment(
            ops=count,
            failed=count - len(latencies),
            app_bytes=delivered,
            wire_bytes=self.remote.wire_bytes - wire_before,
            wall_s=wall,
            cpu_s=cpu,
            latencies_s=latencies,
        )

    def verify_after(self) -> int:
        """Every op was CRC-checked on delivery; nothing is deferred."""
        return 0

    # -- per-layer ledger (traced pass only) ---------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        totals = self.tracer.totals()
        zero = (0, 0.0, 0.0)
        blocks, engine_self, _ = totals.get("engine.execute", zero)
        compress_calls, compress_self, _ = totals.get("handler.compress", zero)
        decompress_calls, decompress_self, _ = totals.get("handler.decompress", zero)
        submits, submit_self, _ = totals.get("tcp.submit", zero)
        transits = sorted(self.transits)
        metrics = {
            "engine.overhead_us_per_block": per(engine_self, blocks, 1e6),
            "engine.blocks": blocks,
            "engine.fallback_share": per(self.executor.fallbacks, blocks),
            "handlers.compress_overhead_us": per(compress_self, compress_calls, 1e6),
            "handlers.decompress_overhead_us": per(decompress_self, decompress_calls, 1e6),
            "tcp.connect_ms": self.connect_s * 1e3,
            "tcp.submit_us": per(submit_self, submits, 1e6),
            "tcp.transit_ms_p50": transits[len(transits) // 2] * 1e3 if transits else 0.0,
            "tcp.wire_bytes": self.remote.wire_bytes,
            "tcp.batches_received": self.remote.batches_received,
        }
        metrics.update(staged_wire_probes(self.captured))
        return metrics


def _op_of(event: Event) -> Optional[int]:
    return event.attributes.get(ATTR_OP)


def staged_wire_probes(events: Sequence[Event], rounds: int = 20) -> Dict[str, float]:
    """Single-thread staged calls on events the traced pass really carried.

    ``WireFormat`` and the frame codec run inside the fabric shard loop
    and the socket reader, where the benchmark cannot bracket them; the
    same calls on the same bytes, timed here, are their per-event price.
    ``transport.encode`` is reported net of the framing call it contains.
    """
    wires = [bytes(WireFormat.encode(event)) for event in events]
    frames = [decode_frame(wire, copy=True)[0] for wire in wires]
    calls = len(events) * rounds

    def timed(body) -> float:
        started = time.perf_counter()
        for _ in range(rounds):
            body()
        return per(time.perf_counter() - started, calls, 1e6)

    def feed_all() -> None:
        decoder = FrameDecoder()
        for wire in wires:
            decoder.feed(wire)

    encode_full = timed(lambda: [WireFormat.encode_parts(e) for e in events])
    frame_encode = timed(lambda: [encode_frame_parts(f.header, f.payload) for f in frames])
    frame_decode = timed(feed_all)
    decode = timed(lambda: [WireFormat.from_frame(f) for f in frames])
    overhead = sum(
        len(w) - len(f.header) - len(f.payload) for w, f in zip(wires, frames)
    )
    return {
        "transport.encode_us_per_event": max(0.0, encode_full - frame_encode),
        "transport.decode_us_per_event": decode,
        "framing.encode_us_per_frame": frame_encode,
        "framing.decode_us_per_frame": frame_decode,
        "framing.overhead_bytes_per_frame": per(overhead, len(frames)),
    }


# -- the two workloads ---------------------------------------------------------------

BLOCK_SIZE = 128 * 1024
PAPER_CYCLE = ("none", "huffman", "lempel-ziv", "burrows-wheeler")


class BulkPaperTcp(TcpWorkload):
    """128 KB blocks, window 1: four corpora x four paper methods, plus
    ``template`` on logs and ``columnar`` on timeseries (18 ops a cycle)."""

    name = "bulk_paper_tcp"
    window = 1
    methods = PAPER_CYCLE + ("template", "columnar")

    def plan(self, seed, scale):
        size = max(4096, int(BLOCK_SIZE * scale))
        blocks = {name: corpus_blocks(name, seed, size, 1)[0] for name in CORPORA}
        pairs = [(blocks[c], m) for c in CORPORA for m in PAPER_CYCLE]
        pairs += [(blocks["logs"], "template"), (blocks["timeseries"], "columnar")]
        cycle = [(b, zlib.crc32(b), m) for b, m in pairs]
        # The warm-up touches every (corpus, method) path on the first
        # quarter of each block: lazy state fills, set-up stays short.
        warm = [(b[: len(b) // 4], zlib.crc32(b[: len(b) // 4]), m) for b, m in pairs]
        # Ops here differ 300-fold in cost, so each is its own part kind.
        return cycle, warm, 1, len(cycle)


class SmallEventsTcp(TcpWorkload):
    """2 KB commercial events, ``lempel-ziv-native``, 32 in flight."""

    name = "small_events_tcp"
    window = 32
    methods = ("lempel-ziv-native",)

    def plan(self, seed, scale):
        pool = corpus_blocks("commercial", seed, 2048, max(64, int(4096 * scale)))
        cycle = _items(pool, self.methods[0])
        segment_ops = max(64, int(1000 * scale))
        return cycle, cycle[:segment_ops], segment_ops, 1

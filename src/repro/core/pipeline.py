"""The adaptive block pipeline (paper §2.5 main loop).

::

    Assume the reducing size speed of first block is infinity.
    While not EOF
        Take a block of 128KB.
        <select method via decision table>
        Fork a sampling process to compress the first 4KB of the next
        block by Lempel-Ziv ...
        Send the block.
        Wait for child process.

:class:`AdaptivePipeline` reproduces that loop over a simulated link.  Two
cost modes exist:

* **measured** (default): every block is really compressed by the chosen
  codec and wall-clock timed — right for microbenchmarks on real hosts;
* **modeled**: blocks are still really compressed (sizes are real), but
  times come from a calibrated :class:`~repro.netsim.cpu.CodecCostModel`
  scaled by a :class:`~repro.netsim.cpu.CpuModel` — right for the
  deterministic Figure 8-12 replays.  A modeled 4 KB probe is only the
  head's compressed *size*
  (:meth:`~repro.compression.base.Codec.compressed_size`, counted, not
  written, and untimed); a measured one is a timed compress of the head.

Both modes are implemented by the shared
:class:`~repro.core.engine.CodecExecutor`; the pipeline itself never
touches a timer.  Every block execution flows through a
:class:`~repro.core.engine.BlockEngine`, so per-block
:class:`~repro.core.engine.BlockStats` reach any registered observers.

The fork itself is realised once per run, not once per block: before the
loop, :meth:`~repro.core.sampler.LzSampler.probe_runs` takes the probe
runs of blocks ``1..n-1`` in one
:func:`~repro.compression.parallel.chunk_map` (the caller and the shared
codec pool's workers claim probes as each is free, one round trip per
run), and the loop *accounts* block ``i+1``'s probe at block
``i``'s iteration, so a ``cpu_load`` trace prices it at that block's
load.  In measured mode a probe's seconds are thus measured before the
loop, on either core; in modeled mode only its size is computed there.

Time accounting mirrors the fork: the sampling probe overlaps the send,
so each block advances the virtual clock by
``compression_time + max(send_time, sample_time)``; receiver-side
decompression is folded into the end-to-end delivery observation the
bandwidth estimator sees (§2.5: acceptance speed includes receiver CPU).
"""

from __future__ import annotations

import math
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..compression.base import ReductionMetrics
from ..netsim.bandwidth import EwmaBandwidthEstimator
from ..netsim.clock import Clock, VirtualClock
from ..netsim.cpu import CodecCostModel, CpuModel
from ..netsim.link import SimulatedLink
from ..netsim.loadtrace import LoadTrace
from ..obs.metrics import MetricsRegistry
from .bicriteria import codec_for
from .decision import Decision, DecisionThresholds
from .engine import DEFAULT_BLOCK_SIZE, BlockEngine, BlockStats, CodecExecutor, Observer
from .monitor import ReducingSpeedMonitor
from .policy import AdaptivePolicy, CompressionPolicy
from .sampler import LzSampler

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "METHOD_CODES",
    "BlockRecord",
    "StreamResult",
    "AdaptivePipeline",
]

#: Numeric codes used on the y-axes of Figures 8 and 11
#: (1 = no compression, 2 = Lempel-Ziv, 3 = Burrows-Wheeler, 4 = Huffman).
METHOD_CODES: Dict[str, int] = {
    "none": 1,
    "lempel-ziv": 2,
    "burrows-wheeler": 3,
    "huffman": 4,
}


@dataclass(frozen=True)
class BlockRecord(ReductionMetrics):
    """One row of the replay's timeline: everything observed for one block.

    A view over the block's :class:`~repro.core.engine.BlockStats` and
    :class:`~repro.core.decision.Decision`; it stores only what the link
    and the clock know, plus the two selector inputs ``Decision`` does
    not carry.
    """

    _seconds_attr = "compression_time"

    stats: BlockStats
    decision: Decision
    start_time: float
    send_start_time: float
    send_time: float
    sample_time: float
    connections: float
    lz_reducing_speed: float
    sampled_ratio: Optional[float]
    #: CRC-32 of the wire payload, so benches can assert byte identity
    #: against a direct run of the chosen codec without storing payloads.
    payload_crc32: int = 0

    index = property(attrgetter("stats.index"))
    original_size = property(attrgetter("stats.original_size"))
    compressed_size = property(attrgetter("stats.compressed_size"))
    compression_time = property(attrgetter("stats.compression_seconds"))
    decompression_time = property(attrgetter("stats.decompression_seconds"))
    #: The method the selector asked for (what ``stats.requested_method``
    #: ran), with its canonical codec parameters (empty = registered
    #: defaults — everything the table policy ever chooses).
    method = property(attrgetter("decision.method"))
    params = property(attrgetter("decision.params"))
    sending_time_estimate = property(attrgetter("decision.sending_time"))
    #: Where compression ran (:mod:`repro.core.placement`): ``producer``
    #: for every non-placement policy; ``raw``/``consumer`` blocks left
    #: the producer uncompressed (``method`` is then ``none``), and a
    #: ``consumer`` block names the codec a downstream relay applies.
    placement = property(attrgetter("decision.placement"))
    relay_method = property(attrgetter("decision.relay_method"))

    @property
    def method_code(self) -> int:
        return METHOD_CODES.get(self.method, 0)

    @property
    def delivery_time(self) -> float:
        """Network transfer plus receiver decompression."""
        return self.send_time + self.decompression_time


#: Every value a kept record holds, in constructor order: its
#: ``BlockStats``, its ``Decision``, then its own fields after those two.
_FIELDS = (
    *(f"stats.{f.name}" for f in fields(BlockStats)),
    *(f"decision.{f.name}" for f in fields(Decision)),
    *(f.name for f in fields(BlockRecord)[2:]),
)
_STATS_END = len(fields(BlockStats))
_DECISION_END = _STATS_END + len(fields(Decision))
_STATS_VALUES = attrgetter(*(f.name for f in fields(BlockStats)))
_DECISION_VALUES = attrgetter(*(f.name for f in fields(Decision)))
_OWN_VALUES = attrgetter(*_FIELDS[_DECISION_END:])

#: Where a column is kept: one object for the whole run, C doubles,
#: C int64s, or the objects themselves.
_SAME, _FLOATS, _INTS, _OBJECTS = range(4)
_INT64 = range(-(1 << 63), 1 << 63)


def _store_for(column: Tuple[object, ...]) -> int:
    """The most compact store that gives every value back equal and of its type.

    A NaN keeps its object: the defaults share ``math.nan``, and two
    records compare equal only while their NaNs are that same object.
    """
    if len(set(map(id, column))) == 1:
        return _SAME
    types = set(map(type, column))
    if types == {float} and not any(map(math.isnan, column)):
        return _FLOATS
    if types == {int} and min(column) in _INT64 and max(column) in _INT64:
        return _INTS
    return _OBJECTS


def _record(values: Tuple[object, ...]) -> BlockRecord:
    stats = BlockStats(*values[:_STATS_END])
    decision = Decision(*values[_STATS_END:_DECISION_END])
    return BlockRecord(stats, decision, *values[_DECISION_END:])


class StreamResult:
    """All block records of one run plus aggregate views.

    The records are kept as columns, not objects: a float costs 8 bytes
    in an ``array`` instead of a 24-byte object, a field that holds one
    object all run (a default, ``"none"`` on a fast link) is kept once,
    and a run holds four stores instead of three dataclass instances per
    block.  A caller that keeps every run (a benchmark's timed phase
    does) then grows by about a quarter of what the objects took, so its
    memory barely follows how many blocks it got through.
    :attr:`records` rebuilds equal :class:`BlockRecord` objects on each
    read.
    """

    __slots__ = ("total_time", "_count", "_stores", "_layout")

    def __init__(self, records: Sequence[BlockRecord], total_time: float) -> None:
        self._keep([(r.stats, r.decision, _OWN_VALUES(r)) for r in records], total_time)

    @classmethod
    def _of(
        cls, parts: Sequence[Tuple[BlockStats, Decision, tuple]], total_time: float
    ) -> "StreamResult":
        """The result of records given as ``(stats, decision, own values)``,
        the own values in ``BlockRecord`` field order: what the loop keeps
        instead of building a record per block only to take it apart."""
        result = cls.__new__(cls)
        result._keep(parts, total_time)
        return result

    def _keep(
        self, parts: Sequence[Tuple[BlockStats, Decision, tuple]], total_time: float
    ) -> None:
        rows = [
            _STATS_VALUES(stats) + _DECISION_VALUES(decision) + own
            for stats, decision, own in parts
        ]
        stores: Tuple[List[object], ...] = ([], [], [], [])
        layout = bytearray()
        for column in zip(*rows):
            store = _store_for(column)
            if store == _SAME:
                stores[_SAME].append(column[0])
            else:
                stores[store].extend(column)
            layout.append(store)
        self.total_time = total_time
        self._count = len(rows)
        self._stores = (
            tuple(stores[_SAME]),
            array("d", stores[_FLOATS]),
            array("q", stores[_INTS]),
            tuple(stores[_OBJECTS]),
        )
        #: Each field's store, in ``_FIELDS`` order; a field's column
        #: follows the earlier columns of the same store.
        self._layout = bytes(layout)

    def _column(self, name: str) -> Sequence:
        """One field's values, in block order."""
        if not self._count:
            return ()
        position = _FIELDS.index(name)
        store = self._layout[position]
        earlier = self._layout.count(store, 0, position)
        if store == _SAME:
            return (self._stores[_SAME][earlier],) * self._count
        start = earlier * self._count
        return self._stores[store][start : start + self._count]

    @property
    def records(self) -> List[BlockRecord]:
        """The run's records, rebuilt from the columns (a new list each read)."""
        return [_record(values) for values in zip(*map(self._column, _FIELDS))]

    # -- aggregates -------------------------------------------------------------

    @property
    def total_original_bytes(self) -> int:
        return sum(self._column("stats.original_size"))

    @property
    def total_compressed_bytes(self) -> int:
        return sum(self._column("stats.compressed_size"))

    @property
    def total_compression_time(self) -> float:
        return sum(self._column("stats.compression_seconds"))

    @property
    def overall_ratio(self) -> float:
        original = self.total_original_bytes
        if original == 0:
            return 1.0
        return self.total_compressed_bytes / original

    @property
    def compression_time_fraction(self) -> float:
        """Share of total time spent compressing (the paper's "slightly
        more than 60%" for the commercial run)."""
        if self.total_time <= 0:
            return 0.0
        return self.total_compression_time / self.total_time

    def method_counts(self) -> Dict[str, int]:
        return dict(Counter(self._column("decision.method")))

    def placement_counts(self) -> Dict[str, int]:
        return dict(Counter(self._column("decision.placement")))

    # -- figure series ------------------------------------------------------------

    def method_series(self) -> List[Tuple[float, int]]:
        """(time, method code) — Figures 8 and 11."""
        return [(r.start_time, r.method_code) for r in self.records]

    def compression_time_series(self) -> List[Tuple[float, float]]:
        """(time, compression microseconds) — Figure 9."""
        return [(r.start_time, r.compression_time * 1e6) for r in self.records]

    def block_size_series(self) -> List[Tuple[float, int]]:
        """(time, compressed block bytes) — Figures 10 and 12."""
        return [(r.start_time, r.compressed_size) for r in self.records]

    def deadline_misses(self, deadline: float) -> int:
        """Blocks whose end-to-end delivery exceeded ``deadline`` seconds.

        Interactive applications (§1) care about "the target rates of data
        transmission": a block produced every T seconds is late if its
        compression + transfer + decompression takes longer than T.
        """
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        misses = 0
        for record in self.records:
            end_to_end = (
                record.compression_time + record.send_time + record.decompression_time
            )
            if end_to_end > deadline:
                misses += 1
        return misses

    def summary(self) -> Dict[str, float]:
        return {
            "blocks": float(self._count),
            "total_time_s": self.total_time,
            "original_mb": self.total_original_bytes / (1 << 20),
            "compressed_mb": self.total_compressed_bytes / (1 << 20),
            "overall_ratio": self.overall_ratio,
            "compression_time_fraction": self.compression_time_fraction,
        }


class AdaptivePipeline:
    """Run the §2.5 loop over a block stream and a simulated link."""

    def __init__(
        self,
        policy: Optional[CompressionPolicy] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sampler: Optional[LzSampler] = None,
        cost_model: Optional[CodecCostModel] = None,
        cpu: Optional[CpuModel] = None,
        observers: Optional[Iterable[Observer]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if block_size < 1024:
            raise ValueError("block_size must be at least 1 KB")
        self.policy = policy if policy is not None else AdaptivePolicy(DecisionThresholds())
        self.block_size = block_size
        self.cpu = cpu
        self.sampler = (
            sampler
            if sampler is not None
            else LzSampler(cost_model=cost_model, cpu=cpu)
        )
        #: Shared with each run's monitor so selector-side metrics
        #: (EWMA gauges, degradation counter, repro_bicriteria_*) are
        #: visible to callers; None keeps them on a private registry.
        self.registry = registry
        self.executor = CodecExecutor(cost_model=cost_model, cpu=cpu)
        self.engine = BlockEngine(
            executor=self.executor, block_size=block_size, observers=observers
        )

    def run(
        self,
        blocks: Iterable[bytes],
        link: SimulatedLink,
        load: Optional[LoadTrace] = None,
        clock: Optional[Clock] = None,
        production_interval: float = 0.0,
        pipelined: bool = False,
        cpu_load: Optional[LoadTrace] = None,
    ) -> StreamResult:
        """Stream ``blocks`` across ``link`` under ``load``.

        ``cpu_load`` optionally varies the sender CPU's competing load
        over time (a :class:`LoadTrace` whose "connections" are read as a
        load level): the paper's selector uses "better compression
        methods ... when CPU loads are low" and backs off when the machine
        gets busy, because the measured reducing speed drops.  Requires a
        ``cpu`` model on the pipeline.

        ``production_interval`` paces the producer: block ``i`` only
        becomes available at ``i * production_interval`` seconds, which
        models the interactive/collaborative applications of §1 whose data
        is generated over the whole session (the Figure 8-12 replays span
        the 160 s MBone trace this way).  Zero means bulk transfer: every
        block is ready immediately (the headline end-to-end numbers).

        ``pipelined`` selects the transport model.  ``False`` is the
        pseudocode read literally: the producer compresses, sends, and
        waits (the sampling fork overlaps the send).  ``True`` models the
        ECho transport layer sending asynchronously: the producer starts
        compressing block ``i+1`` while block ``i`` is on the wire, so the
        slower of the two stages sets the pace — the regime behind the
        paper's headline bulk-transfer numbers.
        """
        if production_interval < 0:
            raise ValueError("production_interval must be non-negative")
        if cpu_load is not None and self.cpu is None:
            raise ValueError("cpu_load requires a CpuModel on the pipeline")
        saved_load = self.cpu.load if self.cpu is not None else 0.0
        try:
            return self._stream(blocks, link, load, clock, production_interval, pipelined, cpu_load)
        finally:
            # The trace's load was this run's: a later run on the same
            # CpuModel (a shared preset such as SUN_FIRE) starts from the
            # load it had before.
            if cpu_load is not None:
                self.cpu.load = saved_load

    def _stream(
        self,
        blocks: Iterable[bytes],
        link: SimulatedLink,
        load: Optional[LoadTrace],
        clock: Optional[Clock],
        production_interval: float,
        pipelined: bool,
        cpu_load: Optional[LoadTrace],
    ) -> StreamResult:
        """:meth:`run`'s loop, which sets ``cpu.load`` per block."""
        block_list = [b for b in blocks if b]
        clock = clock if clock is not None else VirtualClock()
        monitor = ReducingSpeedMonitor(registry=self.registry)
        estimator = EwmaBandwidthEstimator()

        #: Each block's (stats, decision, own BlockRecord values).
        parts: List[Tuple[BlockStats, Decision, tuple]] = []
        sample: Optional[BlockStats] = None
        link_free = clock.now()
        last_delivery_done = clock.now()
        # Every probe runs here, in one round trip; each is accounted below.
        probes = self.sampler.probe_runs(block_list[1:])

        for index, block in enumerate(block_list):
            ready_at = index * production_interval
            if clock.now() < ready_at:
                clock.advance(ready_at - clock.now())
            start_time = clock.now()
            if cpu_load is not None and self.cpu is not None:
                self.cpu.load = cpu_load.connections_at(start_time)

            estimated_bandwidth = estimator.estimate
            if estimated_bandwidth is None:
                # Warm line: the nominal unloaded throughput is known
                # (Figure 5 was measured before the experiments began).
                estimated_bandwidth = link.spec.throughput
            sending_time_estimate = len(block) / estimated_bandwidth

            lz_speed = monitor.reducing_speed("lempel-ziv")
            decision = self.policy.choose(len(block), sending_time_estimate, monitor, sample)
            method = decision.method
            params = decision.params
            codec = codec_for(method, params) if params and method != "none" else None

            payload, stats = self.engine.execute(
                block, method=method, index=index, codec=codec
            )
            compression_time = stats.compression_seconds
            if method != "none" and compression_time > 0:
                monitor.observe_raw(method, stats.bytes_saved, compression_time)

            # The next block's probe, forked before the loop, is accounted
            # while this block is on the wire ("Send the block.  Wait for
            # child process.").
            sample_time = 0.0
            next_sample: Optional[BlockStats] = None
            if index + 1 < len(block_list):
                next_sample = self.sampler.account(block_list[index + 1], probes[index])
                sample_time = next_sample.compression_seconds
                monitor.observe_raw("lempel-ziv", next_sample.bytes_saved, max(sample_time, 1e-9))

            send_start = max(start_time + compression_time, link_free)
            connections = load.connections_at(send_start) if load is not None else 0.0
            send_time = link.transfer_time(len(payload), connections)
            link_free = send_start + send_time
            decompression_time = stats.decompression_seconds
            last_delivery_done = link_free + decompression_time
            estimator.observe(len(payload), send_time + decompression_time)

            if pipelined:
                # Producer is free once it finishes compressing and joins
                # the sampling child; the transport drains asynchronously.
                clock.advance(compression_time + sample_time)
            else:
                clock.advance(compression_time + max(send_time, sample_time))
                # The synchronous producer cannot run ahead of the link.
                if clock.now() < link_free:
                    clock.advance(link_free - clock.now())

            # A BlockRecord's own fields, in order: the result keeps them as
            # columns, so no record is built here.
            parts.append(
                (
                    stats,
                    decision,
                    (
                        start_time,
                        send_start,
                        send_time,
                        sample_time,
                        connections,
                        lz_speed,
                        sample.ratio if sample is not None else None,
                        zlib.crc32(payload) & 0xFFFFFFFF,
                    ),
                )
            )
            sample = next_sample

        total_time = max(clock.now(), last_delivery_done)
        return StreamResult._of(parts, total_time)

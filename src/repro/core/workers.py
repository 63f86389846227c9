"""Multi-core block execution: worker pools and the pipelined engine.

The paper's headline end-to-end run spends "slightly more than 60%" of
its time compressing (§4) — the single biggest win left on the table is
overlapping compression of block *i+1* with transmission of block *i*
and spreading codec work across cores, the parallel-compression lineage
of refs [31-33].  This module supplies that layer:

* :class:`WorkerPool` — a ``ProcessPoolExecutor``-backed pool of codec
  workers (``mode="processes"`` for pure-Python codecs, ``"threads"``
  for GIL-releasing natives, ``"serial"`` as the in-process fallback).
  Workers resolve methods through the codec registry and time themselves
  with :func:`~repro.core.engine.timed` — the engine's one clock read —
  and ship back ``(payload, seconds)`` so
  :class:`~repro.core.engine.CodecExecutor` remains the one accounting
  point.  A broken pool (killed worker, failed fork) degrades to serial
  execution instead of corrupting the stream.
* :class:`PipelinedBlockEngine` — a :class:`~repro.core.engine.BlockEngine`
  that keeps a bounded queue of in-flight blocks on the pool, so
  compression of later blocks overlaps the consumer's handling (send) of
  earlier ones while :class:`~repro.core.engine.BlockStats` still emit
  strictly in block order.
* :func:`simulate_pipeline` — the deterministic schedule model: given
  per-block compression and send seconds (engine-accounted, so modeled
  replays stay exact), it computes the pooled makespan, speedup, and
  overlap fraction without touching a wall clock.  This is what the
  bench gate compares, which keeps the numbers identical run-to-run and
  machine-to-machine.
"""

from __future__ import annotations

import heapq
from collections import deque
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..compression.parallel import DegradingPool
from ..compression.registry import available_codecs, get_codec
from ..obs.catalogue import (
    PIPELINE_BLOCKS_TOTAL,
    POOL_DEGRADED_TOTAL,
    POOL_TASKS_TOTAL,
    POOL_WORKERS,
)
from ..obs.metrics import MetricsRegistry
from .engine import (
    DEFAULT_BLOCK_SIZE,
    BlockEngine,
    BlockStats,
    CodecExecutor,
    Observer,
    timed,
)

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "POOL_MODES",
    "PipelinedBlockEngine",
    "RelaySchedule",
    "WorkerPool",
    "simulate_pipeline",
    "simulate_relay_pipeline",
]

POOL_MODES = ("processes", "threads", "serial")

#: Default bound on in-flight blocks for the pipelined engine: deep
#: enough to keep 4 workers busy, shallow enough that a stall does not
#: buffer the whole stream.
DEFAULT_QUEUE_DEPTH = 8


def _pool_compress(method: str, data: bytes) -> Tuple[bytes, float]:
    """Worker-side task: compress ``data`` with the registered ``method``.

    Runs inside pool workers (or inline for serial/degraded pools), timed
    by :func:`repro.core.engine.timed`; the caller's
    :class:`~repro.core.engine.CodecExecutor` applies the scaling rules
    to the returned measured seconds.
    """
    return timed(get_codec(method).compress, data)


class WorkerPool(DegradingPool):
    """A pool of codec workers with graceful degradation to serial.

    Process workers are initialized once per pool (the registry's builtin
    codecs register at import time inside each worker); per-task payloads
    are the pickled block bytes plus the method name, and results carry
    the worker-measured seconds.  ``mode="threads"`` suits codecs that
    release the GIL (the zlib/bz2 natives); ``"processes"`` suits the
    pure-Python codecs; ``"serial"`` executes inline and is what a broken
    pool degrades to — permanently, so one dead worker cannot flap
    (:class:`~repro.compression.parallel.DegradingPool` owns the executor
    and that rule; this class adds the codec task and the metrics).
    """

    def __init__(
        self,
        workers: int = 4,
        mode: str = "processes",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(workers, mode)
        self.registry = registry
        self._known = frozenset(available_codecs())

    def _degrade(self) -> None:
        if self.registry is not None and self.mode != "serial":
            self.registry.family(POOL_DEGRADED_TOTAL).inc(pool_mode=self.mode)
        super()._degrade()

    # -- execution ---------------------------------------------------------------

    def accepts(self, method: str) -> bool:
        """Whether ``method`` can execute on pool workers.

        Workers resolve methods through the registry snapshot taken when
        the pool spawned; methods registered afterwards (or resolved from
        explicit codec instances) must run in the caller's process.
        """
        return method in self._known

    def _task(self, data: bytes) -> bytes:
        if not isinstance(data, bytes):
            # Process workers receive blocks by pickling, and memoryview
            # blocks (the zero-copy cut path) don't pickle — the IPC copy
            # is inherent to pool mode, so materialize here, once.
            data = bytes(data)
        if self.registry is not None:
            self.registry.family(POOL_TASKS_TOTAL).inc(pool_mode=self.mode)
            self.registry.family(POOL_WORKERS).set(self.workers, pool_mode=self.mode)
        return data

    def submit(self, method: str, data: bytes) -> "Future[Tuple[bytes, float]]":
        """Schedule one block compression; returns a future of (payload, seconds).

        Futures from a worker that dies mid-task raise ``BrokenExecutor``;
        callers that cannot tolerate that use :meth:`run`, which degrades
        and retries.
        """
        return self.submit_call(_pool_compress, method, self._task(data))

    def run(self, method: str, data: bytes) -> Tuple[bytes, float]:
        """Compress one block on the pool, degrading to serial on breakage."""
        return self.map(partial(_pool_compress, method), [self._task(data)])[0]


class PipelinedBlockEngine(BlockEngine):
    """Block engine that overlaps compression with downstream consumption.

    Blocks are submitted to a :class:`WorkerPool` with at most
    ``queue_depth`` in flight; results are drained strictly in submission
    order, so observers see the same in-order
    :class:`~repro.core.engine.BlockStats` stream a serial
    :class:`~repro.core.engine.BlockEngine` would emit and the wire bytes
    are byte-identical to serial execution.  While the caller handles
    block ``i`` (e.g. writes it to a transport), blocks ``i+1 ...
    i+queue_depth`` are already compressing on the workers — the
    compress/send overlap of the paper's pipelined transport, now backed
    by real cores.

    A broken pool degrades mid-stream: already-submitted blocks whose
    futures died are re-executed serially in place, preserving order.
    """

    def __init__(
        self,
        executor: Optional[CodecExecutor] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        observers: Optional[Iterable[Observer]] = None,
        pool: Optional[WorkerPool] = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(executor=executor, block_size=block_size, observers=observers)
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        self.pool = pool if pool is not None else WorkerPool(workers=1, mode="serial")
        self.queue_depth = queue_depth
        self.registry = registry

    def run(
        self,
        data: Union[bytes, bytearray, Iterable[bytes]],
        method: str,
    ) -> List[Tuple[bytes, BlockStats]]:
        """Cut ``data`` and execute every block with ``method`` through the pool."""
        results: List[Tuple[bytes, BlockStats]] = []
        in_flight: "deque[Tuple[int, bytes, Optional[Future]]]" = deque()
        pooled = method != "none" and self.pool.accepts(method)
        for index, block in enumerate(self.cut(data)):
            # Unpooled blocks execute in-process at drain time.
            future = self.pool.submit(method, block) if pooled else None
            in_flight.append((index, block, future))
            while len(in_flight) >= self.queue_depth:
                self._drain_one(method, in_flight, results)
        while in_flight:
            self._drain_one(method, in_flight, results)
        return results

    def _drain_one(
        self,
        method: str,
        in_flight: "deque[Tuple[int, bytes, Optional[Future]]]",
        results: List[Tuple[bytes, BlockStats]],
    ) -> None:
        index, block, future = in_flight.popleft()
        if future is None:
            execution = self.executor.compress(method, block)
        else:
            try:
                payload, measured = future.result()
            except BrokenExecutor:
                # The worker died under this block: the pool degrades to
                # serial and the block re-executes in-process, in order.
                payload, measured = self.pool.run(method, block)
            execution = self.executor.finalize_compression(
                method, block, payload, measured
            )
        if self.registry is not None:
            self.registry.family(PIPELINE_BLOCKS_TOTAL).inc(
                pool_mode=self.pool.mode, queue_depth=str(self.queue_depth)
            )
        results.append(self.emit(execution, index))


# -- the deterministic schedule model ---------------------------------------------


def simulate_pipeline(
    compression_seconds: Sequence[float],
    send_seconds: Sequence[float],
    workers: int,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
) -> RelaySchedule:
    """Schedule blocks onto ``workers`` compressors and one in-order wire.

    Block ``i`` may start compressing once a worker is free *and* block
    ``i - queue_depth`` has finished sending (the bounded in-flight
    queue); it may start sending once compressed and once block ``i-1``
    left the wire (in-order emission).  The serial reference is the
    paper's unpipelined loop: compress, then send, one block at a time.

    This is :func:`simulate_relay_pipeline` with zero relay, downstream
    and decompress stages — those contribute only ``max`` and ``+ 0.0``,
    so the one scheduler loop reproduces this schedule float-exactly; the
    send series is the returned schedule's ``upstream_seconds``.
    """
    if len(compression_seconds) != len(send_seconds):
        raise ValueError("compression and send series must have equal length")
    if workers < 1:
        raise ValueError("workers must be positive")
    idle = [0.0] * len(send_seconds)
    return simulate_relay_pipeline(
        compression_seconds, send_seconds, idle, idle, workers=workers, queue_depth=queue_depth
    )


@dataclass(frozen=True)
class RelaySchedule:
    """Outcome of scheduling a block stream through a consumer-offload relay.

    The five per-phase totals are the stacked bars of the DTSchedule-style
    time-breakdown figure (:mod:`repro.experiments.placement`); the
    makespan is what those phases cost end-to-end once compression of
    later blocks overlaps earlier blocks' transfers and relay work.
    Everything derives from modeled per-block seconds, so the schedule is
    identical on every machine — the property the bench regression gate
    relies on.
    """

    makespan: float
    serial_seconds: float
    compress_seconds: float
    upstream_seconds: float
    relay_seconds: float
    downstream_seconds: float
    decompress_seconds: float
    workers: int
    relay_workers: int
    queue_depth: int

    @property
    def speedup(self) -> float:
        """Serial (phase-sum) time over the pipelined makespan."""
        if self.makespan <= 0.0:
            return 1.0
        return self.serial_seconds / self.makespan

    @property
    def overlap_fraction(self) -> float:
        """Fraction of serial time hidden by overlap and multi-core workers."""
        if self.serial_seconds <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.makespan / self.serial_seconds)

    @property
    def wire_seconds(self) -> float:
        """Total transfer time across both hops (the figure's wire bar)."""
        return self.upstream_seconds + self.downstream_seconds


def simulate_relay_pipeline(
    compress_seconds: Sequence[float],
    upstream_seconds: Sequence[float],
    relay_seconds: Sequence[float],
    downstream_seconds: Sequence[float],
    decompress_seconds: Optional[Sequence[float]] = None,
    workers: int = 1,
    relay_workers: int = 1,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
) -> RelaySchedule:
    """Schedule blocks through producer → upstream wire → relay → downstream wire.

    The five stages generalize :func:`simulate_pipeline` to the relay
    topology of :mod:`repro.core.placement`: block ``i`` compresses once
    a producer worker is free and block ``i - queue_depth`` has left the
    downstream wire (the bounded in-flight queue now spans the whole
    path); each wire is a single in-order server; the relay compresses
    on its own ``relay_workers`` pool but forwards in block order; the
    subscriber decompresses in arrival order.  Placements feed zeros
    into the stages they skip — a ``raw`` stream has all-zero codec
    stages and the model degenerates to two chained wires; with zero
    relay and downstream stages it reproduces :func:`simulate_pipeline`
    exactly.
    """
    series = [compress_seconds, upstream_seconds, relay_seconds, downstream_seconds]
    if decompress_seconds is None:
        decompress_seconds = [0.0] * len(compress_seconds)
    series.append(decompress_seconds)
    lengths = {len(s) for s in series}
    if len(lengths) > 1:
        raise ValueError("all five phase series must have equal length")
    if workers < 1 or relay_workers < 1:
        raise ValueError("workers and relay_workers must be positive")
    if queue_depth < 1:
        raise ValueError("queue_depth must be positive")
    producer_free = [0.0] * workers
    heapq.heapify(producer_free)
    relay_free = [0.0] * relay_workers
    heapq.heapify(relay_free)
    up_free = down_free = decompress_free = 0.0
    relay_order = 0.0  # the relay forwards strictly in block order
    delivered: List[float] = []
    for index in range(len(compress_seconds)):
        gate = delivered[index - queue_depth] if index >= queue_depth else 0.0
        start = max(heapq.heappop(producer_free), gate)
        compressed_at = start + compress_seconds[index]
        heapq.heappush(producer_free, compressed_at)
        up_start = max(compressed_at, up_free)
        up_free = up_start + upstream_seconds[index]
        relay_start = max(up_free, heapq.heappop(relay_free))
        relay_done = relay_start + relay_seconds[index]
        heapq.heappush(relay_free, relay_done)
        relay_order = max(relay_order, relay_done)
        down_start = max(relay_order, down_free)
        down_free = down_start + downstream_seconds[index]
        done = max(down_free, decompress_free) + decompress_seconds[index]
        decompress_free = done
        delivered.append(done)
    totals = [float(sum(s)) for s in series]
    return RelaySchedule(
        makespan=delivered[-1] if delivered else 0.0,
        serial_seconds=sum(totals),
        compress_seconds=totals[0],
        upstream_seconds=totals[1],
        relay_seconds=totals[2],
        downstream_seconds=totals[3],
        decompress_seconds=totals[4],
        workers=workers,
        relay_workers=relay_workers,
        queue_depth=queue_depth,
    )

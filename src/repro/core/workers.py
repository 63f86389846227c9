"""Multi-core block execution: the pipelined engine and its schedule model.

The paper's headline end-to-end run spends "slightly more than 60%" of
its time compressing (§4) — the single biggest win left on the table is
overlapping compression of block *i+1* with transmission of block *i*
and spreading codec work across cores, the parallel-compression lineage
of refs [31-33].  This module supplies that layer:

* :class:`PipelinedBlockEngine` — a :class:`~repro.core.engine.BlockEngine`
  that compresses a run's blocks in one
  :func:`repro.compression.parallel.chunk_map`, the caller and the shared
  codec pool's workers claiming blocks as each is free, while
  :class:`~repro.core.engine.BlockStats` still emit strictly in block
  order.  Each item is :func:`~repro.core.engine.timed` — the engine's
  one clock read — around ``codec.compress``, and ships back
  ``(payload, seconds)``, so :class:`~repro.core.engine.CodecExecutor`
  remains the one accounting point.
* :func:`simulate_pipeline` — the deterministic schedule model: given
  per-block compression and send seconds (engine-accounted, so modeled
  replays stay exact), it computes the pooled makespan, speedup, and
  overlap fraction without touching a wall clock.  This is what the
  bench gate compares, which keeps the numbers identical run-to-run and
  machine-to-machine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..compression.parallel import DegradingPool, chunk_map, codec_pool
from ..compression.registry import get_codec
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
    "PipelinedBlockEngine",
    "RelaySchedule",
    "simulate_pipeline",
    "simulate_relay_pipeline",
]

#: The schedule model's default bound on in-flight blocks: deep enough to
#: keep 4 workers busy, shallow enough that a stall does not buffer the
#: whole stream.
DEFAULT_QUEUE_DEPTH = 8


def _mode(pool: Optional[DegradingPool]) -> str:
    """The ``pool_mode`` label: the shared pool's mode, ``serial`` without one."""
    return pool.mode if pool is not None else "serial"


class PipelinedBlockEngine(BlockEngine):
    """Block engine that compresses its blocks across cores.

    Every block of a run is one item of a single
    :func:`~repro.compression.parallel.chunk_map` of
    ``timed(codec.compress, block)``: the caller and the shared codec
    pool's workers claim blocks as each is free, and the results come back
    in block order, so observers see the same in-order
    :class:`~repro.core.engine.BlockStats` stream a serial
    :class:`~repro.core.engine.BlockEngine` would emit and the wire bytes
    are byte-identical to serial execution.

    The codec is resolved here, in the caller, and crosses to the
    workers with the blocks.  A block the pool could not run (a worker
    died under it, the codec does not pickle) is compressed in-process
    in its place, so neither order nor bytes change.
    """

    def __init__(
        self,
        executor: Optional[CodecExecutor] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        observers: Optional[Iterable[Observer]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(executor=executor, block_size=block_size, observers=observers)
        self.registry = registry

    def run(
        self,
        data: Union[bytes, bytearray, Iterable[bytes]],
        method: str,
    ) -> List[Tuple[bytes, BlockStats]]:
        """Cut ``data`` and compress every block with ``method`` on the codec pool."""
        pool = codec_pool()
        degradations = pool.degradations if pool is not None else 0
        blocks = list(self.cut(data))
        runs = None
        if method != "none":
            codec = get_codec(method)
            # Process workers receive blocks by pickling, and memoryview
            # blocks (the zero-copy cut path) don't pickle — the IPC copy
            # is inherent to the pool, so materialize here, once.
            blocks = [bytes(block) for block in blocks]
            if self.registry is not None:
                self.registry.family(POOL_TASKS_TOTAL).inc(len(blocks), pool_mode=_mode(pool))
                self.registry.family(POOL_WORKERS).set(
                    pool.workers if pool is not None else 0, pool_mode=_mode(pool)
                )
            runs = chunk_map(partial(timed, codec.compress), blocks)
        results: List[Tuple[bytes, BlockStats]] = []
        for index, block in enumerate(blocks):
            if runs is None:
                execution = self.executor.compress(method, block)
            else:
                payload, measured = runs[index]
                execution = self.executor.finalize_compression(method, block, payload, measured)
            if self.registry is not None:
                self.registry.family(PIPELINE_BLOCKS_TOTAL).inc(pool_mode=_mode(pool))
            results.append(self.emit(execution, index))
        if self.registry is not None and pool is not None and pool.degradations > degradations:
            self.registry.family(POOL_DEGRADED_TOTAL).inc(
                pool.degradations - degradations, pool_mode="processes"
            )
        return results

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

"""The single execution substrate for timed codec work.

Every place the repository compresses or decompresses a block *and
accounts for the cost* — the §2.5 adaptive pipeline, the 4 KB Lempel-Ziv
sampling probe, the middleware compression handlers, host calibration
— routes through this module's :class:`CodecExecutor`, and every clock
read for codec work is its :func:`timed` (``scripts/check.sh`` counts
them), so the measured-vs-modeled mode switch and the cost-model/CPU
scaling rules exist in exactly one place:

* **measured** (no models): the codec really runs under a wall-clock
  timer and the measured time is reported;
* **CPU-scaled** (``cpu`` only): the measured time is rescaled to the
  modeled machine's speed and load;
* **modeled** (``cost_model``): the codec still really runs (sizes are
  real) but the reported time comes from the calibrated
  :class:`~repro.netsim.cpu.CodecCostModel` — which is what makes the
  Figure 8-12 replays deterministic.

:class:`BlockEngine` layers the paper's block discipline on top: cut a
byte stream into fixed-size blocks, execute each with the method the
caller chose on the :class:`CodecExecutor`, and emit
its :class:`BlockStats` — the one record of a codec run, from executor
to cache to observers — per block to pluggable observers.  This is the
substrate later scaling work (parallel workers, async transports,
metrics export) plugs into.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union

from ..compression.base import Codec, CodecError, ReductionMetrics
from ..compression.registry import get_codec

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BlockStats",
    "BlockEngine",
    "CodecExecutor",
    "Observer",
    "cut_blocks",
    "timed",
]

#: "Take a block of 128KB" — the paper's block size, chosen "according to
#: the efficiency of compression methods based on [32, 33]".
DEFAULT_BLOCK_SIZE = 128 * 1024

T = TypeVar("T")
R = TypeVar("R")


# -- the timer (the one perf_counter site) ---------------------------------------


def timed(fn: Callable[[T], R], data: T) -> Tuple[R, float]:
    """``fn(data)`` under a wall-clock timer; returns (output, seconds).

    The executor, the pool workers and the differential harness all
    time through it, so no codec run is timed anywhere else.
    """
    start = time.perf_counter()
    out = fn(data)
    return out, time.perf_counter() - start


# -- the codec-run record --------------------------------------------------------


@dataclass(frozen=True)
class BlockStats(ReductionMetrics):
    """One codec run on one block: what was asked, what ran, what it cost.

    :class:`CodecExecutor` builds it with the wire ``payload``;
    :class:`~repro.fabric.cache.BlockCache` remembers that very object;
    :class:`BlockEngine` hands observers a copy with ``index`` and
    ``decompression_seconds`` filled in and the payload dropped, so an
    observer that keeps its rows does not pin wire bytes.

    ``method`` is the method that actually produced the bytes; it
    differs from ``requested_method`` only when the expansion guard fell
    back to ``none`` because the codec grew the block.
    """

    requested_method: str
    method: str
    original_size: int
    compressed_size: int
    compression_seconds: float
    decompression_seconds: float = 0.0
    fell_back: bool = False
    payload: Optional[bytes] = field(default=None, repr=False)
    index: Optional[int] = None

    @cached_property
    def view(self) -> memoryview:
        """**One** shared read-only view of ``payload``.

        cached_property writes straight to ``__dict__``, bypassing the
        frozen guard: every consumer of a cached block reads this same
        object, so fan-out allocates nothing per subscriber.
        """
        return memoryview(self.payload).toreadonly()


# -- the executor ----------------------------------------------------------------


class CodecExecutor:
    """Timed compress/decompress with the cost-model/CPU scaling rules.

    ``expansion_fallback`` enables the expansion guard: when a codec
    *grows* a block (common on molecular coordinates) the executor ships
    the original bytes under method ``none`` instead, so the method name
    the receiver sees stays truthful.
    """

    def __init__(
        self,
        cost_model: Optional["object"] = None,
        cpu: Optional["object"] = None,
        expansion_fallback: bool = False,
    ) -> None:
        self.cost_model = cost_model
        self.cpu = cpu
        self.expansion_fallback = expansion_fallback

    def _seconds(
        self, direction: str, method: str, size: int, measure_seconds: Callable[[], float]
    ) -> float:
        """The scaling rule, both directions: the cost model's
        ``<direction>_time`` (a ``KeyError`` for a method it lacks), else
        the measurement (taken only then) scaled to the modeled CPU, else
        as measured."""
        if self.cost_model is not None:
            return getattr(self.cost_model, direction + "_time")(method, size, self.cpu)
        measured = measure_seconds()
        return self.cpu.scale_time(measured) if self.cpu is not None else measured

    # -- execution ---------------------------------------------------------------

    def compress(
        self, method: str, block: bytes, codec: Optional[Codec] = None
    ) -> BlockStats:
        """Compress ``block`` with ``method`` and account for the cost.

        ``codec`` overrides the registry lookup (a parametrised codec from
        :func:`~repro.core.bicriteria.codec_for`, or an unregistered
        instance); the cost model is still consulted under ``method``.
        """
        if method == "none":
            return BlockStats(
                requested_method="none",
                method="none",
                original_size=len(block),
                compressed_size=len(block),
                compression_seconds=0.0,
                payload=block,
            )
        codec = codec if codec is not None else get_codec(method)
        payload, seconds = timed(codec.compress, block)
        return self.finalize_compression(method, block, payload, seconds)

    def finalize_compression(
        self,
        method: str,
        block: bytes,
        payload: bytes,
        measured_seconds: float,
    ) -> BlockStats:
        """Account for a compression that already ran (locally or on a worker).

        Applies the cost-model/CPU scaling rules and the expansion guard —
        the accounting tail every compression shares, whether the bytes
        were produced in-process or shipped back from a pool worker with
        its measured time.
        """
        seconds = self._seconds("compression", method, len(block), lambda: measured_seconds)
        fell_back = self.expansion_fallback and len(payload) >= len(block)
        if fell_back:
            payload = block
        return BlockStats(
            requested_method=method,
            method="none" if fell_back else method,
            original_size=len(block),
            compressed_size=len(payload),
            compression_seconds=seconds,
            fell_back=fell_back,
            payload=payload,
        )

    def decompression_time(
        self,
        method: str,
        original_size: int,
        payload: bytes,
        codec: Optional[Codec] = None,
    ) -> float:
        """Receiver-side cost of reconstructing ``original_size`` bytes.

        In modeled mode the calibrated table answers without running the
        codec (which keeps the deterministic replays fast); otherwise the
        payload is really decompressed under the timer.
        """
        if method == "none":
            return 0.0

        def measured() -> float:
            run = codec if codec is not None else get_codec(method)
            return timed(run.decompress, payload)[1]

        return self._seconds("decompression", method, original_size, measured)

    def measure_roundtrip(
        self, method: str, data: bytes, codec: Optional[Codec] = None
    ) -> BlockStats:
        """Compress then decompress ``data``; both directions timed in one record.

        The calibration primitive (:func:`repro.core.calibration.calibrate`):
        both directions really run and the round trip is checked.
        """
        codec = codec if codec is not None else get_codec(method)
        execution = self.compress(method, data, codec=codec)
        if execution.method == "none":
            return execution
        restored, measured = timed(codec.decompress, execution.payload)
        if restored != data:
            raise CodecError(f"codec {method!r} failed to round-trip a block")
        seconds = self._seconds("decompression", method, len(data), lambda: measured)
        return replace(execution, decompression_seconds=seconds)


# -- block discipline ------------------------------------------------------------

Observer = Callable[[BlockStats], None]


def cut_blocks(
    data: Union[bytes, bytearray, memoryview, Iterable[bytes]],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[memoryview]:
    """Cut a byte string or a chunk iterable into ``block_size`` blocks.

    The §2.5 "Take a block of 128KB" step: full blocks are emitted as
    soon as enough input accumulated; a non-empty tail becomes the final
    (short) block.

    Zero-copy: a contiguous input (``bytes``/``bytearray``/``memoryview``)
    is cut into read-only :class:`memoryview` slices of one immutable
    snapshot — no per-block copies.  Chunk iterables still reassemble
    across chunk boundaries (inherent), but each completed block is
    likewise handed out as a view of an immutable buffer.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if isinstance(data, (bytes, bytearray, memoryview)):
        buffer = data if isinstance(data, bytes) else bytes(data)
        view = memoryview(buffer)
        for start in range(0, len(buffer), block_size):
            yield view[start : start + block_size]
        return
    pending = bytearray()
    for chunk in data:
        pending += chunk
        while len(pending) >= block_size:
            block = bytes(memoryview(pending)[:block_size])
            del pending[:block_size]
            yield memoryview(block)
    if pending:
        yield memoryview(bytes(pending))


class BlockEngine:
    """Block cutting + execution + per-block stats.

    The caller names the method of every block (the §2.5 selector lives
    in :mod:`repro.core.policy`, upstream of the engine).  Observers
    receive one :class:`BlockStats` per executed block — the hook
    monitoring, metrics export, and tests attach to.
    """

    def __init__(
        self,
        executor: Optional[CodecExecutor] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        observers: Optional[Iterable[Observer]] = None,
    ) -> None:
        if block_size < 1024:
            raise ValueError("block_size must be at least 1 KB")
        self.executor = executor if executor is not None else CodecExecutor()
        self.block_size = block_size
        self.observers: List[Observer] = list(observers) if observers else []
        self.blocks_executed = 0

    def add_observer(self, observer: Observer) -> Callable[[], None]:
        """Attach ``observer``; returns a detach callable."""
        self.observers.append(observer)

        def detach() -> None:
            if observer in self.observers:
                self.observers.remove(observer)

        return detach

    def cut(
        self, data: Union[bytes, bytearray, memoryview, Iterable[bytes]]
    ) -> Iterator[memoryview]:
        """Cut ``data`` into this engine's block size."""
        return cut_blocks(data, self.block_size)

    def execute(
        self,
        block: bytes,
        method: str,
        index: Optional[int] = None,
        codec: Optional[Codec] = None,
    ) -> Tuple[bytes, BlockStats]:
        """Compress one block; returns (payload, stats) and notifies observers."""
        if index is None:
            index = self.blocks_executed
        execution = self.executor.compress(method, block, codec=codec)
        return self.emit(execution, index, codec=codec)

    def emit(
        self,
        execution: BlockStats,
        index: int,
        codec: Optional[Codec] = None,
    ) -> Tuple[bytes, BlockStats]:
        """Index a finished execution, price its decode, notify observers.

        The shared tail of :meth:`execute`, also driven by
        :class:`~repro.core.workers.PipelinedBlockEngine` when it drains
        pool results in submission order.
        """
        decompression_seconds = self.executor.decompression_time(
            execution.method, execution.original_size, execution.payload, codec=codec
        )
        stats = replace(
            execution,
            index=index,
            decompression_seconds=decompression_seconds,
            payload=None,
        )
        self.blocks_executed += 1
        for observer in list(self.observers):
            observer(stats)
        return execution.payload, stats

    def run(
        self,
        data: Union[bytes, bytearray, Iterable[bytes]],
        method: str,
    ) -> List[Tuple[bytes, BlockStats]]:
        """Cut ``data`` and execute every block with ``method``."""
        return [
            self.execute(block, method=method, index=i)
            for i, block in enumerate(self.cut(data))
        ]

"""The single execution substrate for timed codec work.

Every place the repository compresses or decompresses a block *and
accounts for the cost* — the §2.5 adaptive pipeline, the 4 KB Lempel-Ziv
sampling probe, the middleware compression handlers, the microbenchmark
harnesses — routes through this module's :class:`CodecExecutor`.  It is
the only module in ``src/repro`` outside ``netsim/`` allowed to call
``time.perf_counter`` (``scripts/check.sh`` enforces the invariant), so
the measured-vs-modeled mode switch and the cost-model/CPU scaling rules
exist in exactly one place:

* **measured** (no models): the codec really runs under a wall-clock
  timer and the measured time is reported;
* **CPU-scaled** (``cpu`` only): the measured time is rescaled to the
  modeled machine's speed and load;
* **modeled** (``cost_model``): the codec still really runs (sizes are
  real) but the reported time comes from the calibrated
  :class:`~repro.netsim.cpu.CodecCostModel` — which is what makes the
  Figure 8-12 replays deterministic.

:class:`BlockEngine` layers the paper's block discipline on top: cut a
byte stream into fixed-size blocks, pick a method per block through a
selection callback, execute it on the :class:`CodecExecutor`, and emit
its :class:`BlockStats` — the one record of a codec run, from executor
to cache to observers — per block to pluggable observers.  This is the
substrate later scaling work (parallel workers, async transports,
metrics export) plugs into.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from ..compression.base import Codec, CodecError, CompressionResult, ReductionMetrics
from ..compression.registry import get_codec

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BlockStats",
    "BlockEngine",
    "CodecExecutor",
    "Observer",
    "Selector",
    "cut_blocks",
    "measure",
    "measure_callable",
    "measure_decompress",
]

#: "Take a block of 128KB" — the paper's block size, chosen "according to
#: the efficiency of compression methods based on [32, 33]".
DEFAULT_BLOCK_SIZE = 128 * 1024


# -- timing primitives (the one perf_counter site) -------------------------------


def measure(codec: Codec, data: bytes, keep_payload: bool = True) -> CompressionResult:
    """Compress ``data`` with ``codec`` under a wall-clock timer.

    This is the measurement primitive behind the sampling process of §2.5:
    the selector periodically compresses a small sample and uses the
    resulting :class:`~repro.compression.base.CompressionResult` to
    estimate both the reducing speed and the achievable ratio for the
    next block.
    """
    start = time.perf_counter()
    payload = codec.compress(data)
    elapsed = time.perf_counter() - start
    return CompressionResult(
        codec_name=codec.name,
        original_size=len(data),
        compressed_size=len(payload),
        elapsed_seconds=elapsed,
        payload=payload if keep_payload else None,
    )


def measure_decompress(codec: Codec, payload: bytes) -> Tuple[bytes, float]:
    """Decompress ``payload`` under a wall-clock timer; returns (data, seconds)."""
    start = time.perf_counter()
    data = codec.decompress(payload)
    elapsed = time.perf_counter() - start
    return data, elapsed


def measure_callable(
    label: str, transform: Callable[[bytes], bytes], data: bytes
) -> CompressionResult:
    """Time an arbitrary ``bytes -> bytes`` transform at the sanctioned site.

    The differential harness (:mod:`repro.verify.differential`) compares
    our codecs against reference implementations (``zlib``, ``bz2``, the
    scalar mtf/rle/bwt loops) and wants both sides timed identically —
    but only this module may read the clock, so the hook lives here.
    """
    start = time.perf_counter()
    out = transform(data)
    elapsed = time.perf_counter() - start
    return CompressionResult(
        codec_name=label,
        original_size=len(data),
        compressed_size=len(out),
        elapsed_seconds=elapsed,
        payload=out,
    )


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

    _seconds_attr = "compression_seconds"

    requested_method: str
    method: str
    original_size: int
    compressed_size: int
    compression_seconds: float
    decompression_seconds: float = 0.0
    fell_back: bool = False
    verified: bool = False
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

    ``verify`` round-trips every compressed block and raises
    :class:`~repro.compression.base.CodecError` on mismatch.
    ``expansion_fallback`` enables the expansion guard: when a codec
    *grows* a block (common on molecular coordinates) the executor ships
    the original bytes under method ``none`` instead, so the method name
    the receiver sees stays truthful.  ``cost_model_fallback`` makes a
    cost model that lacks the requested codec fall back to the measured
    path instead of raising ``KeyError`` (runtime-tunable codecs are not
    calibrated).
    """

    def __init__(
        self,
        cost_model: Optional["object"] = None,
        cpu: Optional["object"] = None,
        verify: bool = False,
        expansion_fallback: bool = False,
        cost_model_fallback: bool = False,
    ) -> None:
        self.cost_model = cost_model
        self.cpu = cpu
        self.verify = verify
        self.expansion_fallback = expansion_fallback
        self.cost_model_fallback = cost_model_fallback

    def _seconds(
        self, direction: str, method: str, size: int, measure_seconds: Callable[[], float]
    ) -> float:
        """The scaling rule, both directions: the cost model's
        ``<direction>_time`` when it knows ``method``, else the measurement
        (taken only then) scaled to the modeled CPU, else as measured."""
        if self.cost_model is not None:
            try:
                return getattr(self.cost_model, direction + "_time")(method, size, self.cpu)
            except KeyError:
                if not self.cost_model_fallback:
                    raise
        measured = measure_seconds()
        return self.cpu.scale_time(measured) if self.cpu is not None else measured

    # -- execution ---------------------------------------------------------------

    def compress(
        self, method: str, block: bytes, codec: Optional[Codec] = None
    ) -> BlockStats:
        """Compress ``block`` with ``method`` and account for the cost.

        ``codec`` overrides the registry lookup (runtime-tunable or
        unregistered codec instances); the cost model is still consulted
        under ``method``.
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
        result = measure(codec, block)
        payload = result.payload
        assert payload is not None
        return self.finalize_compression(
            method, block, payload, result.elapsed_seconds, codec=codec
        )

    def finalize_compression(
        self,
        method: str,
        block: bytes,
        payload: bytes,
        measured_seconds: float,
        codec: Optional[Codec] = None,
    ) -> BlockStats:
        """Account for a compression that already ran (locally or on a worker).

        Applies the cost-model/CPU scaling rules, the optional round-trip
        verification, and the expansion guard — the accounting tail every
        compression shares, whether the bytes were produced in-process or
        shipped back from a pool worker with its measured time.
        """
        seconds = self._seconds("compression", method, len(block), lambda: measured_seconds)
        verified = False
        if self.verify:
            codec = codec if codec is not None else get_codec(method)
            if codec.decompress(payload) != block:
                raise CodecError(f"codec {method!r} failed to round-trip a block")
            verified = True
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
            verified=verified,
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
            return measure_decompress(run, payload)[1]

        return self._seconds("decompression", method, original_size, measured)

    def measure_roundtrip(
        self, method: str, data: bytes, codec: Optional[Codec] = None
    ) -> Tuple[BlockStats, float]:
        """Compress then decompress ``data``; returns (execution, decompress seconds).

        The microbenchmark primitive (Figures 2, 3, 6): both directions
        really run, both are timed, and the round-trip is checked.
        """
        codec = codec if codec is not None else get_codec(method)
        execution = self.compress(method, data, codec=codec)
        if execution.method == "none":
            return execution, 0.0
        restored, measured = measure_decompress(codec, execution.payload)
        if restored != data:
            raise CodecError(f"codec {method!r} failed to round-trip a block")
        return execution, self._seconds("decompression", method, len(data), lambda: measured)


# -- block discipline ------------------------------------------------------------

Observer = Callable[[BlockStats], None]
Selector = Callable[[int, bytes], str]


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
    """Block cutting + method selection + execution + per-block stats.

    ``selector`` is consulted per block (``selector(index, block) ->
    method name``) when :meth:`execute` is not given an explicit method.
    Observers receive one :class:`BlockStats` per executed block — the
    hook monitoring, metrics export, and tests attach to.
    """

    def __init__(
        self,
        executor: Optional[CodecExecutor] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        selector: Optional[Selector] = None,
        observers: Optional[Iterable[Observer]] = None,
        time_decompression: bool = True,
    ) -> None:
        if block_size < 1024:
            raise ValueError("block_size must be at least 1 KB")
        self.executor = executor if executor is not None else CodecExecutor()
        self.block_size = block_size
        self.selector = selector
        self.observers: List[Observer] = list(observers) if observers else []
        self.time_decompression = time_decompression
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
        method: Optional[str] = None,
        index: Optional[int] = None,
        codec: Optional[Codec] = None,
    ) -> Tuple[bytes, BlockStats]:
        """Compress one block; returns (payload, stats) and notifies observers."""
        if index is None:
            index = self.blocks_executed
        if method is None:
            if self.selector is None:
                raise ValueError("no method given and no selector configured")
            method = self.selector(index, block)
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
        decompression_seconds = 0.0
        if self.time_decompression:
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
        method: Optional[str] = None,
    ) -> List[Tuple[bytes, BlockStats]]:
        """Cut ``data`` and execute every block.

        ``method`` fixes the codec for the whole stream; when omitted the
        per-block ``selector`` decides.
        """
        return [
            self.execute(block, method=method, index=i)
            for i, block in enumerate(self.cut(data))
        ]

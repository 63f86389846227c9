"""Parallel compression and parallel Huffman decoding (paper refs [31-33]).

The paper builds on the authors' earlier work on parallel compression:
block sizes were "chosen according to the efficiency of compression
methods based on [32, 33]" (Wiseman, *Parallel Compression*; Klein &
Wiseman, *Parallel Lempel Ziv Coding*), and the §2.4 chunk-synchronizable
Huffman stream exists precisely because "Huffman can be synchronized
easily, as shown in [31]" (Klein & Wiseman, *Parallel Huffman Decoding*).
This module supplies both systems:

* :class:`ParallelCodec` — a container that splits data into independent
  chunks and runs any base codec over them through a thread pool.  Each
  chunk is self-contained, so decompression parallelizes trivially and a
  lost/reordered chunk does not poison the rest.
* :func:`parallel_huffman_decode` — the Klein-Wiseman segment-decoding
  algorithm: split the bitstream into S segments at byte boundaries,
  decode each speculatively from its (guessed) start, then stitch by
  exploiting Huffman self-synchronization — a speculative decode that has
  locked onto the true codeword boundaries by the time the previous
  segment's decode reaches it can be accepted wholesale; otherwise the
  gap is re-decoded sequentially (rare).

* :func:`chunk_map` — the one process-wide codec pool: a codec whose
  wire format already cuts a block into independent chunks (the §2.4
  Burrows-Wheeler codec) maps its per-chunk stages through it, and the
  calling thread computes its own share while the pool's workers compute
  theirs, so the bytes are those of the in-process loop.

The pool strategy is configurable because CPython's GIL splits the codec
population in two: ``threads`` yields wall-clock speedups only for codecs
that release the GIL (the zlib/bz2-backed natives), ``processes`` is what
the pure-Python codecs need (chunks and payloads pickle cheaply; the
codec instance rides along once per task), and ``serial`` is the
in-process fallback every broken pool degrades to.  The wire format is
identical under every strategy — chunk geometry depends only on
``chunk_size`` and payload bytes only on the base codec — so the choice
is purely an execution detail.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .base import Codec, CorruptStreamError
from .huffman import HuffmanCode
from .varint import read_varint, write_varint

__all__ = [
    "DegradingPool",
    "chunk_map",
    "shutdown_codec_pool",
    "ParallelCodec",
    "POOL_STRATEGIES",
    "parallel_huffman_decode",
    "huffman_segment_table",
]

_MAGIC = b"PAR1"
DEFAULT_CHUNK_SIZE = 64 * 1024

POOL_STRATEGIES = ("threads", "processes", "serial")


def _validate_pool(workers: int, mode: str) -> None:
    if workers < 1:
        raise ValueError("workers must be positive")
    if mode not in POOL_STRATEGIES:
        raise ValueError(f"unknown pool mode {mode!r} (want one of {POOL_STRATEGIES})")


def _pool_executor(mode: str, workers: int) -> Executor:
    """The executor behind a non-serial pool mode."""
    if mode == "processes":
        return ProcessPoolExecutor(max_workers=workers)
    return ThreadPoolExecutor(max_workers=workers)


class DegradingPool:
    """Run calls under threads, processes or in-process; break to serial.

    The one implementation of "mode -> executor, and a pool that breaks
    (killed worker, failed fork, shutdown race) degrades to ``serial``
    for the rest of its life while the call that hit the breakage re-runs
    in-process" — :class:`ParallelCodec`, :func:`parallel_huffman_decode`
    and :class:`repro.core.workers.WorkerPool` all execute through it, so
    callers never see the breakage, only identical results.

    The executor is created on first use and released by
    :meth:`shutdown` (also the context-manager exit).  ``spawn`` builds
    it; the default is the mode's thread or process pool.
    """

    def __init__(
        self,
        workers: int,
        mode: str,
        spawn: Optional[Callable[[], Executor]] = None,
    ) -> None:
        _validate_pool(workers, mode)
        self.workers = workers
        self.mode = mode
        self.degradations = 0
        self._spawn = spawn or partial(_pool_executor, mode, workers)
        self._executor: Optional[Executor] = None

    def shutdown(self) -> None:
        """Release pool workers (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "DegradingPool":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.shutdown()

    def _degrade(self) -> None:
        """Fall back to serial for the rest of this pool's life."""
        if self.mode == "serial":
            return
        self.degradations += 1
        self.shutdown()
        self.mode = "serial"

    def submit_call(self, fn: Callable, *args: object) -> "Future":
        """Schedule ``fn(*args)``; serial (or just-broken) pools answer inline.

        Every mode returns a future, so callers treat them uniformly.  A
        future whose worker dies mid-task raises ``BrokenExecutor``;
        :meth:`map` degrades and re-runs on that.
        """
        if self.mode != "serial":
            try:
                if self._executor is None:
                    self._executor = self._spawn()
                return self._executor.submit(fn, *args)
            except (BrokenExecutor, RuntimeError, OSError):
                # Fork/spawn failed, or the pool broke (or was shut down)
                # before the task was accepted: degrade, answer inline.
                self._degrade()
        future: "Future" = Future()
        future.set_result(fn(*args))
        return future

    def map(self, fn: Callable, items: Sequence[object]) -> List:
        """``[fn(item) for item in items]`` across the workers, in order.

        A pool that breaks under the map degrades and the whole map
        re-runs in-process.
        """
        futures = [self.submit_call(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BrokenExecutor:
            self._degrade()
            return [fn(item) for item in items]


# --------------------------------------------------------------------------
# The shared codec pool: a codec's chunk stages on the idle cores
# --------------------------------------------------------------------------

_codec_pool: Optional[DegradingPool] = None
_codec_pool_lock = threading.Lock()


def _forget_codec_pool() -> None:
    """In a forked child: the parent's pool is not ours, and the fork may
    have copied the lock held (workers are forked under it)."""
    global _codec_pool, _codec_pool_lock
    _codec_pool = None
    _codec_pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_codec_pool)


def _apply_all(fn: Callable, items: Sequence[object]) -> List:
    """Pool task: one worker's whole share of a :func:`chunk_map` call."""
    return [fn(item) for item in items]


def shutdown_codec_pool() -> None:
    """Stop the shared codec pool and wait for its workers to exit; the
    next multi-chunk call starts a new pool.

    Registered to run at interpreter exit *before* ``concurrent.futures``
    joins its manager threads, so the executor is released by an explicit
    shutdown while the interpreter is whole, not by module teardown.
    """
    global _codec_pool
    with _codec_pool_lock:
        pool, _codec_pool = _codec_pool, None
    if pool is not None and pool._executor is not None:
        pool._executor.shutdown(wait=True, cancel_futures=True)
        pool._executor = None


def _started_codec_pool() -> Optional[DegradingPool]:
    """The process-wide codec pool, created on first use; call under the lock.

    ``os.cpu_count() - 1`` process workers, because the caller works too;
    ``None`` on one core and once the interpreter is exiting.  A broken
    pool stays in place in ``serial`` mode, so the process never forks a
    second one.
    """
    global _codec_pool
    if _codec_pool is None:
        workers = (os.cpu_count() or 1) - 1
        if workers < 1:
            return None
        try:
            # Runs before concurrent.futures' own exit hook (reverse order).
            threading._register_atexit(shutdown_codec_pool)
        except RuntimeError:  # the interpreter is already exiting
            return None
        _codec_pool = DegradingPool(workers, "processes")
    return _codec_pool


def chunk_map(fn: Callable, items: Sequence[object]) -> List:
    """``[fn(item) for item in items]``, shared by the caller and the codec pool.

    Item ``i`` goes to participant ``i % (workers + 1)``; participant 0
    is the calling thread, which computes its share while each worker
    computes one task's worth, and the results come back in item order.
    Fewer than two items, a one-core host, and any call made inside a
    ``multiprocessing`` child run in-process: a pool started there would
    fork from a fork, and a daemonic child may not start children at all.
    A worker that dies mid-call degrades the pool to serial for the rest
    of the process and its share re-runs here, so callers only ever see
    identical results.  A share the pool cannot run for any other reason
    (``fn`` or its items do not pickle: a locally defined codec class, an
    object holding a lock) re-runs here too, with the pool left as it is;
    an error ``fn`` itself raises is raised again by that re-run, from
    the caller, as if the map had been in-process all along.
    """
    if len(items) < 2 or multiprocessing.parent_process() is not None:
        return _apply_all(fn, items)
    with _codec_pool_lock:
        # Creation and the first submit (which forks) under one lock, so
        # two threads meeting here start one executor between them.
        pool = _started_codec_pool()
        pooled = pool is not None and pool.mode != "serial"
        if pooled:
            stride = pool.workers + 1
            futures = [
                pool.submit_call(_apply_all, fn, items[start::stride])
                for start in range(1, min(stride, len(items)))
            ]
    if not pooled:
        return _apply_all(fn, items)
    results: List = [None] * len(items)
    results[0::stride] = [fn(item) for item in items[0::stride]]
    for start, future in enumerate(futures, 1):
        try:
            results[start::stride] = future.result()
            continue
        except BrokenExecutor:
            with _codec_pool_lock:
                pool._degrade()
        except Exception:
            pass  # re-run below, outside this handler: no chained worker error
        results[start::stride] = _apply_all(fn, items[start::stride])
    return results


def _apply_codec(codec: Codec, operation: str, chunk: bytes) -> bytes:
    """Process-pool task: run ``codec.compress``/``codec.decompress`` on a chunk.

    Module-level so it pickles; the codec instance travels with each task,
    which keeps workers stateless (no initializer handshake to get wrong).
    """
    if operation == "compress":
        return codec.compress(chunk)
    return codec.decompress(chunk)


class ParallelCodec(Codec):
    """Chunked parallel wrapper around any base codec.

    Wire format::

        PAR1
        varint chunk_count
        chunk_count x (varint original_len, varint compressed_len)
        concatenated chunk payloads

    ``strategy`` picks the pool: ``threads`` for GIL-releasing natives,
    ``processes`` for pure-Python codecs, ``serial`` for in-process
    execution.  A pool that breaks mid-map (killed worker, failed fork)
    degrades this codec to ``serial`` permanently and the map re-runs
    in-process, so callers never see the breakage — only identical bytes.
    """

    family = "parallel"

    def __init__(
        self,
        base: Codec,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        workers: int = 4,
        strategy: str = "threads",
    ) -> None:
        if chunk_size < 1024:
            raise ValueError("chunk_size must be at least 1 KB")
        _validate_pool(workers, strategy)
        self.base = base
        self.chunk_size = chunk_size
        self.workers = workers
        self.strategy = strategy
        self.degradations = 0
        self.name = f"parallel:{base.name}"

    def _make_executor(self) -> Executor:
        return _pool_executor(self.strategy, self.workers)

    def _map(self, operation: str, chunks: Sequence[bytes]) -> List[bytes]:
        """Apply the base codec over ``chunks`` under the current strategy.

        One pool per map: this codec instance may be shared (the registry
        hands out singletons), so no executor outlives the call.
        """
        if not chunks:
            return []
        apply = partial(_apply_codec, self.base, operation)
        with DegradingPool(self.workers, self.strategy, self._make_executor) as pool:
            results = pool.map(apply, chunks)
        if pool.degradations:
            self.degradations += 1
            self.strategy = "serial"
        return results

    def compress(self, data: bytes) -> bytes:
        chunks = [
            data[start : start + self.chunk_size]
            for start in range(0, len(data), self.chunk_size)
        ]
        payloads = self._map("compress", chunks)
        out = bytearray(_MAGIC)
        write_varint(out, len(chunks))
        for chunk, payload in zip(chunks, payloads):
            write_varint(out, len(chunk))
            write_varint(out, len(payload))
        for payload in payloads:
            out += payload
        return bytes(out)

    def decompress(self, payload: bytes) -> bytes:
        if payload[: len(_MAGIC)] != _MAGIC:
            raise CorruptStreamError("not a parallel container (bad magic)")
        offset = len(_MAGIC)
        chunk_count, offset = read_varint(payload, offset)
        geometry: List[Tuple[int, int]] = []
        for _ in range(chunk_count):
            original_length, offset = read_varint(payload, offset)
            compressed_length, offset = read_varint(payload, offset)
            geometry.append((original_length, compressed_length))
        pieces: List[bytes] = []
        for _, compressed_length in geometry:
            piece = payload[offset : offset + compressed_length]
            if len(piece) != compressed_length:
                raise CorruptStreamError("truncated parallel container")
            pieces.append(piece)
            offset += compressed_length
        if offset != len(payload):
            raise CorruptStreamError("trailing bytes after last chunk")
        chunks = self._map("decompress", pieces)
        for (original_length, _), chunk in zip(geometry, chunks):
            if len(chunk) != original_length:
                raise CorruptStreamError("chunk decoded to unexpected length")
        return b"".join(chunks)

    def decompress_chunk(self, payload: bytes, index: int) -> bytes:
        """Random access: decompress only chunk ``index``.

        The per-chunk independence that enables parallel decode also gives
        random access — a property the original paper's out-of-order block
        delivery relies on.
        """
        if payload[: len(_MAGIC)] != _MAGIC:
            raise CorruptStreamError("not a parallel container (bad magic)")
        offset = len(_MAGIC)
        chunk_count, offset = read_varint(payload, offset)
        if not 0 <= index < chunk_count:
            raise IndexError(f"chunk {index} out of range [0, {chunk_count})")
        geometry: List[Tuple[int, int]] = []
        for _ in range(chunk_count):
            original_length, offset = read_varint(payload, offset)
            compressed_length, offset = read_varint(payload, offset)
            geometry.append((original_length, compressed_length))
        start = offset + sum(length for _, length in geometry[:index])
        original_length, compressed_length = geometry[index]
        chunk = self.base.decompress(payload[start : start + compressed_length])
        if len(chunk) != original_length:
            raise CorruptStreamError("chunk decoded to unexpected length")
        return chunk


# --------------------------------------------------------------------------
# Parallel Huffman decoding (Klein & Wiseman, ref [31])
# --------------------------------------------------------------------------


def huffman_segment_table(
    code: HuffmanCode, data: bytes, start_bit: int, end_bit: int
) -> Tuple[List[int], List[int], int]:
    """Speculatively decode ``[start_bit, ...)`` until at/past ``end_bit``.

    Returns ``(boundary_bits, symbols, final_bit)`` where
    ``boundary_bits[i]`` is the bit position at which ``symbols[i]`` was
    decoded.  Decoding continues past ``end_bit`` just far enough to land
    exactly on a codeword boundary, so consecutive segments can be
    stitched.  A mis-synchronized speculation that runs into an invalid
    window (or the end of the stream mid-codeword) reports what it has.
    """
    if start_bit >= len(data) * 8:
        return [], [], start_bit
    boundaries, symbols = code.walk(
        code.position_map(data), start_bit, end_bit - start_bit, stop_bit=end_bit
    )
    return boundaries[:-1].tolist(), symbols.tolist(), int(boundaries[-1])


def parallel_huffman_decode(
    code: HuffmanCode,
    data: bytes,
    symbol_count: int,
    start_bit: int = 0,
    segments: int = 4,
    workers: Optional[int] = None,
) -> List[int]:
    """Decode ``symbol_count`` symbols with speculative parallel segments.

    The Klein-Wiseman scheme: the payload's bit range is cut into
    ``segments`` equal parts at byte boundaries.  Segment 0 starts at the
    true stream start; every other segment starts decoding at its first
    byte boundary, which is generally *not* a codeword boundary — but
    Huffman codes self-synchronize, so after a few garbage symbols the
    speculative decode locks onto the true boundary sequence.  Stitching
    walks segment by segment: the true entry position into segment ``s+1``
    (known once segment ``s`` is resolved) is looked up in ``s+1``'s
    speculative boundary list; on a hit, the speculative suffix is
    accepted; on a miss (the speculation never synchronized) the segment
    is re-decoded sequentially from the true position.

    Speculation and re-decoding are both walks of one
    :class:`~.huffman.PositionMap` of the payload, which answers "where
    does the codeword starting at this bit end" for every bit at once.
    """
    if segments < 1:
        raise ValueError("segments must be positive")
    total_bits = len(data) * 8
    if symbol_count == 0:
        return []
    if symbol_count > total_bits - start_bit:
        raise CorruptStreamError(
            f"stream of {max(0, total_bits - start_bit)} bits cannot hold "
            f"{symbol_count} symbols"
        )
    segment_span = max(8, ((total_bits - start_bit) // segments + 7) & ~7)
    starts = [start_bit]
    for index in range(1, segments):
        candidate = start_bit + index * segment_span
        candidate -= candidate % 8  # byte alignment, as in the original
        if candidate >= total_bits:
            break
        starts.append(candidate)
    ends = starts[1:] + [total_bits]
    pmap = code.position_map(data)

    def speculate(bounds: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        # A speculative segment table is a walk of the shared map.
        start, end = bounds
        return code.walk(pmap, start, end - start, stop_bit=end)

    with DegradingPool(workers or len(starts), "threads") as pool:
        tables = pool.map(speculate, list(zip(starts, ends)))

    pieces: List[np.ndarray] = []
    decoded = 0
    position = start_bit
    for index, (boundaries, segment_symbols) in enumerate(tables):
        if decoded >= symbol_count:
            break
        if position != starts[index]:
            # The speculation started off the true boundary sequence:
            # decode from the true position until the two chains meet (or
            # the segment ends without their meeting).
            gap_boundaries, gap_symbols = code.walk(
                pmap, position, symbol_count - decoded, stop_bit=ends[index]
            )
            met = np.flatnonzero(np.isin(gap_boundaries, boundaries[:-1]))
            if not len(met):
                pieces.append(gap_symbols)
                decoded += len(gap_symbols)
                position = int(gap_boundaries[-1])
                continue
            pieces.append(gap_symbols[: met[0]])
            decoded += int(met[0])
            join = int(np.searchsorted(boundaries, gap_boundaries[met[0]]))
            segment_symbols = segment_symbols[join:]
        pieces.append(segment_symbols)
        decoded += len(segment_symbols)
        position = int(boundaries[-1])
    if decoded < symbol_count:
        raise CorruptStreamError(
            f"stream exhausted after {decoded} of {symbol_count} symbols"
        )
    return np.concatenate(pieces)[:symbol_count].tolist()

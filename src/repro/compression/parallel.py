"""The one process-wide codec pool (the parallel lineage of refs [31-33]).

The paper parallelises one thing: the §2.4 Burrows-Wheeler codec cuts a
block into independent chunks, and block sizes were "chosen according to
the efficiency of compression methods based on [32, 33]" (Wiseman,
*Parallel Compression*; Klein & Wiseman, *Parallel Lempel Ziv Coding*).
Every parallel path of the package runs on one pool, created here on
first use, and reaches it through one of two calls:

* :func:`chunk_map` — ``[fn(item) for item in items]``, the calling
  thread computing its own share while the pool's workers compute
  theirs: the Burrows-Wheeler codec's chunk stages and the §2.5 probes
  of :meth:`~repro.core.sampler.LzSampler.probe_runs`.
* :func:`submit` / :func:`result` — one task on the pool, for a caller
  that keeps its own window of tasks in flight
  (:class:`~repro.core.workers.PipelinedBlockEngine`).

The pool forks ``os.cpu_count() - 1`` process workers.  The codec
kernels hold the GIL, so a thread pool cannot pay and there is none.
Where no pool can run (one core, inside a ``multiprocessing`` child,
after a worker died) both calls run in-process, and the results are
always those of the in-process loop.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

__all__ = [
    "DegradingPool",
    "chunk_map",
    "codec_pool",
    "result",
    "shutdown_codec_pool",
    "submit",
]


class DegradingPool:
    """The shared pool's state: process workers until it breaks, then
    in-process for good.

    A pool that breaks (killed worker, failed fork, shutdown race)
    degrades to ``serial`` for the rest of its life, so one dead worker
    cannot flap; the task that hit the breakage re-runs in the caller
    (:func:`result`).  The executor is forked on the first submit.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.mode = "processes"
        self.degradations = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    def _degrade(self) -> None:
        """Fall back to serial for the rest of this pool's life."""
        if self.mode == "serial":
            return
        self.degradations += 1
        self.mode = "serial"
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def submit_call(self, fn: Callable, *args: object) -> Optional[Future]:
        """``fn(*args)`` on a worker; ``None`` once the pool is serial.

        A fork that fails, or a pool that broke (or was shut down) before
        accepting the task, degrades the pool here.
        """
        if self.mode == "serial":
            return None
        try:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            return self._executor.submit(fn, *args)
        except (BrokenExecutor, RuntimeError, OSError):
            self._degrade()
            return None


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
    next pooled call starts a new pool.

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
    """:func:`codec_pool`'s body; call under the lock."""
    global _codec_pool
    if multiprocessing.parent_process() is not None:
        return None
    if _codec_pool is None:
        workers = (os.cpu_count() or 1) - 1
        if workers < 1:
            return None
        try:
            # Runs before concurrent.futures' own exit hook (reverse order).
            threading._register_atexit(shutdown_codec_pool)
        except RuntimeError:  # the interpreter is already exiting
            return None
        _codec_pool = DegradingPool(workers)
    return _codec_pool


def codec_pool() -> Optional[DegradingPool]:
    """The process-wide codec pool, created on first use (forked on first
    submit).

    ``os.cpu_count() - 1`` process workers, because the caller works too.
    ``None`` on one core, once the interpreter is exiting, and inside a
    ``multiprocessing`` child: a pool started there would fork from a
    fork, and a daemonic child may not start children at all.  A broken
    pool stays in place in ``serial`` mode, so the process never forks a
    second one.
    """
    with _codec_pool_lock:
        return _started_codec_pool()


def submit(fn: Callable, *args: object) -> Future:
    """Schedule ``fn(*args)`` on the codec pool; collect it with :func:`result`.

    Wherever :func:`chunk_map` would run in-process (no pool, or a serial
    one) the future comes back resolved, ``fn`` having run here.
    """
    with _codec_pool_lock:
        # Creation and the first submit (which forks) under one lock, so
        # two threads meeting here start one executor between them.
        pool = _started_codec_pool()
        future = pool.submit_call(fn, *args) if pool is not None else None
    if future is None:
        future = Future()
        future.set_result(fn(*args))
    return future


def result(future: Future, fn: Callable, *args: object) -> object:
    """The value of a :func:`submit` future; ``fn(*args)``, the task it
    was given, re-runs here if the pool could not run it.

    A worker that died under the task degrades the pool to serial for the
    rest of the process.  A task the pool cannot run for any other reason
    (``fn`` or its arguments do not pickle: a locally defined codec
    class, an object holding a lock) re-runs with the pool left as it
    is; an error ``fn`` itself raises is raised again by that re-run,
    once, from the caller and unchained, as if the task had been
    in-process all along.
    """
    try:
        return future.result()
    except BrokenExecutor:
        with _codec_pool_lock:
            if _codec_pool is not None:
                _codec_pool._degrade()
    except Exception:
        pass  # re-run below, outside this handler: no chained worker error
    return fn(*args)


def chunk_map(fn: Callable, items: Sequence[object]) -> List:
    """``[fn(item) for item in items]``, shared by the caller and the codec pool.

    Item ``i`` goes to participant ``i % (workers + 1)``; participant 0
    is the calling thread, which computes its share while each worker
    computes one :func:`submit` task's worth, and the results come back
    in item order through :func:`result`.  Fewer than two items, and
    wherever :func:`codec_pool` has no running pool, run in-process.
    """
    pool = codec_pool() if len(items) > 1 else None
    stride = pool.workers + 1 if pool is not None and pool.mode == "processes" else 1
    shares = [items[start::stride] for start in range(1, min(stride, len(items)))]
    futures = [submit(_apply_all, fn, share) for share in shares]
    results: List = [None] * len(items)
    results[0::stride] = _apply_all(fn, items[0::stride])
    for start, (future, share) in enumerate(zip(futures, shares), 1):
        results[start::stride] = result(future, _apply_all, fn, share)
    return results

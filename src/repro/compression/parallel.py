"""The one process-wide codec pool (the parallel lineage of refs [31-33]).

The paper parallelises one thing: the §2.4 Burrows-Wheeler codec cuts a
block into independent chunks, and block sizes were "chosen according to
the efficiency of compression methods based on [32, 33]" (Wiseman,
*Parallel Compression*; Klein & Wiseman, *Parallel Lempel Ziv Coding*).
Every parallel path of the package runs on one pool, created here on
first use, and reaches it through one call, :func:`chunk_map`:
``[fn(item) for item in items]``, computed by the calling thread and the
pool's workers together.  Its callers are the Burrows-Wheeler codec's
chunk stages, the §2.5 probes of
:meth:`~repro.core.sampler.LzSampler.probe_runs` and the whole blocks of
:class:`~repro.core.workers.PipelinedBlockEngine`.

The pool forks ``os.cpu_count() - 1`` process workers, each holding one
duplex pipe, and runs no thread in the parent: the calling thread pickles
the task once and writes it to every worker's pipe itself.  The codec
kernels hold the GIL, so a thread pool cannot pay, and a helper thread in
the parent would have to win the GIL from a caller busy with its own
share before a worker could start.  Items are claimed one at a time from
one counter in shared memory, by the caller and every worker alike,
whenever each is free; a worker replies once, with the results of every
item it claimed.  Where no pool can run (one core, inside a
``multiprocessing`` child, after a worker died, while another thread's
map holds the pool) the call runs in-process, and the results are always
those of the in-process loop.
"""

from __future__ import annotations

import atexit
import mmap
import multiprocessing
import os
import pickle
import struct
import threading
from multiprocessing.connection import Connection, wait
from typing import Callable, List, Optional, Sequence

__all__ = ["DegradingPool", "chunk_map", "codec_pool", "shutdown_codec_pool"]

_FORK = multiprocessing.get_context("fork")
#: The shared claim counter: the index of the next unclaimed item.
_COUNTER = struct.Struct("q")
#: Seconds the caller waits on the claim lock before it asks whether a
#: worker died holding it; an uncontended claim holds it for microseconds.
_CLAIM_PATIENCE_S = 1.0
#: Seconds a worker gets to exit on its own once its pipe is closed.
_EXIT_GRACE_S = 5.0
#: A result slot no participant filled; the caller computes it last.
_MISSING = object()


def _take(claims: mmap.mmap) -> int:
    """The next unclaimed item index, counted off; call under the claim lock."""
    index = _COUNTER.unpack_from(claims)[0]
    _COUNTER.pack_into(claims, 0, index + 1)
    return index


def _serve(conn: Connection, claims: mmap.mmap, lock, inherited: List[Connection]) -> None:
    """A worker's life: per task, claim items until none is left, then
    reply ``[(index, result), ...]`` for the items it finished.

    A task that does not unpickle, an error ``fn`` raises and a reply that
    does not pickle all end the worker's claims early; the items it did
    not reply with are computed by the caller.  A closed pipe ends the
    worker.
    """
    for other in inherited:  # the parent's ends: EOF must reach every worker
        other.close()
    while True:
        try:
            task = conn.recv_bytes()
        except (EOFError, OSError):
            return
        done = []
        try:
            fn, items = pickle.loads(task)
            while True:
                with lock:
                    index = _take(claims)
                if index >= len(items):
                    break
                done.append((index, fn(items[index])))
        except Exception:
            pass
        try:
            reply = pickle.dumps(done, pickle.HIGHEST_PROTOCOL)
        except Exception:
            reply = pickle.dumps([])
        try:
            conn.send_bytes(reply)
        except OSError:
            return


class DegradingPool:
    """The shared pool: process workers until it breaks, then in-process
    for good.

    The workers are forked on the first :meth:`map`.  A pool that breaks
    (a worker died, a fork or a pipe write failed, a map was interrupted)
    kills its workers and degrades to ``serial`` for the rest of its life,
    so one dead worker cannot flap; the items the breakage lost are
    computed by the caller.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.mode = "processes"
        self.degradations = 0
        self._busy = threading.Lock()  # one map at a time
        self._processes: List = []
        self._conns: List[Connection] = []
        self._claims: Optional[mmap.mmap] = None
        self._lock = None

    def _start(self) -> None:
        """Fork the workers, each with one duplex pipe, sharing the counter."""
        self._claims = mmap.mmap(-1, _COUNTER.size)
        self._lock = _FORK.Lock()
        for _ in range(self.workers):
            mine, theirs = _FORK.Pipe()
            process = _FORK.Process(
                target=_serve,
                args=(theirs, self._claims, self._lock, self._conns + [mine]),
                daemon=True,
            )
            self._conns.append(mine)
            process.start()
            theirs.close()
            self._processes.append(process)

    def _stop(self) -> None:
        """Close the pipes (an idle worker exits on EOF) and reap every
        worker, killing one that does not exit in time."""
        for conn in self._conns:
            conn.close()
        for process in self._processes:
            process.join(_EXIT_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join()
        self._conns, self._processes = [], []

    def _degrade(self) -> None:
        """Kill the workers and fall back to serial for the rest of this
        pool's life."""
        if self.mode == "serial":
            return
        self.degradations += 1
        self.mode = "serial"
        for process in self._processes:
            process.kill()
        self._stop()

    def _claim(self) -> Optional[int]:
        """The caller's claim; ``None``, with the pool degraded, when a
        worker died and may have taken the claim lock with it."""
        while not self._lock.acquire(timeout=_CLAIM_PATIENCE_S):
            if not all(process.is_alive() for process in self._processes):
                self._degrade()
                return None
        try:
            return _take(self._claims)
        finally:
            self._lock.release()

    def _collect(self, results: List) -> None:
        """Fill ``results`` from every worker's reply, in arrival order;
        a worker that died mid-map degrades the pool."""
        pending = list(self._conns)
        while pending and self.mode == "processes":
            for conn in wait(pending):
                pending.remove(conn)
                try:
                    reply = conn.recv_bytes()
                except (EOFError, OSError):
                    self._degrade()
                    return
                for index, value in pickle.loads(reply):
                    results[index] = value

    def map(self, fn: Callable, items: Sequence[object]) -> Optional[List]:
        """``fn`` over ``items`` on the caller and the workers, item by item
        as each is free; ``None`` where the pool cannot take the call.

        The result list holds ``_MISSING`` for every item no participant
        finished (``fn`` raised on it, or the pool broke under it).  The
        pool takes no call while it is serial or busy with another
        thread's map, and none whose ``fn`` or items do not pickle (a
        locally defined codec class, an object holding a lock); those run
        in-process with the pool left as it is.
        """
        if not self._busy.acquire(blocking=False):
            return None
        try:
            if self.mode == "serial":
                return None
            try:
                task = pickle.dumps((fn, items), pickle.HIGHEST_PROTOCOL)
            except Exception:
                return None
            try:
                if not self._processes:
                    self._start()
                _COUNTER.pack_into(self._claims, 0, 0)
                for conn in self._conns:
                    conn.send_bytes(task)
            except OSError:
                self._degrade()
                return None
            results = [_MISSING] * len(items)
            try:
                while (index := self._claim()) is not None and index < len(items):
                    try:
                        results[index] = fn(items[index])
                    except Exception:
                        break  # the workers finish their claims; the caller re-runs this one
                self._collect(results)
            except BaseException:
                self._degrade()  # interrupted mid-map: the workers' state is unknown
                raise
            return results
        finally:
            self._busy.release()


_codec_pool: Optional[DegradingPool] = None
_codec_pool_lock = threading.Lock()


def _forget_codec_pool() -> None:
    """In a forked child: the parent's pool is not ours, and the fork may
    have copied the lock held."""
    global _codec_pool, _codec_pool_lock
    _codec_pool = None
    _codec_pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_codec_pool)


def shutdown_codec_pool() -> None:
    """Stop the shared codec pool and wait for its workers to exit; the
    next pooled call starts a new pool.

    Registered at import to run at interpreter exit, before
    ``multiprocessing``'s own exit hook (registered earlier, so run
    later), so the workers leave on a closed pipe while the interpreter
    is whole.
    """
    global _codec_pool
    with _codec_pool_lock:
        pool, _codec_pool = _codec_pool, None
    if pool is not None:
        with pool._busy:
            pool._stop()


atexit.register(shutdown_codec_pool)


def codec_pool() -> Optional[DegradingPool]:
    """The process-wide codec pool, created on first use (forked on its
    first map).

    ``os.cpu_count() - 1`` process workers, because the caller works too.
    ``None`` on one core and inside a ``multiprocessing`` child: a pool
    started there would fork from a fork, and a daemonic child may not
    start children at all.  A broken pool stays in place in ``serial``
    mode, so the process never forks a second one.
    """
    global _codec_pool
    with _codec_pool_lock:
        if multiprocessing.parent_process() is not None:
            return None
        if _codec_pool is None:
            workers = (os.cpu_count() or 1) - 1
            if workers < 1:
                return None
            _codec_pool = DegradingPool(workers)
        return _codec_pool


def chunk_map(fn: Callable, items: Sequence[object]) -> List:
    """``[fn(item) for item in items]``, shared by the caller and the codec pool.

    The caller and every worker claim the next unclaimed item whenever
    they are free, and the results come back in item order.  Fewer than
    two items, and wherever :func:`codec_pool` has no pool that takes the
    call, run in-process.  An item no participant finished is computed
    here last, in item order, so an error ``fn`` raises is raised once,
    from the caller and unchained, as if the loop had been in-process
    all along.
    """
    pool = codec_pool() if len(items) > 1 else None
    results = pool.map(fn, items) if pool is not None else None
    if results is None:
        return [fn(item) for item in items]
    return [fn(item) if value is _MISSING else value for item, value in zip(items, results)]

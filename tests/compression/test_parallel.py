"""Unit tests for the one codec pool and its one call, chunk_map."""

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from functools import partial

import pytest

from repro.compression import bwhuff, parallel
from repro.compression.bwhuff import BurrowsWheelerCodec
from repro.compression.lz77 import Lz77Codec
from repro.compression.parallel import chunk_map, codec_pool, shutdown_codec_pool
from tests.strategies import bw_in_process

needs_two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="one core: there is no codec pool"
)

#: Seconds a caller-side item sleeps in the tests that need a worker to
#: claim an item: a warm worker claims within a millisecond of the send.
CALLER_PAUSE_S = 0.05


@pytest.fixture
def fresh_codec_pool():
    """Each test starts (and leaves) the process with no codec pool."""
    shutdown_codec_pool()
    yield
    shutdown_codec_pool()


def in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def warm_pool():
    """The shared pool, its workers forked and idle."""
    chunk_map(len, [b"fork", b"the workers"])
    pool = parallel._codec_pool
    assert pool._processes
    return pool


def _uneven(item):
    """``(item * 3, pid)`` after a pause of 0-16 ms that depends on the item."""
    time.sleep(0.004 * (item * 7 % 5))
    return item * 3, os.getpid()


def _pid_after_caller_pause(item):
    if not in_worker():
        time.sleep(CALLER_PAUSE_S)
    return item, os.getpid()


def _thread_count(_item):
    if not in_worker():
        time.sleep(CALLER_PAUSE_S)
    return threading.active_count(), os.getpid()


def _log_claim(path, item):
    """``item``, after appending it to ``path`` (one small O_APPEND write)."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, b"%d\n" % item)
    finally:
        os.close(fd)
    return item


def _die_in_worker(chunk):
    """``_encode_chunk``, except that it kills any pool worker running it."""
    if in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(CALLER_PAUSE_S)
    return _ENCODE_CHUNK(chunk)


_ENCODE_CHUNK = bwhuff._encode_chunk


def _bw_in_worker(data):
    """Compress, in a worker if it claimed this item; report what the call forked."""
    if not in_worker():
        time.sleep(CALLER_PAUSE_S)
    payload = BurrowsWheelerCodec(chunk_size=2048).compress(data)
    children = len(multiprocessing.active_children())
    return payload, children, parallel._codec_pool is None, os.getpid()


class _WorkerShareError(ValueError):
    """Raised by :func:`_fail_on_odd` for odd items."""


def _fail_on_odd(item):
    if item % 2:
        raise _WorkerShareError(item)
    time.sleep(0.01)
    return item


def _four_chunks():
    rng = random.Random(32)
    return bytes(rng.choices(b"abcdefgh", k=4 * 2048))


@needs_two_cores
class TestCodecPool:
    def test_items_of_uneven_cost_come_back_in_item_order(self, fresh_codec_pool):
        warm_pool()
        items = list(range(20))
        results = chunk_map(_uneven, items)
        assert [value for value, _ in results] == [item * 3 for item in items]
        pids = {pid for _, pid in results}
        # The caller and at least one worker each claimed items.
        assert os.getpid() in pids and len(pids) >= 2
        assert chunk_map(_uneven, [1]) == [(3, os.getpid())]
        assert chunk_map(_uneven, []) == []

    def test_every_item_claimed_once_with_more_workers_than_cores(self, shared_pool, tmp_path):
        log = tmp_path / "claims"
        pool = shared_pool(parallel.DegradingPool(2 * (os.cpu_count() or 1)))
        items = list(range(400))
        outputs = []
        mapper = threading.Thread(
            target=lambda: outputs.append(chunk_map(partial(_log_claim, str(log)), items))
        )
        mapper.start()
        mapper.join(60)
        assert not mapper.is_alive()
        assert outputs == [items]
        # A lost update on the shared counter would run some item twice.
        assert sorted(int(line) for line in log.read_text().split()) == items
        assert (pool.mode, pool.degradations) == ("processes", 0)

    def test_no_helper_thread_in_the_parent(self, fresh_codec_pool):
        before = threading.active_count()
        results = chunk_map(_thread_count, list(range(6)))
        assert threading.active_count() == before
        # While the map ran, the caller saw no thread but its own.
        assert {count for count, pid in results if pid == os.getpid()} == {before}
        assert any(pid != os.getpid() for _, pid in results)

    def test_share_that_does_not_pickle_reruns_in_the_caller(self, fresh_codec_pool):
        class LocalCodec(Lz77Codec):  # defined here, so it cannot be pickled
            pass

        chunks = [bytes([65 + i]) * 3000 + bytes(range(200)) for i in range(5)]
        compress = LocalCodec().compress
        assert chunk_map(compress, chunks) == [Lz77Codec().compress(c) for c in chunks]
        # Nothing broke: the pool keeps running items in the worker.
        pool = parallel._codec_pool
        assert (pool.mode, pool.degradations) == ("processes", 0)
        pids = [pid for _, pid in chunk_map(_pid_after_caller_pause, list(range(4)))]
        assert any(pid != os.getpid() for pid in pids)

    def test_error_fn_raises_surfaces_once_from_the_caller(self, fresh_codec_pool):
        warm_pool()
        with pytest.raises(_WorkerShareError) as caught:
            chunk_map(_fail_on_odd, list(range(6)))
        error = caught.value
        assert type(error) is _WorkerShareError
        # Raised by the caller's re-run, not chained to a worker's copy.
        assert (error.__cause__, error.__context__) == (None, None)
        # The first failing item, as the in-process loop would raise it.
        assert error.args == (1,)
        pool = parallel._codec_pool
        assert (pool.mode, pool.degradations) == ("processes", 0)
        # The next map finds the pool consistent.
        assert chunk_map(_fail_on_odd, [0, 2, 4, 6]) == [0, 2, 4, 6]

    def test_worker_killed_mid_call_degrades_once_to_serial(self, fresh_codec_pool, monkeypatch):
        codec = BurrowsWheelerCodec(chunk_size=2048)
        data = _four_chunks()
        reference = bw_in_process(codec, data)
        pool = warm_pool()
        monkeypatch.setattr(bwhuff, "_encode_chunk", _die_in_worker)
        assert codec.compress(data) == reference
        assert (pool.mode, pool.degradations) == ("serial", 1)
        # Serial for the rest of the process: no worker, same bytes.
        assert codec.compress(data) == reference
        assert codec.decompress(reference) == data
        assert (pool.mode, pool.degradations, pool._processes) == ("serial", 1, [])
        assert parallel._codec_pool is pool

    def test_worker_dead_holding_the_claim_lock_does_not_hang(self, fresh_codec_pool):
        pool = warm_pool()
        items = list(range(4))
        results = []
        pool._lock.acquire()  # as a worker that dies inside its claim would
        try:
            mapper = threading.Thread(target=lambda: results.append(chunk_map(_uneven, items)))
            mapper.start()
            time.sleep(0.2)  # the task is sent; caller and worker wait on the lock
            pool._processes[0].kill()
            mapper.join(30)
            assert not mapper.is_alive()
        finally:
            pool._lock.release()
        assert results == [[(item * 3, os.getpid()) for item in items]]
        assert (pool.mode, pool.degradations) == ("serial", 1)

    def test_inside_a_pool_worker_runs_serially(self, fresh_codec_pool):
        data = _four_chunks()
        codec = BurrowsWheelerCodec(chunk_size=2048)
        reference = codec.compress(data)  # starts this process's codec pool
        assert parallel._codec_pool is not None
        results = chunk_map(_bw_in_worker, [data] * 3)
        assert [payload for payload, *_ in results] == [reference] * 3
        in_workers = [(children, no_pool) for _, children, no_pool, pid in results
                      if pid != os.getpid()]
        # No grandchild was forked, and the parent's pool did not follow the fork.
        assert in_workers and set(in_workers) == {(0, True)}

    def test_map_that_finds_the_pool_busy_runs_in_its_caller(self, fresh_codec_pool):
        pool = warm_pool()
        with pool._busy:
            results = chunk_map(_pid_after_caller_pause, list(range(3)))
        assert results == [(item, os.getpid()) for item in range(3)]
        assert (pool.mode, pool.degradations) == ("processes", 0)

    def test_two_threads_mapping_at_once(self, fresh_codec_pool):
        warm_pool()
        barrier = threading.Barrier(2)
        outputs = {}

        def mapper(offset):
            barrier.wait()
            outputs[offset] = chunk_map(_uneven, list(range(offset, offset + 12)))

        threads = [threading.Thread(target=mapper, args=(offset,)) for offset in (0, 100)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        for offset, results in outputs.items():
            assert [value for value, _ in results] == [
                item * 3 for item in range(offset, offset + 12)
            ]
        assert len(outputs) == 2

    def test_two_first_calls_start_one_executor(self, fresh_codec_pool, monkeypatch):
        starts = []
        start = parallel.DegradingPool._start

        def counting_start(pool):
            starts.append(pool.workers)
            start(pool)

        monkeypatch.setattr(parallel.DegradingPool, "_start", counting_start)
        codec = BurrowsWheelerCodec(chunk_size=2048)
        data = _four_chunks()
        barrier = threading.Barrier(2)
        payloads = []

        def first_call():
            barrier.wait()
            payloads.append(codec.compress(data))

        threads = [threading.Thread(target=first_call) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert starts == [(os.cpu_count() or 1) - 1]
        assert len(codec_pool()._processes) == starts[0]
        assert payloads == [bw_in_process(codec, data)] * 2

    def test_interpreter_exit_after_pool_use_is_silent(self):
        script = (
            "from repro.compression import parallel\n"
            "from repro.compression.bwhuff import BurrowsWheelerCodec\n"
            "data = bytes(range(256)) * 512\n"
            "codec = BurrowsWheelerCodec()\n"
            "assert codec.decompress(codec.compress(data)) == data\n"
            "assert parallel._codec_pool._processes\n"
        )
        package = os.path.dirname(os.path.dirname(parallel.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stderr) == (0, "")

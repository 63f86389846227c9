"""Unit tests for the one codec pool: chunk_map and submit / result."""

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading

import pytest

from repro.compression import bwhuff, parallel
from repro.compression.bwhuff import BurrowsWheelerCodec
from repro.compression.lz77 import Lz77Codec
from repro.compression.parallel import chunk_map, result, shutdown_codec_pool, submit
from tests.strategies import bw_in_process

needs_two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="one core: there is no codec pool"
)


@pytest.fixture
def fresh_codec_pool():
    """Each test starts (and leaves) the process with no codec pool."""
    shutdown_codec_pool()
    yield
    shutdown_codec_pool()


def _pid_of(_item):
    return os.getpid()


def _die_in_worker(chunk):
    """``_encode_chunk``, except that it kills any pool worker running it."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _ENCODE_CHUNK(chunk)


_ENCODE_CHUNK = bwhuff._encode_chunk


def _bw_in_worker(data):
    """Compress inside a codec-pool worker; report what the call forked."""
    payload = BurrowsWheelerCodec(chunk_size=2048).compress(data)
    return payload, len(multiprocessing.active_children()), parallel._codec_pool is None


class _WorkerShareError(ValueError):
    """Raised by :func:`_fail_on_odd` for the items a worker's share holds."""


def _fail_on_odd(item):
    if item % 2:
        raise _WorkerShareError(item)
    return item


def _four_chunks():
    rng = random.Random(32)
    return bytes(rng.choices(b"abcdefgh", k=4 * 2048))


@needs_two_cores
class TestCodecPool:
    def test_caller_takes_every_strideth_item_and_workers_the_rest(self, fresh_codec_pool):
        pids = chunk_map(_pid_of, list(range(7)))
        stride = os.cpu_count()  # the caller and cpu_count() - 1 workers
        assert pids[0::stride] == [os.getpid()] * len(pids[0::stride])
        worker_pids = [pid for index, pid in enumerate(pids) if index % stride]
        assert worker_pids and os.getpid() not in worker_pids
        assert chunk_map(_pid_of, [0]) == [os.getpid()]
        assert chunk_map(_pid_of, []) == []

    def test_share_that_does_not_pickle_reruns_in_the_caller(self, fresh_codec_pool):
        class LocalCodec(Lz77Codec):  # defined here, so it cannot be pickled
            pass

        chunks = [bytes([65 + i]) * 3000 + bytes(range(200)) for i in range(5)]
        compress = LocalCodec().compress
        assert chunk_map(compress, chunks) == [Lz77Codec().compress(c) for c in chunks]
        # Nothing broke: the pool keeps running its shares in the worker.
        pool = parallel._codec_pool
        assert (pool.mode, pool.degradations) == ("processes", 0)
        assert os.getpid() not in chunk_map(_pid_of, list(range(4)))[1::2]

    def test_error_fn_raises_surfaces_once_from_the_caller(self, fresh_codec_pool):
        # Odd items fall in the worker's share (stride 2 on two cores) or,
        # on a wider host, in some worker's.
        with pytest.raises(_WorkerShareError) as caught:
            chunk_map(_fail_on_odd, list(range(6)))
        error = caught.value
        assert type(error) is _WorkerShareError
        # Raised by the caller's re-run, not chained to the worker's copy.
        assert (error.__cause__, error.__context__) == (None, None)
        assert error.args == (1,)
        pool = parallel._codec_pool
        assert (pool.mode, pool.degradations) == ("processes", 0)

    def test_submit_result_reraise_an_error_fn_raises_once_unchained(self, fresh_codec_pool):
        calls = []

        def fail_on_odd(item):  # counts the caller's calls; a worker cannot
            calls.append(item)
            return _fail_on_odd(item)

        # On a worker: the re-run in result() raises, from the caller.
        future = submit(_fail_on_odd, 3)
        with pytest.raises(_WorkerShareError) as caught:
            result(future, fail_on_odd, 3)
        assert (caught.value.args, calls) == ((3,), [3])
        assert (caught.value.__cause__, caught.value.__context__) == (None, None)
        assert parallel._codec_pool.degradations == 0
        # On a serial pool: submit runs fn here and raises it, once.
        parallel._codec_pool._degrade()
        with pytest.raises(_WorkerShareError) as caught:
            submit(fail_on_odd, 5)
        assert (caught.value.args, calls) == ((5,), [3, 5])
        assert (caught.value.__cause__, caught.value.__context__) == (None, None)

    def test_worker_killed_mid_call_degrades_once_to_serial(self, fresh_codec_pool, monkeypatch):
        codec = BurrowsWheelerCodec(chunk_size=2048)
        data = _four_chunks()
        reference = bw_in_process(codec, data)
        monkeypatch.setattr(bwhuff, "_encode_chunk", _die_in_worker)
        assert codec.compress(data) == reference
        pool = parallel._codec_pool
        assert (pool.mode, pool.degradations) == ("serial", 1)
        # Serial for the rest of the process: no executor, same bytes.
        assert codec.compress(data) == reference
        assert codec.decompress(reference) == data
        assert (pool.mode, pool.degradations, pool._executor) == ("serial", 1, None)
        assert parallel._codec_pool is pool

    def test_inside_a_pool_worker_runs_serially(self, fresh_codec_pool):
        data = _four_chunks()
        codec = BurrowsWheelerCodec(chunk_size=2048)
        reference = codec.compress(data)  # starts this process's codec pool
        assert parallel._codec_pool is not None
        payload, children, no_pool = submit(_bw_in_worker, data).result(timeout=60)
        assert payload == reference
        assert children == 0  # no grandchild was forked
        assert no_pool  # the parent's pool did not follow the fork

    def test_two_first_calls_start_one_executor(self, fresh_codec_pool, monkeypatch):
        spawned = []
        spawn = parallel.ProcessPoolExecutor

        def counting_spawn(max_workers):
            spawned.append(max_workers)
            return spawn(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", counting_spawn)
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
        assert spawned == [(os.cpu_count() or 1) - 1]
        assert payloads == [bw_in_process(codec, data)] * 2

    def test_interpreter_exit_after_pool_use_is_silent(self):
        script = (
            "from repro.compression import parallel\n"
            "from repro.compression.bwhuff import BurrowsWheelerCodec\n"
            "data = bytes(range(256)) * 512\n"
            "codec = BurrowsWheelerCodec()\n"
            "assert codec.decompress(codec.compress(data)) == data\n"
            "assert parallel._codec_pool._executor is not None\n"
        )
        package = os.path.dirname(os.path.dirname(parallel.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stderr) == (0, "")

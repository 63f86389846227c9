"""Tests for the multi-core block layer (pipelined engine, schedule model).

The non-negotiable invariant under test: blocks compressed on the shared
codec pool are **identical** to serial execution for every registered
codec, whether the pool runs, is serial, or loses its workers mid-stream,
and they still emit in order.
"""

import os
import random
import struct
import time
import zlib
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.lz77 import Lz77Codec
from repro.compression.parallel import DegradingPool, chunk_map
from repro.compression.registry import (
    available_codecs,
    get_codec,
    register_codec,
    unregister_codec,
)
from repro.core.engine import BlockEngine, CodecExecutor, timed
from repro.core.workers import PipelinedBlockEngine, simulate_pipeline
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.obs.catalogue import (
    PIPELINE_BLOCKS_TOTAL,
    POOL_DEGRADED_TOTAL,
    POOL_TASKS_TOTAL,
    POOL_WORKERS,
)
from repro.obs.metrics import MetricsRegistry
from tests.strategies import examples, serial_pool


def family_block(method: str, base: bytes) -> bytes:
    """Shape ``base`` so ``method`` accepts it (lossy codecs eat float64)."""
    codec = get_codec(method)
    if codec.family == "lossy":
        count = max(8, len(base) // 8)
        return b"".join(
            struct.pack("<d", (b - 128) / 16.0) for b in base[:count]
        )
    return base


def kill_workers(pool: DegradingPool) -> None:
    """Fork ``pool``'s workers with one map, then kill every one of them."""
    assert chunk_map(len, [b"warm", b"up"]) == [4, 2]
    for process in pool._processes:
        process.kill()


def pooled_compress(method: str, block: bytes):
    """``(payload, seconds)`` of ``block`` as the engine maps it."""
    return chunk_map(partial(timed, get_codec(method).compress), [block, block])[0]


def _compress_with_pid(compress, block):
    """``(pid, payload)``; the caller pauses first, so a warm worker claims items."""
    if os.getpid() == PARENT_PID:
        time.sleep(0.02)
    return os.getpid(), compress(block)


PARENT_PID = os.getpid()


class TestWorkerPool:
    """The shared codec pool's workers, reached through chunk_map."""

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DegradingPool(0)

    def test_every_registered_codec_is_pool_deterministic(
        self, shared_pool, commercial_block
    ):
        """Worker bytes == in-process bytes for the whole registry."""
        pool = shared_pool(DegradingPool(2))
        assert chunk_map(len, [b"warm", b"up"]) == [4, 2]
        base = commercial_block[: 32 * 1024]
        for method in available_codecs():
            block = family_block(method, base)
            codec = get_codec(method)
            runs = chunk_map(partial(_compress_with_pid, codec.compress), [block] * 4)
            assert [payload for _, payload in runs] == [codec.compress(block)] * 4, method
            # A codec that failed to reach a worker re-runs in the caller:
            # some item must have come back from a worker.
            assert {pid for pid, _ in runs} != {os.getpid()}, method
        assert (pool.mode, pool.degradations) == ("processes", 0)

    def test_serial_mode_never_spawns(self, shared_pool):
        pool = shared_pool(serial_pool())
        data = b"serial inline path" * 50
        payload, _ = pooled_compress("huffman", data)
        assert pool._processes == []
        assert payload == get_codec("huffman").compress(data)

    def test_metrics_label_pool_mode_and_workers(self, shared_pool):
        registry = MetricsRegistry()
        shared_pool(DegradingPool(2))
        PipelinedBlockEngine(block_size=4096, registry=registry).run(
            b"count me" * 1000, method="huffman"
        )
        assert registry.family(POOL_TASKS_TOTAL).value(pool_mode="processes") == 2
        assert registry.family(POOL_WORKERS).value(pool_mode="processes") == 2
        shared_pool(serial_pool())
        PipelinedBlockEngine(block_size=4096, registry=registry).run(
            b"count me" * 100, method="huffman"
        )
        assert registry.family(POOL_TASKS_TOTAL).value(pool_mode="serial") == 1

    def test_broken_pool_degrades_to_serial(self, shared_pool):
        pool = shared_pool(DegradingPool(2))
        data = b"degrade me " * 400
        expected = get_codec("lzw").compress(data)
        kill_workers(pool)
        assert pooled_compress("lzw", data)[0] == expected
        assert (pool.mode, pool.degradations, pool._processes) == ("serial", 1, [])
        # Degradation is permanent and keeps answering correctly, inline.
        assert pool.map(len, [data, data]) is None
        assert pooled_compress("lzw", data)[0] == expected
        assert pool.degradations == 1


class TestPipelinedBlockEngine:
    def equivalent(self, data, method):
        serial = BlockEngine(
            CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE), block_size=4096
        ).run(data, method=method)
        pipelined = PipelinedBlockEngine(
            CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE),
            block_size=4096,
        ).run(data, method=method)
        assert [payload for payload, _ in pipelined] == [
            payload for payload, _ in serial
        ]
        assert [stats.index for _, stats in pipelined] == list(range(len(serial)))
        assert [
            (s.method, s.original_size, s.compressed_size, s.compression_seconds)
            for _, s in pipelined
        ] == [
            (s.method, s.original_size, s.compressed_size, s.compression_seconds)
            for _, s in serial
        ]

    def test_serial_pool_matches_block_engine(self, shared_pool, commercial_block):
        pool = shared_pool(serial_pool())
        self.equivalent(commercial_block, "burrows-wheeler")
        assert pool._processes == []

    def test_process_pool_matches_block_engine(self, shared_pool, commercial_block):
        pool = shared_pool(DegradingPool(2))
        self.equivalent(commercial_block, "burrows-wheeler")
        assert (pool.mode, pool.degradations) == ("processes", 0)
        assert len(pool._processes) == 2

    def test_method_none_bypasses_pool(self, shared_pool):
        registry = MetricsRegistry()
        pool = shared_pool(DegradingPool(1))
        engine = PipelinedBlockEngine(CodecExecutor(), block_size=4096, registry=registry)
        data = b"\x00" * 10000
        out = engine.run(data, method="none")
        assert b"".join(payload for payload, _ in out) == data
        # "none" never becomes a pool task, but still counts as a block.
        assert pool._processes == []
        assert registry.family(POOL_TASKS_TOTAL).value(pool_mode="processes") == 0
        assert registry.family(PIPELINE_BLOCKS_TOTAL).value(pool_mode="processes") == len(out)

    def test_killed_workers_mid_stream_stay_in_order(self, shared_pool, commercial_block):
        """A pool broken between submissions degrades without corruption."""
        data = commercial_block
        reference = BlockEngine(CodecExecutor(), block_size=4096).run(
            data, method="lzw"
        )
        registry = MetricsRegistry()
        pool = shared_pool(DegradingPool(2))
        engine = PipelinedBlockEngine(CodecExecutor(), block_size=4096, registry=registry)
        kill_workers(pool)
        out = engine.run(data, method="lzw")
        assert (pool.mode, pool.degradations) == ("serial", 1)
        assert registry.family(POOL_DEGRADED_TOTAL).value(pool_mode="processes") == 1
        assert [payload for payload, _ in out] == [payload for payload, _ in reference]
        assert [stats.index for _, stats in out] == list(range(len(reference)))

    def test_unpicklable_codec_runs_in_the_caller(self, shared_pool, commercial_block):
        class LocalLz(Lz77Codec):  # defined here, so it cannot be pickled
            pass

        pool = shared_pool(DegradingPool(2))
        register_codec("local-lz", LocalLz)
        try:
            out = PipelinedBlockEngine(CodecExecutor(), block_size=4096).run(
                commercial_block, method="local-lz"
            )
        finally:
            unregister_codec("local-lz")
        reference = BlockEngine(CodecExecutor(), block_size=4096).run(
            commercial_block, method="lempel-ziv"
        )
        assert [payload for payload, _ in out] == [payload for payload, _ in reference]
        # The pool ran nothing of it, and is not degraded for that.
        assert (pool.mode, pool.degradations) == ("processes", 0)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @examples(10)
    def test_random_blocks_identical_to_serial(self, seed):
        """On the shared pool as this host starts it."""
        rng = random.Random(seed)
        data = bytes(
            rng.choice(b"aaaabcde\x00\xff") for _ in range(rng.randrange(1, 20000))
        )
        method = rng.choice(["huffman", "lzw", "lempel-ziv", "burrows-wheeler"])
        serial = BlockEngine(CodecExecutor(), block_size=4096).run(data, method=method)
        pipelined = PipelinedBlockEngine(CodecExecutor(), block_size=4096).run(
            data, method=method
        )
        serial_wire = b"".join(payload for payload, _ in serial)
        pipelined_wire = b"".join(payload for payload, _ in pipelined)
        assert zlib.crc32(pipelined_wire) == zlib.crc32(serial_wire)
        assert pipelined_wire == serial_wire


class TestSimulatePipeline:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            simulate_pipeline([1.0], [1.0, 2.0], workers=1)
        with pytest.raises(ValueError):
            simulate_pipeline([1.0], [1.0], workers=0)
        with pytest.raises(ValueError):
            simulate_pipeline([1.0], [1.0], workers=1, queue_depth=0)

    def test_single_worker_single_block(self):
        schedule = simulate_pipeline([2.0], [1.0], workers=1)
        assert schedule.makespan == pytest.approx(3.0)
        assert schedule.serial_seconds == pytest.approx(3.0)
        assert schedule.speedup == pytest.approx(1.0)
        assert schedule.overlap_fraction == pytest.approx(0.0)

    def test_compress_send_overlap_with_one_worker(self):
        # comp 1s + send 1s per block: while block i sends, block i+1
        # compresses, so the steady state advances one block per second.
        schedule = simulate_pipeline([1.0] * 10, [1.0] * 10, workers=1)
        assert schedule.makespan == pytest.approx(11.0)
        assert schedule.speedup == pytest.approx(20.0 / 11.0)

    def test_workers_divide_compression_bound(self):
        schedule = simulate_pipeline([1.0] * 8, [0.25] * 8, workers=4, queue_depth=8)
        # 2 compression waves (1s each) + the last wave's 4 sends.
        assert schedule.makespan == pytest.approx(3.0)
        assert schedule.speedup == pytest.approx(10.0 / 3.0)

    def test_queue_depth_throttles(self):
        # With depth 1 a block cannot compress until its predecessor left
        # the wire: fully sequential regardless of workers.
        schedule = simulate_pipeline([1.0] * 4, [1.0] * 4, workers=4, queue_depth=1)
        assert schedule.makespan == pytest.approx(8.0)
        assert schedule.speedup == pytest.approx(1.0)

    def test_wire_is_the_floor(self):
        schedule = simulate_pipeline([0.1] * 6, [1.0] * 6, workers=4)
        assert schedule.makespan == pytest.approx(6.1)

    @given(
        comp=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=30),
        workers=st.integers(min_value=1, max_value=8),
        depth=st.integers(min_value=1, max_value=16),
    )
    @examples(60)
    def test_schedule_bounds(self, comp, workers, depth):
        send = [value / 3.0 for value in comp]
        schedule = simulate_pipeline(comp, send, workers=workers, queue_depth=depth)
        # Never faster than the wire or the worker-divided compression,
        # never slower than fully serial execution.
        floor = max(sum(send), sum(comp) / workers)
        assert schedule.makespan + 1e-9 >= floor
        assert schedule.makespan <= schedule.serial_seconds + 1e-9
        assert 0.0 <= schedule.overlap_fraction <= 1.0

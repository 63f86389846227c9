"""Tests for the multi-core worker layer (pool, pipelined engine, schedule).

The non-negotiable invariant under test: pooled execution produces wire
bytes **identical** to serial execution for every registered codec, in
every pool mode, and keeps producing them (in order) when workers die.
"""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine import BlockEngine, CodecExecutor
from repro.core.workers import (
    DEFAULT_QUEUE_DEPTH,
    PipelinedBlockEngine,
    WorkerPool,
    simulate_pipeline,
)
from repro.compression.registry import available_codecs, get_codec
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.obs.catalogue import (
    PIPELINE_BLOCKS_TOTAL,
    POOL_DEGRADED_TOTAL,
    POOL_TASKS_TOTAL,
)
from repro.obs.metrics import MetricsRegistry
from tests.strategies import examples


def family_block(method: str, base: bytes) -> bytes:
    """Shape ``base`` so ``method`` accepts it (lossy codecs eat float64)."""
    codec = get_codec(method)
    if codec.family == "lossy":
        import struct

        count = max(8, len(base) // 8)
        return b"".join(
            struct.pack("<d", (b - 128) / 16.0) for b in base[:count]
        )
    return base


@pytest.fixture(scope="module")
def process_pool():
    with WorkerPool(workers=2, mode="processes") as pool:
        yield pool


class TestWorkerPool:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(mode="fibers")

    def test_accepts_tracks_registry(self):
        pool = WorkerPool(workers=1, mode="serial")
        assert pool.accepts("burrows-wheeler")
        assert not pool.accepts("no-such-codec")

    def test_every_registered_codec_is_pool_deterministic(
        self, process_pool, commercial_block
    ):
        """Pooled bytes == in-process bytes for the whole registry."""
        base = commercial_block[: 32 * 1024]
        for method in available_codecs():
            block = family_block(method, base)
            expected = get_codec(method).compress(block)
            payload, seconds = process_pool.run(method, block)
            assert payload == expected, method
            assert seconds >= 0.0, method

    def test_serial_mode_never_spawns(self):
        pool = WorkerPool(workers=3, mode="serial")
        payload, _ = pool.run("huffman", b"serial inline path" * 50)
        assert pool._executor is None
        assert payload == get_codec("huffman").compress(b"serial inline path" * 50)

    def test_metrics_label_pool_mode_and_workers(self):
        registry = MetricsRegistry()
        pool = WorkerPool(workers=2, mode="serial", registry=registry)
        pool.run("huffman", b"count me" * 100)
        counter = registry.family(POOL_TASKS_TOTAL)
        assert counter.value(pool_mode="serial") == 1

    def test_broken_pool_degrades_to_serial(self):
        registry = MetricsRegistry()
        pool = WorkerPool(workers=2, mode="processes", registry=registry)
        data = b"degrade me " * 400
        expected = get_codec("lzw").compress(data)
        assert pool.run("lzw", data)[0] == expected  # spawn workers
        for process in list(pool._executor._processes.values()):
            process.kill()
        assert pool.run("lzw", data)[0] == expected
        assert pool.mode == "serial"
        assert pool.degradations == 1
        assert registry.family(POOL_DEGRADED_TOTAL).value(pool_mode="processes") == 1
        # Degradation is permanent and keeps answering correctly.
        assert pool.run("lzw", data)[0] == expected


class TestPipelinedBlockEngine:
    def equivalent(self, pool, data, method, queue_depth=DEFAULT_QUEUE_DEPTH):
        serial = BlockEngine(
            CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE), block_size=4096
        ).run(data, method=method)
        pipelined = PipelinedBlockEngine(
            CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE),
            block_size=4096,
            pool=pool,
            queue_depth=queue_depth,
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

    def test_serial_pool_matches_block_engine(self, commercial_block):
        pool = WorkerPool(workers=1, mode="serial")
        self.equivalent(pool, commercial_block, "burrows-wheeler")

    def test_process_pool_matches_block_engine(self, process_pool, commercial_block):
        self.equivalent(process_pool, commercial_block, "burrows-wheeler")

    def test_thread_pool_matches_block_engine(self, commercial_block):
        with WorkerPool(workers=2, mode="threads") as pool:
            self.equivalent(pool, commercial_block, "lempel-ziv")

    def test_queue_depth_one_still_in_order(self, process_pool, commercial_block):
        self.equivalent(process_pool, commercial_block, "huffman", queue_depth=1)

    def test_method_none_bypasses_pool(self):
        registry = MetricsRegistry()
        pool = WorkerPool(workers=1, mode="serial", registry=registry)
        engine = PipelinedBlockEngine(
            CodecExecutor(), block_size=4096, pool=pool, registry=registry
        )
        data = b"\x00" * 10000
        out = engine.run(data, method="none")
        assert b"".join(payload for payload, _ in out) == data
        # "none" never becomes a pool task, but still counts as a block.
        assert registry.family(POOL_TASKS_TOTAL).value(pool_mode="serial") == 0
        assert (
            registry.family(PIPELINE_BLOCKS_TOTAL).value(
                pool_mode="serial", queue_depth=str(DEFAULT_QUEUE_DEPTH)
            )
            == len(out)
        )

    def test_killed_workers_mid_stream_stay_in_order(self, commercial_block):
        """A pool broken between submissions degrades without corruption."""
        data = commercial_block
        reference = BlockEngine(CodecExecutor(), block_size=4096).run(
            data, method="lzw"
        )
        pool = WorkerPool(workers=2, mode="processes")
        engine = PipelinedBlockEngine(
            CodecExecutor(), block_size=4096, pool=pool, queue_depth=4
        )
        pool.run("lzw", b"warm up the workers" * 100)
        for process in list(pool._executor._processes.values()):
            process.kill()
        out = engine.run(data, method="lzw")
        pool.shutdown()
        assert pool.mode == "serial" and pool.degradations >= 1
        assert [payload for payload, _ in out] == [payload for payload, _ in reference]
        assert [stats.index for _, stats in out] == list(range(len(reference)))

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @examples(10)
    def test_random_blocks_identical_to_serial(self, seed):
        import random

        rng = random.Random(seed)
        data = bytes(
            rng.choice(b"aaaabcde\x00\xff") for _ in range(rng.randrange(1, 20000))
        )
        method = rng.choice(["huffman", "lzw", "lempel-ziv", "burrows-wheeler"])
        serial = BlockEngine(CodecExecutor(), block_size=4096).run(data, method=method)
        pool = WorkerPool(workers=2, mode="threads")
        try:
            pipelined = PipelinedBlockEngine(
                CodecExecutor(), block_size=4096, pool=pool
            ).run(data, method=method)
        finally:
            pool.shutdown()
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

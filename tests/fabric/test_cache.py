"""BlockCache: canonical keying, LRU/byte bounds, zero-copy sharing."""

import pytest

from repro.core.engine import CodecExecutor
from repro.fabric.cache import BlockCache
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE


class CountingExecutor(CodecExecutor):
    """Counts actual codec runs (the thing the cache exists to avoid)."""

    def __init__(self):
        super().__init__(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, expansion_fallback=True)
        self.runs = 0

    def compress(self, method, block, codec=None):
        self.runs += 1
        return super().compress(method, block, codec=codec)


PAYLOAD = (b"the quick brown fox jumps over the lazy dog, " * 40)[:1024]


def test_hit_replays_execution_without_codec_run():
    executor = CountingExecutor()
    cache = BlockCache()
    first, hit1 = cache.execute(executor, "huffman", PAYLOAD)
    second, hit2 = cache.execute(executor, "huffman", PAYLOAD)
    assert (hit1, hit2) == (False, True)
    assert executor.runs == 1
    assert second.payload == first.payload
    assert second.compression_seconds == first.compression_seconds
    assert second.method == first.method
    assert cache.hits == 1 and cache.misses == 1


def test_hit_shares_the_same_bytes_object():
    # Zero-copy: every hit serves the one immutable bytes object, so a
    # thousand subscribers fan out without a thousand copies.
    executor = CountingExecutor()
    cache = BlockCache()
    first, _ = cache.execute(executor, "huffman", PAYLOAD)
    second, _ = cache.execute(executor, "huffman", PAYLOAD)
    assert second.payload is first.payload


def test_param_spellings_share_one_entry():
    executor = CountingExecutor()
    cache = BlockCache()
    cache.execute(executor, "huffman", PAYLOAD, {"level": 6, "window": 32768})
    cache.execute(executor, "huffman", PAYLOAD, {"window": 32768, "level": 6})
    cache.execute(executor, "huffman", PAYLOAD, {"level": 6.0, "window": 32768.0})
    assert executor.runs == 1
    assert len(cache) == 1
    assert cache.hits == 2


def test_distinct_params_are_distinct_entries():
    executor = CountingExecutor()
    cache = BlockCache()
    cache.execute(executor, "huffman", PAYLOAD, {"level": 6})
    cache.execute(executor, "huffman", PAYLOAD, {"level": 9})
    cache.execute(executor, "huffman", PAYLOAD, None)
    assert executor.runs == 3
    assert len(cache) == 3


def test_method_none_is_never_cached():
    executor = CountingExecutor()
    cache = BlockCache()
    _, hit1 = cache.execute(executor, "none", PAYLOAD)
    _, hit2 = cache.execute(executor, "none", PAYLOAD)
    assert (hit1, hit2) == (False, False)
    assert len(cache) == 0


def test_entry_bound_evicts_strict_lru():
    executor = CountingExecutor()
    cache = BlockCache(max_entries=4)
    payloads = [bytes([i]) * 512 for i in range(8)]
    for payload in payloads:
        cache.execute(executor, "huffman", payload)
    assert len(cache) == 4
    assert cache.evictions == 4
    # The four oldest are gone (a re-execute runs the codec again), the
    # four newest are hits.
    runs_before = executor.runs
    for payload in payloads[4:]:
        _, hit = cache.execute(executor, "huffman", payload)
        assert hit
    assert executor.runs == runs_before
    _, hit = cache.execute(executor, "huffman", payloads[0])
    assert not hit


def test_recency_refresh_protects_hot_entries():
    executor = CountingExecutor()
    cache = BlockCache(max_entries=2)
    hot, warm, cold = (bytes([i]) * 512 for i in range(3))
    cache.execute(executor, "huffman", hot)
    cache.execute(executor, "huffman", warm)
    cache.execute(executor, "huffman", hot)  # refresh: warm is now LRU
    cache.execute(executor, "huffman", cold)  # evicts warm, not hot
    _, hit = cache.execute(executor, "huffman", hot)
    assert hit


def test_byte_budget_bound_holds_under_pressure():
    executor = CountingExecutor()
    cache = BlockCache(max_entries=1024, max_bytes=4096)
    for i in range(32):
        cache.execute(executor, "huffman", bytes([i]) * 2048)
    assert cache.bytes_held <= 4096
    assert cache.evictions > 0
    assert len(cache) >= 1


def test_oversized_block_served_uncached():
    executor = CountingExecutor()
    cache = BlockCache(max_entries=8, max_bytes=64)
    execution, hit = cache.execute(executor, "huffman", PAYLOAD)
    assert not hit
    assert execution.payload  # still served correctly
    assert len(cache) == 0  # but one giant block never flushed the cache
    assert cache.misses == 1


def test_stats_snapshot():
    executor = CountingExecutor()
    cache = BlockCache(max_entries=16)
    cache.execute(executor, "huffman", PAYLOAD)
    cache.execute(executor, "huffman", PAYLOAD)
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["entries"] == 1
    assert stats["hit_rate"] == pytest.approx(0.5)
    cache.clear()
    assert len(cache) == 0
    assert cache.bytes_held == 0


def test_bounds_must_be_positive():
    with pytest.raises(ValueError):
        BlockCache(max_entries=0)
    with pytest.raises(ValueError):
        BlockCache(max_bytes=0)


def test_hit_returns_the_stored_record_and_its_view():
    # The cache stores the executor's own record: a hit hands back that
    # very object, so every consumer also shares its one view.
    executor = CountingExecutor()
    cache = BlockCache()
    missed, _ = cache.execute(executor, "huffman", PAYLOAD)
    (stored,) = cache._entries.values()
    view = stored.view
    for _ in range(3):
        hit, was_hit = cache.execute(executor, "huffman", PAYLOAD)
        assert was_hit
        assert hit is stored is missed
        assert hit.view is view


def test_cached_block_view_is_one_shared_readonly_memoryview():
    # One view per cached block, created lazily and handed to every
    # consumer — fan-out of a cached block allocates nothing per
    # subscriber (the fanout bench asserts the same identity end to end).
    executor = CountingExecutor()
    cache = BlockCache()
    cache.execute(executor, "huffman", PAYLOAD)
    (block,) = cache._entries.values()
    first = block.view
    second = block.view
    assert first is second
    assert first.readonly
    assert first.obj is block.payload
    assert bytes(first) == block.payload

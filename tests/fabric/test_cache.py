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


class TestDigestMemo:
    """One CRC pass per ``bytes`` payload object, however many lookups."""

    @pytest.fixture()
    def digests(self, monkeypatch):
        """Every ``zlib.crc32`` call made while keying, by argument."""
        import zlib

        seen = []
        real = zlib.crc32

        def spy(data, *rest):
            seen.append(data)
            return real(data, *rest)

        monkeypatch.setattr(zlib, "crc32", spy)
        return seen

    def test_repeated_lookups_of_one_object_digest_it_once(self, digests):
        executor = CountingExecutor()
        cache = BlockCache()
        for method in ("huffman", "lempel-ziv", "huffman", "lempel-ziv"):
            cache.execute(executor, method, PAYLOAD)
        assert sum(1 for data in digests if data is PAYLOAD) == 1
        assert (cache.hits, cache.misses) == (2, 2)

    def test_equal_bytes_in_two_objects_hit_one_entry(self, digests):
        executor = CountingExecutor()
        cache = BlockCache()
        twin = bytes(bytearray(PAYLOAD))
        assert twin is not PAYLOAD
        first, _ = cache.execute(executor, "huffman", PAYLOAD)
        second, hit = cache.execute(executor, "huffman", twin)
        assert hit and second is first
        assert len(cache) == 1 and executor.runs == 1
        # Identity is only the shortcut; content is still the key.
        assert sum(1 for data in digests if data is PAYLOAD or data is twin) == 2

    def test_alternating_objects_are_digested_on_every_switch(self, digests):
        executor = CountingExecutor()
        cache = BlockCache()
        other = PAYLOAD[::-1]
        for payload in (PAYLOAD, other, PAYLOAD, other):
            cache.execute(executor, "huffman", payload)
        assert len(digests) == 4  # one remembered object, not a second cache
        assert (cache.hits, cache.misses) == (2, 2)

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))])
    def test_a_mutable_payload_is_never_served_a_stale_block(self, digests, wrap):
        executor = CountingExecutor()
        cache = BlockCache()
        payload = wrap(PAYLOAD)
        before, _ = cache.execute(executor, "huffman", payload)
        payload[:4] = b"ZZZZ"  # same object, other content
        after, hit = cache.execute(executor, "huffman", payload)
        assert not hit
        assert after.payload != before.payload
        assert executor.runs == 2 and len(cache) == 2
        assert sum(1 for data in digests if data is payload) == 2
        # ... and the mutated content is what a bytes twin now finds.
        _, hit = cache.execute(executor, "huffman", bytes(payload))
        assert hit

    def test_key_for_names_the_entry_execute_stored(self):
        executor = CountingExecutor()
        cache = BlockCache()
        params = {"window": 32768, "level": 6.0}
        cache.execute(executor, "huffman", PAYLOAD, params)
        cache.execute(executor, "huffman", PAYLOAD, params)  # memoized digest
        assert BlockCache.key_for(PAYLOAD, "huffman", {"level": 6, "window": 32768}) in cache
        assert BlockCache.key_for(PAYLOAD, "huffman") not in cache

    def test_only_exact_bytes_are_remembered_and_clear_forgets(self):
        class Payload(bytes):
            pass  # a subclass may override anything: digested every time

        cache = BlockCache()
        executor = CountingExecutor()
        cache.execute(executor, "huffman", PAYLOAD)
        assert cache._digest[0] is PAYLOAD
        cache.execute(executor, "huffman", Payload(PAYLOAD))
        assert cache._digest[0] is PAYLOAD  # exact bytes only
        cache.clear()
        assert cache._digest[0] is None


def test_labels_are_only_rendered_for_a_registry(monkeypatch):
    # params_label is a metrics concern; a cache without a registry (the
    # fan-out path) must not pay for it per lookup.
    import repro.fabric.cache as cache_module

    calls = []
    real = cache_module.params_label
    monkeypatch.setattr(
        cache_module, "params_label", lambda p: calls.append(p) or real(p)
    )
    executor = CountingExecutor()
    bare = BlockCache()
    bare.execute(executor, "huffman", PAYLOAD, {"level": 6})
    bare.execute(executor, "huffman", PAYLOAD, {"level": 6})
    assert calls == []

    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    observed = BlockCache(registry=registry)
    observed.execute(executor, "huffman", PAYLOAD, {"level": 6})
    observed.execute(executor, "huffman", PAYLOAD, {"level": 6.0})
    assert len(calls) == 2
    hits = registry.family(cache_module.CACHE_HITS_TOTAL)
    assert hits.value(method="huffman", params="level=6") == 1

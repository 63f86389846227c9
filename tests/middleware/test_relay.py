"""Unit tests for the consumer-offload compression relay."""

import random
import zlib

import pytest

from repro.compression.registry import get_codec
from repro.core.engine import CodecExecutor
from repro.data.commercial import CommercialDataGenerator
from repro.fabric.cache import BlockCache
from repro.middleware.attributes import ATTR_COMPRESSION_METHOD, ATTR_ORIGINAL_SIZE
from repro.middleware.chaos import ChaosWire, ReliableEventLink
from repro.middleware.events import Event
from repro.middleware.handlers import DecompressionHandler
from repro.middleware.relay import (
    ATTR_PLACEMENT,
    ATTR_RELAY_METHOD,
    ATTR_RELAY_PARAMS,
    CompressionRelay,
    chain_crc,
)
from repro.netsim.clock import VirtualClock
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.faults import FaultPlan, FaultRule, RetryPolicy
from repro.netsim.link import PAPER_LINKS, SimulatedLink
from repro.obs.metrics import MetricsRegistry
from repro.obs.catalogue import RELAY_BYTES_SAVED_TOTAL, RELAY_EVENTS_TOTAL


#: The relay's pricing in these tests, and the producer side it must match.
MODELED = CodecExecutor(DEFAULT_COSTS, SUN_FIRE, expansion_fallback=True)


def _blocks(count=6, size=4 * 1024, seed=2004):
    return list(CommercialDataGenerator(seed=seed).stream(size, count))


def _events(blocks, method=None):
    attributes = {ATTR_PLACEMENT: "consumer"}
    if method is not None:
        attributes[ATTR_RELAY_METHOD] = method
    return [
        Event(
            payload=block,
            attributes=dict(attributes),
            channel_id="relay-test",
            sequence=i + 1,
            timestamp=float(i),
        )
        for i, block in enumerate(blocks)
    ]


class TestChainCrc:
    def test_matches_iterated_crc32(self):
        payloads = [b"alpha", b"beta", b"gamma"]
        crc = 0
        for payload in payloads:
            crc = zlib.crc32(payload, crc) & 0xFFFFFFFF
        assert chain_crc(payloads) == crc

    def test_order_sensitive(self):
        assert chain_crc([b"a", b"b"]) != chain_crc([b"b", b"a"])

    def test_empty_chain_is_zero(self):
        assert chain_crc([]) == 0


class TestCompressionRelay:
    def test_bytes_identical_to_producer_compression(self):
        blocks = _blocks()
        relay = CompressionRelay(executor=MODELED)
        forwarded = [relay(event) for event in _events(blocks)]
        producer = [MODELED.compress("lempel-ziv", block).payload for block in blocks]
        assert [e.payload for e in forwarded] == producer
        assert relay.crc_chain == chain_crc(producer)
        assert relay.events_compressed == len(blocks)
        assert relay.bytes_out < relay.bytes_in

    def test_forwarded_events_are_decompressor_compatible(self):
        blocks = _blocks()
        relay = CompressionRelay(executor=MODELED)
        decompress = DecompressionHandler()
        restored = [decompress(relay(event)).payload for event in _events(blocks)]
        assert restored == blocks

    def test_annotations(self):
        relay = CompressionRelay(executor=MODELED)
        block = _blocks(count=1)[0]
        forwarded = relay(_events([block])[0])
        assert forwarded.attributes[ATTR_COMPRESSION_METHOD] == "lempel-ziv"
        assert forwarded.attributes[ATTR_ORIGINAL_SIZE] == len(block)
        assert forwarded.attributes[ATTR_PLACEMENT] == "consumer"

    def test_per_event_method_overrides_default(self):
        block = _blocks(count=1)[0]
        relay = CompressionRelay(executor=MODELED)
        forwarded = relay(_events([block], method="huffman")[0])
        assert forwarded.attributes[ATTR_COMPRESSION_METHOD] == "huffman"
        assert forwarded.payload == get_codec("huffman").compress(block)

    def test_already_compressed_passes_through_but_enters_chain(self):
        block = _blocks(count=1)[0]
        payload = get_codec("lempel-ziv").compress(block)
        event = Event(
            payload=payload,
            attributes={ATTR_COMPRESSION_METHOD: "lempel-ziv"},
            sequence=1,
        )
        relay = CompressionRelay(executor=MODELED)
        forwarded = relay(event)
        assert forwarded.payload == payload
        assert relay.events_compressed == 0
        assert relay.events_forwarded == 1
        assert relay.crc_chain == chain_crc([payload])

    def test_method_none_passes_through(self):
        block = _blocks(count=1)[0]
        relay = CompressionRelay(executor=MODELED)
        forwarded = relay(_events([block], method="none")[0])
        assert forwarded.payload == block
        assert relay.events_compressed == 0

    def test_expansion_guard_forwards_raw(self):
        rng = random.Random(7)
        noise = bytes(rng.getrandbits(8) for _ in range(4 * 1024))
        relay = CompressionRelay(executor=MODELED)
        forwarded = relay(_events([noise])[0])
        assert forwarded.payload == noise
        assert forwarded.attributes[ATTR_COMPRESSION_METHOD] == "none"

    def test_fanout_reaches_every_sink(self):
        blocks = _blocks(count=3)
        relay = CompressionRelay(executor=MODELED)
        first, second = [], []
        relay.subscribe(first.append)
        relay.subscribe(second.append)
        for event in _events(blocks):
            relay(event)
        assert len(first) == len(second) == 3
        assert [e.payload for e in first] == [e.payload for e in second]

    def test_shared_cache_compresses_once(self):
        block = _blocks(count=1)[0]
        cache = BlockCache()
        relay = CompressionRelay(executor=MODELED, cache=cache)
        events = _events([block, block, block])
        payloads = {relay(event).payload for event in events}
        assert len(payloads) == 1
        assert relay.cache_hits == 2

    def test_parameterised_bytes_do_not_depend_on_the_cache(self):
        """Same relay, event and params: a cache may only save time."""
        [block] = _blocks(count=1, size=64 * 1024)
        [event] = _events([block])
        event = event.with_attributes(**{ATTR_RELAY_PARAMS: {"max_chain": 4}})
        plain = CompressionRelay(executor=MODELED)
        cached = CompressionRelay(executor=MODELED, cache=BlockCache())
        expected = plain(event)
        assert cached(event).payload == expected.payload  # miss
        assert cached(event).payload == expected.payload  # hit
        assert cached.crc_chain == chain_crc([expected.payload] * 2)
        # ...and the parameters really took effect (not the registry default).
        assert expected.payload != get_codec("lempel-ziv").compress(block)

    def test_registry_metrics(self):
        registry = MetricsRegistry()
        relay = CompressionRelay(executor=MODELED, registry=registry)
        blocks = _blocks(count=2)
        for event in _events(blocks):
            relay(event)
        counter = registry.family(RELAY_EVENTS_TOTAL)
        assert counter.value(method="lempel-ziv", params="-") == 2
        saved = registry.family(RELAY_BYTES_SAVED_TOTAL)
        assert saved.value(method="lempel-ziv") == relay.bytes_in - relay.bytes_out

    def test_liveness_stamp_advances(self):
        relay = CompressionRelay(executor=MODELED)
        assert relay.last_forward_monotonic is None
        relay(_events(_blocks(count=1))[0])
        assert relay.last_forward_monotonic is not None


class TestRelayUnderFaults:
    """The CI placement gate's relay leg, at unit-test scale."""

    def _run(self, blocks, seed):
        plan = FaultPlan(
            [
                FaultRule(kind="drop", probability=0.2),
                FaultRule(kind="corrupt", probability=0.2),
                FaultRule(kind="duplicate", probability=0.1),
            ],
            seed=seed,
            name="relay-faults",
        )
        wire = ChaosWire(
            plan, link=SimulatedLink(PAPER_LINKS["100mbit"], seed=2),
            clock=VirtualClock(),
        )
        relay = CompressionRelay(executor=MODELED)
        reliable = ReliableEventLink(
            wire, relay, retry=RetryPolicy(seed=seed, max_attempts=8, base_delay=0.01)
        )
        for event in _events(blocks):
            reliable.send(event)
        missing = reliable.close()
        return relay, missing

    def test_byte_exact_through_seeded_faults(self):
        blocks = _blocks(count=8)
        relay, missing = self._run(blocks, seed=13)
        assert not missing
        expected = chain_crc(
            MODELED.compress("lempel-ziv", block).payload for block in blocks
        )
        assert relay.crc_chain == expected
        assert relay.events_forwarded == len(blocks)

    def test_deterministic_per_seed(self):
        blocks = _blocks(count=8)
        first, _ = self._run(blocks, seed=13)
        second, _ = self._run(blocks, seed=13)
        assert first.crc_chain == second.crc_chain
        assert first.bytes_out == second.bytes_out
        assert first.relay_seconds == pytest.approx(second.relay_seconds)

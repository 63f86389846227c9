"""Middleware x fabric wiring: handlers, channels, transport, TCP shutdown."""

import threading
import time

from repro.core.engine import CodecExecutor
from repro.fabric.broker import EventFabric
from repro.fabric.cache import BlockCache
from repro.middleware.channels import EventChannel
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler
from repro.middleware.relay import ATTR_PLACEMENT, CompressionRelay
from repro.middleware.tcp import ChannelServer, RemoteChannel
from repro.middleware.transport import TransportBridge, WireFormat
from repro.netsim.clock import VirtualClock
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.link import PAPER_LINKS, SimulatedLink

PAYLOAD = (b"shared block cache wiring " * 64)[:1024]


def modeled_executor():
    return CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, expansion_fallback=True)


class CountingExecutor(CodecExecutor):
    def __init__(self):
        super().__init__(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, expansion_fallback=True)
        self.runs = 0

    def compress(self, method, block, codec=None):
        self.runs += 1
        return super().compress(method, block, codec=codec)


class TestOneCompressionStage:
    def test_handler_relay_and_fabric_frame_identical_bytes(self):
        """Every compression site stamps events through one function."""
        method = "lempel-ziv"
        event = Event(
            payload=PAYLOAD,
            attributes={ATTR_PLACEMENT: "consumer"},
            channel_id="a",
            sequence=7,
            timestamp=3.0,
        )
        handled = CompressionHandler(method, executor=modeled_executor())(event)
        relayed = CompressionRelay(method=method, executor=modeled_executor())(event)
        frames = []
        fabric = EventFabric(executor=modeled_executor())
        fabric.subscribe(
            "a", lambda _event, wire: frames.append(bytes(wire)), method=method, wire=True
        )
        fabric.publish("a", event)
        fabric.close()
        expected = bytes(WireFormat.encode(handled))
        assert len(handled.payload) < len(PAYLOAD)
        assert bytes(WireFormat.encode(relayed)) == expected
        assert frames == [expected]


class TestHandlerCache:
    def test_handlers_share_one_codec_run_through_the_cache(self):
        executor = CountingExecutor()
        cache = BlockCache()
        first = CompressionHandler("huffman", executor=executor, cache=cache)
        second = CompressionHandler("huffman", executor=executor, cache=cache)
        event = Event(payload=PAYLOAD, channel_id="a", sequence=1, timestamp=0.0)
        out_first = first(event)
        out_second = second(event)
        assert executor.runs == 1
        assert second.cache_hits == 1
        assert out_second.payload == out_first.payload
        assert out_second.attributes == out_first.attributes

    def test_cached_output_identical_to_uncached(self):
        event = Event(payload=PAYLOAD, channel_id="a", sequence=1, timestamp=0.0)
        plain = CompressionHandler("lempel-ziv", executor=modeled_executor())(event)
        cached_handler = CompressionHandler(
            "lempel-ziv", executor=modeled_executor(), cache=BlockCache()
        )
        assert cached_handler(event).payload == plain.payload
        assert cached_handler(event).attributes == plain.attributes

    def test_params_separate_cache_configurations(self):
        executor = CountingExecutor()
        cache = BlockCache()
        a = CompressionHandler(
            "huffman", executor=executor, cache=cache, params={"level": 6}
        )
        b = CompressionHandler(
            "huffman", executor=executor, cache=cache, params={"level": 9}
        )
        c = CompressionHandler(
            "huffman", executor=executor, cache=cache, params={"level": 6.0}
        )
        event = Event(payload=PAYLOAD, channel_id="a", sequence=1, timestamp=0.0)
        a(event)
        b(event)
        c(event)  # canonically equal to a's params -> hit
        assert executor.runs == 2
        assert c.cache_hits == 1


class TestChannelBinding:
    def test_bound_channel_delivers_identically(self):
        direct = []
        routed = []
        unbound = EventChannel("feed/x")
        unbound.subscribe(direct.append)
        bound = EventChannel("feed/x")
        bound.subscribe(routed.append)
        bound.bind_fabric(EventFabric(shards=4))
        for i in range(4):
            event = Event(payload=bytes([i]) * 64)
            unbound.submit(event)
            bound.submit(event)
        assert [e.payload for e in routed] == [e.payload for e in direct]
        assert [e.sequence for e in routed] == [e.sequence for e in direct]

    def test_unbind_restores_direct_dispatch(self):
        channel = EventChannel("feed/x")
        got = []
        channel.subscribe(got.append)
        fabric = EventFabric(shards=2, mode="threads")
        channel.bind_fabric(fabric)
        channel.submit(Event(payload=b"a"))
        assert fabric.flush(timeout=5.0)
        fabric.close()
        channel.unbind_fabric()
        channel.submit(Event(payload=b"b"))  # would raise if still routed
        assert [e.payload for e in got] == [b"a", b"b"]


class TestTransportFabric:
    def test_bridge_defers_delivery_through_the_fabric(self):
        deferred = []

        class RecordingFabric(EventFabric):
            def defer(self, channel_id, thunk):
                deferred.append(channel_id)
                super().defer(channel_id, thunk)

        clock = VirtualClock()
        bridge = TransportBridge(
            SimulatedLink(PAPER_LINKS["100mbit"], seed=1),
            clock,
            fabric=RecordingFabric(shards=4),
        )
        local = EventChannel("feed/bridge")
        mirror = bridge.export(local)
        received = []
        mirror.subscribe(received.append)
        local.submit(Event(payload=PAYLOAD))
        assert deferred == ["feed/bridge"]
        assert len(received) == 1
        assert received[0].payload == PAYLOAD
        assert clock.now() > 0.0


class TestServerShutdown:
    def test_close_joins_accept_and_reader_threads(self):
        server = ChannelServer()
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        clients = [RemoteChannel(host, port, "feed") for _ in range(3)]
        try:
            channel.submit(Event(payload=b"warm"))
            for client in clients:
                assert client.wait_for(1)
            with server._lock:
                reader_threads = [t for t, _ in server._connections]
            assert len(reader_threads) == 3
            assert all(t.is_alive() for t in reader_threads)
            server.close()
            # Satellite contract: close() joins every per-connection
            # reader thread (with a timeout), the accept thread, and the
            # owned fabric's shard loops — nothing left running.
            assert not server._accept_thread.is_alive()
            for thread in reader_threads:
                assert not thread.is_alive()
            assert server._connections == []
            assert all(not t.is_alive() for t in server.fabric._threads)
        finally:
            for client in clients:
                client.close()

    def test_close_is_idempotent_and_detaches_channels(self):
        server = ChannelServer()
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        client = RemoteChannel(host, port, "feed")
        try:
            channel.submit(Event(payload=b"one"))
            assert client.wait_for(1)
            server.close()
            server.close()
            # The offer tap was cancelled: submitting after shutdown must
            # not route into the closed fabric (which would raise).
            channel.submit(Event(payload=b"two"))
        finally:
            client.close()

    def test_shared_fabric_not_closed_with_server(self):
        fabric = EventFabric(shards=2, mode="threads")
        server = ChannelServer(fabric=fabric)
        server.close()
        # A caller-owned fabric outlives the server.
        fabric.publish  # still usable:
        fabric.defer("feed", lambda: None)
        assert fabric.flush(timeout=5.0)
        fabric.close()

    def test_fabric_fanout_shares_frames_across_clients(self):
        registry_free_server = ChannelServer(shards=2)
        channel = EventChannel("feed")
        registry_free_server.offer(channel)
        host, port = registry_free_server.address
        clients = [RemoteChannel(host, port, "feed") for _ in range(4)]
        try:
            for i in range(6):
                channel.submit(Event(payload=bytes([i]) * 256, attributes={"i": i}))
            for client in clients:
                assert client.wait_for(6)
            # One fabric event per submit, four deliveries each.
            assert registry_free_server.fabric.events_published == 6
            assert registry_free_server.fabric.deliveries_total == 24
        finally:
            for client in clients:
                client.close()
            registry_free_server.close()

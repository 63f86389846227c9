"""Integration tests for the real TCP transport (loopback)."""

import socket
import time

import pytest

from repro.data.commercial import CommercialDataGenerator
from repro.middleware.channels import EventChannel
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler, DecompressionHandler
from repro.middleware.tcp import ChannelServer, RemoteChannel
from repro.netsim.faults import RetryPolicy
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def server():
    instance = ChannelServer()
    yield instance
    instance.close()


class TestTcpTransport:
    def test_events_cross_real_sockets(self, server):
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        remote = RemoteChannel(host, port, "feed")
        received = []
        remote.mirror.subscribe(received.append)
        try:
            for i in range(5):
                channel.submit(Event(payload=bytes([i]) * 100, attributes={"i": i}))
            assert remote.wait_for(5)
            assert [e.attributes["i"] for e in received] == list(range(5))
            assert all(e.channel_id == "feed" for e in received)
        finally:
            remote.close()

    def test_unknown_channel_refused(self, server):
        host, port = server.address
        with pytest.raises(ConnectionError):
            RemoteChannel(host, port, "nope")

    def test_multiple_subscribers(self, server):
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        first = RemoteChannel(host, port, "feed")
        second = RemoteChannel(host, port, "feed")
        try:
            channel.submit(Event(payload=b"broadcast"))
            assert first.wait_for(1)
            assert second.wait_for(1)
            assert server.connections_served == 2
        finally:
            first.close()
            second.close()

    def test_compressed_channel_over_tcp(self, server):
        """The §3 stack end to end over real sockets: producer-side
        compression handler, wire transfer, consumer-side decompression."""
        blocks = list(CommercialDataGenerator(seed=44).stream(16 * 1024, 4))
        source = EventChannel("ois")
        compressed = source.derive(CompressionHandler("lempel-ziv"), "ois/lz")
        server.offer(compressed)
        host, port = server.address
        remote = RemoteChannel(host, port, "ois/lz")
        decompress = DecompressionHandler()
        restored = []
        remote.mirror.subscribe(lambda e: restored.append(decompress(e).payload))
        try:
            for block in blocks:
                source.submit(Event(payload=block))
            assert remote.wait_for(4)
            assert restored == blocks
            # compression really happened on the wire
            assert remote.wire_bytes < sum(len(b) for b in blocks) * 0.7
        finally:
            remote.close()

    def test_transport_attributes_attached(self, server):
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        remote = RemoteChannel(host, port, "feed")
        received = []
        remote.mirror.subscribe(received.append)
        try:
            channel.submit(Event(payload=b"x" * 1000))
            assert remote.wait_for(1)
            event = received[0]
            assert event.attributes["transport.wire_size"] > 1000
            assert event.attributes["transport.seconds"] > 0
        finally:
            remote.close()

    def test_close_stops_delivery(self, server):
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        remote = RemoteChannel(host, port, "feed")
        remote.close()
        channel.submit(Event(payload=b"late"))
        assert remote.events_received == 0


    @pytest.mark.parametrize("mode", ["inline", "threads"])
    def test_connection_racing_fabric_shutdown_is_refused(self, mode):
        # A dial that lands after the fabric closed can never be served:
        # the client must see a refusal, not a connection thread that died
        # (which reads as a bare EOF).
        from repro.fabric.broker import EventFabric

        fabric = EventFabric(shards=2, mode=mode)
        server = ChannelServer(fabric=fabric)
        try:
            server.offer(EventChannel("feed"))
            fabric.close()
            host, port = server.address
            with pytest.raises(ConnectionError, match="server closing"):
                RemoteChannel(host, port, "feed")
            assert server.connections_served == 0
        finally:
            server.close()


class TestReconnect:
    def test_reconnect_and_resubscribe_after_connection_cut(self, server):
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        registry = MetricsRegistry()
        remote = RemoteChannel(
            host,
            port,
            "feed",
            reconnect=True,
            registry=registry,
            retry=RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05),
        )
        received = []
        remote.mirror.subscribe(received.append)
        try:
            channel.submit(Event(payload=b"before"))
            assert remote.wait_for(1)
            # Sever the connection underneath the reader — a network cut,
            # not a close(); the reader must re-dial and resubscribe.
            remote._socket.shutdown(socket.SHUT_RDWR)
            deadline = time.monotonic() + 5.0
            while remote.reconnects == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert remote.reconnects == 1
            channel.submit(Event(payload=b"after"))
            assert remote.wait_for(2)
            assert [e.payload for e in received] == [b"before", b"after"]
            assert (
                registry.counter("repro_tcp_reconnects_total").value(channel="feed")
                == 1
            )
        finally:
            remote.close()

    def test_reconnect_gives_up_when_server_gone(self):
        server = ChannelServer()
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        remote = RemoteChannel(
            host,
            port,
            "feed",
            reconnect=True,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        )
        dials = []
        connect = remote._connect

        def counting_connect():
            dials.append(None)
            return connect()

        remote._connect = counting_connect
        try:
            server.close()
            remote._socket.shutdown(socket.SHUT_RDWR)
            remote._reader.join(timeout=5.0)
            assert not remote._reader.is_alive()
            assert remote.reconnects == 0
            # The whole schedule, zero waits included, then nothing more.
            assert len(dials) == 3
        finally:
            remote.close()


class TestBatchedTransport:
    """Server-side jumbo batching is transparent to the client mirror."""

    def test_batched_events_arrive_intact_and_in_order(self):
        from repro.fabric.batching import BatchConfig

        server = ChannelServer(
            batch=BatchConfig(max_frames=4, max_bytes=1 << 20, linger_seconds=0.05)
        )
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        remote = RemoteChannel(host, port, "feed")
        received = []
        remote.mirror.subscribe(received.append)
        try:
            for i in range(8):
                channel.submit(Event(payload=bytes([i]) * 64, attributes={"i": i}))
            assert remote.wait_for(8)
            assert [e.attributes["i"] for e in received] == list(range(8))
            assert [e.payload for e in received] == [bytes([i]) * 64 for i in range(8)]
            # Coalescing happened: at least one jumbo super-frame crossed
            # the socket (8 rapid events against a 4-frame cap).
            assert remote.batches_received >= 1
            # Transport attributes survive the unpack.
            assert all(e.attributes["transport.wire_size"] > 0 for e in received)
            assert all(e.attributes["transport.seconds"] > 0 for e in received)
        finally:
            remote.close()
            server.close()

    def test_deadline_flush_delivers_a_lone_event(self):
        # One event under a large frame cap: only the linger deadline can
        # emit it, and a batch of one travels as the bare member frame.
        from repro.fabric.batching import BatchConfig

        server = ChannelServer(
            batch=BatchConfig(max_frames=64, max_bytes=1 << 20, linger_seconds=0.01)
        )
        channel = EventChannel("feed")
        server.offer(channel)
        host, port = server.address
        remote = RemoteChannel(host, port, "feed")
        try:
            channel.submit(Event(payload=b"lone"))
            assert remote.wait_for(1)
            assert remote.batches_received == 0  # bare frame, no envelope
        finally:
            remote.close()
            server.close()

"""Middleware x fabric wiring: one compression stage, TCP shutdown."""

import pytest

from repro.compression.base import canonical_params
from repro.compression.registry import get_codec
from repro.core.bicriteria import codec_for
from repro.core.engine import CodecExecutor
from repro.fabric.broker import EventFabric
from repro.middleware.channels import EventChannel
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler
from repro.middleware.relay import ATTR_PLACEMENT, ATTR_RELAY_PARAMS, CompressionRelay
from repro.middleware.tcp import ChannelServer, RemoteChannel
from repro.middleware.transport import WireFormat
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE


def modeled_executor():
    return CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, expansion_fallback=True)


class TestOneCompressionStage:
    @pytest.mark.parametrize("params", [None, {"window": 4096}], ids=["default", "window4096"])
    def test_handler_relay_and_fabric_frame_identical_bytes(self, params, commercial_block):
        """Every compression site stamps events through one function and
        resolves ``(method, params)`` to a codec through ``codec_for``."""
        method = "lempel-ziv"
        attributes = {ATTR_PLACEMENT: "consumer"}
        if params:
            attributes[ATTR_RELAY_PARAMS] = params
        event = Event(
            payload=commercial_block,
            attributes=attributes,
            channel_id="a",
            sequence=7,
            timestamp=3.0,
        )
        handled = CompressionHandler(method, executor=modeled_executor(), params=params)(event)
        relayed = CompressionRelay(method=method, executor=modeled_executor())(event)
        codec = codec_for(method, canonical_params(params))
        assert handled.payload == codec.compress(commercial_block)
        assert len(handled.payload) < len(commercial_block)
        expected = bytes(WireFormat.encode(handled))
        assert bytes(WireFormat.encode(relayed)) == expected
        if params:
            # The parameters reach the codec: not the default-window bytes.
            assert handled.payload != get_codec(method).compress(commercial_block)
        else:
            # The fabric's (method, params) delivery groups treat params as
            # labels, so only the default configuration frames these bytes.
            frames = []
            fabric = EventFabric(executor=modeled_executor())
            fabric.subscribe(
                "a", lambda _event, wire: frames.append(bytes(wire)), method=method, wire=True
            )
            fabric.publish("a", event)
            fabric.close()
            assert frames == [expected]


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
        registry_free_server = ChannelServer()
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

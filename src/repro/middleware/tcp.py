"""Real TCP transport for the middleware (deployment substrate).

The simulation bridges model the paper's testbed; this module is the
production counterpart: events cross real sockets, so two processes (or
machines) can run the §3 architecture for real.  The same wire format is
used, the same attributes travel, and the adaptive consumer measures
*actual* transfer times — on a real network the selector adapts to real
conditions with no code changes.

Design (kept deliberately simple and dependency-free):

* :class:`ChannelServer` — listens on a host/port; each client connection
  sends one subscription request frame naming a channel id; the server
  subscribes to that channel on the client's behalf and forwards every
  event as one :class:`~repro.middleware.transport.WireFormat` frame.
  Forwarding runs on a sharded
  :class:`~repro.fabric.broker.EventFabric` (threads mode): each offered
  channel is published into the fabric, every connection registers a
  socket sink on the shard that owns its channel, and all sinks of one
  channel share a single frame encode per event (zero-copy memoryview
  fan-out).  An idle shard delivers on the thread that submitted the
  event — one thread hop fewer, and a peer that stops reading holds that
  one producer in ``sendall`` (TCP back-pressure) while every other
  publisher to the shard queues and returns at once; a busy shard
  delivers from its loop.  The per-connection thread that remains only
  watches for client EOF — it no longer carries event traffic.
* :class:`RemoteChannel` — connects, subscribes, and replays incoming
  frames into a local mirror :class:`~repro.middleware.channels.EventChannel`
  from a reader thread, annotating each event with its measured transfer
  time and wire size (the same attributes the simulated bridges attach).

Everything on the socket is a :mod:`repro.compression.framing` frame:
the subscription handshake uses empty-header control frames, and events
travel as WireFormat frames (which *are* framing frames — no second
length prefix).  :class:`FrameReader` is the TCP-side incremental parser
and is nothing but the shared :class:`~repro.compression.framing.FrameDecoder`
fed from a socket, so frames produced by any other layer (e.g. a
:class:`~repro.compression.streaming.StreamingCompressor`) parse here too.

Transfer times are observed with ``time.monotonic`` — wall-clock network
measurement, deliberately distinct from the codec-timing site in
:mod:`repro.core.engine` (the one-timing-site invariant covers CPU cost
accounting, not network arrival stamps).

Delivery callbacks on the mirror run on the reader thread; consumers that
need main-thread delivery should hand off through their own queue.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..compression.base import CorruptStreamError
from ..compression.framing import (
    Frame,
    FrameDecoder,
    encode_frame_parts,
    unpack_jumbo_frame,
)
from ..netsim.faults import RetryPolicy
from ..obs.catalogue import (
    TCP_FRAMES_FORWARDED_TOTAL,
    TCP_FRAMES_RECEIVED_TOTAL,
    TCP_RECONNECTS_TOTAL,
    TCP_SUBSCRIPTIONS_TOTAL,
    TCP_WIRE_BYTES_RECEIVED_TOTAL,
    TCP_WIRE_BYTES_TOTAL,
)
from ..obs.metrics import MetricsRegistry
from .attributes import ATTR_COMPRESSION_METHOD
from .channels import EventChannel, Subscription
from .events import Event
from .transport import ATTR_TRANSPORT_SECONDS, ATTR_WIRE_SIZE, WireFormat

__all__ = ["ChannelServer", "FrameReader", "RemoteChannel"]

_MAX_FRAME = 64 * 1024 * 1024
_RECV_CHUNK = 65536


def _sendall_gathered(sock: socket.socket, parts) -> None:
    """Write a gather list to ``sock`` without concatenating it first.

    ``sendmsg`` takes the buffers as one vectored write; a short write
    (small socket buffers) resumes from the exact byte reached, slicing
    only the straddled part.  Platforms without ``sendmsg`` fall back to
    per-part ``sendall``.
    """
    buffers = [memoryview(part) for part in parts if len(part)]
    if not hasattr(sock, "sendmsg"):
        for part in buffers:
            sock.sendall(part)
        return
    while buffers:
        sent = sock.sendmsg(buffers)
        while sent > 0:
            if sent >= len(buffers[0]):
                sent -= len(buffers[0])
                buffers.pop(0)
            else:
                buffers[0] = buffers[0][sent:]
                sent = 0


def _send_frame(sock: socket.socket, payload: bytes, header: bytes = b"") -> None:
    _sendall_gathered(sock, encode_frame_parts(header, payload))


class FrameReader:
    """Incremental frame parser over a socket (the TCP-path parser).

    A thin pump around the shared
    :class:`~repro.compression.framing.FrameDecoder`: ``recv`` chunks are
    fed in, complete frames come out.  Corrupt framing surfaces as
    :class:`ConnectionError` so socket loops treat it like any other
    dead-peer condition.
    """

    def __init__(self, sock: socket.socket, max_frame_size: int = _MAX_FRAME) -> None:
        self._sock = sock
        self._decoder = FrameDecoder(max_frame_size=max_frame_size)
        self._ready: Deque[Frame] = deque()

    def next_frame(self) -> Optional[Frame]:
        """Block for the next frame; ``None`` on clean EOF."""
        while not self._ready:
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                return None
            try:
                self._ready.extend(self._decoder.feed(chunk))
            except CorruptStreamError as exc:
                raise ConnectionError(f"corrupt frame from peer: {exc}") from exc
        return self._ready.popleft()


class ChannelServer:
    """Serves a set of channels to remote subscribers over TCP.

    With a :class:`~repro.obs.metrics.MetricsRegistry` attached, every
    forwarded event lands in channel-labeled counters
    (``repro_tcp_frames_forwarded_total``, ``repro_tcp_wire_bytes_total``)
    alongside a subscription counter — the server-side half of the
    §3 "transport performance information" the IQ layer propagates.

    Forwarding is fabric-routed: offered channels publish into a
    threads-mode :class:`~repro.fabric.broker.EventFabric` (owned by the
    server unless one is passed in), connections register socket sinks
    on the owning shard, and every sink of one channel shares a single
    wire frame per event.  Per-channel delivery order is the shard's
    FIFO order, whichever thread runs it — the submitter's own when the
    shard is idle, the shard loop's otherwise, one at a time under the
    shard's run lock — identical to the old one-thread-per-connection
    path, but with N shards instead of one thread per subscriber.
    ``submit`` on an offered channel may therefore block in a socket
    write for the one delivery it triggered; nothing bounds the shard
    queues behind it (ROADMAP item 6(d)).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        fabric: Optional["object"] = None,
        shards: int = 4,
        batch: Optional["object"] = None,
    ) -> None:
        self.registry = registry
        #: Optional :class:`~repro.fabric.batching.BatchConfig`: when set,
        #: each connection's frames coalesce into jumbo super-frames
        #: (fewer syscalls per event at fan-out scale); clients unpack
        #: them transparently in :class:`RemoteChannel`.
        self.batch = batch
        if fabric is None:
            # Imported here, not at module scope: the middleware package
            # must stay importable independent of the fabric package.
            from ..fabric.broker import EventFabric

            fabric = EventFabric(shards=shards, mode="threads", registry=registry)
            self._owns_fabric = True
        else:
            self._owns_fabric = False
        self.fabric = fabric
        self._channels: Dict[str, EventChannel] = {}
        self._taps: Dict[str, Subscription] = {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self._running = True
        self._connections: List[Tuple[threading.Thread, socket.socket]] = []
        self._lock = threading.Lock()
        self.connections_served = 0
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) clients should connect to."""
        return self._listener.getsockname()

    def offer(self, channel: EventChannel) -> None:
        """Make ``channel`` subscribable by remote clients.

        The channel is tapped once: every delivered event is republished
        into the fabric, which fans it out to however many remote
        subscribers the channel has.  Offering twice is idempotent.
        """
        with self._lock:
            if channel.channel_id in self._channels:
                return
            self._channels[channel.channel_id] = channel
        tap = channel.subscribe(
            lambda event, _id=channel.channel_id: self.fabric.publish(_id, event)
        )
        with self._lock:
            self._taps[channel.channel_id] = tap

    def _accept_loop(self) -> None:
        while self._running:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            if not self._running:
                # close() raced with a blocked accept(2): the kernel kept
                # the listening socket alive for the in-flight syscall, so
                # a dial can still land here — refuse it.
                connection.close()
                return
            thread = threading.Thread(
                target=self._serve_client, args=(connection,), daemon=True
            )
            thread.start()
            with self._lock:
                # Prune finished connections so a long-lived server's
                # bookkeeping stays bounded by *live* connections.
                self._connections = [
                    (t, s) for t, s in self._connections if t.is_alive()
                ]
                self._connections.append((thread, connection))

    def _serve_client(self, connection: socket.socket) -> None:
        subscription = None
        send_lock = threading.Lock()
        try:
            request = FrameReader(connection).next_frame()
            if request is None:
                return
            channel_id = str(request.payload, "utf-8")
            with self._lock:
                channel = self._channels.get(channel_id)
            if channel is None:
                _send_frame(connection, b"ERR unknown channel")
                return

            def sink(event, wire) -> None:
                # The fabric hands every sink of this channel the same
                # shared memoryview — one encode per event, not per
                # subscriber.  sendall never mutates, so no copy.  With
                # batching on, ``wire`` is a jumbo super-frame and
                # ``event`` may be None (deadline flush) — never used.
                try:
                    with send_lock:
                        connection.sendall(wire)
                except OSError:
                    if subscription is not None:
                        subscription.cancel()
                    return
                if self.registry is not None:
                    self.registry.family(TCP_FRAMES_FORWARDED_TOTAL).inc(channel=channel_id)
                    self.registry.family(TCP_WIRE_BYTES_TOTAL).inc(
                        len(wire), channel=channel_id
                    )

            # Subscribe BEFORE acking: the moment the client sees OK it may
            # submit events, and an ack-then-subscribe window would drop them.
            try:
                subscription = self.fabric.subscribe(
                    channel_id, sink, wire=True, batch=self.batch
                )
            except RuntimeError:
                # The fabric closed under this connection (shutdown race):
                # nothing can ever be delivered, so refuse.
                _send_frame(connection, b"ERR server closing")
                return
            _send_frame(connection, b"OK")
            self.connections_served += 1
            if self.registry is not None:
                self.registry.family(TCP_SUBSCRIPTIONS_TOTAL).inc(channel=channel_id)
            # Block until the client goes away (any inbound data/EOF ends it).
            while self._running:
                if connection.recv(1) == b"":
                    break
        except (OSError, ConnectionError):
            pass
        finally:
            if subscription is not None:
                subscription.cancel()
            try:
                connection.close()
            except OSError:
                pass

    def close(self, timeout: float = 2.0) -> None:
        """Stop accepting, disconnect clients, and join every thread.

        Shutdown is complete, not best-effort: the listener is woken and
        closed, every live client socket is shut down (which unblocks its
        reader thread's ``recv``), and the accept thread plus all
        per-connection reader threads are joined under ``timeout`` — no
        orphaned daemon threads left spinning against closed sockets.
        The owned fabric (if any) is drained and stopped last.
        """
        self._running = False
        try:
            # Wake a blocked accept(2) *before* closing: close() alone
            # leaves the kernel socket accepting while the syscall holds
            # its reference.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=timeout)
        with self._lock:
            connections = list(self._connections)
            self._connections = []
            taps = list(self._taps.values())
            self._taps = {}
        for tap in taps:
            tap.cancel()
        for _, sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for thread, _ in connections:
            thread.join(timeout=timeout)
        if self._owns_fabric:
            self.fabric.close(timeout=timeout)


class RemoteChannel:
    """Client-side mirror of a channel served by :class:`ChannelServer`.

    With ``reconnect=True`` a dropped connection is not fatal: the reader
    thread re-dials the server under ``retry`` (capped exponential
    backoff with deterministic jitter) and **resubscribes** — the
    subscription handshake is part of every connection attempt, so a
    recovered client keeps receiving events with no caller involvement.
    Events published while disconnected are not replayed (channels have
    no history); recovery restores the *subscription*, and reconnect
    counts are observable via ``reconnects`` and the
    ``repro_tcp_reconnects_total`` counter.
    """

    def __init__(
        self,
        host: str,
        port: int,
        channel_id: str,
        timeout: float = 5.0,
        registry: Optional[MetricsRegistry] = None,
        reconnect: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.registry = registry
        self._channel_id = channel_id
        self._host = host
        self._port = port
        self._timeout = timeout
        self._reconnect = reconnect
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=5, base_delay=0.05, max_delay=0.5
        )
        self.reconnects = 0
        self._socket, self._frames = self._connect()
        self.mirror = EventChannel(f"{channel_id}@tcp")
        self.events_received = 0
        self.batches_received = 0
        self.wire_bytes = 0
        self._closed = threading.Event()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _connect(self) -> Tuple[socket.socket, FrameReader]:
        """Dial and subscribe (the handshake IS the resubscription)."""
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        sock.settimeout(self._timeout)
        frames = FrameReader(sock)
        _send_frame(sock, self._channel_id.encode())
        response = frames.next_frame()
        if response is None or response.payload != b"OK":
            sock.close()
            refusal = None if response is None else response.payload_bytes
            raise ConnectionError(
                f"subscription to {self._channel_id!r} refused: {refusal!r}"
            )
        return sock, frames

    def _try_reconnect(self) -> bool:
        """Re-dial + resubscribe under the retry policy (reader thread)."""
        for attempt, wait in self.retry.attempts():
            if attempt > 1:
                # Real wall-clock wait: this is the deployment transport,
                # deliberately outside the virtual-clock discipline (like
                # the time.monotonic arrival stamps below).
                time.sleep(wait)
            if self._closed.is_set():
                return False
            try:
                self._socket, self._frames = self._connect()
            except (OSError, ConnectionError):
                continue
            self.reconnects += 1
            if self.registry is not None:
                self.registry.family(TCP_RECONNECTS_TOTAL).inc(channel=self._channel_id)
            return True
        return False

    def _read_loop(self) -> None:
        previous = time.monotonic()
        while not self._closed.is_set():
            try:
                frame = self._frames.next_frame()
            except (OSError, ConnectionError):
                frame = None
            if frame is None:
                if (
                    self._closed.is_set()
                    or not self._reconnect
                    or not self._try_reconnect()
                ):
                    break
                previous = time.monotonic()
                continue
            now = time.monotonic()
            try:
                # A jumbo super-frame carries many events per socket
                # frame (server-side batching); unpack is zero-copy and
                # transparent — plain frames pass through as themselves.
                members = unpack_jumbo_frame(frame)
            except CorruptStreamError:
                break  # corrupt peer; drop the connection
            if members is not None:
                self.batches_received += 1
            inner_frames = [frame] if members is None else members
            # The measured interval covers the whole socket frame; each
            # member gets an equal share so per-event transport seconds
            # stay additive across a batch.
            seconds_share = max((now - previous) / len(inner_frames), 1e-9)
            try:
                events = [
                    WireFormat.from_frame(
                        inner,
                        **{
                            ATTR_TRANSPORT_SECONDS: seconds_share,
                            ATTR_WIRE_SIZE: inner.wire_size,
                        },
                    )
                    for inner in inner_frames
                ]
            except (ValueError, KeyError):
                break  # corrupt peer; drop the connection
            previous = now
            self.wire_bytes += frame.wire_size
            if self.registry is not None:
                for event in events:
                    method = str(event.attributes.get(ATTR_COMPRESSION_METHOD, "none"))
                    self.registry.family(TCP_FRAMES_RECEIVED_TOTAL).inc(
                        channel=self._channel_id, method=method
                    )
                self.registry.family(TCP_WIRE_BYTES_RECEIVED_TOTAL).inc(
                    frame.wire_size, channel=self._channel_id
                )
            for event in events:
                self.mirror.submit_stamped(event)
                # Count only after local delivery completed, so wait_for(n)
                # implies the n-th subscriber callback has already run.
                self.events_received += 1
        self._closed.set()

    def wait_for(self, count: int, timeout: float = 10.0) -> bool:
        """Block until ``count`` events arrived (or timeout); for tests."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.events_received >= count:
                return True
            if self._closed.is_set() and self.events_received < count:
                return False
            time.sleep(0.005)
        return self.events_received >= count

    def close(self) -> None:
        """Disconnect; the reader thread exits."""
        self._closed.set()
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:
            pass
        self._reader.join(timeout=2.0)

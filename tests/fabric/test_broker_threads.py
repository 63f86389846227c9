"""Threads-mode dispatch: an idle shard delivers on the publisher's thread.

What the run lock guarantees, from real threads: per-publisher order on
every channel whichever thread delivers, a blocked sink holding only the
publisher that entered it, ``flush``/``close`` waiting for deliveries in
progress on other threads, and publishes from inside a sink queueing
behind the delivery that made them.  Every test runs under
``race_shake`` (see ``tests/conftest.py`` and ``docs/testing.md``).
"""

import threading

import pytest

from repro.fabric.batching import BatchConfig
from repro.fabric.broker import EventFabric
from repro.middleware.events import Event
from repro.middleware.transport import WireFormat
from repro.obs.catalogue import FABRIC_INLINE_DISPATCH_TOTAL, FABRIC_SHARD_QUEUE_DEPTH
from repro.obs.metrics import MetricsRegistry
from tests.fabric.test_broker import unpack

pytestmark = pytest.mark.race_shake

WAIT = 10.0  # every join and wait in this file; nothing should come near it


def make_event(sequence, channel_id="feed/0", **attributes):
    return Event(
        payload=b"idle shards deliver on the publisher's thread",
        attributes=attributes,
        channel_id=channel_id,
        sequence=sequence,
    )


def started(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def joined(*threads):
    for thread in threads:
        thread.join(WAIT)
        assert not thread.is_alive()


class Gate:
    """A sink that parks its first delivery until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.got = []
        self.threads = []

    def __call__(self, event, wire):
        first = not self.entered.is_set()
        self.entered.set()
        if first:
            assert self.release.wait(WAIT)
        self.got.append(event.sequence)
        self.threads.append(threading.get_ident())


def test_every_publisher_keeps_its_order_on_every_channel_from_either_thread():
    publishers, per_publisher = 4, 300
    channels = ["feed/0", "feed/1", "feed/4"]
    fabric = EventFabric(shards=2, mode="threads")
    assert len({fabric.shard_of(channel) for channel in channels}) == 2
    seen = {channel: [] for channel in channels}
    batches = []

    def sink_for(channel):
        def sink(event, wire):
            seen[channel].append(
                (event.attributes["publisher"], event.sequence, threading.get_ident())
            )
        return sink

    for channel in channels:
        fabric.subscribe(channel, sink_for(channel))
    # A batcher is not thread-safe: only the run lock keeps its frames whole.
    fabric.subscribe(
        "feed/0", lambda event, wire: batches.append(bytes(wire)), wire=True,
        batch=BatchConfig(max_frames=7, linger_seconds=3600.0),
    )
    barrier = threading.Barrier(publishers)

    def publish_all(publisher):
        barrier.wait(WAIT)
        for sequence in range(per_publisher):
            for channel in channels:
                fabric.publish(channel, make_event(sequence, channel, publisher=publisher))

    try:
        threads = [started(publish_all, publisher) for publisher in range(publishers)]
        joined(*threads)
        assert fabric.flush(timeout=WAIT)
    finally:
        fabric.close()
    publisher_threads = {thread.ident for thread in threads}
    expected = list(range(per_publisher))
    for channel in channels:
        for publisher in range(publishers):
            assert [s for p, s, _ in seen[channel] if p == publisher] == expected
    batched = [WireFormat.decode(member) for wire in batches for member in unpack(wire)]
    for publisher in range(publishers):
        assert [
            e.sequence for e in batched if e.attributes["publisher"] == publisher
        ] == expected
    assert fabric.subscriber_errors == 0
    assert fabric.events_published == publishers * per_publisher * len(channels)
    delivering = {ident for events in seen.values() for _, _, ident in events}
    assert delivering & publisher_threads  # an idle shard: the publisher's thread
    assert delivering - publisher_threads  # a busy one: the shard's loop
    assert fabric.inline_dispatches > 0


def test_a_blocked_sink_holds_only_the_publisher_that_entered_it():
    fabric = EventFabric(shards=2, mode="threads")
    assert fabric.shard_of("feed/0") != fabric.shard_of("feed/4")
    gate = Gate()
    elsewhere = []
    fabric.subscribe("feed/0", gate)
    fabric.subscribe("feed/4", lambda event, wire: elsewhere.append(event.sequence))
    try:
        holder = started(fabric.publish, "feed/0", make_event(1))
        assert gate.entered.wait(WAIT)
        # A second publisher to the held shard queues and returns at once ...
        joined(started(fabric.publish, "feed/0", make_event(2)))
        # ... and another shard is not held at all.
        fabric.publish("feed/4", make_event(1, "feed/4"))
        assert elsewhere == [1]
        assert gate.got == []
        assert holder.is_alive()
        gate.release.set()
        joined(holder)
        assert fabric.flush(timeout=WAIT)
    finally:
        gate.release.set()
        fabric.close()
    assert gate.got == [1, 2]
    assert gate.threads[0] == holder.ident
    assert gate.threads[1] not in (holder.ident, threading.get_ident())  # the shard loop
    assert fabric.inline_dispatches == 2 and fabric.subscriber_errors == 0


@pytest.mark.parametrize("wait_for", ["flush", "close"])
def test_flush_and_close_wait_for_a_delivery_on_another_publishers_thread(wait_for):
    fabric = EventFabric(shards=2, mode="threads")
    gate = Gate()
    order = []
    fabric.subscribe("feed/0", gate)
    fabric.subscribe("feed/0", lambda event, wire: order.append("sink finished"))

    def wait():
        order.append(getattr(fabric, wait_for)(timeout=WAIT))

    try:
        holder = started(fabric.publish, "feed/0", make_event(1))
        assert gate.entered.wait(WAIT)
        # Nothing is queued, yet the fabric is not idle.
        assert fabric.flush(timeout=0.05) is False
        waiter = started(wait)
        waiter.join(0.1)
        assert waiter.is_alive() and order == []
        gate.release.set()
        joined(holder, waiter)
    finally:
        gate.release.set()
        fabric.close()
    assert order == ["sink finished", True if wait_for == "flush" else None]


def test_a_sink_publishing_to_its_own_channel_queues_behind_the_current_event():
    fabric = EventFabric(shards=2, mode="threads")
    log = []
    done = threading.Event()
    last = 6

    def republishing(event, wire):
        log.append(("first", event.sequence))
        if event.sequence < last:
            fabric.publish("feed/0", make_event(event.sequence + 1))

    def peer(event, wire):
        log.append(("second", event.sequence))
        if event.sequence == last:
            done.set()

    fabric.subscribe("feed/0", republishing)
    fabric.subscribe("feed/0", peer)
    try:
        fabric.publish("feed/0", make_event(1))  # returns: the nested publish queued
        assert done.wait(WAIT)
        assert fabric.flush(timeout=WAIT)
    finally:
        fabric.close()
    # Inline mode would recurse (first 1, first 2, ..., second 2, second 1).
    assert log == [(who, n) for n in range(1, last + 1) for who in ("first", "second")]
    assert fabric.subscriber_errors == 0


def test_sinks_on_two_shards_publishing_to_each_other_do_not_deadlock():
    fabric = EventFabric(shards=2, mode="threads")
    other = {"feed/0": "feed/4", "feed/4": "feed/0"}
    assert fabric.shard_of("feed/0") != fabric.shard_of("feed/4")
    hops = 200
    seen = {channel: [] for channel in other}
    finished = threading.Semaphore(0)

    def bounce_from(channel):
        def sink(event, wire):
            seen[channel].append((event.attributes["chain"], event.sequence))
            if event.sequence < hops:
                fabric.publish(
                    other[channel],
                    make_event(event.sequence + 1, other[channel], **event.attributes),
                )
            else:
                finished.release()
        return sink

    for channel in other:
        fabric.subscribe(channel, bounce_from(channel))
    try:
        joined(*[
            started(fabric.publish, channel, make_event(0, channel, chain=channel))
            for channel in other
        ])
        for _ in other:
            assert finished.acquire(timeout=WAIT)
        assert fabric.flush(timeout=WAIT)
    finally:
        fabric.close()
    for channel in other:  # each chain visits each channel on alternate hops, in order
        for chain in other:
            parity = 0 if chain == channel else 1
            assert [n for c, n in seen[channel] if c == chain] == list(
                range(parity, hops + 1, 2)
            )
    assert fabric.subscriber_errors == 0


def test_a_raising_sink_on_the_publishers_thread_is_counted_not_raised():
    fabric = EventFabric(shards=1, mode="threads")
    delivered = []

    def bad(*delivery):
        raise RuntimeError("exploded")

    fabric.subscribe("feed/0", bad)
    fabric.subscribe("feed/0", lambda event, wire: delivered.append(event.sequence))
    try:
        fabric.publish("feed/0", make_event(1))  # the shard is idle: runs here
        fabric.defer("feed/0", bad)  # a thunk that raises, likewise
        assert fabric.flush(timeout=WAIT)
    finally:
        fabric.close()
    assert delivered == [1]
    assert fabric.inline_dispatches == 2 and fabric.subscriber_errors == 2


def test_a_publisher_cannot_overtake_its_own_queued_event():
    """The shard's count falls only after the queued item has run.  The
    depth gauge is written where the count changes, so parking that write
    parks the shard loop exactly there, with the run lock free."""
    registry = MetricsRegistry()
    fabric = EventFabric(shards=1, registry=registry, mode="threads")
    gate = Gate()
    fabric.subscribe("feed/0", gate)
    depth = registry.family(FABRIC_SHARD_QUEUE_DEPTH)
    drained, resume = threading.Event(), threading.Event()
    write = depth.set

    def parked_write(value, **labels):
        write(value, **labels)
        if value == 0:
            drained.set()
            assert resume.wait(WAIT)

    depth.set = parked_write
    try:
        holder = started(fabric.publish, "feed/0", make_event(1))
        assert gate.entered.wait(WAIT)
        fabric.publish("feed/0", make_event(2))  # queued: the shard is held
        gate.release.set()
        joined(holder)
        assert drained.wait(WAIT)  # the loop is parked; nothing holds the lock
        fabric.publish("feed/0", make_event(3))  # idle now: runs here, after 2
        assert gate.got == [1, 2, 3]
        resume.set()
        assert fabric.flush(timeout=WAIT)
    finally:
        gate.release.set()
        resume.set()
        fabric.close()
    assert gate.threads[2] == threading.get_ident() != gate.threads[1]


def test_queue_depth_gauge_follows_the_queue_back_down():
    registry = MetricsRegistry()
    fabric = EventFabric(shards=1, registry=registry, mode="threads")
    gate = Gate()
    fabric.subscribe("feed/0", gate)
    depth = registry.family(FABRIC_SHARD_QUEUE_DEPTH)
    try:
        holder = started(fabric.publish, "feed/0", make_event(1))
        assert gate.entered.wait(WAIT)
        assert not depth.has(shard="0")  # an inline dispatch never queues
        for sequence in range(2, 7):
            fabric.publish("feed/0", make_event(sequence))
        assert depth.value(shard="0") == 5
        gate.release.set()
        joined(holder)
        assert fabric.flush(timeout=WAIT)
        # The parent wrote the gauge only on the way up: it stayed at 5.
        assert depth.value(shard="0") == fabric._queues[0].qsize() == 0
    finally:
        gate.release.set()
        fabric.close()
    assert gate.got == [1, 2, 3, 4, 5, 6]
    assert registry.family(FABRIC_INLINE_DISPATCH_TOTAL).value(shard="0") == 1
    assert fabric.inline_dispatches == 1

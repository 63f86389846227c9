"""EventFabric: byte-exact fan-out, compress-once grouping, mode parity."""

import zlib

import pytest

from repro.compression.framing import (
    encode_frame,
    is_jumbo_frame,
    parse_frame,
    unpack_jumbo_frame,
)
from repro.core.engine import CodecExecutor
from repro.fabric.batching import BatchConfig
from repro.fabric.broker import EventFabric
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler
from repro.middleware.transport import WireFormat
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE

PAYLOAD = (b"configurable compression for event fabrics " * 64)[:2048]


def modeled_executor():
    return CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, expansion_fallback=True)


class CountingExecutor(CodecExecutor):
    def __init__(self):
        super().__init__(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, expansion_fallback=True)
        self.runs = 0

    def compress(self, method, block, codec=None):
        self.runs += 1
        return super().compress(method, block, codec=codec)


def make_event(sequence=1, channel_id="feed/0", payload=PAYLOAD):
    return Event(
        payload=payload, channel_id=channel_id, sequence=sequence, timestamp=0.0
    )


def test_wire_bytes_identical_to_serial_compression_handler():
    # The hard fabric invariant: routing through the cache and the shard
    # grouping must produce *byte-identical* frames to the serial
    # per-subscriber CompressionHandler path.
    event = make_event()
    for method in ("huffman", "lempel-ziv", "burrows-wheeler"):
        serial = CompressionHandler(method, executor=modeled_executor())(event)
        expected = WireFormat.encode(serial)

        fabric = EventFabric(shards=4, executor=modeled_executor())
        wires = []
        fabric.subscribe(
            "feed/0", lambda e, w: wires.append(bytes(w)), method=method, wire=True
        )
        fabric.publish("feed/0", event)
        assert wires == [expected]
        assert zlib.crc32(wires[0]) == zlib.crc32(expected)


def test_passthrough_frame_identical_to_wireformat_encode():
    event = make_event()
    fabric = EventFabric(shards=2)
    wires = []
    fabric.subscribe("feed/0", lambda e, w: wires.append(bytes(w)), wire=True)
    fabric.publish("feed/0", event)
    assert wires == [WireFormat.encode(event)]


def test_compress_once_per_group():
    executor = CountingExecutor()
    fabric = EventFabric(shards=4, executor=executor)
    received = [0] * 6
    for i in range(6):
        fabric.subscribe(
            "feed/0",
            lambda e, w, i=i: received.__setitem__(i, received[i] + 1),
            method="huffman",
        )
    fabric.publish("feed/0", make_event())
    assert executor.runs == 1  # six subscribers, one codec run
    assert received == [1] * 6
    assert fabric.deliveries_total == 6
    assert fabric.compressions_total == 1
    assert fabric.fanout_ratio == 6.0


def test_distinct_configurations_get_distinct_runs():
    executor = CountingExecutor()
    fabric = EventFabric(shards=4, executor=executor)
    fabric.subscribe("feed/0", lambda e, w: None, method="huffman")
    fabric.subscribe("feed/0", lambda e, w: None, method="huffman", params={"t": 1})
    fabric.subscribe("feed/0", lambda e, w: None, method="lempel-ziv")
    fabric.subscribe("feed/0", lambda e, w: None)  # passthrough
    fabric.publish("feed/0", make_event())
    assert executor.runs == 3  # params variant is its own configuration
    assert fabric.compressions_total == 3


def test_cache_shared_across_channels_and_events():
    executor = CountingExecutor()
    fabric = EventFabric(shards=4, executor=executor)
    fabric.subscribe("feed/0", lambda e, w: None, method="huffman")
    fabric.subscribe("feed/1", lambda e, w: None, method="huffman")
    event = make_event()
    fabric.publish("feed/0", event)
    fabric.publish("feed/1", make_event(channel_id="feed/1"))
    fabric.publish("feed/0", make_event(sequence=2))
    # Same payload bytes everywhere: one run total, the cache serves the rest.
    assert executor.runs == 1
    assert fabric.cache.hits == 2


def test_one_wire_frame_shared_per_group():
    fabric = EventFabric(shards=2)
    views = []
    fabric.subscribe("feed/0", lambda e, w: views.append(w), method="huffman", wire=True)
    fabric.subscribe("feed/0", lambda e, w: views.append(w), method="huffman", wire=True)
    fabric.publish("feed/0", make_event())
    assert len(views) == 2
    assert views[0].obj is views[1].obj  # one encode, shared memoryview


def byte_for_byte_run(mode, event_count):
    """Two channels, a lone and a batched subscriber on each, one of them
    cancelled mid-stream: every wire buffer each sink was handed."""
    batch = BatchConfig(max_frames=3, linger_seconds=3600.0)  # never a deadline
    fabric = EventFabric(shards=4, executor=modeled_executor(), mode=mode)
    wires = {"a": [], "b": [], "b-batched": [], "a-cancelled": []}

    def first_on_feed_0(event, wire):
        wires["a"].append(bytes(wire))
        if event.sequence == 5:
            # From inside a delivery: the peer holds event 4 pending, to be
            # discarded on the owning shard (queued — the shard is busy).
            cancelled.cancel()

    fabric.subscribe("feed/0", first_on_feed_0, method="huffman", wire=True)
    cancelled = fabric.subscribe(
        "feed/0", lambda e, w: wires["a-cancelled"].append(bytes(w)),
        method="huffman", wire=True, batch=batch,
    )
    fabric.subscribe(
        "feed/1", lambda e, w: wires["b"].append(bytes(w)),
        method="lempel-ziv", wire=True,
    )
    fabric.subscribe(
        "feed/1", lambda e, w: wires["b-batched"].append(bytes(w)),
        method="lempel-ziv", wire=True, batch=batch,
    )
    for i in range(event_count):
        payload = bytes([i]) * 1024
        fabric.publish("feed/0", make_event(i + 1, "feed/0", payload))
        fabric.publish("feed/1", make_event(i + 1, "feed/1", payload))
    assert fabric.flush(timeout=10.0)
    fabric.close()
    assert fabric.subscriber_errors == 0
    assert cancelled.batcher.pending_frames == 0
    return wires


@pytest.mark.race_shake
def test_threads_mode_matches_inline_byte_for_byte():
    event_count = 8
    inline = byte_for_byte_run("inline", event_count)
    # Per-channel FIFO order and bytes are identical across modes: eight
    # lone frames each, batches of 3 + 3 + a drained 2, and the one batch
    # the cancelled subscriber saw whole.
    assert byte_for_byte_run("threads", event_count) == inline
    assert {name: len(calls) for name, calls in inline.items()} == {
        "a": event_count, "b": event_count, "b-batched": 3, "a-cancelled": 1,
    }


@pytest.mark.race_shake
def test_threads_mode_isolates_subscriber_errors():
    fabric = EventFabric(shards=2, mode="threads")
    delivered = []

    def bad(event, wire):
        raise RuntimeError("sink exploded")

    fabric.subscribe("feed/0", bad)
    fabric.subscribe("feed/0", lambda e, w: delivered.append(e.sequence))
    try:
        for i in range(3):
            fabric.publish("feed/0", make_event(i + 1))
        assert fabric.flush(timeout=10.0)
    finally:
        fabric.close()
    # A sink exception poisons neither its peers nor the shard loop:
    # every event still reaches the healthy subscriber, in order.
    assert delivered == [1, 2, 3]
    assert fabric.subscriber_errors == 3


def test_cancel_stops_delivery():
    fabric = EventFabric(shards=2)
    got = []
    subscription = fabric.subscribe("feed/0", lambda e, w: got.append(e.sequence))
    fabric.publish("feed/0", make_event(1))
    subscription.cancel()
    subscription.cancel()  # idempotent
    fabric.publish("feed/0", make_event(2))
    assert got == [1]
    assert fabric.subscriber_count("feed/0") == 0


def test_defer_runs_on_owning_shard():
    fabric = EventFabric(shards=4)
    ran = []
    fabric.defer("feed/0", lambda: ran.append("x"))
    assert ran == ["x"]


def test_submit_channel_routes_channel_dispatch():
    from repro.middleware.channels import EventChannel

    fabric = EventFabric(shards=4)
    channel = EventChannel("feed/0")
    got = []
    channel.subscribe(got.append)
    channel.bind_fabric(fabric)
    channel.submit(make_event())
    assert [e.sequence for e in got] == [1]
    channel.unbind_fabric()
    channel.submit(make_event())
    assert [e.sequence for e in got] == [1, 2]


def test_closed_fabric_rejects_publishes():
    fabric = EventFabric(shards=2, mode="threads")
    fabric.close()
    fabric.close()  # idempotent
    with pytest.raises(RuntimeError):
        fabric.publish("feed/0", make_event())


def test_shard_events_follow_stable_assignment():
    fabric = EventFabric(shards=4)
    fabric.subscribe("feed/0", lambda e, w: None)
    fabric.publish("feed/0", make_event())
    expected = [0, 0, 0, 0]
    expected[fabric.shard_of("feed/0")] = 1
    assert fabric.shard_events == expected


def test_expansion_guard_falls_back_through_cache():
    import os

    incompressible = os.urandom(512)
    fabric = EventFabric(shards=2, executor=modeled_executor())
    got = []
    fabric.subscribe("feed/0", lambda e, w: got.append(e), method="huffman")
    fabric.publish("feed/0", make_event(payload=incompressible))
    (event,) = got
    # Random bytes expand under huffman: the guard ships the original
    # payload and the method attribute stays truthful.
    assert event.payload == incompressible
    assert event.attributes["compression.method"] == "none"


# -- the delivery plan ---------------------------------------------------------------


def test_groups_deliver_in_first_subscriber_order_across_churn():
    fabric = EventFabric(shards=2)
    order = []
    subs = {}
    for name, method in [("h1", "huffman"), ("n1", "none"), ("h2", "huffman"), ("l1", "lempel-ziv")]:
        subs[name] = fabric.subscribe(
            "feed/0", lambda e, w, name=name: order.append(name), method=method
        )
    fabric.publish("feed/0", make_event(1))
    assert order == ["h1", "h2", "n1", "l1"]
    # The group leader leaves: its group now starts where its next member is.
    del order[:]
    subs["h1"].cancel()
    fabric.publish("feed/0", make_event(2))
    assert order == ["n1", "h2", "l1"]
    # A new member of an existing group joins that group's place.
    del order[:]
    fabric.subscribe("feed/0", lambda e, w: order.append("n2"))
    fabric.publish("feed/0", make_event(3))
    assert order == ["n1", "n2", "h2", "l1"]


def test_subscription_from_inside_a_sink_first_sees_the_next_event():
    fabric = EventFabric(shards=2)
    late = []

    def joiner(event, wire):
        if event.sequence == 1:
            fabric.subscribe("feed/0", lambda e, w: late.append(e.sequence))

    fabric.subscribe("feed/0", joiner)
    fabric.publish("feed/0", make_event(1))
    assert late == []
    fabric.publish("feed/0", make_event(2))
    assert late == [2]


def test_a_sink_cancelling_a_peer_mid_event_stops_it_at_once():
    fabric = EventFabric(shards=2)
    got = []
    victim = None

    def assassin(event, wire):
        victim.cancel()

    fabric.subscribe("feed/0", assassin, method="huffman")
    victim = fabric.subscribe("feed/0", lambda e, w: got.append("same group"), method="huffman")
    fabric.publish("feed/0", make_event(1))
    assert got == []
    assert fabric.deliveries_total == 1


def test_publish_to_an_unheard_channel_leaves_no_plan_behind():
    fabric = EventFabric(shards=2)
    for i in range(3):
        fabric.publish(f"nobody/{i}", make_event(channel_id=f"nobody/{i}"))
    assert fabric._plans == {}
    assert fabric.events_published == 3 and fabric.deliveries_total == 0


# -- shared jumbo batches ------------------------------------------------------------


def batched_fabric(**kwargs):
    return EventFabric(shards=2, executor=modeled_executor(), **kwargs)


def unpack(view):
    """The member frames of what a (batched) sink received, re-encoded."""
    frame, end = parse_frame(view)
    assert end == len(view)  # one whole frame, nothing trailing
    members = unpack_jumbo_frame(frame)
    return [
        bytes(encode_frame(member.header, member.payload))
        for member in ([frame] if members is None else members)
    ]


def test_group_peers_that_joined_together_receive_the_same_buffer():
    fabric = batched_fabric()
    config = BatchConfig(max_frames=3, max_bytes=1 << 20)
    got = {"a": [], "b": [], "solo": []}
    for name in ("a", "b"):
        fabric.subscribe(
            "feed/0", lambda e, w, name=name: got[name].append(w),
            method="huffman", wire=True, batch=config,
        )
    fabric.subscribe(
        "feed/0", lambda e, w: got["solo"].append(bytes(w)), method="huffman", wire=True
    )
    for i in range(6):
        fabric.publish("feed/0", make_event(i + 1))
    assert len(got["a"]) == len(got["b"]) == 2
    for mine, theirs in zip(got["a"], got["b"]):
        assert mine.obj is theirs.obj  # one assembly, one buffer
        assert mine.readonly and theirs.readonly
    # ... holding exactly the frames the unbatched peer saw one by one.
    assert [m for view in got["a"] for m in unpack(view)] == got["solo"]
    assert fabric.batches_emitted == 4
    assert fabric.batched_frames_total == 12


def test_a_mid_batch_joiner_gets_its_own_buffer_of_what_it_saw():
    fabric = batched_fabric()
    config = BatchConfig(max_frames=3, max_bytes=1 << 20)
    early, late = [], []
    fabric.subscribe(
        "feed/0", lambda e, w: early.append(w), method="huffman", wire=True, batch=config
    )
    fabric.publish("feed/0", make_event(1))
    fabric.subscribe(
        "feed/0", lambda e, w: late.append(w), method="huffman", wire=True, batch=config
    )
    for i in (2, 3, 4):
        fabric.publish("feed/0", make_event(i))
    (first,) = early  # events 1-3
    (joined,) = late  # events 2-4, flushed one event later
    assert first.obj is not joined.obj

    def sequences(view):
        return [WireFormat.decode(member).sequence for member in unpack(view)]

    assert sequences(first) == [1, 2, 3]
    assert sequences(joined) == [2, 3, 4]
    # From here on the two are out of phase and never share.
    for i in (5, 6, 7):
        fabric.publish("feed/0", make_event(i))
    assert sequences(early[1]) == [4, 5, 6] and sequences(late[1]) == [5, 6, 7]


def test_different_batch_configs_never_share_a_buffer():
    fabric = batched_fabric()
    pairs, triples = [], []
    fabric.subscribe(
        "feed/0", lambda e, w: pairs.append(w), method="huffman", wire=True,
        batch=BatchConfig(max_frames=2, max_bytes=1 << 20),
    )
    fabric.subscribe(
        "feed/0", lambda e, w: triples.append(w), method="huffman", wire=True,
        batch=BatchConfig(max_frames=3, max_bytes=1 << 20),
    )
    for i in range(6):  # both flush on event 6, with different members
        fabric.publish("feed/0", make_event(i + 1))
    assert [len(unpack(v)) for v in pairs] == [2, 2, 2]
    assert [len(unpack(v)) for v in triples] == [3, 3]
    buffers = {id(v.obj) for v in pairs + triples}
    assert len(buffers) == 5


def test_a_peer_cancelled_mid_batch_does_not_disturb_the_other():
    fabric = batched_fabric()
    config = BatchConfig(max_frames=3, max_bytes=1 << 20)
    kept, dropped = [], []
    keeper = fabric.subscribe(
        "feed/0", lambda e, w: kept.append(w), method="huffman", wire=True, batch=config
    )
    leaver = fabric.subscribe(
        "feed/0", lambda e, w: dropped.append(w), method="huffman", wire=True, batch=config
    )
    fabric.publish("feed/0", make_event(1))
    fabric.publish("feed/0", make_event(2))
    leaver.cancel()
    fabric.publish("feed/0", make_event(3))
    assert dropped == []
    (view,) = kept
    assert [WireFormat.decode(m).sequence for m in unpack(view)] == [1, 2, 3]
    assert keeper.delivered == 3


def test_a_batch_of_one_is_the_groups_bare_frame():
    fabric = batched_fabric()
    config = BatchConfig(max_frames=8, max_bytes=1 << 20)
    batched, plain = [], []
    for _ in range(2):
        fabric.subscribe(
            "feed/0", lambda e, w: batched.append(w), method="huffman", wire=True, batch=config
        )
    fabric.subscribe("feed/0", lambda e, w: plain.append(w), method="huffman", wire=True)
    fabric.publish("feed/0", make_event(1))
    fabric.flush()
    assert len(batched) == 2
    assert batched[0].obj is batched[1].obj is plain[0].obj  # no envelope, no copy
    assert not is_jumbo_frame(parse_frame(batched[0])[0])


def test_drain_and_deadline_flushes_keep_their_reason():
    from repro.obs.catalogue import BATCH_FRAMES_TOTAL
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    fabric = batched_fabric(registry=registry)
    config = BatchConfig(max_frames=3, max_bytes=1 << 20, linger_seconds=0.0)
    for _ in range(2):
        fabric.subscribe("feed/0", lambda e, w: None, method="huffman", wire=True, batch=config)
    for i in range(4):
        fabric.publish("feed/0", make_event(i + 1))
    fabric.flush()  # inline: one lone frame each, drained
    frames = registry.family(BATCH_FRAMES_TOTAL)
    assert frames.value(reason="frames") == 6
    assert frames.value(reason="drain") == 2

    # Threads mode stamps adds with loop time: a zero linger turns every
    # add into a deadline flush, shared or not.
    registry = MetricsRegistry()
    fabric = batched_fabric(registry=registry, mode="threads")
    got = []
    try:
        for _ in range(2):
            fabric.subscribe(
                "feed/0", lambda e, w: got.append(w), method="huffman", wire=True, batch=config
            )
        fabric.publish("feed/0", make_event(1))
        assert fabric.flush(timeout=10.0)
    finally:
        fabric.close()
    assert registry.family(BATCH_FRAMES_TOTAL).value(reason="deadline") == 2
    assert len(got) == 2 and got[0].obj is got[1].obj


# -- work counts ---------------------------------------------------------------------


def test_fanout_digests_once_assembles_once_per_group_and_regroups_nothing(monkeypatch):
    import zlib

    import repro.fabric.batching as batching_module
    import repro.fabric.broker as broker_module

    counts = {"digest": 0, "jumbo": 0, "regroup": 0}
    payload = bytes(PAYLOAD)
    real_crc, real_jumbo, real_canonical = (
        zlib.crc32, batching_module.encode_jumbo_frame, broker_module.canonical_params,
    )

    def crc_spy(data, *rest):
        counts["digest"] += data is payload
        return real_crc(data, *rest)

    def jumbo_spy(frames):
        counts["jumbo"] += 1
        return real_jumbo(frames)

    def canonical_spy(params):
        counts["regroup"] += 1
        return real_canonical(params)

    monkeypatch.setattr(zlib, "crc32", crc_spy)
    monkeypatch.setattr(batching_module, "encode_jumbo_frame", jumbo_spy)
    monkeypatch.setattr(broker_module, "canonical_params", canonical_spy)

    channels = [f"feed/{c}" for c in range(4)]
    groups = [("huffman", None), ("lempel-ziv", None), ("huffman", {"t": 1})]
    fabric = batched_fabric()
    config = BatchConfig(max_frames=4, max_bytes=1 << 20)
    received = []
    for channel in channels:
        for _ in range(2):  # interleaved, as real audiences are
            for method, params in groups:
                fabric.subscribe(
                    channel, lambda e, w: received.append(w),
                    method=method, params=params, wire=True, batch=config,
                )

    def publish_everywhere(sequence):
        for channel in channels:
            fabric.publish(channel, make_event(sequence, channel, payload))

    publish_everywhere(1)
    assert counts == {"digest": 1, "jumbo": 0, "regroup": 24}  # once per subscription
    for sequence in (2, 3, 4):
        publish_everywhere(sequence)
    # One payload object, 48 cache lookups: one CRC pass.  Twelve (channel,
    # group) pairs flushed two members each: twelve assemblies.  No
    # subscription changed: nothing regrouped.
    assert counts == {"digest": 1, "jumbo": 12, "regroup": 24}
    assert len(received) == 24 and len({id(v.obj) for v in received}) == 12
    assert fabric.batches_emitted == 24 and fabric.batched_frames_total == 96
    assert fabric.wire_frames_encoded == 48  # 4 events x 12 groups
    assert (fabric.cache.hits, fabric.cache.misses) == (45, 3)


def test_flushed_batches_are_not_pinned_by_the_fabric():
    import gc
    import tracemalloc

    fabric = batched_fabric()
    config = BatchConfig(max_frames=4, max_bytes=1 << 20)
    smallest = [1 << 30]  # bytes in the smallest batch any sink was handed

    def sink(event, wire):
        smallest[0] = min(smallest[0], len(wire))

    for _ in range(3):
        fabric.subscribe("feed/0", sink, method="huffman", wire=True, batch=config)
    payloads = [bytes([65 + i, 66]) * 1024 for i in range(8)]
    sequence = 0

    def flush_cycles(count):
        nonlocal sequence
        for _ in range(count * config.max_frames):
            sequence += 1
            fabric.publish("feed/0", make_event(sequence, payload=payloads[sequence % 8]))

    flush_cycles(4)  # warm-up: every payload cached, every lazy structure built
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        flush_cycles(50)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 50 flushes x 3 subscribers later, not even one batch's worth is held.
    assert after - before < smallest[0]


# -- fixes ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["inline", "threads"])
def test_cancel_discards_a_batched_subscriptions_pending_frames(mode):
    fabric = batched_fabric(mode=mode)
    config = BatchConfig(max_frames=4, max_bytes=1 << 20, linger_seconds=60.0)
    calls = []
    try:
        subscription = fabric.subscribe(
            "feed/0", lambda e, w: calls.append(w), wire=True, batch=config
        )
        for i in range(3):
            fabric.publish("feed/0", make_event(i + 1))
        subscription.cancel()
        assert fabric.flush(timeout=10.0)
        assert subscription.batcher.pending_frames == 0
        assert subscription.batcher.pending_bytes == 0
        fabric.publish("feed/0", make_event(4))
        assert fabric.flush(timeout=10.0)
    finally:
        fabric.close()
    assert calls == []  # the sink was gone: nothing pending was ever sent to it
    assert subscription.batcher.pending_frames == 0


@pytest.mark.parametrize("mode", ["inline", "threads"])
def test_cancel_after_close_still_discards(mode):
    fabric = batched_fabric(mode=mode)
    got = []
    subscription = fabric.subscribe(
        "feed/0", lambda e, w: got.append(w), wire=True,
        batch=BatchConfig(max_frames=4, max_bytes=1 << 20, linger_seconds=60.0),
    )
    fabric.publish("feed/0", make_event(1))
    fabric.close()  # drains: the lone frame is delivered
    assert len(got) == 1
    subscription.cancel()  # must not raise on the closed fabric
    assert subscription.batcher.pending_frames == 0


@pytest.mark.parametrize("mode", ["inline", "threads"])
def test_closed_fabric_rejects_subscriptions(mode):
    fabric = EventFabric(shards=2, mode=mode)
    fabric.close()
    with pytest.raises(RuntimeError, match="fabric is closed"):
        fabric.subscribe("feed/0", lambda e, w: None)
    assert fabric.subscriber_count() == 0

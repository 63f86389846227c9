"""Model-based churn test for :class:`EventFabric`, inline and threads.

One :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a real
fabric and a model through the same subscribe / cancel / publish / flush
sequence — including sinks that subscribe a new member or cancel a peer
from inside their callback — and holds them equal after every step.  The
threads-mode machine runs the same rules against the same model: a
publish burst runs partly on the publishing thread and partly on the
shard loop (a cancel from inside a sink queues a discard, and every later
publish behind it), and both sides ``flush()`` before each comparison.

The model is the formulation the fabric's delivery plans replaced, kept
only here: it regroups a channel's active subscriptions from scratch for
every event, encodes one wire frame per *subscriber*, keeps every batch
as its own list of frames and assembles every jumbo on its own.  Nothing
is cached across events except the compressed blocks (a plain LRU keyed
by payload content), so it cannot share the fabric's mistakes about what
may be reused.  Both sides price codec runs with a modeled-cost executor,
so ``compression.seconds`` — part of every stamped header — repeats.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Optional

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.compression.base import canonical_params
from repro.compression.framing import encode_jumbo_frame
from repro.core.engine import CodecExecutor
from repro.fabric.batching import BatchConfig
from repro.fabric.broker import EventFabric
from repro.fabric.cache import BlockCache
from repro.middleware.events import Event
from repro.middleware.handlers import stamp_compression
from repro.middleware.transport import WireFormat
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, CodecCostModel
from repro.obs.catalogue import BATCH_FRAMES_TOTAL
from repro.obs.metrics import MetricsRegistry
from tests.fabric.test_broker import unpack
from tests.strategies import examples

#: Both on one shard of the two: whatever thread runs them, one shard's
#: items have a total order, which is what a sequential model can match.
CHANNELS = ["feed/0", "feed/1"]
METHODS = ["none", "huffman", "lempel-ziv-native"]
#: ``None`` and two spellings of one other configuration.
PARAMS = [None, {"level": 6, "window": 32768}, {"window": 32768.0, "level": 6.0}]
#: No linger deadline ever falls (threads mode would flush on its own clock).
BATCHES = [
    None,
    BatchConfig(max_frames=3, max_bytes=1 << 20, linger_seconds=3600.0),  # trips on frames
    BatchConfig(max_frames=64, max_bytes=900, linger_seconds=3600.0),  # trips on bytes
]
#: Small enough that the payload pool x configurations overflows it.
CACHE_ENTRIES = 5
REASONS = ("frames", "bytes", "drain")
#: ``EventFabric`` attributes the model keeps its own count of.
FABRIC_COUNTERS = (
    "events_published", "deliveries_total", "compressions_total",
    "wire_frames_encoded", "batches_emitted", "batched_frames_total",
)
COSTS = CodecCostModel(
    {
        "huffman": DEFAULT_COSTS.cost("huffman"),
        "lempel-ziv-native": DEFAULT_COSTS.cost("lempel-ziv"),
    }
)


def modeled_executor() -> CodecExecutor:
    return CodecExecutor(cost_model=COSTS, cpu=SUN_FIRE, expansion_fallback=True)


def payload_pool():
    """Fresh per machine: slot 0 is mutable and gets scribbled on."""
    return [
        bytearray(b"mutable under one identity, " * 16),
        b"compress once, deliver many; " * 20,
        bytes(range(256)),  # expands under huffman: the guard ships it raw
        b"compress once, deliver many; " * 20,  # equal content, another object
        b"",
    ]


@dataclass(frozen=True)
class Spec:
    channel: str
    method: str
    params: Optional[Mapping[str, object]]
    wire: bool
    batch: Optional[BatchConfig]


specs = st.builds(
    lambda channel, method, params, wire, batch: Spec(
        channel, method, params, wire or batch is not None, batch
    ),
    st.sampled_from(CHANNELS),
    st.sampled_from(METHODS),
    st.sampled_from(PARAMS),
    st.booleans(),
    st.sampled_from(BATCHES),
)
picks = st.integers(min_value=0, max_value=2**16)


def summary(event):
    if event is None:
        return None
    return (
        event.channel_id,
        event.sequence,
        event.timestamp,
        bytes(event.payload),
        dict(event.attributes),
    )


class Side:
    """What both sides record, and the one-shot actions sinks carry out."""

    def __init__(self):
        self.log = []  # subscriber id of every callback, in order
        self.calls = []  # per subscriber: (event summary, wire bytes)
        self.actions = {}  # subscriber id -> ("cancel", id) | ("subscribe", spec)

    def new_id(self):
        self.calls.append([])
        return len(self.calls) - 1

    def called(self, sub_id, event, wire):
        self.log.append(sub_id)
        self.calls[sub_id].append((summary(event), wire))
        action = self.actions.pop(sub_id, None)
        if action is not None:
            getattr(self, action[0])(action[1])


class Real(Side):
    def __init__(self, mode):
        super().__init__()
        self.registry = MetricsRegistry()  # where a flush's reason shows
        self.cache = BlockCache(max_entries=CACHE_ENTRIES, registry=self.registry)
        self.fabric = EventFabric(
            shards=2, executor=modeled_executor(), cache=self.cache,
            registry=self.registry, mode=mode,
        )
        self.handles = []

    def subscribe(self, spec):
        sub_id = self.new_id()

        def sink(event, wire):
            self.called(sub_id, event, None if wire is None else bytes(wire))

        self.handles.append(
            self.fabric.subscribe(
                spec.channel, sink, method=spec.method, params=spec.params,
                wire=spec.wire, batch=spec.batch,
            )
        )

    def cancel(self, sub_id):
        self.handles[sub_id].cancel()

    def publish(self, channel, event):
        self.fabric.publish(channel, event)

    def flush(self):
        assert self.fabric.flush()

    def counters(self):
        fabric, cache = self.fabric, self.cache
        return {
            **{name: getattr(fabric, name) for name in FABRIC_COUNTERS},
            "batched_by_reason": {
                reason: self.registry.family(BATCH_FRAMES_TOTAL).value(reason=reason)
                for reason in REASONS
            },
            "cache": (cache.hits, cache.misses, cache.evictions, len(cache)),
            "subscribers": fabric.subscriber_count(),
            "delivered": [handle.delivered for handle in self.handles],
            "pending": [
                handle.batcher.pending_frames if handle.batcher else 0
                for handle in self.handles
            ],
        }


class ModelSubscription:
    def __init__(self, sub_id, spec):
        self.sub_id = sub_id
        self.spec = spec
        self.active = True
        self.delivered = 0
        self.pending = []


class Model(Side):
    def __init__(self):
        super().__init__()
        self.executor = modeled_executor()
        self.blocks = OrderedDict()  # (content, method, canonical params) -> run
        self.subs = []
        self.members = []  # per subscriber, per callback: the frames handed over
        self.by_reason = dict.fromkeys(REASONS, 0)
        self.count = dict.fromkeys(FABRIC_COUNTERS, 0)
        self.hits = self.misses = self.evictions = 0

    def subscribe(self, spec):
        self.subs.append(ModelSubscription(self.new_id(), spec))
        self.members.append([])

    def cancel(self, sub_id):
        sub = self.subs[sub_id]
        sub.active = False
        sub.pending = []  # the sink is gone

    def _compress(self, event, method, params):
        if method == "none":
            return event, False
        key = (bytes(event.payload), method, canonical_params(params))
        hit = key in self.blocks
        if hit:
            self.hits += 1
            self.blocks.move_to_end(key)
        else:
            self.misses += 1
            self.blocks[key] = self.executor.compress(method, bytes(event.payload))
            while len(self.blocks) > CACHE_ENTRIES:
                self.blocks.popitem(last=False)
                self.evictions += 1
        return stamp_compression(event, self.blocks[key]), hit

    def publish(self, channel, event):
        members = [s for s in self.subs if s.spec.channel == channel and s.active]
        groups = OrderedDict()
        for sub in members:
            key = (sub.spec.method, canonical_params(sub.spec.params))
            groups.setdefault(key, []).append(sub)
        for (method, _), group in groups.items():
            delivered, hit = self._compress(event, method, group[0].spec.params)
            if method != "none" and not hit:
                self.count["compressions_total"] += 1
            encoded = False
            for sub in group:
                if not sub.active:
                    continue
                frame = None
                if sub.spec.wire:
                    frame = bytes(WireFormat.encode(delivered))  # one per subscriber
                    self.count["wire_frames_encoded"] += not encoded
                    encoded = True
                if sub.spec.batch is None:
                    self.members[sub.sub_id].append(None if frame is None else [frame])
                    self.called(sub.sub_id, delivered, frame)
                else:
                    sub.pending.append(frame)
                    if len(sub.pending) >= sub.spec.batch.max_frames:
                        self._emit(sub, delivered, "frames")
                    elif sum(map(len, sub.pending)) >= sub.spec.batch.max_bytes:
                        self._emit(sub, delivered, "bytes")
                sub.delivered += 1
                self.count["deliveries_total"] += 1
        self.count["events_published"] += 1

    def _emit(self, sub, event, reason):
        frames, sub.pending = sub.pending, []
        self.count["batches_emitted"] += 1
        self.count["batched_frames_total"] += len(frames)
        self.by_reason[reason] += len(frames)
        wire = frames[0] if len(frames) == 1 else bytes(encode_jumbo_frame(frames))
        self.members[sub.sub_id].append(frames)
        self.called(sub.sub_id, event, wire)

    def flush(self):
        for sub in [s for s in self.subs if s.spec.batch is not None and s.active]:
            if sub.active and sub.pending:
                self._emit(sub, None, "drain")

    def counters(self):
        return {
            **self.count,
            "batched_by_reason": self.by_reason,
            "cache": (self.hits, self.misses, self.evictions, len(self.blocks)),
            "subscribers": sum(s.active for s in self.subs),
            "delivered": [s.delivered for s in self.subs],
            "pending": [len(s.pending) for s in self.subs],
        }


class FabricChurn(RuleBasedStateMachine):
    mode = "inline"

    def __init__(self):
        super().__init__()
        self.real = Real(self.mode)
        self.model = Model()
        self.sides = (self.model, self.real)
        assert len({self.real.fabric.shard_of(channel) for channel in CHANNELS}) == 1
        self.pool = payload_pool()
        self.sequences = dict.fromkeys(CHANNELS, 0)

    @rule(joining=st.lists(specs, min_size=1, max_size=3))
    def subscribe(self, joining):
        for spec in joining:
            for side in self.sides:
                side.subscribe(spec)

    @precondition(lambda self: self.model.subs)
    @rule(pick=picks)
    def cancel(self, pick):
        for side in self.sides:
            side.cancel(pick % len(self.model.subs))

    @precondition(lambda self: self.model.subs)
    @rule(pick=picks, distance=st.integers(min_value=-2, max_value=3))
    def arm_cancel(self, pick, distance):
        """The picked sink's next callback cancels a neighbour — often a
        peer the same event has yet to reach — or, at distance 0, itself."""
        count = len(self.model.subs)
        for side in self.sides:
            side.actions[pick % count] = ("cancel", (pick + distance) % count)

    @precondition(lambda self: self.model.subs)
    @rule(pick=picks, spec=specs)
    def arm_subscribe(self, pick, spec):
        """The picked sink's next callback subscribes a new member."""
        for side in self.sides:
            side.actions[pick % len(self.model.subs)] = ("subscribe", spec)

    @rule(
        burst=st.lists(
            st.tuples(
                st.sampled_from([0, 0, 1, 2, 3, 4]),
                st.booleans(),
                st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=2, unique=True),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def publish(self, burst):
        """Each ``(slot, scribble, channels)``: one payload *object* to one
        or several channels; ``scribble`` first changes the mutable payload
        in place (same identity, new bytes)."""
        for slot, scribble, channels in burst:
            if scribble:
                self.quiesce()  # an event in flight must keep the bytes it was sent with
                self.pool[0][0] = (self.pool[0][0] + 1) % 256
            payload = self.pool[slot]
            for channel in channels:
                self.sequences[channel] += 1
                sequence = self.sequences[channel]
                event = Event(
                    payload=payload,
                    attributes={"op": sequence},
                    channel_id=channel,
                    sequence=sequence,
                    timestamp=float(sequence),
                )
                for side in self.sides:
                    side.publish(channel, event)

    @rule()
    def flush(self):
        for side in self.sides:
            side.flush()

    def quiesce(self):
        """Threads mode: wait out the shard loop.  ``flush`` is the only
        public wait and it drains the batches too, so the model drains."""
        if self.mode == "threads":
            for side in self.sides:
                side.flush()

    @invariant()
    def fabric_equals_model(self):
        self.quiesce()
        real, model = self.real, self.model
        # Same callbacks in the same order: groups in first-occurrence
        # order, members in subscription order, drains in batcher order.
        assert real.log == model.log
        assert real.counters() == model.counters()
        for got, want, frames in zip(real.calls, model.calls, model.members):
            # Same event, same buffer (envelope included), call by call —
            # so every batch boundary fell where the model's did ...
            assert got == want
            # ... and it unpacks to the model's frames, byte for byte.
            assert [None if wire is None else unpack(wire) for _, wire in got] == frames

    def teardown(self):
        self.real.fabric.close()  # drains what is still pending
        self.model.flush()
        self.fabric_equals_model()
        assert all(pending == 0 for pending in self.real.counters()["pending"])


class ThreadsFabricChurn(FabricChurn):
    mode = "threads"


TestFabricChurn = FabricChurn.TestCase
TestFabricChurn.settings = settings(examples(40), stateful_step_count=50)
# Hypothesis' examples are the rounds; the switch interval is what shakes.
TestThreadsFabricChurn = pytest.mark.race_shake(rounds=1)(ThreadsFabricChurn.TestCase)
TestThreadsFabricChurn.settings = settings(examples(25), stateful_step_count=40)

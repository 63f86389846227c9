"""The sharded event fabric: compress-once, fan-out-many delivery.

This is the delivery path that replaces thread-per-connection forwarding
in the middleware.  Channels are sharded across N loops by stable CRC32
of the channel id (:mod:`repro.fabric.sharding`): one shard owns each
channel, so per-channel event order needs no lock finer than the shard's
own, and shards progress independently — the broker scales with
shard count, not with connection count.

A channel's active subscriptions are grouped by
``(method, canonical_params)`` into its *delivery plan* — built on the
first publish after the subscription set changed, not per event — and
per published event the owning shard runs the codec **once per group**
through the shared :class:`~repro.fabric.cache.BlockCache` — every other
subscriber in the group (and every later group on any channel that
resolved to the same configuration for the same payload) is served the
same immutable bytes.  Wire-hungry sinks (sockets) additionally share
one :class:`~repro.middleware.transport.WireFormat` frame per group,
delivered as a zero-copy :class:`memoryview`, and batched sinks of one
group that flush the very same member frames share one jumbo buffer
(:meth:`repro.fabric.batching.FrameBatcher.flush`).

Ownership rules for sinks: the event payload and the wire view (a lone
frame or a jumbo batch) are **shared and immutable** — a sink must never
mutate them and must take its own copy before retaining either past the
callback.  ``sendall`` on a socket satisfies both.

Two execution modes:

* ``inline`` — ``publish`` processes synchronously on the caller's
  thread.  Deterministic, clock-free, and what the simulation/bench
  layers use: virtual time is charged by the caller from the returned
  engine accounting, never read here.
* ``threads`` — one worker thread per shard draining a FIFO queue, which
  a publisher enters directly when the shard is idle; the deployment mode
  :class:`~repro.middleware.tcp.ChannelServer` runs on.  The only
  wall-clock read is :func:`_loop_now` (flush/close deadlines), the
  fabric's single sanctioned loop-time site enforced by
  ``scripts/check.sh``.

The threads-mode ordering rule, stated once: **each shard has one run
lock, and whoever holds it is the shard.**  An item whose shard has
nothing queued and nothing executing runs on the thread that published
it (``_dispatch`` takes the lock without blocking); otherwise it is
queued, and the shard loop takes the same lock around each item it
dequeues.  The shard's count of queued items falls only *after* an item
has run, so a publisher cannot overtake its own earlier, still-queued
event.  Publishers never wait for a run lock — a sink that publishes to
its own shard from inside a delivery enqueues, and two shards whose sinks
publish to each other cannot deadlock; only shard loops, ``flush`` and
``close`` wait for one.  Everything documented as running "on the owning
shard" (batchers, deadline and drain flushes, ``defer`` thunks) runs
under that lock, on whichever thread holds it.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..compression.base import canonical_params
from ..core.engine import CodecExecutor
from ..middleware.events import Event
from ..middleware.handlers import stamp_compression
from ..middleware.transport import WireFormat
from ..obs.catalogue import (
    FABRIC_INLINE_DISPATCH_TOTAL,
    FABRIC_SHARD_QUEUE_DEPTH,
    record_batch_flush,
    record_fabric_delivery,
)
from ..obs.metrics import MetricsRegistry
from .batching import BatchConfig, FlushedBatch, FrameBatcher
from .cache import BlockCache
from .sharding import shard_index

__all__ = ["EventFabric", "FabricSubscription", "DeliveryCallback"]

#: ``callback(event, wire)`` — ``wire`` is a shared memoryview of the
#: event's framed wire bytes when the subscription asked for it, else None.
#: Batched subscriptions receive jumbo super-frame buffers instead, and
#: ``event`` is ``None`` when a deadline/drain flush fires without a
#: triggering event — batching sinks must not dereference it.
DeliveryCallback = Callable[[Optional[Event], Optional[memoryview]], None]

#: One channel's delivery groups in first-subscriber order:
#: ``(method, the first member's params, members)``.
_DeliveryPlan = List[
    Tuple[str, Optional[Mapping[str, object]], List["FabricSubscription"]]
]

_STOP = object()


def _loop_now() -> float:
    """The fabric's single sanctioned clock read (threads-mode deadlines)."""
    return time.monotonic()


class FabricSubscription:
    """Handle for one fabric subscription; ``cancel`` is idempotent."""

    def __init__(
        self,
        fabric: "EventFabric",
        channel_id: str,
        callback: DeliveryCallback,
        method: str,
        params: Optional[Mapping[str, object]],
        wire: bool,
        batcher: Optional[FrameBatcher] = None,
    ) -> None:
        self.fabric = fabric
        self.channel_id = channel_id
        self.callback = callback
        self.method = method
        self.params = dict(params) if params else None
        self.wire = wire
        self.batcher = batcher
        self.active = True
        self.delivered = 0

    def cancel(self) -> None:
        if self.active:
            self.active = False
            self.fabric._remove(self)


class EventFabric:
    """N shard loops + one shared block cache = the delivery fabric."""

    def __init__(
        self,
        shards: int = 4,
        executor: Optional[CodecExecutor] = None,
        cache: Optional[BlockCache] = None,
        registry: Optional[MetricsRegistry] = None,
        mode: str = "inline",
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        if mode not in ("inline", "threads"):
            raise ValueError("mode must be 'inline' or 'threads'")
        self.shard_count = shards
        self.mode = mode
        self.registry = registry
        self.executor = (
            executor
            if executor is not None
            else CodecExecutor(expansion_fallback=True)
        )
        self.cache = cache if cache is not None else BlockCache(registry=registry)
        self._subscriptions: Dict[str, List[FabricSubscription]] = {}
        #: Valid until the channel's next ``subscribe``/``cancel``; a plan
        #: is replaced, never edited, so an event in flight keeps its own.
        self._plans: Dict[str, _DeliveryPlan] = {}
        self._batched: List[FabricSubscription] = []
        self._lock = threading.Lock()
        self.events_published = 0
        self.deliveries_total = 0
        self.compressions_total = 0
        self.batches_emitted = 0
        self.batched_frames_total = 0
        #: Wire frames actually encoded — one per (event, delivery group),
        #: never one per subscriber.  The fanout bench holds the number of
        #: distinct wire views its sinks observe to exactly this count,
        #: which is what "zero per-subscriber copies" means in numbers.
        self.wire_frames_encoded = 0
        self.subscriber_errors = 0
        self.shard_events = [0] * shards
        #: Per shard (each entry only ever written under that shard's run
        #: lock): threads-mode items that found the shard idle and ran on
        #: the thread that published them.
        self.shard_inline_dispatches = [0] * shards
        self._closed = False
        if mode == "threads":
            self._queues: List["queue.Queue"] = [queue.Queue() for _ in range(shards)]
            #: The ordering domain: whoever holds a shard's lock is the shard.
            self._run_locks = [threading.Lock() for _ in range(shards)]
            #: Per shard, items queued and not yet finished (under ``_idle``).
            self._backlog = [0] * shards
            self._idle = threading.Condition()
            self._threads = [
                threading.Thread(
                    target=self._shard_loop, args=(i,), daemon=True,
                    name=f"fabric-shard-{i}",
                )
                for i in range(shards)
            ]
            for thread in self._threads:
                thread.start()

    # -- subscription ------------------------------------------------------------

    def subscribe(
        self,
        channel_id: str,
        callback: DeliveryCallback,
        method: str = "none",
        params: Optional[Mapping[str, object]] = None,
        wire: bool = False,
        batch: Optional[BatchConfig] = None,
    ) -> FabricSubscription:
        """Register ``callback`` for ``channel_id``.

        ``method``/``params`` name the compression configuration this
        subscriber wants applied to payloads (``none`` = passthrough);
        subscribers sharing a configuration share one codec run per
        event.  ``wire=True`` additionally hands the callback a shared
        memoryview of the framed wire bytes.  ``batch`` (requires
        ``wire=True``) coalesces this subscriber's frames into jumbo
        super-frames: the callback then fires per *batch* — on the
        config's thresholds, on linger deadlines (threads mode), and on
        :meth:`flush`/:meth:`close` drains.  Cancelling a batched
        subscription discards its pending frames (the sink is gone).

        A subscription made while an event is being delivered (from
        inside a sink) first sees the *next* event.  A closed fabric
        raises ``RuntimeError``, like :meth:`publish`.
        """
        if batch is not None and not wire:
            raise ValueError("batch requires wire=True (batches coalesce wire frames)")
        batcher = FrameBatcher(batch) if batch is not None else None
        subscription = FabricSubscription(
            self, channel_id, callback, method, params, wire, batcher=batcher
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("fabric is closed")
            self._subscriptions.setdefault(channel_id, []).append(subscription)
            self._plans.pop(channel_id, None)
            if batcher is not None:
                self._batched.append(subscription)
        return subscription

    def _remove(self, subscription: FabricSubscription) -> None:
        channel_id = subscription.channel_id
        with self._lock:
            members = self._subscriptions.get(channel_id)
            if members and subscription in members:
                members.remove(subscription)
                if not members:
                    del self._subscriptions[channel_id]
            self._plans.pop(channel_id, None)
            if subscription.batcher is not None and subscription in self._batched:
                self._batched.remove(subscription)
        if subscription.batcher is not None:
            # The pending frames pin the group's shared wire buffers.  A
            # batcher is only ever touched under the run lock of the shard
            # that owns its channel, so the discard goes there too (behind
            # any event that is adding to it right now).
            try:
                self.defer(channel_id, subscription.batcher.discard)
            except RuntimeError:  # closed: no shard left to race
                subscription.batcher.discard()

    def subscriber_count(self, channel_id: Optional[str] = None) -> int:
        with self._lock:
            if channel_id is not None:
                return len(self._subscriptions.get(channel_id, []))
            return sum(len(members) for members in self._subscriptions.values())

    def channels(self) -> List[str]:
        with self._lock:
            return sorted(self._subscriptions)

    def shard_of(self, channel_id: str) -> int:
        """The shard that owns ``channel_id`` (stable under churn)."""
        return shard_index(channel_id, self.shard_count)

    # -- publication -------------------------------------------------------------

    def publish(self, channel_id: str, event: Event) -> None:
        """Deliver ``event`` to every subscriber of ``channel_id``.

        Inline mode processes now, on this thread.  Threads mode does the
        same when the owning shard is idle — the caller is then held for
        the one delivery it triggered (group codec runs through the
        cache, one frame encode per group, the sinks; a socket sink that
        blocks is TCP back-pressure on this producer) — and otherwise
        enqueues to the shard's FIFO and returns at once, as every other
        publisher to a busy shard does.  Per-channel order is preserved
        either way, and a sink that raises never propagates out of a
        threads-mode ``publish``.
        """
        self._dispatch(self.shard_of(channel_id), ("event", channel_id, event))

    def defer(self, channel_id: str, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` on the shard that owns ``channel_id`` — in threads
        mode under its run lock, now if the shard is idle, else queued.

        Subscription removal uses it to discard a cancelled sink's pending
        batch behind any event still adding to it.
        """
        self._dispatch(self.shard_of(channel_id), ("call", thunk, None))

    def _dispatch(self, shard: int, item: Tuple[str, object, object]) -> None:
        if self._closed:
            raise RuntimeError("fabric is closed")
        if self.mode == "inline":
            self._execute_item(shard, item)
            return
        run_lock = self._run_locks[shard]
        if run_lock.acquire(blocking=False):
            try:
                # Nothing queued (the count falls only after an item has
                # run) and, the lock being ours, nothing executing: this
                # thread is the shard for one item.
                if not self._backlog[shard]:
                    self.shard_inline_dispatches[shard] += 1
                    if self.registry is not None:
                        self.registry.family(FABRIC_INLINE_DISPATCH_TOTAL).inc(
                            shard=str(shard)
                        )
                    self._run_item(shard, item)
                    return
            finally:
                run_lock.release()
        with self._idle:
            self._backlog[shard] += 1
            self._queues[shard].put(item)
            self._record_queue_depth(shard)

    def _record_queue_depth(self, shard: int) -> None:
        """Write the depth gauge where the depth changed — up on an
        enqueue, down when the loop has finished an item; the caller
        holds ``_idle``, so the last write is the latest depth."""
        if self.registry is not None:
            self.registry.family(FABRIC_SHARD_QUEUE_DEPTH).set(
                self._backlog[shard], shard=str(shard)
            )

    def _execute_item(self, shard: int, item: Tuple[str, object, object]) -> None:
        kind, a, b = item
        if kind == "event":
            self._process_event(shard, a, b)  # type: ignore[arg-type]
        else:
            a()  # type: ignore[operator]

    def _run_item(self, shard: int, item: Tuple[str, object, object]) -> None:
        """Execute one threads-mode item; the caller holds the run lock."""
        try:
            self._execute_item(shard, item)
        except Exception:
            # Isolate, whichever thread this is: a shard loop must not
            # die (its other channels must keep flowing) and a publisher
            # must not be handed a subscriber's failure.
            self.subscriber_errors += 1

    # -- shard loops -------------------------------------------------------------

    def _shard_loop(self, shard: int) -> None:
        q = self._queues[shard]
        run_lock = self._run_locks[shard]
        while True:
            try:
                item = q.get(timeout=0.05)
            except queue.Empty:
                if self._closed:
                    return
                # Idle tick: honor linger deadlines of batches whose
                # channels this shard owns (the sanctioned clock site).
                if self._batched:
                    with run_lock:
                        self._flush_due_batches(shard)
                continue
            if item is _STOP:
                return
            with run_lock:
                self._run_item(shard, item)
            # Only now, the item having run: a publisher that reads zero
            # may run its next event at once without overtaking this one.
            with self._idle:
                self._backlog[shard] -= 1
                self._record_queue_depth(shard)
                if not any(self._backlog):
                    self._idle.notify_all()

    def flush(self, timeout: float = 5.0) -> bool:
        """Block until every item queued — or being executed on another
        publisher's thread — at the time of the call has finished, and
        every pending batch has drained.

        Inline mode drains batches synchronously; threads mode dispatches
        one drain item per shard (batchers are only ever touched under
        the run lock of the shard that owns them, preserving per-channel
        ordering), waits for the queues to empty and then passes through
        each run lock once, all inside the one ``timeout``.
        """
        if self.mode == "inline":
            self._drain_batches(None)
            return True
        if self._batched and not self._closed:
            for shard in range(self.shard_count):
                self._dispatch(
                    shard, ("call", lambda s=shard: self._drain_batches(s), None)
                )
        deadline = _loop_now() + timeout
        with self._idle:
            while any(self._backlog):
                remaining = deadline - _loop_now()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        for run_lock in self._run_locks:
            if not run_lock.acquire(timeout=max(0.0, deadline - _loop_now())):
                return False
            run_lock.release()
        return True

    def close(self, timeout: float = 5.0) -> None:
        """Drain and stop the shard loops; idempotent.

        The drain is a :meth:`flush`, so no sink is still running — on a
        shard loop or on a publisher's thread — when this returns inside
        ``timeout``.
        """
        if self._closed:
            return
        self.flush(timeout)
        with self._lock:  # a racing subscribe lands before this or raises
            self._closed = True
        if self.mode == "threads":
            for q in self._queues:
                q.put(_STOP)
            for thread in self._threads:
                thread.join(timeout=timeout)

    # -- delivery ----------------------------------------------------------------

    def _delivery_plan(self, channel_id: str) -> _DeliveryPlan:
        """The channel's delivery groups; the caller holds ``_lock``."""
        plan = self._plans.get(channel_id)
        if plan is None:
            groups: Dict[Tuple[str, Tuple], Tuple] = {}
            for subscription in self._subscriptions.get(channel_id, ()):
                if not subscription.active:
                    continue
                key = (subscription.method, canonical_params(subscription.params))
                group = groups.get(key)
                if group is None:
                    groups[key] = (subscription.method, subscription.params, [subscription])
                else:
                    group[2].append(subscription)
            plan = list(groups.values())
            if plan:  # a publish nobody listens to leaves nothing behind
                self._plans[channel_id] = plan
        return plan

    def _process_event(self, shard: int, channel_id: str, event: Event) -> None:
        with self._lock:
            plan = self._delivery_plan(channel_id)
        deliveries = 0
        compressions = 0
        now: Optional[float] = None
        for method, params, group in plan:
            delivered, hit = self._prepare(event, method, params)
            if method != "none" and not hit:
                compressions += 1
            wire: Optional[memoryview] = None
            flushed_peer: Optional[FlushedBatch] = None
            for subscription in group:
                # Checked per member, per event: a sink may cancel a peer.
                if not subscription.active:
                    continue
                if subscription.wire and wire is None:
                    # One frame per group, shared zero-copy by all sinks
                    # (encode returns an owned bytearray; no copy).
                    wire = memoryview(WireFormat.encode(delivered)).toreadonly()
                    self.wire_frames_encoded += 1
                if subscription.batcher is not None:
                    if now is None and self.mode == "threads":
                        now = _loop_now()
                    flushed = subscription.batcher.add(wire, now, flushed_peer)
                    if flushed is not None:
                        flushed_peer = flushed
                        if not self._emit_batch(subscription, delivered, flushed):
                            continue
                else:
                    try:
                        subscription.callback(
                            delivered, wire if subscription.wire else None
                        )
                    except Exception:
                        # Threads mode isolates a blown sink from its peers
                        # (its channel must keep flowing for everyone else);
                        # inline mode stays loud — test/bench callers want
                        # the stack trace, not a counter.
                        if self.mode == "inline":
                            raise
                        self.subscriber_errors += 1
                        continue
                subscription.delivered += 1
                deliveries += 1
        self.events_published += 1
        self.deliveries_total += deliveries
        self.compressions_total += compressions
        self.shard_events[shard] += 1
        if self.registry is not None:
            record_fabric_delivery(
                self.registry,
                shard=shard,
                deliveries=deliveries,
                compressions=compressions,
                events_total=self.events_published,
                deliveries_total=self.deliveries_total,
            )

    def _emit_batch(self, subscription: FabricSubscription, event, flushed) -> bool:
        """Deliver one flushed batch to its sink; returns success.

        ``event`` is the member that tripped the flush, or ``None`` for
        deadline/drain flushes — batching sinks only use the wire view.
        """
        self.batches_emitted += 1
        self.batched_frames_total += flushed.frames
        if self.registry is not None:
            record_batch_flush(
                self.registry,
                frames=flushed.frames,
                fill_ratio=flushed.fill_ratio(subscription.batcher.config),
                reason=flushed.reason,
            )
        try:
            subscription.callback(event, memoryview(flushed.wire).toreadonly())
        except Exception:
            if self.mode == "inline":
                raise
            self.subscriber_errors += 1
            return False
        return True

    def _batched_for_shard(self, shard: Optional[int]) -> List[FabricSubscription]:
        with self._lock:
            batched = list(self._batched)
        if shard is None:
            return batched
        return [s for s in batched if self.shard_of(s.channel_id) == shard]

    def _flush_due_batches(self, shard: int) -> None:
        """Deadline-expire batches on this shard's idle tick (threads mode)."""
        now = _loop_now()
        for subscription in self._batched_for_shard(shard):
            if subscription.active and subscription.batcher.due(now):
                flushed = subscription.batcher.flush("deadline")
                if flushed is not None:
                    self._emit_batch(subscription, None, flushed)

    def _drain_batches(self, shard: Optional[int]) -> None:
        """Force-flush every pending batch (``shard=None`` = all of them)."""
        for subscription in self._batched_for_shard(shard):
            if not subscription.active:
                continue
            flushed = subscription.batcher.flush("drain")
            if flushed is not None:
                self._emit_batch(subscription, None, flushed)

    def _prepare(
        self,
        event: Event,
        method: str,
        params: Optional[Mapping[str, object]],
    ) -> Tuple[Event, bool]:
        """The compressed (or passthrough) event for one delivery group.

        Stamped by the same
        :func:`~repro.middleware.handlers.stamp_compression` as
        :class:`~repro.middleware.handlers.CompressionHandler`, so a
        fabric delivery is byte-identical on the wire to the serial
        per-subscriber path (the fan-out bench's CRC gate).
        """
        if method == "none":
            return event, False
        execution, hit = self.cache.execute(self.executor, method, event.payload, params)
        return stamp_compression(event, execution), hit

    @property
    def inline_dispatches(self) -> int:
        """Threads-mode items that ran on the thread that published them
        (the rest of what was dispatched went through a shard's queue)."""
        return sum(self.shard_inline_dispatches)

    @property
    def fanout_ratio(self) -> float:
        """Deliveries per published event (the compress-once multiplier)."""
        if not self.events_published:
            return 0.0
        return self.deliveries_total / self.events_published

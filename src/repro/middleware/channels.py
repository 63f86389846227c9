"""Event channels with derivation (paper §3.1-3.2).

"Event subscription utilizes event channels, which are the mechanisms
through which event producers and consumers are matched. ... it is
straightforward for ECho to apply computations — termed handlers — to
events, at any point in the data path between event producer and
consumer."

A channel delivers submitted events to its subscribers and to its
*derived* channels, each of which applies its handler first.  Deriving a
new channel at runtime — the consumer-driven operation at the heart of
§3.2 — therefore composes handler chains without touching producers,
which stay anonymous.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .events import Event
from .handlers import Handler

__all__ = ["EventChannel", "Subscription", "ChannelError"]


class ChannelError(Exception):
    """Misuse of the channel API (duplicate ids, dead subscriptions...)."""


class Subscription:
    """Handle returned by :meth:`EventChannel.subscribe`."""

    def __init__(self, channel: "EventChannel", callback: Callable[[Event], None]) -> None:
        self.channel = channel
        self.callback = callback
        self.active = True
        self.delivered = 0

    def cancel(self) -> None:
        """Unsubscribe; idempotent."""
        if self.active:
            self.active = False
            self.channel._remove(self)


class EventChannel:
    """A pub/sub channel with handler-deriving children."""

    def __init__(self, channel_id: str) -> None:
        if not channel_id:
            raise ChannelError("channel ids must be non-empty")
        self.channel_id = channel_id
        self._subscriptions: List[Subscription] = []
        self._derived: List[Tuple[Handler, "EventChannel"]] = []
        self._sequence = 0
        self.submitted = 0
        self.delivered_bytes = 0
        self._fabric = None

    def bind_fabric(self, fabric) -> None:
        """Route this channel's dispatch through an event fabric.

        Once bound, delivery runs on the shard that owns this channel id
        (:meth:`EventFabric.submit_channel <repro.fabric.broker.EventFabric.submit_channel>`):
        synchronous in the fabric's inline mode — identical semantics to
        the unbound channel — and serialized under the shard's run lock
        in threads mode (on the submitting thread when the shard is idle,
        on its loop otherwise; a subscriber that raises is counted by the
        fabric, not handed to the submitter).  Duck-typed on purpose: the
        middleware stays importable without the fabric package.
        """
        self._fabric = fabric

    def unbind_fabric(self) -> None:
        """Return to direct in-thread dispatch."""
        self._fabric = None

    # -- subscription -----------------------------------------------------------

    def subscribe(self, callback: Callable[[Event], None]) -> Subscription:
        """Register ``callback`` for every event on this channel."""
        subscription = Subscription(self, callback)
        self._subscriptions.append(subscription)
        return subscription

    def _remove(self, subscription: Subscription) -> None:
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscriptions)

    # -- derivation ----------------------------------------------------------------

    def derive(self, handler: Handler, channel_id: Optional[str] = None) -> "EventChannel":
        """Create a child channel fed through ``handler``.

        This is the §3.2 operation: "the consumer deploys a new method by
        simply deriving the appropriate event channel with that method."
        """
        child_id = channel_id or f"{self.channel_id}/derived-{len(self._derived)}"
        child = EventChannel(child_id)
        self._derived.append((handler, child))
        return child

    def drop_derived(self, child: "EventChannel") -> None:
        """Disconnect a derived channel (used when a method is retired)."""
        self._derived = [(h, c) for h, c in self._derived if c is not child]

    @property
    def derived_channels(self) -> List["EventChannel"]:
        return [child for _, child in self._derived]

    # -- submission -------------------------------------------------------------------

    def submit(self, event: Event) -> None:
        """Publish an event: deliver locally, then feed derived channels.

        Derived channels with no subscribers anywhere below them are
        skipped entirely, so an idle compression derivation costs nothing —
        the property that makes "maintaining a small number of open
        channels and switching among them" cheap (§3.2).
        """
        self._sequence += 1
        self.submitted += 1
        stamped = Event(
            payload=event.payload,
            attributes=dict(event.attributes),
            channel_id=self.channel_id,
            sequence=self._sequence,
            timestamp=event.timestamp,
        )
        self._dispatch(stamped)

    def submit_stamped(self, event: Event) -> None:
        """Deliver an event that already carries its identity.

        Used by transport mirrors: a remote delivery must keep the
        *origin* channel id and sequence number (out-of-order arrivals
        would otherwise be renumbered into arrival order, defeating
        consumer-side reassembly).
        """
        self.submitted += 1
        self._sequence = max(self._sequence, event.sequence)
        self._dispatch(event)

    def _dispatch(self, stamped: Event) -> None:
        if self._fabric is not None:
            self._fabric.submit_channel(self, stamped)
        else:
            self._deliver_direct(stamped)

    def _deliver_direct(self, stamped: Event) -> None:
        # Snapshot the eligible routes before delivering: a callback may
        # re-subscribe mid-delivery (the adaptive consumer switching
        # methods), and the event must not flow through both the old and
        # the newly activated derivation.
        eligible = [(h, c) for h, c in self._derived if c.has_listeners()]
        for subscription in list(self._subscriptions):
            if subscription.active:
                subscription.callback(stamped)
                subscription.delivered += 1
                self.delivered_bytes += stamped.size
        for handler, child in eligible:
            transformed = handler(stamped)
            if transformed is not None:
                child.submit(transformed)

    def has_listeners(self) -> bool:
        """True if any subscriber exists on this channel or below."""
        if self._subscriptions:
            return True
        return any(child.has_listeners() for _, child in self._derived)

"""Event handlers — computations applied in the data path (paper §3.1-3.2).

"Handlers may transform events, reduce their sizes or enhance the
information they contain, and they can even prevent events from being
transported ...  They are the key to the integration of compression
methods."

A handler maps an :class:`~repro.middleware.events.Event` to a transformed
event or ``None`` (drop).  :class:`CompressionHandler` and
:class:`DecompressionHandler` are the pair the paper integrates; a couple
of generic handlers (filter, tap) demonstrate the broader mechanism and
are used in tests and examples.

A compression handler's codec is its ``(method, params)`` resolved by
:func:`~repro.core.bicriteria.codec_for`, and all timed codec work routes
through one :class:`~repro.core.engine.CodecExecutor` per handler — the
shared execution substrate that owns the cost-model/CPU scaling rules and
the expansion guard (a codec that *grows* a block ships the original bytes
under method ``none``, so the method attribute stays truthful).  Modeled
pricing reaches a handler only through that executor: a caller that
prices on a cost model passes ``executor=CodecExecutor(cost_model, cpu,
expansion_fallback=True)``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..compression.base import canonical_params
from ..compression.registry import get_codec
from ..core.bicriteria import codec_for
from ..core.engine import CodecExecutor
from ..obs.catalogue import HANDLER_RECONFIGURATIONS_TOTAL, record_execution
from ..obs.metrics import MetricsRegistry
from .attributes import (
    ATTR_COMPRESSION_METHOD,
    ATTR_COMPRESSION_SECONDS,
    ATTR_ORIGINAL_SIZE,
)
from .events import Event

__all__ = [
    "Handler",
    "stamp_compression",
    "CompressionHandler",
    "DecompressionHandler",
    "FilterHandler",
    "TapHandler",
]

Handler = Callable[[Event], Optional[Event]]


def stamp_compression(event: Event, execution: "object", **extra: object) -> Event:
    """The event one codec run turns ``event`` into — the one "compress an
    event" stage every compression site (handlers, relay, fabric, the
    fan-out baseline) shares, so their wire frames are byte-identical.

    ``execution`` is the :class:`~repro.core.engine.BlockStats` of the run;
    the event gains the method that actually produced the bytes, the
    original size and the accounted seconds (plus any ``extra``
    attributes, stamped last).  Method ``none`` — requested passthrough
    or the expansion guard's fallback — keeps the original payload.
    """
    attributes = {
        ATTR_COMPRESSION_METHOD: execution.method,
        ATTR_ORIGINAL_SIZE: event.size,
        ATTR_COMPRESSION_SECONDS: execution.compression_seconds,
        **extra,
    }
    if execution.method == "none":
        return event.with_attributes(**attributes)
    return event.with_payload(execution.payload, **attributes)


class CompressionHandler:
    """Compress event payloads with one method and its parameters (producer side).

    Each derived channel owns one of these; switching methods at runtime
    means deriving (or re-subscribing to) a channel with a different
    handler — exactly the §3.2 mechanism.  The handler annotates events
    with the method name, original size, and compression time so the
    consumer can decompress and the adaptive controller can observe costs.

    ``params`` are the codec's constructor parameters, resolved once
    through :func:`~repro.core.bicriteria.codec_for` — the resolver every
    other compression site uses, so a handler's bytes equal a
    :class:`~repro.middleware.relay.CompressionRelay`'s for the same
    ``(method, params)``.  Paper §5, capability (3): "By permitting end
    users to dynamically change the parameters used by compression
    methods, they can also explicitly affect compression behavior" —
    :meth:`reconfigure` changes them while events keep flowing, and
    :meth:`bind` lets a consumer drive them through a quality attribute.

    When the codec expands a block (common on near-incompressible data
    such as molecular coordinates), the executor's expansion guard ships
    the original payload with method ``none`` — the time spent is still
    recorded, but the receiver never pays to decode a larger-than-original
    payload.
    """

    def __init__(
        self,
        method: str,
        executor: Optional[CodecExecutor] = None,
        registry: Optional[MetricsRegistry] = None,
        channel: str = "handler",
        params: Optional[dict] = None,
    ) -> None:
        self.method = method
        self.params = dict(params or {})
        self.codec = codec_for(method, canonical_params(self.params))
        self.registry = registry
        self.channel = channel
        self.reconfigurations = 0
        self.executor = (
            executor if executor is not None else CodecExecutor(expansion_fallback=True)
        )

    def reconfigure(self, **params: object) -> None:
        """Rebuild the codec with updated parameters (merged over current)."""
        self.params.update(params)
        self.codec = codec_for(self.method, canonical_params(self.params))
        self.reconfigurations += 1
        if self.registry is not None:
            self.registry.family(HANDLER_RECONFIGURATIONS_TOTAL).inc(
                channel=self.channel, method=self.method
            )

    def bind(self, attributes: "object", attribute_name: str) -> Callable[[], None]:
        """Follow a quality attribute: its value (a dict) reconfigures us.

        Returns the unsubscribe callable.
        """

        def on_change(name: str, value: object) -> None:
            if name == attribute_name and isinstance(value, dict):
                self.reconfigure(**value)

        return attributes.subscribe(on_change)

    def __call__(self, event: Event) -> Event:
        execution = self.executor.compress(self.method, event.payload, codec=self.codec)
        if self.registry is not None:
            record_execution(self.registry, self.channel, execution)
        return stamp_compression(event, execution)


class DecompressionHandler:
    """Invert :class:`CompressionHandler` (consumer side).

    The method name travels in the event attributes, so the consumer
    always knows how to reconstruct the application data (§3.2: "the
    consumer selected the specific new data compression method, it knows
    which decompression method to apply").
    """

    def __call__(self, event: Event) -> Event:
        method = event.attributes.get(ATTR_COMPRESSION_METHOD, "none")
        if method == "none":
            return event
        codec = get_codec(method)
        return event.with_payload(codec.decompress(event.payload))


class FilterHandler:
    """Drop events failing a predicate ("prevent events from being transported")."""

    def __init__(self, predicate: Callable[[Event], bool]) -> None:
        self.predicate = predicate

    def __call__(self, event: Event) -> Optional[Event]:
        return event if self.predicate(event) else None


class TapHandler:
    """Pass events through unchanged while recording them (monitoring aid)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __call__(self, event: Event) -> Event:
        self.events.append(event)
        return event

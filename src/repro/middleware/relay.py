"""The consumer-offload relay: compress raw blocks for slower downstream links.

The ``consumer`` placement of :mod:`repro.core.placement` ships blocks
raw across the producer's fast upstream hop and compresses *here*, at a
relay (or the subscriber itself) sitting in front of a slower downstream
link — the DTSchedule arrangement where the producer never stalls behind
its own compressor.  :class:`CompressionRelay` is that stage for the
event middleware: a handler-shaped callable that re-compresses incoming
raw events per their placement attributes and fans the compressed copies
out to downstream sinks.

Contract (what the CI placement gate enforces):

* **Byte-exactness** — the relay routes codec work through the same
  :class:`~repro.core.engine.CodecExecutor` / registry instances as
  producer-side compression, so its wire bytes are *identical* to what
  the producer would have produced for the same ``(method, params)``.
  The running :attr:`~CompressionRelay.crc_chain` over forwarded
  payloads makes that auditable without storing payloads: it must equal
  :func:`chain_crc` over a producer-side compression of the same block
  sequence.
* **Compress-once fan-out** — an optional
  :class:`~repro.fabric.cache.BlockCache` amortizes the codec run when
  several relays (or repeated payloads) resolve to one configuration.
* **Expansion guard** — a block the codec would expand is forwarded raw
  with method ``none``, exactly like every other compression site.

The only wall-clock read in this module is :func:`_relay_now`, which
stamps :attr:`~CompressionRelay.last_forward_monotonic` so operators can
spot a stalled relay; ``scripts/check.sh`` pins this module to exactly
one sanctioned clock-read site.  No modeled or accounted time ever comes
from it — codec seconds are engine-accounted, keeping relay replays
deterministic.
"""

from __future__ import annotations

import time
import zlib
from typing import Callable, Iterable, List, Mapping, Optional

from ..compression.base import canonical_params, params_label
from ..core.bicriteria import codec_for
from ..core.engine import CodecExecutor
from ..obs.catalogue import record_relay_event
from ..obs.metrics import MetricsRegistry
from .attributes import ATTR_COMPRESSION_METHOD
from .events import Event
from .handlers import stamp_compression

__all__ = [
    "ATTR_PLACEMENT",
    "ATTR_RELAY_METHOD",
    "ATTR_RELAY_PARAMS",
    "CompressionRelay",
    "chain_crc",
]

#: Which arrangement the producer chose for this event
#: (:data:`repro.core.placement.PLACEMENTS`).
ATTR_PLACEMENT = "placement.arrangement"
#: Codec a downstream relay should apply to a ``consumer``-placed event.
ATTR_RELAY_METHOD = "placement.relay_method"
#: Canonical parameter tuple for the relay codec (as produced by
#: :func:`repro.compression.base.canonical_params`).
ATTR_RELAY_PARAMS = "placement.relay_parameters"


def _relay_now() -> float:
    """The relay's single sanctioned wall-clock read (liveness stamp)."""
    return time.monotonic()


def chain_crc(payloads: Iterable[bytes]) -> int:
    """CRC-32 chained over ``payloads`` in order.

    The chain fingerprints an entire ordered payload sequence in one
    integer: producer-side and relay-side compression of the same blocks
    must yield equal chains, which is how benches and the CI gate assert
    byte-exact fan-out without retaining payloads.
    """
    crc = 0
    for payload in payloads:
        crc = zlib.crc32(payload, crc)
    return crc & 0xFFFFFFFF


class CompressionRelay:
    """Re-compress ``consumer``-placed events for a slower downstream link.

    Handler-shaped: calling the relay with an :class:`Event` returns the
    forwarded (possibly compressed) event after delivering it to every
    subscribed sink, so it slots wherever a
    :class:`~repro.middleware.handlers.CompressionHandler` does —
    including as the ``deliver`` target of a
    :class:`~repro.middleware.chaos.ReliableEventLink`.

    Method resolution per event: an event carrying
    :data:`ATTR_RELAY_METHOD` (set by the placement-aware producer) is
    compressed with that codec; otherwise the relay's ``method`` applies.
    Parameters travel only in :data:`ATTR_RELAY_PARAMS` (absent: the
    codec's registered defaults).  Events that arrive already compressed
    (producer placement) pass through untouched — the relay never
    double-compresses — but still enter the CRC chain, which therefore
    covers the full forwarded wire sequence.  Modeled pricing reaches the
    relay only through ``executor``, as for a compression handler.
    """

    def __init__(
        self,
        method: str = "lempel-ziv",
        executor: Optional[CodecExecutor] = None,
        cache: Optional[object] = None,
        registry: Optional[MetricsRegistry] = None,
        channel: str = "relay",
    ) -> None:
        self.method = method
        self.cache = cache
        self.registry = registry
        self.channel = channel
        self.executor = (
            executor if executor is not None else CodecExecutor(expansion_fallback=True)
        )
        self._sinks: List[Callable[[Event], None]] = []
        #: Running CRC-32 over every forwarded wire payload, in order.
        self.crc_chain = 0
        self.events_forwarded = 0
        self.events_compressed = 0
        self.cache_hits = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: Engine-accounted codec seconds spent at the relay (the
        #: "relay" bar of the time-breakdown figure).
        self.relay_seconds = 0.0
        #: Monotonic stamp of the last forward (liveness; never modeled).
        self.last_forward_monotonic: Optional[float] = None

    def subscribe(self, sink: Callable[[Event], None]) -> None:
        """Add a downstream sink; every forwarded event reaches each one."""
        self._sinks.append(sink)

    # -- the relay stage ---------------------------------------------------------

    def __call__(self, event: Event) -> Event:
        """Compress (if placement asks for it) and fan out one event."""
        self.last_forward_monotonic = _relay_now()
        self.bytes_in += event.size
        already = event.attributes.get(ATTR_COMPRESSION_METHOD, "none")
        method = event.attributes.get(ATTR_RELAY_METHOD, self.method)
        params = event.attributes.get(ATTR_RELAY_PARAMS)
        if params is not None and not isinstance(params, Mapping):
            params = dict(params)
        if already != "none" or method == "none":
            forwarded = event
        else:
            # Resolved once, so the bytes cannot depend on whether a cache
            # is attached: both branches run this very codec.
            codec = codec_for(method, canonical_params(params)) if params else None
            if self.cache is not None:
                execution, hit = self.cache.execute(
                    self.executor, method, event.payload, params, codec=codec
                )
                if hit:
                    self.cache_hits += 1
            else:
                execution = self.executor.compress(method, event.payload, codec=codec)
            self.events_compressed += 1
            self.relay_seconds += execution.compression_seconds
            if self.registry is not None:
                record_relay_event(
                    self.registry,
                    method=execution.method,
                    params=params_label(params),
                    bytes_in=event.size,
                    bytes_out=execution.compressed_size,
                )
            forwarded = stamp_compression(
                event, execution, **{ATTR_PLACEMENT: "consumer"}
            )
        self.events_forwarded += 1
        self.bytes_out += forwarded.size
        self.crc_chain = zlib.crc32(forwarded.payload, self.crc_chain) & 0xFFFFFFFF
        for sink in self._sinks:
            sink(forwarded)
        return forwarded

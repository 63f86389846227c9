"""The shared compressed-block cache behind compress-once/fan-out-many.

The paper's exchange model compresses per publish-subscribe channel;
at fan-out scale that repeats identical codec work every time several
derived channels resolve to the same method for the same payload.  This
module is the amortization point: a bounded LRU keyed by
``(payload_crc32, payload_length, method, canonical_params)`` whose
values are the executor's own :class:`~repro.core.engine.BlockStats` —
the compressed wire bytes plus the engine-accounted cost of producing
them.  The first subscriber group pays the codec; every other group
that resolved to the same configuration is served the *same* record,
hence the same ``bytes`` object and the same read-only ``view``
(zero-copy — consumers never mutate, and must copy before retaining
past the delivery).

Keying discipline: the payload is identified by CRC32 **and length**
(length is free and removes the cheap collision class), the method by
its registry name, and the parameters by
:func:`repro.compression.base.canonical_params` — so ``{"level": 6}``
and every equivalent spelling share one entry.  Compression itself still
routes through a :class:`~repro.core.engine.CodecExecutor`: the cache
never runs a codec, it only remembers executions, so the one-timing-site
and expansion-guard invariants keep holding.

The CRC is the one part of a key that costs a pass over the payload, and
a fan-out looks the same payload *object* up once per (channel, group).
The cache therefore remembers the digest of the last ``bytes`` object it
keyed (:meth:`BlockCache._crc32`) — identity is only the shortcut to the
digest, content stays the key, and mutable buffers are digested on every
lookup.

Bounds: both an entry count and a byte budget; eviction is strict LRU
from the cold end, and a block bigger than the byte budget is returned
uncached rather than evicting the whole cache for one giant payload.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from dataclasses import replace
from typing import Mapping, Optional, Tuple

from ..compression.base import Codec, canonical_params, params_label
from ..core.engine import BlockStats, CodecExecutor
from ..obs.catalogue import (
    CACHE_EVICTIONS_TOTAL,
    CACHE_HITS_TOTAL,
    CACHE_MISSES_TOTAL,
    record_cache_size,
)
from ..obs.metrics import MetricsRegistry

__all__ = ["BlockCache", "CacheKey"]

#: ``(payload_crc32, payload_length, method, canonical_params)``.
CacheKey = Tuple[int, int, str, Tuple[Tuple[str, object], ...]]


class BlockCache:
    """Bounded LRU of codec-run records, keyed by payload+configuration.

    Thread-safe: shards of the fabric share one instance, and the lock
    only guards the map bookkeeping — codec runs happen outside it (a
    racing duplicate compression is benign and byte-identical, losing
    only the amortization for that one event).
    """

    def __init__(
        self,
        max_entries: int = 1024,
        max_bytes: int = 64 * 1024 * 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.registry = registry
        self._entries: "OrderedDict[CacheKey, BlockStats]" = OrderedDict()
        self._lock = threading.Lock()
        self.bytes_held = 0
        self._digest: Tuple[Optional[bytes], int] = (None, 0)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- keying ------------------------------------------------------------------

    @staticmethod
    def key_for(
        payload: bytes, method: str, params: Optional[Mapping[str, object]] = None
    ) -> CacheKey:
        """The canonical cache key for one (payload, configuration) pair."""
        return (zlib.crc32(payload), len(payload), method, canonical_params(params))

    # -- the compress-once entry point -------------------------------------------

    def execute(
        self,
        executor: CodecExecutor,
        method: str,
        payload: bytes,
        params: Optional[Mapping[str, object]] = None,
        codec: Optional[Codec] = None,
    ) -> Tuple[BlockStats, bool]:
        """Compress once per configuration; returns ``(execution, hit)``.

        ``params`` keys the entry; ``codec`` is the instance a caller has
        already resolved for those params (the relay), run on a miss in
        place of the registry default for ``method``.

        A hit returns the remembered execution itself (same record, same
        bytes object, same accounted seconds — the cost that was actually
        paid, once); a miss runs the executor and caches the outcome.
        Method ``none`` is never cached: passthrough costs nothing to
        "recompute".
        """
        if method == "none":
            return executor.compress(method, payload), False
        key = (self._crc32(payload), len(payload), method, canonical_params(params))
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if cached is not None:
            if self.registry is not None:
                self.registry.family(CACHE_HITS_TOTAL).inc(
                    method=method, params=params_label(key[3])
                )
            return cached, True
        execution = executor.compress(method, payload, codec=codec)
        with self._lock:
            self.misses += 1
        if not isinstance(execution.payload, bytes):
            # copy-ok: a cached entry outlives the event; retaining a view
            # here would pin the producer's whole backing buffer in the LRU.
            execution = replace(execution, payload=bytes(execution.payload))
        self._store(key, execution)
        if self.registry is not None:
            self.registry.family(CACHE_MISSES_TOTAL).inc(
                method=method, params=params_label(key[3])
            )
            record_cache_size(self.registry, self.bytes_held, len(self._entries))
        return execution, False

    def _crc32(self, payload: bytes) -> int:
        """``zlib.crc32(payload)``, remembered for the last ``bytes`` object.

        A fan-out looks the same payload object up once per (channel,
        group); the digest depends on nothing else.
        """
        remembered, crc = self._digest
        if remembered is payload:
            return crc
        crc = zlib.crc32(payload)
        if type(payload) is bytes:
            # One tuple, one assignment: a racing shard reads the old pair
            # or the new one, never a payload with another's digest.  The
            # reference held here is what keeps ``is`` sound (the id cannot
            # be reused while the memo lives).  Only ``bytes``: a bytearray
            # or memoryview can change under the same identity.
            self._digest = (payload, crc)
        return crc

    # -- bookkeeping -------------------------------------------------------------

    def _store(self, key: CacheKey, block: BlockStats) -> None:
        size = len(block.payload)
        if size > self.max_bytes:
            return  # one oversized block must not flush the whole cache
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.bytes_held -= len(previous.payload)
            self._entries[key] = block
            self.bytes_held += size
            evicted = []
            while (
                len(self._entries) > self.max_entries
                or self.bytes_held > self.max_bytes
            ):
                old_key, old_block = self._entries.popitem(last=False)
                self.bytes_held -= len(old_block.payload)
                self.evictions += 1
                evicted.append(old_key)
        if self.registry is not None:
            for old_key in evicted:
                self.registry.family(CACHE_EVICTIONS_TOTAL).inc(
                    method=old_key[2], params=params_label(old_key[3])
                )

    # -- views -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """A snapshot for CLI output and bench reports."""
        return {
            "entries": len(self._entries),
            "bytes": self.bytes_held,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes_held = 0
            self._digest = (None, 0)

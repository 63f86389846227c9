"""Jumbo-frame batching: coalesce small event frames per subscriber.

At fan-out scale the dominant per-event cost on a real socket path is
not bytes but *boundaries*: one ``sendmsg`` and one delivery callback
per event.  A :class:`FrameBatcher` buffers encoded wire frames for one
(shard, connection) pair and flushes them as a single
:func:`~repro.compression.framing.encode_jumbo_frame` super-frame when
any of three triggers fires:

* ``max_frames`` members buffered;
* ``max_bytes`` of member bytes buffered;
* the ``linger_seconds`` deadline since the first buffered member — but
  **only when the caller supplies timestamps**.  The batcher itself
  never reads a clock: the fabric's threads-mode deliveries pass
  :func:`repro.fabric.broker._loop_now` (the one sanctioned clock site),
  and clock-free callers (inline mode, benches) get deterministic
  threshold-only batching plus explicit drains.

Buffering is zero-copy: ``add`` retains the caller's frame views (the
shared per-group wire views the fabric already hands out) and the single
copy per member happens at flush time, into the jumbo buffer.  The
retained views pin their backing buffers until the flush — bounded by
``max_bytes``, which is the memory contract.  Nothing references a frame
after its flush: the members leave on the :class:`FlushedBatch`, and
:meth:`FrameBatcher.discard` drops what a cancelled subscriber still held.

State is per subscriber; the flushed buffer need not be.  The subscribers
of one fabric delivery group are handed the same frame objects, so those
that joined together flush identical lists at identical moments:
:meth:`FrameBatcher.flush` takes the group's previous ``FlushedBatch`` and
returns it, instead of assembling a byte-identical copy, when reason and
member objects match.  Used alone (no ``peer``) a batcher assembles
eagerly, as ever.

A batch of one is flushed as the bare member frame (no jumbo envelope):
receivers must handle both shapes anyway, and a lone frame gains nothing
from eight bytes of wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import List, Optional, Sequence, Tuple, Union

from ..compression.framing import encode_jumbo_frame

__all__ = ["BatchConfig", "FlushedBatch", "FrameBatcher"]

_Buffer = Union[bytes, bytearray, memoryview]


@dataclass(frozen=True)
class BatchConfig:
    """Thresholds for one :class:`FrameBatcher`.

    The defaults target the small-event regime batching exists for:
    jumbo frames near the 64 KB socket-buffer sweet spot, a frame cap
    that bounds per-flush latency spread, and a linger short enough to
    stay invisible next to WAN round-trip times.
    """

    max_frames: int = 32
    max_bytes: int = 60 * 1024
    linger_seconds: float = 0.005

    def __post_init__(self) -> None:
        if self.max_frames < 1:
            raise ValueError("max_frames must be positive")
        if self.max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if self.linger_seconds < 0:
            raise ValueError("linger_seconds must be non-negative")


@dataclass(frozen=True)
class FlushedBatch:
    """One emitted batch: the wire buffer plus flush bookkeeping."""

    wire: _Buffer
    frames: int
    member_bytes: int
    reason: str
    #: The frames ``wire`` was assembled from, which is how a later flush
    #: recognises a batch it can share.  They live exactly as long as this
    #: record does; batchers keep no reference to either.
    members: Sequence[_Buffer] = ()

    def fill_ratio(self, config: BatchConfig) -> float:
        """Member bytes over the byte budget — how full the batch ran."""
        return min(1.0, self.member_bytes / config.max_bytes)


class FrameBatcher:
    """Accumulates encoded frames for one subscriber; flushes jumbo frames.

    Not thread-safe by design: a batcher belongs to exactly one fabric
    subscription, and every touch happens under the run lock of the
    shard that owns the subscription's channel (or on the caller's
    thread in inline mode).
    """

    def __init__(self, config: Optional[BatchConfig] = None) -> None:
        self.config = config if config is not None else BatchConfig()
        self._frames: List[_Buffer] = []
        self._bytes = 0
        self._deadline: Optional[float] = None
        self.frames_batched = 0
        self.batches_emitted = 0
        self.bytes_batched = 0

    @property
    def pending_frames(self) -> int:
        return len(self._frames)

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    def add(
        self,
        frame: _Buffer,
        now: Optional[float] = None,
        peer: Optional[FlushedBatch] = None,
    ) -> Optional[FlushedBatch]:
        """Buffer one encoded frame; returns a batch if a threshold tripped.

        ``now`` arms (and checks) the linger deadline; passing ``None``
        keeps the batcher clock-free — thresholds and explicit
        :meth:`flush` are then the only triggers.  ``peer`` is handed to
        :meth:`flush`.
        """
        if self._deadline is None and now is not None and not self._frames:
            self._deadline = now + self.config.linger_seconds
        self._frames.append(frame)
        self._bytes += len(frame)
        self.frames_batched += 1
        self.bytes_batched += len(frame)
        if len(self._frames) >= self.config.max_frames:
            return self.flush("frames", peer)
        if self._bytes >= self.config.max_bytes:
            return self.flush("bytes", peer)
        if now is not None and self._deadline is not None and now >= self._deadline:
            return self.flush("deadline", peer)
        return None

    def due(self, now: float) -> bool:
        """Whether a deadline flush is owed at ``now`` (idle-tick probe)."""
        return bool(self._frames) and self._deadline is not None and now >= self._deadline

    def flush(
        self, reason: str = "drain", peer: Optional[FlushedBatch] = None
    ) -> Optional[FlushedBatch]:
        """Emit everything buffered (or ``None`` when empty).

        ``peer`` is a batch another subscriber of the same delivery group
        just flushed.  When it was flushed for the same reason from the
        very same frame objects in the same order, its buffer already
        holds the bytes this flush would assemble, and ``peer`` itself is
        returned: one copy and one CRC pass per group, not per subscriber.
        Anything else — a late joiner's shorter list, another
        configuration's other threshold — assembles its own.
        """
        if not self._frames:
            return None
        frames, member_bytes = self._take()
        self.batches_emitted += 1
        if (
            peer is not None
            and peer.reason == reason
            and len(peer.members) == len(frames)
            and all(map(is_, peer.members, frames))
        ):
            return peer
        wire = frames[0] if len(frames) == 1 else encode_jumbo_frame(frames)
        return FlushedBatch(wire, len(frames), member_bytes, reason, frames)

    def discard(self) -> int:
        """Drop everything buffered unsent (the sink is gone); returns how
        many frames that was."""
        return len(self._take()[0])

    def _take(self) -> Tuple[List[_Buffer], int]:
        frames, member_bytes = self._frames, self._bytes
        self._frames, self._bytes, self._deadline = [], 0, None
        return frames, member_bytes

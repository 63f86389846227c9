"""Out-of-order event delivery and reassembly (paper §2.4 motivation).

The modified Burrows-Wheeler pipeline exists "to enable us to decompress
the file when the order of blocks received does not exactly correspond to
the order in which it is sent."  :class:`OrderedReassembly` is the
consumer-side buffer that releases events in sequence order, tracks gaps,
and (optionally) flushes stragglers after a window overflow; the hostile
wire that delivers out of order is
:class:`~repro.middleware.chaos.ChaosWire` (its ``reorder`` fault).

Because every compressed event is self-contained (method id in the
attributes, self-describing codec payloads), events can be *decompressed*
in arrival order and only the application byte stream needs reassembly —
exactly the property the paper engineered with its 255 chunk markers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .events import Event

__all__ = ["OrderedReassembly"]


class OrderedReassembly:
    """Release events strictly in ``sequence`` order.

    ``deliver`` is called for each released event.  Out-of-sequence
    arrivals are buffered; ``pending`` exposes the gap state.  If the
    buffer exceeds ``max_pending``, the oldest missing sequence is
    declared lost and delivery resumes after it (counted in ``gaps``) —
    the behaviour a streaming consumer needs on lossy paths.

    On paths with fault injection a buffered fragment can turn out to be
    damaged after the fact (e.g. its decompression fails even though the
    frame checksum passed, or an application-level digest mismatches):
    :meth:`damaged` discards it and asks the sender for a fresh copy
    through the ``request`` callback, and :meth:`missing` lists the
    sequence gaps a re-request loop should fill.
    """

    def __init__(
        self,
        deliver: Callable[[Event], None],
        first_sequence: int = 1,
        max_pending: Optional[int] = None,
        request: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive")
        self._deliver = deliver
        self._next = first_sequence
        self._buffer: Dict[int, Event] = {}
        self.max_pending = max_pending
        self._request = request
        self.delivered = 0
        self.gaps = 0
        self.rerequested = 0

    @property
    def pending(self) -> int:
        """Number of buffered out-of-order events."""
        return len(self._buffer)

    @property
    def next_sequence(self) -> int:
        return self._next

    def push(self, event: Event) -> None:
        """Accept one event in arrival order."""
        if event.sequence < self._next:
            return  # duplicate or already skipped-over; drop silently
        self._buffer[event.sequence] = event
        self._drain()
        if self.max_pending is not None and len(self._buffer) > self.max_pending:
            # Declare the head-of-line sequence lost and move on.
            self._next = min(self._buffer)
            self.gaps += 1
            self._drain()

    def _drain(self) -> None:
        while self._next in self._buffer:
            event = self._buffer.pop(self._next)
            self._next += 1
            self.delivered += 1
            self._deliver(event)

    def damaged(self, sequence: int) -> None:
        """Discard a damaged buffered fragment and re-request it.

        No-op for sequences already released (too late to matter).  The
        sequence becomes an ordinary gap the sender must refill — the
        ``request`` callback (when attached) carries the ask.
        """
        if sequence < self._next:
            return
        self._buffer.pop(sequence, None)
        self.rerequested += 1
        if self._request is not None:
            self._request(sequence)

    def missing(self) -> List[int]:
        """Sequence numbers a re-request loop should fill (current gaps)."""
        if not self._buffer:
            return []
        return [
            sequence
            for sequence in range(self._next, max(self._buffer))
            if sequence not in self._buffer
        ]

    def flush(self) -> List[int]:
        """Release everything buffered (in order), returning missing seqs."""
        missing: List[int] = []
        while self._buffer:
            head = min(self._buffer)
            missing.extend(range(self._next, head))
            if head > self._next:
                self.gaps += 1
            self._next = head
            self._drain()
        return missing

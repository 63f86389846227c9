"""Events — the unit of exchange in the ECho-like middleware (paper §3.1).

An event carries an opaque payload (application data, typically
PBIO-encoded), a free-form attribute map (the paper's *quality
attributes* travel here when they are per-event), and bookkeeping set by
the channel machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Event"]


@dataclass(frozen=True)
class Event:
    """One immutable event.  Handlers produce transformed copies."""

    payload: bytes
    attributes: Dict[str, Any] = field(default_factory=dict)
    channel_id: str = ""
    sequence: int = 0
    timestamp: float = 0.0

    def with_payload(self, payload: bytes, **extra_attributes: Any) -> "Event":
        """Copy with a new payload and optional added attributes."""
        attributes = dict(self.attributes)
        attributes.update(extra_attributes)
        return Event(payload, attributes, self.channel_id, self.sequence, self.timestamp)

    def with_attributes(self, **extra_attributes: Any) -> "Event":
        """Copy with added/overridden attributes."""
        attributes = dict(self.attributes)
        attributes.update(extra_attributes)
        return Event(self.payload, attributes, self.channel_id, self.sequence, self.timestamp)

    @property
    def size(self) -> int:
        return len(self.payload)

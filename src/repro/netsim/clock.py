"""Clocks for the simulation substrate.

End-to-end experiments (Figures 8-12) run on a :class:`VirtualClock` so a
160-second MBone replay finishes in milliseconds and is bit-for-bit
reproducible; microbenchmarks use the :class:`WallClock` so codec times are
real.  Everything above this module takes "a clock" and does not care
which.
"""

from __future__ import annotations

import time
from typing import Protocol

__all__ = ["Clock", "VirtualClock", "WallClock"]


class Clock(Protocol):
    """Minimal clock interface used across the simulator."""

    def now(self) -> float:
        """Current time in seconds."""
        ...

    def advance(self, seconds: float) -> None:
        """Move time forward (no-op for real clocks)."""
        ...


class VirtualClock:
    """Deterministic simulated time, from 0."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._now += seconds


class WallClock:
    """Real time (monotonic); ``advance`` sleeps nothing and is a no-op,
    because real time advances by itself while work runs."""

    def now(self) -> float:
        return time.perf_counter()

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time cannot move backwards")

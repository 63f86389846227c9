"""MBone-style network load traces (paper §4.2, Figure 7, ref [36]).

The paper varies network load by replaying "load traces captured for the
MBone multicast infrastructure … the number of end users that connect to
MBone sessions over time", scaled by a factor of 4 to match 100 MBit
capacities.  The original traces are not published, so
:func:`mbone_trace` synthesizes a piecewise-constant session-count series
with the qualitative shape of Figure 7: a quiet start, a ramp into a busy
regime of 5-19 connections with short bursts, a mid-run lull, and late
spikes, over 160 seconds.
"""

from __future__ import annotations

import bisect
import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple, Union

__all__ = ["LoadTrace", "mbone_trace"]


@dataclass(frozen=True)
class LoadTrace:
    """A piecewise-constant ``connections(t)`` series."""

    #: Segment start times, strictly increasing, starting at 0.0.
    times: Tuple[float, ...]
    #: Connection counts per segment (same length as ``times``).
    connections: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.connections) or not self.times:
            raise ValueError("times and connections must be equal-length, non-empty")
        if self.times[0] != 0.0:
            raise ValueError("traces must start at t=0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if any(c < 0 for c in self.connections):
            raise ValueError("connection counts must be non-negative")

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[float, float]]) -> "LoadTrace":
        """Build from ``(time, connections)`` pairs."""
        times, connections = zip(*pairs)
        return cls(tuple(float(t) for t in times), tuple(float(c) for c in connections))

    def connections_at(self, t: float) -> float:
        """Connection count in force at time ``t`` (clamped at the ends)."""
        if t <= self.times[0]:
            return self.connections[0]
        index = bisect.bisect_right(self.times, t) - 1
        return self.connections[index]

    def scaled(self, factor: float) -> "LoadTrace":
        """Connection counts multiplied by ``factor`` (the paper's x4 rule)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return LoadTrace(self.times, tuple(c * factor for c in self.connections))

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a two-column CSV (``time,connections``).

        The MBone traces the paper used were distributed as flat files;
        this lets users replay their own captures through the simulator.
        """
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time", "connections"])
            for t, c in zip(self.times, self.connections):
                writer.writerow([t, c])

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LoadTrace":
        """Read a trace written by :meth:`save` (header optional)."""
        pairs: List[Tuple[float, float]] = []
        with open(path, newline="") as handle:
            for row in csv.reader(handle):
                if not row or row[0].strip().lower() == "time":
                    continue
                pairs.append((float(row[0]), float(row[1])))
        if not pairs:
            raise ValueError(f"no trace rows in {path}")
        return cls.from_pairs(pairs)

    def shifted(self, offset: float) -> "LoadTrace":
        """Drop everything before ``offset`` and rebase that instant to t=0.

        Used by the bulk-transfer experiments, which run against the busy
        region of the MBone trace rather than its quiet prologue.
        """
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if offset >= self.times[-1]:
            raise ValueError("offset beyond end of trace")
        level = self.connections_at(offset)
        pairs = [(0.0, level)] + [
            (t - offset, c)
            for t, c in zip(self.times, self.connections)
            if t > offset
        ]
        return LoadTrace.from_pairs(pairs)

    @property
    def duration(self) -> float:
        """Time of the last segment start (the replay horizon)."""
        return self.times[-1]

    def sample(self, step: float = 1.0) -> Iterator[Tuple[float, float]]:
        """Yield ``(t, connections)`` on a regular grid — Figure 7's series."""
        if step <= 0:
            raise ValueError("step must be positive")
        t = 0.0
        while t <= self.duration:
            yield t, self.connections_at(t)
            t += step


#: The busiest level of the MBone trace, in connections (Figure 7 peaks under 20).
MBONE_PEAK = 19.0


def mbone_trace(duration: float = 160.0, seed: int = 7) -> LoadTrace:
    """Synthesize an MBone-shaped load trace (Figure 7).

    Structure: ~8 s of silence, a busy phase with bursty levels between a
    third of :data:`MBONE_PEAK` and the peak, a lull around 60 % of the
    run, and a final burst before decay.  Deterministic per ``seed``.
    """
    peak = MBONE_PEAK
    if duration <= 20:
        raise ValueError("duration too short for the MBone shape")
    rng = random.Random(seed)
    pairs: List[Tuple[float, float]] = [(0.0, 0.0)]
    t = rng.uniform(6.0, 10.0)
    lull_start = duration * 0.58
    lull_end = duration * 0.75
    while t < duration:
        if lull_start <= t < lull_end:
            level = rng.uniform(0.0, peak * 0.2)
        else:
            base = rng.uniform(peak * 0.3, peak * 0.8)
            burst = rng.random() < 0.3
            level = min(peak, base + (rng.uniform(peak * 0.2, peak * 0.5) if burst else 0.0))
        pairs.append((t, round(level)))
        t += rng.uniform(4.0, 12.0)
    pairs.append((duration, 0.0))
    return LoadTrace.from_pairs(pairs)

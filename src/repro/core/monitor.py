"""Continuous resource monitoring for the selector (paper §2.5).

"In this algorithm, we use the term 'reducing speed' to capture the speed
at which (given currently available CPU cycles) a certain method is able
to compress data.  This speed is measured continually, as subsequent
blocks of data are compressed."

:class:`ReducingSpeedMonitor` keeps a smoothed per-codec estimate of that
metric, seeded at infinity for the first block exactly as the pseudocode
prescribes ("Assume the reducing size speed of first block is infinity").

The monitor is a thin view over a
:class:`~repro.obs.metrics.MetricsRegistry`: the EWMA state lives in
labeled gauges (``repro_reducing_speed_bytes_per_second{codec=...}``),
so ``repro stats`` and any other obs consumer read the same numbers the
selector acts on.  Each codec's two series are bound once, in a
:class:`~repro.obs.catalogue.SeriesBook`, so a read or a fold is a slot
access, not a label resolution.  Pass a shared
registry to co-locate them with the rest of a process's telemetry; by
default each monitor owns a private one.
"""

from __future__ import annotations

import math
from typing import Optional

from ..obs.catalogue import CODEC_OBSERVATIONS_TOTAL, REDUCING_SPEED, SeriesBook
from ..obs.metrics import MetricsRegistry

__all__ = ["ReducingSpeedMonitor"]

#: EWMA weight of each new reducing-speed sample.
ALPHA = 0.5


class ReducingSpeedMonitor:
    """EWMA of bytes-removed-per-second, per codec.

    Observations come from both sampling runs (the 4 KB fork of §2.5) and
    full-block compressions, so CPU-load changes show up within a block or
    two.  A codec never observed reports ``math.inf`` — the paper's
    optimistic initial assumption.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # Both families exist from the start, series or not.
        self.registry.family(REDUCING_SPEED)
        self.registry.family(CODEC_OBSERVATIONS_TOTAL)
        self._book = SeriesBook(self.registry)

    def _fold_speed(self, codec_name: str, speed: float) -> None:
        speeds = self._book(REDUCING_SPEED, codec_name)
        previous = speeds.value()
        if previous is None or math.isinf(previous):
            updated = speed
        else:
            updated = previous + ALPHA * (speed - previous)
        speeds.set(updated)
        self._book(CODEC_OBSERVATIONS_TOTAL, codec_name).inc()

    def observe_raw(self, codec_name: str, bytes_saved: int, seconds: float) -> None:
        """Fold one timed run: ``bytes_saved`` removed in ``seconds``."""
        if seconds <= 0 or bytes_saved < 0:
            return
        self._fold_speed(codec_name, bytes_saved / seconds)

    def observe_speed(self, codec_name: str, speed: float) -> None:
        """Fold an already-computed reducing-speed sample (bytes/second)."""
        if speed < 0 or math.isinf(speed) or math.isnan(speed):
            return
        self._fold_speed(codec_name, speed)

    def reducing_speed(self, codec_name: str) -> float:
        """Current estimate; ``inf`` until first observation (pseudocode line 1)."""
        value = self._book(REDUCING_SPEED, codec_name).value()
        return value if value is not None else math.inf

    def observations(self, codec_name: str) -> int:
        """Total speed observations folded for ``codec_name``.

        A consumer that records this count per decision can detect *stale*
        feedback — the count stops moving when the measurement path breaks
        — which is what drives the selector's degraded fallback.
        """
        return int(self._book(CODEC_OBSERVATIONS_TOTAL, codec_name).value())

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
labeled gauges (``repro_reducing_speed_bytes_per_second{codec=...}``,
``repro_codec_ratio{codec=...}``), so ``repro stats`` and any other obs
consumer read the same numbers the selector acts on.  Pass a shared
registry to co-locate them with the rest of a process's telemetry; by
default each monitor owns a private one.
"""

from __future__ import annotations

import math
from typing import Optional, Set

from ..compression.base import CompressionResult
from ..obs.catalogue import CODEC_OBSERVATIONS_TOTAL, CODEC_RATIO, REDUCING_SPEED
from ..obs.metrics import MetricsRegistry

__all__ = ["ReducingSpeedMonitor"]


class ReducingSpeedMonitor:
    """EWMA of bytes-removed-per-second, per codec.

    Observations come from both sampling runs (the 4 KB fork of §2.5) and
    full-block compressions, so CPU-load changes show up within a block or
    two.  A codec never observed reports ``math.inf`` — the paper's
    optimistic initial assumption.
    """

    def __init__(
        self, alpha: float = 0.5, registry: Optional[MetricsRegistry] = None
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.registry = registry if registry is not None else MetricsRegistry()
        self._speeds = self.registry.family(REDUCING_SPEED)
        self._ratios = self.registry.family(CODEC_RATIO)
        self._observations = self.registry.family(CODEC_OBSERVATIONS_TOTAL)
        # Track which codec labels this monitor wrote, so reset() on a
        # shared registry only clears its own series.
        self._codecs: Set[str] = set()

    def _fold_speed(self, codec_name: str, speed: float) -> None:
        previous = self._speeds.value(codec=codec_name)
        if previous is None or math.isinf(previous):
            updated = speed
        else:
            updated = previous + self.alpha * (speed - previous)
        self._speeds.set(updated, codec=codec_name)
        self._observations.inc(codec=codec_name)
        self._codecs.add(codec_name)

    def observe(self, result: CompressionResult) -> None:
        """Fold one timed compression into the per-codec estimates."""
        speed = result.reducing_speed
        if math.isinf(speed):
            # A zero-duration measurement carries no information.
            return
        self._fold_speed(result.codec_name, speed)
        previous_ratio = self._ratios.value(codec=result.codec_name)
        if previous_ratio is None:
            self._ratios.set(result.ratio, codec=result.codec_name)
        else:
            self._ratios.set(
                previous_ratio + self.alpha * (result.ratio - previous_ratio),
                codec=result.codec_name,
            )

    def observe_raw(self, codec_name: str, bytes_saved: int, seconds: float) -> None:
        """Fold a raw speed observation (does not touch the ratio estimate)."""
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
        value = self._speeds.value(codec=codec_name)
        return value if value is not None else math.inf

    def observations(self, codec_name: str) -> int:
        """Total speed observations folded for ``codec_name``.

        A consumer that records this count per decision can detect *stale*
        feedback — the count stops moving when the measurement path breaks
        — which is what drives the selector's degraded fallback.
        """
        return int(self._observations.value(codec=codec_name))

    def ratio(self, codec_name: str) -> Optional[float]:
        """Smoothed compression ratio, or None if never observed."""
        return self._ratios.value(codec=codec_name)

    def observed(self, codec_name: str) -> bool:
        return self._speeds.has(codec=codec_name)

    def reset(self) -> None:
        for codec_name in self._codecs:
            self._speeds.remove(codec=codec_name)
            self._ratios.remove(codec=codec_name)
        self._codecs.clear()

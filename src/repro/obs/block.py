"""Per-block telemetry: the observer that plugs into the BlockEngine.

:class:`BlockTelemetry` is a
:class:`~repro.core.engine.BlockEngine`/:class:`~repro.core.pipeline.AdaptivePipeline`
observer: every executed block lands one
:class:`~repro.core.engine.BlockStats` here, which is folded into a
:class:`~repro.obs.metrics.MetricsRegistry` (counters + histograms,
labeled by channel and method), optionally echoed to a
:class:`~repro.obs.trace.TraceWriter`, and retained as an in-order
series so tests can compare against the golden replay byte-for-byte.

The same recording helper
(:func:`repro.obs.catalogue.record_execution`) is shared by the
middleware compression handlers, so handler-side and engine-side metrics
land under the same names and labels.

This module deliberately never imports :mod:`repro.core` at runtime —
stats objects are duck-typed — so the core monitor can be a view over
the registry without an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .catalogue import record_execution
from .metrics import MetricsRegistry
from .trace import TraceWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import BlockStats

__all__ = ["BlockTelemetry"]


class BlockTelemetry:
    """BlockEngine observer recording per-block method/size/time telemetry.

    Attach with ``engine.add_observer(telemetry)`` or pass in an
    ``observers=[telemetry]`` list to :class:`~repro.core.pipeline.AdaptivePipeline`
    / :func:`~repro.experiments.replay.run_replay`.  Keeps an in-order
    ``(method, original_size, compressed_size)`` series (``keep_series``)
    so replay telemetry can be compared against golden fixtures exactly.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceWriter] = None,
        channel: str = "pipeline",
        keep_series: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self.channel = channel
        self.keep_series = keep_series
        self.blocks_seen = 0
        self._rows: List[Tuple[str, int, int]] = []

    def __call__(self, stats: "BlockStats") -> None:
        self.blocks_seen += 1
        record_execution(self.registry, self.channel, stats)
        if self.keep_series:
            self._rows.append(
                (stats.method, stats.original_size, stats.compressed_size)
            )
        if self.trace is not None:
            self.trace.event(
                "block",
                channel=self.channel,
                index=stats.index,
                method=stats.method,
                requested_method=stats.requested_method,
                original_size=stats.original_size,
                compressed_size=stats.compressed_size,
                compression_seconds=stats.compression_seconds,
                decompression_seconds=stats.decompression_seconds,
                fell_back=stats.fell_back,
            )

    # -- series views (golden-fixture comparisons) -------------------------------

    def method_series(self) -> List[str]:
        return [method for method, _, _ in self._rows]

    def original_size_series(self) -> List[int]:
        return [original for _, original, _ in self._rows]

    def compressed_size_series(self) -> List[int]:
        return [compressed for _, _, compressed in self._rows]

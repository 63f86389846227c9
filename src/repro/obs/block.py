"""Per-block telemetry: the observer that plugs into the BlockEngine.

:class:`BlockTelemetry` is a
:class:`~repro.core.engine.BlockEngine`/:class:`~repro.core.pipeline.AdaptivePipeline`
observer: every executed block lands one
:class:`~repro.core.engine.BlockStats` here, which is folded into a
:class:`~repro.obs.metrics.MetricsRegistry` (counters + histograms,
labeled by channel and method), optionally echoed to a
:class:`~repro.obs.trace.TraceWriter`, and retained as an in-order
series so tests can compare against the golden replay byte-for-byte.

The same recording helper (:func:`record_execution`) is shared by the
middleware compression handlers, so handler-side and engine-side metrics
land under the same names and labels.

This module deliberately never imports :mod:`repro.core` at runtime —
stats objects are duck-typed — so the core monitor can be a view over
the registry without an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .metrics import (
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
)
from .trace import TraceWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import BlockStats

__all__ = [
    "BlockTelemetry",
    "record_execution",
    "record_pool_task",
    "record_pool_degraded",
    "record_pipeline_block",
]

#: Metric names (one vocabulary for engine and handler paths).
BLOCKS_TOTAL = "repro_blocks_total"
FALLBACKS_TOTAL = "repro_block_fallbacks_total"
BYTES_IN_TOTAL = "repro_block_bytes_in_total"
BYTES_OUT_TOTAL = "repro_block_bytes_out_total"
COMPRESSION_SECONDS = "repro_block_compression_seconds"
DECOMPRESSION_SECONDS = "repro_block_decompression_seconds"
BLOCK_RATIO = "repro_block_ratio"

#: Worker-pool vocabulary (the multi-core execution layer).
POOL_TASKS_TOTAL = "repro_pool_tasks_total"
POOL_DEGRADED_TOTAL = "repro_pool_degraded_total"
POOL_WORKERS = "repro_pool_workers"
PIPELINE_BLOCKS_TOTAL = "repro_pipeline_blocks_total"


def record_pool_task(registry: MetricsRegistry, pool_mode: str, workers: int) -> None:
    """Count one codec task dispatched to a worker pool."""
    registry.counter(POOL_TASKS_TOTAL, help="codec tasks dispatched to pool workers").inc(
        pool_mode=pool_mode
    )
    registry.gauge(POOL_WORKERS, help="configured pool worker count").set(
        workers, pool_mode=pool_mode
    )


def record_pool_degraded(registry: MetricsRegistry, pool_mode: str) -> None:
    """Count one pool degradation (e.g. a broken process pool) to serial."""
    registry.counter(
        POOL_DEGRADED_TOTAL, help="pool degradations to serial execution"
    ).inc(pool_mode=pool_mode)


def record_pipeline_block(
    registry: MetricsRegistry, pool_mode: str, queue_depth: int
) -> None:
    """Count one block emitted by a pipelined engine, labeled by its shape."""
    registry.counter(
        PIPELINE_BLOCKS_TOTAL, help="blocks emitted by pipelined block engines"
    ).inc(pool_mode=pool_mode, queue_depth=str(queue_depth))


def record_execution(registry: MetricsRegistry, channel: str, stats: "BlockStats") -> None:
    """Fold one codec run into ``registry`` under channel/method labels."""
    labels = {"channel": channel, "method": stats.method}
    registry.counter(BLOCKS_TOTAL, help="blocks executed").inc(**labels)
    registry.counter(BYTES_IN_TOTAL, help="uncompressed bytes in").inc(
        stats.original_size, **labels
    )
    registry.counter(BYTES_OUT_TOTAL, help="wire bytes out").inc(
        stats.compressed_size, **labels
    )
    if stats.fell_back:
        registry.counter(
            FALLBACKS_TOTAL, help="expansion-guard fallbacks to method=none"
        ).inc(channel=channel, method=stats.requested_method)
    registry.histogram(
        COMPRESSION_SECONDS,
        boundaries=DEFAULT_SECONDS_BUCKETS,
        help="per-block compression seconds (engine-accounted)",
    ).observe(stats.compression_seconds, **labels)
    if stats.decompression_seconds:
        registry.histogram(
            DECOMPRESSION_SECONDS,
            boundaries=DEFAULT_SECONDS_BUCKETS,
            help="per-block decompression seconds (engine-accounted)",
        ).observe(stats.decompression_seconds, **labels)
    if stats.original_size:
        registry.histogram(
            BLOCK_RATIO,
            boundaries=DEFAULT_RATIO_BUCKETS,
            help="per-block compressed/original ratio",
        ).observe(stats.ratio, **labels)


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
        self._series: List[Tuple[str, int, int]] = []

    def __call__(self, stats: "BlockStats") -> None:
        self.blocks_seen += 1
        record_execution(self.registry, self.channel, stats)
        if self.keep_series:
            self._series.append(
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
        return [method for method, _, _ in self._series]

    def original_size_series(self) -> List[int]:
        return [original for _, original, _ in self._series]

    def compressed_size_series(self) -> List[int]:
        return [compressed for _, _, compressed in self._series]

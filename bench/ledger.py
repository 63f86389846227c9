"""The traced run: one workload's span trace plus the per-layer ledger.

``--trace 1`` on workload X does three things:

1. runs X untraced and X with spans on, alternating segment by segment
   for half the run time — the share table, the tail latency and the
   tracing overhead come from this pair;
2. runs a short traced pass of each *home* workload (the one whose path
   exercises a layer for real) and reads that layer's metrics from it;
3. runs the codec matrix.

So every traced run prints every per-layer metric, whichever workload
it was asked for.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Tuple

from repro.compression.registry import get_codec

from adaptive import AdaptiveFastlink
from fanout import FanoutShared
from harness import (
    MB,
    PROBE_REFERENCE_S,
    Segment,
    Tracer,
    fast_decile,
    high_percentile,
    host_probe,
    layer_shares,
    ops_and_failures,
    per,
)
from inputs import CORPORA, corpus_blocks
from tcp_path import BLOCK_SIZE, BulkPaperTcp, SmallEventsTcp

WORKLOADS = {
    cls.name: cls for cls in (BulkPaperTcp, SmallEventsTcp, FanoutShared, AdaptiveFastlink)
}

#: Layer ledger sources: per-message layers from the small-event path,
#: fabric layers from the fan-out, selector layers from the replay.
HOME_WORKLOADS = (SmallEventsTcp, FanoutShared, AdaptiveFastlink)
HOME_PASS_SCALE = 0.25

#: The optional zstd-native/lz4-native tier is left out on purpose, so
#: hosts with and without the bindings print the identical metric set.
MATRIX_CODECS = (
    "huffman", "arithmetic", "arithmetic-o1", "lempel-ziv", "lzw",
    "burrows-wheeler", "template", "columnar",
    "lempel-ziv-native", "burrows-wheeler-native",
)


def metric_name(codec: str) -> str:
    """Codec names in the metric alphabet (``parallel:x`` would be ``parallel-x``)."""
    return codec.replace(":", "-")


def codec_matrix(seed: int, scale: float) -> Tuple[Dict[str, float], int, int]:
    """Every codec on one block per corpus; MB/s = total bytes / total busy s.

    Returns ``(metrics, attempted, failed)``; a block that does not
    round-trip is a failed op.
    """
    size = max(4096, int(BLOCK_SIZE * scale))
    blocks = [corpus_blocks(name, seed, size, 1)[0] for name in CORPORA]
    metrics: Dict[str, float] = {}
    attempted = failed = 0
    for name in MATRIX_CODECS:
        codec = get_codec(name)
        compress_s = decompress_s = 0.0
        compressed = 0
        for block in blocks:
            attempted += 1
            started = time.perf_counter()
            payload = codec.compress(block)
            middle = time.perf_counter()
            restored = codec.decompress(payload)
            compress_s += middle - started
            decompress_s += time.perf_counter() - middle
            compressed += len(payload)
            failed += restored != block
        total = sum(len(b) for b in blocks)
        prefix = f"codec.{metric_name(name)}"
        metrics[f"{prefix}.compress_mb_s"] = per(total / MB, compress_s)
        metrics[f"{prefix}.decompress_mb_s"] = per(total / MB, decompress_s)
        metrics[f"{prefix}.ratio"] = compressed / total
    return metrics, attempted, failed


def traced_run(
    cls, seed: int, seconds: float, scale: float, trace_path: str
) -> Tuple[Dict[str, float], int, int]:
    """The whole ``--trace 1`` run for workload ``cls``."""
    metrics: Dict[str, float] = {}
    attempted = failed = 0

    # Untraced and traced instances take turns, segment by segment, so a
    # slow phase of the host falls on both sides of the overhead ratio.
    tracer = Tracer()
    untraced = cls(seed, scale)
    untraced.warm_up()
    workload = cls(seed, scale, tracer)
    baseline: List[Segment] = []
    traced: List[Segment] = []
    probes: List[float] = []
    cycles = 0
    started = time.perf_counter()
    while cycles < 3 or time.perf_counter() - started < seconds / 2.0:
        for _ in range(workload.kinds):
            probes.append(host_probe())
            tracer.enabled = False
            baseline.append(untraced.segment())
            tracer.enabled = True
            traced.append(workload.segment())
        cycles += 1
    tracer.enabled = False  # the checks below run codecs too; they are not the workload
    if cls in HOME_WORKLOADS:
        metrics.update(workload.layer_metrics())
    failed += untraced.verify_after() + workload.verify_after()
    untraced.close()
    workload.close()

    for segments in (baseline, traced):
        ops, bad = ops_and_failures(segments)
        attempted += ops
        failed += bad
    cpu = sum(s.cpu_s for s in traced)
    for layer, share in layer_shares(tracer, cpu, cls.untraced_layer).items():
        metrics[f"share.{layer}"] = share
    percentile, value = high_percentile([l for s in baseline for l in s.latencies_s])
    metrics["path.latency_hi_ms"] = value * 1e3
    metrics["path.latency_hi_pct"] = percentile
    # Per-layer numbers are printed as measured; this says in which clock
    # mode of the host (see harness.measure) they were taken.
    metrics["host.slowdown"] = fast_decile(probes) / PROBE_REFERENCE_S
    metrics["trace.overhead_share"] = statistics.median(
        t.wall_s / u.wall_s - 1.0 for u, t in zip(baseline, traced) if u.wall_s
    )
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.dump(trace_path)

    for home in HOME_WORKLOADS:
        if home is cls:
            continue
        # A throwaway instance fills process-wide lazy state; the traced
        # one then starts with clean counters.
        warm = home(seed, scale * HOME_PASS_SCALE)
        warm.warm_up()
        warm.close()
        probe = home(seed, scale * HOME_PASS_SCALE, Tracer())
        ops, bad = ops_and_failures([probe.segment() for _ in range(probe.kinds)])
        metrics.update(probe.layer_metrics())
        attempted += ops
        failed += bad + probe.verify_after()
        probe.close()

    matrix, matrix_ops, matrix_failed = codec_matrix(seed, scale)
    metrics.update(matrix)
    return metrics, attempted + matrix_ops, failed + matrix_failed

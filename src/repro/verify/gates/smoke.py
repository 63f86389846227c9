"""The ``bench-smoke`` gate: nine deterministic sections vs ``BENCH_baseline.json``.

A fixed subset of the benchmark suite whose numbers are exact run-to-run
— decision-table sweeps, modeled-cost replays, wire CRCs — recorded into
one :mod:`repro.obs.benchfmt` report that the runner compares against
the committed baseline with the baseline's tolerance bands (10 % on
scalar aggregates, exact on deterministic series checksums) and the
:data:`RAW_RATCHETS`.  Each section also carries hard verdicts
(``ctx.fail``) that hold whatever the baseline says.  Every scenario
constant and every verdict here is the only definition: the pytest
benchmarks under ``benchmarks/`` run these same functions.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Dict, Iterable, Tuple

from ...compression.framing import encode_frame, encode_frame_parts, parse_frame
from ...compression.registry import get_codec
from ...core.bicriteria import (
    CandidateSpec,
    codec_for,
    default_candidates,
    evaluate_candidates,
    pareto_frontier,
    select_point,
)
from ...core.decision import DecisionInputs, DecisionThresholds, select_method
from ...core.engine import BlockEngine, CodecExecutor, measure_callable
from ...core.monitor import ReducingSpeedMonitor
from ...core.workers import PipelinedBlockEngine, WorkerPool, simulate_pipeline
from ...data.logs import LogDataGenerator
from ...data.timeseries import TimeSeriesGenerator
from ...experiments.config import ReplayConfig
from ...experiments.placement import (
    DEFAULT_INTERFERENCE,
    LINK_CLASSES,
    UPSTREAM_LINK,
    placement_breakdown,
)
from ...experiments.replay import commercial_blocks, make_policy, run_replay
from ...fabric.loadgen import FanoutConfig, run_fanout
from ...netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from ...netsim.faults import FaultPlan, FaultRule
from ...netsim.link import PAPER_LINKS
from ...obs.block import BlockTelemetry
from ...obs.metrics import MetricsRegistry
from .fixtures import run_hostile, seeded_blocks, seeded_events
from .placement import judge_cells
from .runner import GateContext

#: The same scaled-down replay the figure benchmarks share (64 blocks
#: over the 160 s trace keeps every regime transition).
SMOKE_REPLAY = ReplayConfig(block_count=64, production_interval=2.5)

PAPER_METHODS = ("none", "huffman", "lempel-ziv", "burrows-wheeler")

#: Decision-table sweep axes: spans the "compress at all" knee, the
#: Burrows-Wheeler slack knee, and the sampled-ratio gate.
BLOCK_SIZE = 128 * 1024
SENDING_TIMES = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0)
LZ_SPEEDS = (1e5, 5e5, 1.4e6, 5e6, 2e7)
SAMPLED_RATIOS = (None, 0.2, 0.35, 0.6, 0.9)

#: Scenario geometry is stated once, as the dict the section also files
#: under its name in the report's metadata.
#:
#: Pool throughput scenario: 64 commercial blocks of 8 KB through
#: Burrows-Wheeler on 4 workers with the default bounded queue.
POOL = dict(
    block_size=8 * 1024, block_count=64, workers=4, queue_depth=8, method="burrows-wheeler"
)
POOL_MIN_SPEEDUP = 2.0

#: Chaos recovery scenario (non-gating): 32 events through the seeded
#: kitchen-sink fault plan, recovered by ReliableEventLink.
CHAOS = dict(event_count=32, event_size=4 * 1024, seed=11, plan="bench-kitchen-sink")

#: Fan-out scenario: the loadgen defaults — 1024 Zipf-skewed subscribers
#: over 64 channels sharing 8 (method, params) choices.
FANOUT_CONFIG = FanoutConfig()
FANOUT_MIN_HIT_RATE = 0.90
FANOUT_MIN_SPEEDUP = 3.0
FANOUT_MAX_SHARD_SPREAD = 2.0

#: Bicriteria scenario: a short paced commercial replay per link class,
#: and a tight space budget on the slow link.
BICRITERIA_REPLAY = ReplayConfig(block_count=24, production_interval=2.5)
BICRITERIA_BUDGET = 0.5

#: Raw-path geometry: payloads large enough that the copying path's O(n)
#: memcpy work dwarfs the zero-copy path's O(1) bookkeeping (the measured
#: gap is >40x here, so the 2.0x gate has a wide noise margin).
RAW = dict(
    payload_size=256 * 1024,
    frame_loops=40,
    codec_block=16 * 1024,
    codecs=["huffman", "lempel-ziv", "burrows-wheeler", "lzw"],
)
RAW_HEADER = b"bench/raw"
RAW_FRAME_REPEATS = 9
RAW_MIN_SPEEDUP = 2.0

#: Placement break-even scenario: the DTSchedule-style matrix at a scale
#: small enough for the smoke job, large enough that both regimes appear
#: (raw wins the intranet links, consumer offload wins the slow ones).
PLACEMENT = dict(
    blocks=8, block_size=128 * 1024, interference=DEFAULT_INTERFERENCE, upstream=UPSTREAM_LINK
)

#: Structured-codec geometry: one engine-sized block of each structured
#: workload, the generic field the template codec must beat, and the
#: minimum ratio win that makes the codec family worth carrying.
STRUCTURED = dict(
    block_size=64 * 1024,
    seed=2004,
    rivals=["huffman", "arithmetic", "lempel-ziv", "lzw", "burrows-wheeler"],
    min_win=1.3,
)

#: Metrics the raw-path work is never allowed to regress, one-sided.
#: The placement entry ratchets the fast-LAN auto arrangement: modeled
#: end-to-end seconds on 1gbit may improve but never regress.
RAW_RATCHETS = (
    ("pool.pooled_mb_per_s", "higher"),
    ("fig08.compression_seconds_total", "lower"),
    ("placement_breakeven.1gbit.auto_seconds", "lower"),
)


def _crc(parts: Iterable[object]) -> int:
    return zlib.crc32(",".join(str(p) for p in parts).encode())


def _table_method(sending_time: float, lz_speed: float, ratio) -> str:
    """The decision table's verdict for one grid point."""
    return select_method(
        DecisionInputs(
            block_size=BLOCK_SIZE,
            sending_time=sending_time,
            lz_reducing_speed=lz_speed,
            sampled_ratio=ratio,
        ),
        DecisionThresholds(),
    ).method


def fig01_decision_sweep(ctx: GateContext) -> None:
    """Exact: the selector's verdict over a fixed input grid."""
    decisions = [
        _table_method(sending_time, lz_speed, ratio)
        for sending_time in SENDING_TIMES
        for lz_speed in LZ_SPEEDS
        for ratio in SAMPLED_RATIOS
    ]
    ctx.exact("fig01.decision_grid_size", len(decisions), "decisions")
    ctx.exact("fig01.decisions_crc32", _crc(decisions), "crc32")
    for method in PAPER_METHODS:
        ctx.exact(f"fig01.decision_count.{method}", decisions.count(method), "decisions")


def fig08_replay(ctx: GateContext) -> None:
    """Deterministic modeled-cost replay, observed through BlockTelemetry."""
    ctx.report.metadata["replay"] = {
        "block_count": SMOKE_REPLAY.block_count,
        "production_interval": SMOKE_REPLAY.production_interval,
        "link": SMOKE_REPLAY.link,
    }
    telemetry = BlockTelemetry(registry=MetricsRegistry(), channel="smoke")
    result = run_replay(commercial_blocks(SMOKE_REPLAY), SMOKE_REPLAY, observers=[telemetry])
    methods = [r.method for r in result.records]
    sizes = [r.compressed_size for r in result.records]
    # Telemetry must mirror the replay exactly — observability adds zero
    # behavioral drift, and the gate enforces it on every PR.
    if telemetry.method_series() != methods or telemetry.compressed_size_series() != sizes:
        ctx.fail("BlockTelemetry series diverged from the replay records")

    ctx.exact("fig08.blocks", len(result.records), "blocks")
    ctx.exact("fig08.method_series_crc32", _crc(methods), "crc32")
    ctx.exact("fig08.compressed_size_crc32", _crc(sizes), "crc32")
    for name, value, unit in (
        ("compressed_bytes", result.total_compressed_bytes, "bytes"),
        ("overall_ratio", result.overall_ratio, "ratio"),
        ("compression_seconds_total", result.total_compression_time, "seconds"),
        ("total_time", result.total_time, "seconds"),
    ):
        ctx.record(f"fig08.{name}", value, unit=unit, better="lower", tolerance=0.10)
    counts = result.method_counts()
    for method in PAPER_METHODS:
        ctx.record(
            f"fig08.method_count.{method}", counts.get(method, 0),
            unit="blocks", better="near", tolerance=0.10,
        )


def pool_throughput(ctx: GateContext) -> None:
    """Multi-core pipeline: modeled >=2x speedup + real-pool wire identity.

    Per-block compression seconds come from the calibrated cost model on
    the SUN_FIRE CPU and send seconds from the nominal 100 MBit line, so
    the serial-vs-pooled comparison is exact run-to-run.  The 4-worker
    schedule is computed by ``simulate_pipeline``; the wire bytes,
    however, come from a *real* process-pool run, checksummed against the
    serial engine's output — the pool must never change a single byte.
    """
    ctx.report.metadata["pool"] = POOL
    block_size, workers, queue_depth = POOL["block_size"], POOL["workers"], POOL["queue_depth"]
    data = b"".join(seeded_blocks(block_size, POOL["block_count"]))
    serial_engine = BlockEngine(
        CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE), block_size=block_size
    )
    serial_out = serial_engine.run(data, method=POOL["method"])
    wire_rate = PAPER_LINKS["100mbit"].throughput
    schedule = simulate_pipeline(
        [stats.compression_seconds for _, stats in serial_out],
        [len(payload) / wire_rate for payload, _ in serial_out],
        workers=workers, queue_depth=queue_depth,
    )
    serial_crc = zlib.crc32(b"".join(payload for payload, _ in serial_out))

    with WorkerPool(workers=workers, mode="processes") as pool:
        pooled_engine = PipelinedBlockEngine(
            CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE),
            block_size=block_size,
            pool=pool,
            queue_depth=queue_depth,
        )
        pooled_out = pooled_engine.run(data, method=POOL["method"])
    pooled_crc = zlib.crc32(b"".join(payload for payload, _ in pooled_out))
    if pooled_crc != serial_crc:
        ctx.fail(
            f"pooled wire bytes diverged from serial "
            f"(crc {pooled_crc:#010x} != {serial_crc:#010x})"
        )
    if schedule.speedup < POOL_MIN_SPEEDUP:
        ctx.fail(
            f"pooled throughput only {schedule.speedup:.2f}x serial "
            f"(< {POOL_MIN_SPEEDUP}x gate)"
        )

    megabytes = len(data) / (1 << 20)
    for name, value, unit in (
        ("serial_mb_per_s", megabytes / schedule.serial_seconds, "MB/s"),
        ("pooled_mb_per_s", megabytes / schedule.makespan, "MB/s"),
        ("speedup", schedule.speedup, "x"),
        ("overlap_fraction", schedule.overlap_fraction, "fraction"),
    ):
        ctx.record(f"pool.{name}", value, unit=unit, better="higher", tolerance=0.05)
    ctx.exact("pool.wire_crc32_serial", serial_crc, "crc32")
    ctx.exact("pool.wire_crc32_pooled", pooled_crc, "crc32")


def chaos_recovery(ctx: GateContext) -> None:
    """Non-gating (kind="timing"): recovery cost under seeded chaos.

    Replays commercial-data events through a kitchen-sink fault plan on
    the hostile in-memory wire and records what recovery cost: retries,
    CRC rejections, and the virtual seconds the faults added.  Byte-exact
    delivery is *asserted* here, but the recorded magnitudes are
    informational — the runner gates only ``kind="deterministic"``
    metrics, so these track drift without failing CI (the hard pass/fail
    chaos verdicts are the ``chaos`` gate).
    """
    ctx.report.metadata["chaos"] = CHAOS
    plan = FaultPlan(
        [
            FaultRule(kind="drop", probability=0.1),
            FaultRule(kind="corrupt", probability=0.1),
            FaultRule(kind="duplicate", probability=0.1),
            FaultRule(kind="delay", probability=0.1, delay=0.02),
        ],
        seed=CHAOS["seed"],
        name=CHAOS["plan"],
    )
    events = seeded_events("bench", CHAOS["event_size"], CHAOS["event_count"])
    delivered = []
    run = run_hostile(plan, events, delivered.append, CHAOS["seed"], ctx.tracer)
    if run.missing or [e.payload for e in delivered] != [e.payload for e in events]:
        ctx.fail("chaos recovery was not byte-exact; run the chaos gate")

    ctx.record(
        "chaos_recovery.events", len(events), unit="events",
        better="near", tolerance=0.0, kind="timing",
    )
    for name, value, unit, better in (
        ("faults_injected", sum(run.injected.values()), "faults", "near"),
        ("retries", run.retries, "retries", "lower"),
        ("frames_rejected", run.frames_rejected, "frames", "near"),
        ("recovery_seconds", run.recovery_seconds, "seconds", "lower"),
        ("virtual_seconds", run.virtual_seconds, "seconds", "lower"),
    ):
        ctx.record(
            f"chaos_recovery.{name}", value, unit=unit,
            better=better, tolerance=0.25, kind="timing",
        )


def fanout_throughput(ctx: GateContext) -> None:
    """Fan-out: >=1k subscribers, <=8 configs — compress-once must win.

    Runs the Zipf-skewed fan-out scenario (1024 subscribers over 64
    channels, 8 distinct ``(method, params)`` choices) through the inline
    sharded fabric and against the per-subscriber-compression baseline.
    Everything is modeled-cost over deterministic link means, so the
    numbers are exact run-to-run.  Hard verdicts:

    * every delivered frame byte-identical to the serial path
      (per-subscriber CRC32 chains must match),
    * block-cache hit rate >= 0.90, and codec runs bounded by
      payloads x specs — compress-once really means once,
    * delivered events/second >= 3x the per-subscriber baseline,
    * no shard starves (max/min shard load <= 2.0).
    """
    config = FANOUT_CONFIG
    ctx.report.metadata["fanout"] = {
        "subscribers": config.subscribers,
        "channels": config.channels,
        "events": config.events,
        "event_size": config.event_size,
        "shards": config.shards,
        "specs": len(config.specs),
        "zipf_exponent": config.zipf_exponent,
        "seed": config.seed,
        "link": config.link,
    }
    result = run_fanout(config)
    if not result.crc_ok:
        ctx.fail("fabric fan-out delivered different bytes than the serial path")
    if result.cache_hit_rate < FANOUT_MIN_HIT_RATE:
        ctx.fail(
            f"block-cache hit rate {result.cache_hit_rate:.3f} < {FANOUT_MIN_HIT_RATE} gate"
        )
    if result.fabric_compressions > config.events * len(config.specs):
        ctx.fail(
            f"{result.fabric_compressions} codec runs exceed "
            f"payloads x specs = {config.events * len(config.specs)}"
        )
    if result.speedup < FANOUT_MIN_SPEEDUP:
        ctx.fail(
            f"fan-out throughput only {result.speedup:.2f}x baseline "
            f"(< {FANOUT_MIN_SPEEDUP}x gate)"
        )
    if max(result.shard_events) > FANOUT_MAX_SHARD_SPREAD * min(result.shard_events):
        ctx.fail(f"shard load {result.shard_events} spreads beyond {FANOUT_MAX_SHARD_SPREAD}x")

    ctx.exact("fanout.subscribers", result.subscribers, "subscribers")
    ctx.exact("fanout.deliveries", result.deliveries, "events")
    ctx.exact("fanout.wire_crc32", result.wire_crc32, "crc32")
    ctx.record(
        "fanout.codec_runs", result.fabric_compressions,
        unit="runs", better="lower", tolerance=0.0,
    )
    ctx.exact("fanout.baseline_codec_runs", result.baseline_compressions, "runs")
    ctx.record(
        "fanout.cache_hit_rate", result.cache_hit_rate,
        unit="fraction", better="higher", tolerance=0.02,
    )
    for name, value, unit in (
        ("events_per_second", result.fabric_events_per_second, "events/s"),
        ("baseline_events_per_second", result.baseline_events_per_second, "events/s"),
        ("speedup", result.speedup, "x"),
    ):
        ctx.record(f"fanout.{name}", value, unit=unit, better="higher", tolerance=0.05)
    ctx.exact("fanout.shard_events_crc32", _crc(result.shard_events), "crc32")


def bicriteria_model_grid(ctx: GateContext) -> None:
    """Bicriteria, model grid: the frontier never models slower than the table.

    Over fig01's (link class x LZ speed x sampled ratio) axes, the
    frontier point chosen at budget 1.0 must have modeled end-to-end time
    <= the table's choice priced from the *same* estimates, with zero
    budget violations.
    """
    grid_labels = []
    frontier_sizes = []
    model_advantage = 0.0
    model_violations = 0
    for link_name in LINK_CLASSES:
        sending_time = BLOCK_SIZE / PAPER_LINKS[link_name].throughput
        for lz_speed in LZ_SPEEDS:
            for ratio in SAMPLED_RATIOS:
                monitor = ReducingSpeedMonitor()
                monitor.observe_speed("lempel-ziv", lz_speed)
                points = evaluate_candidates(
                    default_candidates(BLOCK_SIZE),
                    sending_time,
                    calibration=DEFAULT_COSTS,
                    cpu=SUN_FIRE,
                    monitor=monitor,
                    sample=ratio,
                    base_block_size=BLOCK_SIZE,
                )
                frontier = pareto_frontier(points.values())
                point, violated = select_point(frontier, space_budget=1.0)
                table_method = _table_method(sending_time, lz_speed, ratio)
                table_point = points[CandidateSpec(method=table_method, block_size=BLOCK_SIZE)]
                if point.total_seconds > table_point.total_seconds + 1e-9:
                    ctx.fail(
                        f"bicriteria lost to the table on {link_name} "
                        f"(lz={lz_speed:g}, ratio={ratio}): "
                        f"{point.label} {point.total_seconds:g}s > "
                        f"{table_method} {table_point.total_seconds:g}s"
                    )
                model_violations += violated
                model_advantage += table_point.total_seconds - point.total_seconds
                grid_labels.append(point.label)
                frontier_sizes.append(len(frontier))
    if model_violations:
        ctx.fail(f"{model_violations} budget violations at space_budget=1.0")

    ctx.exact("bicriteria.model_grid_size", len(grid_labels), "decisions")
    ctx.exact("bicriteria.model_decisions_crc32", _crc(grid_labels), "crc32")
    ctx.exact("bicriteria.model_frontier_crc32", _crc(frontier_sizes), "crc32")
    ctx.record(
        "bicriteria.model_advantage_seconds", model_advantage,
        unit="seconds", better="higher", tolerance=0.10,
    )
    ctx.exact("bicriteria.model_budget_violations", model_violations, "decisions")


def _wire_crc(block: bytes, method: str, params: Tuple) -> int:
    """CRC-32 of what a direct run of the chosen codec would put on the wire."""
    wire = block if method == "none" else codec_for(method, tuple(params)).compress(block)
    return zlib.crc32(wire) & 0xFFFFFFFF


def bicriteria_replays(ctx: GateContext) -> None:
    """Bicriteria, paired replays + the tight-budget run.

    * **Paired replays** — per link class, the same commercial blocks run
      under both policies; the bicriteria policy's accumulated modeled
      time must be <= its table counterpart evaluated on identical
      monitor state, and every wire payload must be byte-identical to a
      direct run of the chosen (codec, params) — the optimizer may only
      rank with models, never alter bytes.
    * **Budget run** — the tight-budget replay on the slow link must
      satisfy ``space_budget=0.5`` with zero violations.
    """
    ctx.report.metadata["bicriteria"] = {
        "block_count": BICRITERIA_REPLAY.block_count,
        "production_interval": BICRITERIA_REPLAY.production_interval,
        "links": list(LINK_CLASSES),
        "space_budget": BICRITERIA_BUDGET,
    }
    blocks = commercial_blocks(BICRITERIA_REPLAY)
    for link_name in LINK_CLASSES:
        table_result = run_replay(blocks, replace(BICRITERIA_REPLAY, link=link_name))
        config = replace(BICRITERIA_REPLAY, link=link_name, policy="bicriteria")
        policy = make_policy(config)
        result = run_replay(blocks, config, policy=policy)
        if policy.modeled_seconds_total > policy.table_modeled_seconds_total + 1e-9:
            ctx.fail(
                f"bicriteria modeled time {policy.modeled_seconds_total:g}s "
                f"exceeds the table's {policy.table_modeled_seconds_total:g}s "
                f"on {link_name}"
            )
        for block, record in zip(blocks, result.records):
            if _wire_crc(block, record.method, record.params) != record.payload_crc32:
                ctx.fail(
                    f"wire bytes diverged from a direct {record.method}"
                    f"{dict(record.params)} run (block {record.index}, {link_name})"
                )
        prefix = f"bicriteria.replay.{link_name}"
        for name, value in (
            ("total_time", result.total_time),
            ("table_total_time", table_result.total_time),
        ):
            ctx.record(f"{prefix}.{name}", value, unit="seconds", better="lower", tolerance=0.10)
        ctx.record(
            f"{prefix}.modeled_advantage_seconds",
            policy.table_modeled_seconds_total - policy.modeled_seconds_total,
            unit="seconds", better="higher", tolerance=0.10,
        )
        ctx.exact(
            f"{prefix}.choices_crc32",
            _crc(f"{r.method}{r.params}" for r in result.records), "crc32",
        )
        ctx.exact(
            f"{prefix}.wire_crc32", _crc(r.payload_crc32 for r in result.records), "crc32"
        )

    config = replace(
        BICRITERIA_REPLAY, link="1mbit", policy="bicriteria", space_budget=BICRITERIA_BUDGET
    )
    policy = make_policy(config)
    result = run_replay(blocks, config, policy=policy)
    if policy.budget_violations:
        ctx.fail(
            f"{policy.budget_violations} violations of space budget "
            f"{BICRITERIA_BUDGET} on the 1mbit replay"
        )
    ctx.exact("bicriteria.budget.violations", policy.budget_violations, "decisions")
    ctx.exact(
        "bicriteria.budget.choices_crc32",
        _crc(f"{r.method}{r.params}" for r in result.records), "crc32",
    )
    ctx.record(
        "bicriteria.budget.overall_ratio", result.overall_ratio,
        unit="ratio", better="lower", tolerance=0.10,
    )


def raw_path(ctx: GateContext) -> None:
    """Raw-speed floor: framing must stay zero-copy, codecs byte-stable.

    * **Framing throughput** — one round of gather-list encode
      (:func:`encode_frame_parts`) plus lazy-view parse must run >=2x
      faster than the copying path, reproduced inline as owned-``bytes``
      encode plus ``copy=True`` parse.  CRC is off on *both* sides so the
      measurement isolates the copy elimination.  Both sides go through
      ``measure_callable`` — the one sanctioned timing site — and take
      the best of several repeats, so scheduler noise can only slow a
      side down, never speed it up.
    * **Pure-Python wire CRCs** — each paper codec compresses a fixed
      commercial block; the CRC32 is exact-gated against the baseline
      AND must be identical for ``bytes`` and ``memoryview`` input, so
      the zero-copy plumbing can never leak into the wire format.
    """
    ctx.report.metadata["raw_path"] = RAW
    loops = RAW["frame_loops"]
    payload = bytes(range(256)) * (RAW["payload_size"] // 256)
    wire = bytes(encode_frame(RAW_HEADER, payload, check=False))

    def zero_copy_round(data: bytes) -> bytes:
        for _ in range(loops):
            encode_frame_parts(RAW_HEADER, data, check=False)
            parse_frame(wire, copy=False)
        return data

    def copying_round(data: bytes) -> bytes:
        for _ in range(loops):
            bytes(encode_frame(RAW_HEADER, data, check=False))
            parse_frame(wire, copy=True)
        return data

    def best_seconds(label: str, fn) -> float:
        return min(
            measure_callable(label, fn, payload).elapsed_seconds
            for _ in range(RAW_FRAME_REPEATS)
        )

    fast = max(best_seconds("raw.zero_copy", zero_copy_round), 1e-9)
    ratio = best_seconds("raw.copying", copying_round) / fast
    if ratio < RAW_MIN_SPEEDUP:
        ctx.fail(
            f"zero-copy framing only {ratio:.2f}x the copying path "
            f"(< {RAW_MIN_SPEEDUP}x gate)"
        )
    megabytes = loops * len(wire) / (1 << 20)
    ctx.record(
        "raw_path.framing_speedup", ratio,
        unit="x", better="higher", tolerance=0.5, kind="timing",
    )
    ctx.record(
        "raw_path.framing_mb_per_s", megabytes / fast,
        unit="MB/s", better="higher", tolerance=0.5, kind="timing",
    )

    [block] = seeded_blocks(RAW["codec_block"], 1)
    for name in RAW["codecs"]:
        codec = get_codec(name)
        crc = zlib.crc32(codec.compress(block)) & 0xFFFFFFFF
        view_crc = zlib.crc32(codec.compress(memoryview(block))) & 0xFFFFFFFF
        if crc != view_crc:
            ctx.fail(
                f"{name} wire bytes depend on the input container "
                f"(bytes {crc:#010x} != memoryview {view_crc:#010x})"
            )
        ctx.exact(f"raw_path.wire_crc32.{name}", crc, "crc32")


def placement_breakeven(ctx: GateContext) -> None:
    """Placement: break-even auto scheduling must never lose.

    Runs the DTSchedule-style placement matrix (producer -> 1gbit relay ->
    downstream link) and applies ``placement_failures`` — auto never
    loses to always-producer, consumer bytes CRC-identical to producer
    bytes.  The recorded per-link seconds are deterministic (modeled
    costs over mean transfer times), so the baseline comparison is exact
    — and the 1gbit auto seconds additionally sit on the one-sided
    ratchet.
    """
    ctx.report.metadata["placement_breakeven"] = PLACEMENT
    cells = placement_breakdown(
        total_blocks=PLACEMENT["blocks"],
        block_size=PLACEMENT["block_size"],
        interference=PLACEMENT["interference"],
    )
    by_key, losing = judge_cells(ctx, cells)
    for link in sorted(LINK_CLASSES):
        producer, auto = by_key[(link, "producer")], by_key[(link, "auto")]
        prefix = f"placement_breakeven.{link}"
        for mode, cell in (("producer", producer), ("auto", auto)):
            ctx.record(
                f"{prefix}.{mode}_seconds", cell.makespan,
                unit="seconds", better="lower", tolerance=0.10,
            )
        ctx.exact(
            f"{prefix}.auto_placements_crc32", _crc(sorted(auto.placements.items())), "crc32"
        )
        ctx.exact(f"{prefix}.downstream_crc32", producer.downstream_crc32, "crc32")
    fast = min(LINK_CLASSES, key=lambda link: by_key[(link, "producer")].makespan)
    saved = by_key[(fast, "producer")].makespan - by_key[(fast, "auto")].makespan
    ctx.notes.append(
        f"**placement**: auto ≤ always-producer, relay bytes exact on "
        f"{len(LINK_CLASSES) - len(losing)}/{len(LINK_CLASSES)} "
        f"link classes (fastest link {fast}: {saved:.3f}s saved per "
        f"{PLACEMENT['blocks']}-block stream)"
    )


def structured_blocks() -> Dict[str, bytes]:
    """The seeded block each structured codec is judged on, by codec name."""
    size, seed = STRUCTURED["block_size"], STRUCTURED["seed"]
    return {
        "template": next(iter(LogDataGenerator(seed=seed).stream(size, 1))),
        "columnar": next(iter(TimeSeriesGenerator(seed=seed).stream(size, 1))),
    }


def structured_ratio(ctx: GateContext) -> None:
    """Structured codecs: structure must beat statistics, byte-stably.

    On the seeded templated-log block the ``template`` codec must engage
    (no fallback) and beat the *best* generic codec's ratio by at least
    ``STRUCTURED["min_win"]``; on the seeded telemetry block ``columnar``
    must engage and beat zlib level-6.  The wire CRCs are pinned exactly
    — the structured formats are self-describing, so any byte drift is a
    wire-format change and must arrive with a version bump and a
    deliberate baseline refresh.
    """
    ctx.report.metadata["structured"] = STRUCTURED
    blocks = structured_blocks()
    wires = {}
    for name, block in blocks.items():
        codec = get_codec(name)
        wires[name] = codec.compress(block)
        if codec.is_fallback(wires[name]):
            ctx.fail(f"{name} codec fell back on its own seeded corpus")
    log_block, record_block = blocks["template"], blocks["columnar"]
    template_ratio = len(wires["template"]) / len(log_block)
    generic = {
        name: len(get_codec(name).compress(log_block)) / len(log_block)
        for name in STRUCTURED["rivals"]
    }
    best_name = min(generic, key=generic.get)
    win = generic[best_name] / template_ratio
    if win < STRUCTURED["min_win"]:
        ctx.fail(
            f"template ratio {template_ratio:.4f} only {win:.2f}x better than "
            f"{best_name} {generic[best_name]:.4f} (< {STRUCTURED['min_win']}x gate)"
        )
    columnar_ratio = len(wires["columnar"]) / len(record_block)
    zlib6_ratio = len(zlib.compress(record_block, 6)) / len(record_block)
    if columnar_ratio >= zlib6_ratio:
        ctx.fail(
            f"columnar ratio {columnar_ratio:.4f} not below "
            f"zlib level-6 {zlib6_ratio:.4f} on the telemetry corpus"
        )

    for name, ratio in (("template", template_ratio), ("columnar", columnar_ratio)):
        ctx.record(f"structured.{name}_ratio", ratio, unit="ratio", better="lower", tolerance=0.0)
        ctx.exact(f"structured.{name}_wire_crc32", zlib.crc32(wires[name]), "crc32")
    ctx.record("structured.template_win", win, unit="x", better="higher", tolerance=0.0)
    ctx.exact("structured.generic_best_ratio", generic[best_name], "ratio")
    ctx.exact("structured.zlib6_ratio", zlib6_ratio, "ratio")


#: The nine sections, in report order (bicriteria is one section in two
#: checks so the model grid can run without the replays).
CHECKS = (
    fig01_decision_sweep,
    fig08_replay,
    pool_throughput,
    chaos_recovery,
    fanout_throughput,
    bicriteria_model_grid,
    bicriteria_replays,
    raw_path,
    placement_breakeven,
    structured_ratio,
)

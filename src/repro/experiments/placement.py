"""Placement time-breakdown experiment — the DTSchedule-style figure.

DTSchedule's evaluation (SNIPPETS.md) presents compression *placement*
as stacked per-phase time bars: for each strategy the end-to-end time
splits into producer-side compression, wire transfer, relay-side
compression, and subscriber-side decompression — with the producer
compression bar conspicuously *empty* for the offloaded strategies.
:func:`placement_breakdown` reproduces that figure for this codebase:
the same commercial block stream is scheduled through the
producer → 1 Gbit upstream → relay → downstream topology of
:mod:`repro.core.placement` across the paper's four link classes, once
per placement mode (``producer``, ``raw``, ``consumer``, and the
break-even ``auto``).

Everything is deterministic: codec times are modeled
(``DEFAULT_COSTS`` on ``SUN_FIRE``), wire times use each link's *mean*
transfer time over the block's **real** compressed size (the codecs
really run, so wire bytes — and the CRC chains the byte-exactness gate
compares — are real), and the end-to-end makespan comes from
:func:`~repro.core.workers.simulate_relay_pipeline`.  Identical output
on every machine is what lets ``BENCH_baseline.json`` pin the numbers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from ..core.bicriteria import (
    default_candidates,
    evaluate_candidates,
    fastest_compressing_point,
)
from ..core.engine import CodecExecutor
from ..core.placement import PLACEMENTS, PlacementCost, choose_placement, placement_costs
from ..core.sampler import LzSampler
from ..core.workers import DEFAULT_QUEUE_DEPTH, RelaySchedule, simulate_relay_pipeline
from ..data.commercial import CommercialDataGenerator
from ..netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from ..netsim.link import make_link

__all__ = [
    "LINK_CLASSES",
    "UPSTREAM_LINK",
    "DEFAULT_INTERFERENCE",
    "PLACEMENT_MODES_ORDER",
    "PLACEMENT_RTOL",
    "PlacementBreakdown",
    "placement_breakdown",
    "placement_failures",
]

#: The paper's four link classes, fastest first — the figure's x-axis.
LINK_CLASSES = ("1gbit", "100mbit", "1mbit", "international")

#: The producer → relay hop: a fast intranet link (the placement
#: question only exists because this hop outruns the downstream one).
UPSTREAM_LINK = "1gbit"

#: Producer-side I/O-interference fraction (DTSchedule measures ~15 %:
#: compression at the producer competes with its real work; the relay
#: compresses unloaded).
DEFAULT_INTERFERENCE = 0.15

#: Row order of the figure: the three forced arrangements, then auto.
PLACEMENT_MODES_ORDER = PLACEMENTS + ("auto",)

#: Relative slack for the auto-vs-producer comparisons: on slow links the
#: two arrangements tie to the last ulp, so the verdict tolerates
#: float-summation noise only, never a real regression.
PLACEMENT_RTOL = 1e-9


#: The keys of :meth:`PlacementBreakdown.row`, in order.
_ROW_FIELDS = (
    "link", "mode", "blocks", "compress_seconds", "upstream_seconds", "relay_seconds",
    "downstream_seconds", "decompress_seconds", "makespan", "serial_seconds", "placements",
    "downstream_crc32",
)


@dataclass(frozen=True)
class PlacementBreakdown:
    """One (link class, placement mode) cell of the breakdown figure.

    A view over the cell's :class:`~repro.core.workers.RelaySchedule`: its
    seconds are the schedule's own.
    """

    link: str
    mode: str
    blocks: int
    schedule: RelaySchedule
    #: Arrangements actually taken per block (``auto`` mixes them).
    placements: Dict[str, int]
    #: CRC-32 chain over the downstream wire payloads, in block order —
    #: the byte-exactness fingerprint the relay must reproduce.
    downstream_crc32: int

    #: The four stacked bars (plus the wire split), in seconds.
    compress_seconds = property(attrgetter("schedule.compress_seconds"))
    upstream_seconds = property(attrgetter("schedule.upstream_seconds"))
    relay_seconds = property(attrgetter("schedule.relay_seconds"))
    downstream_seconds = property(attrgetter("schedule.downstream_seconds"))
    decompress_seconds = property(attrgetter("schedule.decompress_seconds"))
    wire_seconds = property(attrgetter("schedule.wire_seconds"))
    #: End-to-end makespan of the pipelined 5-stage schedule.
    makespan = property(attrgetter("schedule.makespan"))
    #: Unpipelined phase sum (the stacked bar's total height).
    serial_seconds = property(attrgetter("schedule.serial_seconds"))

    def row(self) -> Dict[str, object]:
        """The cell as one flat JSON object (``repro placement --json``,
        the placement gate's trace)."""
        return {name: getattr(self, name) for name in _ROW_FIELDS}


def placement_breakdown(
    total_blocks: int = 16,
    block_size: int = 128 * 1024,
    links: Optional[Sequence[str]] = None,
    interference: float = DEFAULT_INTERFERENCE,
    workers: int = 1,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    seed: int = 2004,
) -> List[PlacementBreakdown]:
    """Run the placement × link-class matrix; one cell per combination.

    Per block the compressing codec is chosen from the bicriteria
    candidate set priced against the *downstream* link (the bottleneck),
    refined by the 4 KB sampling probe — the same cross-pricing the
    placement-aware policy uses.  The chosen codec then really runs
    (once; producer- and consumer-placed bytes are identical by
    construction, which is the invariant the relay CRC chain audits).
    """
    if total_blocks < 1:
        raise ValueError("total_blocks must be positive")
    if interference < 0:
        raise ValueError("interference must be non-negative")
    link_names = tuple(links) if links is not None else LINK_CLASSES
    blocks = list(CommercialDataGenerator(seed=seed).stream(block_size, total_blocks))
    up_link = make_link(UPSTREAM_LINK, seed=5)
    executor = CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
    sampler = LzSampler(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
    candidates = default_candidates(block_size, native=False)
    # The sampler's CPU load never changes here, so a block's probe is the
    # same under every link class: run and account each one once.
    samples = [
        sampler.account(block, run) for block, run in zip(blocks, sampler.probe_runs(blocks))
    ]

    cells: List[PlacementBreakdown] = []
    for link_name in link_names:
        down_link = make_link(link_name, seed=5)
        per_block: List[Dict[str, PlacementCost]] = []
        payloads: List[bytes] = []
        for block, sample in zip(blocks, samples):
            down_raw = down_link.mean_transfer_time(len(block))
            points = evaluate_candidates(
                candidates,
                down_raw,
                calibration=DEFAULT_COSTS,
                cpu=SUN_FIRE,
                sample=sample,
                base_block_size=len(block),
            )
            point = fastest_compressing_point(points.values())
            execution = executor.compress(point.method, block)
            payloads.append(execution.payload)
            # The policy's rows, but with wire legs from the block's *real*
            # compressed size rather than the modeled ratio: the codec has
            # really run, so its bytes are what gets accounted.
            real = replace(
                point,
                method=execution.method,
                ratio=execution.ratio,
                compress_seconds=execution.compression_seconds,
                decompress_seconds=executor.decompression_time(
                    execution.method, len(block), execution.payload
                ),
            )
            up_raw = up_link.mean_transfer_time(len(block))
            up_compressed = up_link.mean_transfer_time(len(execution.payload))
            down_compressed = down_link.mean_transfer_time(len(execution.payload))
            wire = {
                "producer": up_compressed + down_compressed,
                "raw": up_raw + down_raw,
                "consumer": up_raw + down_compressed,
            }
            per_block.append(placement_costs(real, wire, interference))
        for mode in PLACEMENT_MODES_ORDER:
            chosen: List[PlacementCost] = [
                choose_placement(costs) if mode == "auto" else costs[mode]
                for costs in per_block
            ]
            ups = [
                up_link.mean_transfer_time(
                    len(block) if cost.placement != "producer" else len(payload)
                )
                for block, payload, cost in zip(blocks, payloads, chosen)
            ]
            downs = [cost.wire_seconds - up for cost, up in zip(chosen, ups)]
            schedule: RelaySchedule = simulate_relay_pipeline(
                [c.compress_seconds for c in chosen],
                ups,
                [c.relay_seconds for c in chosen],
                downs,
                [c.decompress_seconds for c in chosen],
                workers=workers,
                relay_workers=workers,
                queue_depth=queue_depth,
            )
            crc = 0
            counts: Dict[str, int] = {}
            for block, payload, cost in zip(blocks, payloads, chosen):
                counts[cost.placement] = counts.get(cost.placement, 0) + 1
                wire = payload if cost.placement != "raw" else block
                crc = zlib.crc32(wire, crc) & 0xFFFFFFFF
            cells.append(
                PlacementBreakdown(
                    link=link_name,
                    mode=mode,
                    blocks=len(blocks),
                    schedule=schedule,
                    placements=counts,
                    downstream_crc32=crc,
                )
            )
    return cells


def placement_failures(cells: Sequence[PlacementBreakdown]) -> List[str]:
    """The placement verdict, once: what a breakdown matrix must satisfy.

    Per link class (each message starts ``"<link>: "``):

    * **auto never loses** — the break-even ``auto`` arrangement's modeled
      end-to-end makespan *and* serial phase sum are no worse than
      always-``producer`` (within :data:`PLACEMENT_RTOL`);
    * **offload signature** — the ``consumer`` bar has zero producer-side
      compression (the empty bar that is the whole point of offloading);
    * **byte-exactness** — the ``consumer`` downstream CRC chain equals
      the ``producer`` one: relay-side compression produced identical
      wire bytes.

    The CLI, the placement gate, the smoke section and the pytest
    benchmark all read their verdict from here.
    """
    by_key = {(c.link, c.mode): c for c in cells}
    failures: List[str] = []
    for link in dict.fromkeys(c.link for c in cells):
        producer = by_key[(link, "producer")]
        consumer = by_key[(link, "consumer")]
        auto = by_key[(link, "auto")]
        for what, mine, theirs in (
            ("makespan", auto.makespan, producer.makespan),
            ("serial", auto.serial_seconds, producer.serial_seconds),
        ):
            if mine > theirs * (1.0 + PLACEMENT_RTOL):
                failures.append(
                    f"{link}: auto {what} {mine:.6f}s slower than "
                    f"always-producer {theirs:.6f}s"
                )
        if consumer.compress_seconds != 0.0:
            failures.append(
                f"{link}: consumer arrangement spent "
                f"{consumer.compress_seconds:.6f}s compressing at the producer"
            )
        if consumer.downstream_crc32 != producer.downstream_crc32:
            failures.append(
                f"{link}: consumer downstream CRC {consumer.downstream_crc32:#010x}"
                f" != producer {producer.downstream_crc32:#010x}"
            )
    return failures

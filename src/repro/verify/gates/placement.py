"""The ``placement`` gate: break-even scheduling beats always-producer, byte-exactly.

Two legs, both deterministic:

* **Breakdown leg** — :func:`repro.experiments.placement.placement_breakdown`
  runs the DTSchedule-style time-breakdown matrix (compress / wire /
  relay / decompress) across the paper's four link classes and must
  satisfy :func:`~repro.experiments.placement.placement_failures` (auto
  never loses, the consumer bar has zero producer-side compression, the
  consumer downstream CRC chain equals the producer one) and reproduce
  every cell on a second identical run.

* **Relay leg** — commercial blocks are shipped raw (consumer placement)
  through the hostile middleware wire (:class:`ChaosWire` +
  :class:`ReliableEventLink` under a seeded :class:`FaultPlan`) into a
  :class:`~repro.middleware.relay.CompressionRelay`.  The gate asserts the
  relay's forwarded CRC chain equals :func:`chain_crc` over producer-side
  compression of the same block sequence (byte-exact through faults), that
  a :class:`DecompressionHandler` recovers every original block, and that
  a second identical run is identical.

Every cell lands in the gate's JSON-lines time-breakdown trace (CI
uploads it as the ``placement_breakdown.jsonl`` artifact).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

from ...core.engine import CodecExecutor
from ...experiments.placement import (
    DEFAULT_INTERFERENCE,
    LINK_CLASSES,
    PlacementBreakdown,
    placement_breakdown,
    placement_failures,
)
from ...middleware.handlers import DecompressionHandler
from ...middleware.relay import (
    ATTR_PLACEMENT,
    ATTR_RELAY_METHOD,
    CompressionRelay,
    chain_crc,
)
from ...netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from ...netsim.faults import FaultPlan, FaultRule
from .fixtures import WireRun, run_hostile, seeded_blocks, seeded_events
from .runner import GateContext

#: Breakdown-leg scale: big enough that every placement regime appears
#: (raw wins the intranet links, consumer offload wins the slow ones).
BLOCKS = 12
BLOCK_SIZE = 128 * 1024

#: Relay-leg traffic and fault schedule (seeded, so fully reproducible).
RELAY_BLOCKS = 24
RELAY_BLOCK_SIZE = 8 * 1024
RELAY_METHOD_CYCLE = ("lempel-ziv", "burrows-wheeler", "huffman")
RELAY_FAULT_SEED = 31


def judge_cells(
    ctx: GateContext, cells: Sequence[PlacementBreakdown]
) -> Tuple[Dict[Tuple[str, str], PlacementBreakdown], Set[str]]:
    """Fail every :func:`placement_failures` verdict on ``cells``; the cells
    by ``(link, mode)`` and the link classes that lost."""
    failures = placement_failures(cells)
    for failure in failures:
        ctx.fail(failure)
    return (
        {(c.link, c.mode): c for c in cells},
        {failure.split(":")[0] for failure in failures},
    )


def breakdown_leg(ctx: GateContext) -> None:
    """The DTSchedule matrix satisfies the placement verdict, reproducibly."""
    cells = ctx.twice(
        lambda: placement_breakdown(
            total_blocks=BLOCKS, block_size=BLOCK_SIZE, interference=DEFAULT_INTERFERENCE
        ),
        "breakdown matrix",
    )
    for cell in cells:
        ctx.tracer.event("placement.breakdown", **asdict(cell))
    by_key, losing = judge_cells(ctx, cells)
    for link in LINK_CLASSES:
        producer, auto = by_key[(link, "producer")], by_key[(link, "auto")]
        ctx.emit(
            f"link={link:14s} producer={producer.makespan:7.3f}s "
            f"auto={auto.makespan:7.3f}s "
            f"auto_placements={dict(sorted(auto.placements.items()))!s:32s} "
            f"{'FAIL' if link in losing else 'OK'}"
        )


def relay_fault_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(kind="drop", probability=0.15),
            FaultRule(kind="corrupt", probability=0.15),
            FaultRule(kind="duplicate", probability=0.1),
            FaultRule(kind="reorder", probability=0.1),
            FaultRule(kind="delay", probability=0.1, delay=0.02),
        ],
        seed=seed,
        name="relay-hostile",
    )


def _relay_method(index: int) -> str:
    return RELAY_METHOD_CYCLE[index % len(RELAY_METHOD_CYCLE)]


class RelayOutcome(NamedTuple):
    """What the relay forwarded in one run, and what its sink recovered."""

    crc_chain: int
    forwarded: int
    compressed: int
    bytes_in: int
    bytes_out: int
    relay_seconds: float
    recovered: Tuple[bytes, ...]


def run_relay_once(ctx: GateContext) -> Tuple[WireRun, RelayOutcome]:
    """Raw, relay-annotated blocks through the hostile wire into the relay."""
    relay = CompressionRelay(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
    decompressor = DecompressionHandler()
    recovered: List[bytes] = []
    relay.subscribe(lambda event: recovered.append(decompressor(event).payload))
    # The placement-aware producer's output: raw blocks, relay-annotated.
    events = seeded_events(
        "placement",
        RELAY_BLOCK_SIZE,
        RELAY_BLOCKS,
        lambda index, block: (
            block,
            {ATTR_PLACEMENT: "consumer", ATTR_RELAY_METHOD: _relay_method(index)},
        ),
    )
    wire = run_hostile(
        relay_fault_plan(RELAY_FAULT_SEED), events, relay, RELAY_FAULT_SEED, ctx.tracer
    )
    return wire, RelayOutcome(
        crc_chain=relay.crc_chain,
        forwarded=relay.events_forwarded,
        compressed=relay.events_compressed,
        bytes_in=relay.bytes_in,
        bytes_out=relay.bytes_out,
        relay_seconds=relay.relay_seconds,
        recovered=tuple(recovered),
    )


def relay_leg(ctx: GateContext) -> None:
    """Relay compression through a seeded hostile wire is byte-exact."""
    before = len(ctx.failures)
    blocks = seeded_blocks(RELAY_BLOCK_SIZE, RELAY_BLOCKS)
    # The chain the producer would have produced for the same sequence.
    executor = CodecExecutor(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, expansion_fallback=True)
    expected_chain = chain_crc(
        executor.compress(_relay_method(i), block).payload for i, block in enumerate(blocks)
    )
    wire, run = ctx.twice(lambda: run_relay_once(ctx), "relay leg")
    if wire.missing:
        ctx.fail(f"relay leg: sequences never delivered: {list(wire.missing)}")
    if run.crc_chain != expected_chain:
        ctx.fail(
            f"relay leg: relay CRC chain {run.crc_chain:#010x} != producer-side "
            f"chain {expected_chain:#010x}"
        )
    if run.forwarded != len(blocks) or run.compressed != len(blocks):
        ctx.fail(
            f"relay leg: forwarded {run.forwarded}/compressed {run.compressed}, "
            f"want {len(blocks)} each"
        )
    if list(run.recovered) != blocks:
        ctx.fail("relay leg: decompressed payloads differ from originals")
    if run.bytes_out >= run.bytes_in:
        ctx.fail(f"relay leg: no bytes saved ({run.bytes_in} in, {run.bytes_out} out)")
    ctx.row(
        before,
        f"relay: {len(blocks)} blocks through hostile wire  "
        f"chain={run.crc_chain:#010x} (want {expected_chain:#010x})  "
        f"saved={run.bytes_in - run.bytes_out} bytes  retries={wire.retries} "
        f"crc_rejected={wire.frames_rejected}",
        "placement.relay",
        blocks=len(blocks),
        crc_chain=run.crc_chain,
        expected_chain=expected_chain,
        bytes_in=run.bytes_in,
        bytes_out=run.bytes_out,
        relay_seconds=run.relay_seconds,
        retries=wire.retries,
        frames_rejected=wire.frames_rejected,
    )


CHECKS = (breakdown_leg, relay_leg)

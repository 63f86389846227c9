"""The ``chaos`` gate: byte-exact recovery under a matrix of seeded fault plans.

Replays fig08-style traffic — commercial blocks, per-block compression
with a cycling method — through the hostile middleware wire
(:class:`~repro.middleware.chaos.ChaosWire` +
:class:`~repro.middleware.chaos.ReliableEventLink`) under a matrix of
seeded :class:`~repro.netsim.faults.FaultPlan`\\ s, and through the
simulation path (:class:`~repro.netsim.faults.FaultyLink` wrapping the
fig08 replay).  For every (plan, seed) cell the gate asserts:

* **byte-exact recovery** — every delivered payload equals the payload
  sent, in sequence order, with nothing missing;
* **bounded retries** — total retries stay within the per-event budget
  of the :class:`~repro.netsim.faults.RetryPolicy`;
* **determinism** — a second identical run produces the identical
  outcome (retries, rejections, duplicates, virtual clock);
* **CRC proof** — the corrupting plans must show ``frames_rejected > 0``
  (damage is rejected by the frame checksum, never decoded).

Every fault/retry/recovery event lands in the gate's JSON-lines trace
(CI uploads it as an artifact when the gate fails).
"""

from __future__ import annotations

from typing import List, Tuple

from ...compression.registry import get_codec
from ...experiments.config import ReplayConfig
from ...experiments.replay import commercial_blocks, run_replay
from ...middleware.events import Event
from ...netsim.faults import FaultPlan, FaultRule
from .fixtures import RETRY, run_hostile, seeded_events
from .runner import GateContext

#: fig08-style traffic: commercial blocks, methods cycling like the
#: adaptive selector does across the load trace.
BLOCK_SIZE = 8 * 1024
BLOCK_COUNT = 24
METHOD_CYCLE = ("lempel-ziv", "burrows-wheeler", "huffman", "none")

#: Every plan runs under each seed; determinism is checked per cell.
SEEDS = (11, 29)

#: Plans whose runs must prove the CRC rejects damaged frames.
CORRUPTING_PLANS = ("corrupt-25pct", "kitchen-sink")


#: The fault-plan matrix: name -> rules.  Rules are immutable, plans are
#: not (they carry their RNG and counters), so every run builds its own
#: ``FaultPlan(rules, seed, name)``.
PLANS = {
    "clean": (),
    "drop-20pct": (FaultRule(kind="drop", probability=0.2),),
    "corrupt-25pct": (FaultRule(kind="corrupt", probability=0.25),),
    "dup-reorder": (
        FaultRule(kind="duplicate", probability=0.2),
        FaultRule(kind="reorder", probability=0.15),
    ),
    "burst-then-delay": (
        FaultRule(kind="drop", first=0, last=3),
        FaultRule(kind="delay", probability=0.3, delay=0.05),
    ),
    "kitchen-sink": (
        FaultRule(kind="drop", probability=0.1),
        FaultRule(kind="corrupt", probability=0.1),
        FaultRule(kind="duplicate", probability=0.1),
        FaultRule(kind="reorder", probability=0.1),
        FaultRule(kind="delay", probability=0.1, delay=0.02),
    ),
}


def fig08_events() -> List[Event]:
    """Commercial blocks compressed with a cycling method, as events."""

    def compressed(index: int, block: bytes):
        method = METHOD_CYCLE[index % len(METHOD_CYCLE)]
        return get_codec(method).compress(block), {"method": method}

    return seeded_events("fig08", BLOCK_SIZE, BLOCK_COUNT, compressed)


def run_cell(ctx: GateContext, name: str, seed: int, events: List[Event]) -> Tuple:
    """One run of ``events`` through the wire plan ``name`` damages: what
    the link did, and the ``(sequence, payload)`` pairs it delivered."""
    delivered: List[Event] = []
    plan = FaultPlan(PLANS[name], seed=seed, name=name)
    run = run_hostile(plan, events, delivered.append, seed, ctx.tracer)
    return run, tuple((e.sequence, e.payload) for e in delivered)


def fault_plan_matrix(ctx: GateContext) -> None:
    """Every (plan, seed) cell recovers byte-exactly, boundedly, reproducibly."""
    events = fig08_events()
    want = tuple((e.sequence, e.payload) for e in events)
    budget = len(events) * (RETRY["max_attempts"] - 1)
    for seed in SEEDS:
        for name in PLANS:
            ctx.tracer.event("chaos.cell", plan=name, seed=seed)
            tag = f"[{name} seed={seed}]"
            before = len(ctx.failures)
            cell, delivered = ctx.twice(
                lambda name=name, seed=seed: run_cell(ctx, name, seed, events), tag
            )
            if cell.missing:
                ctx.fail(f"{tag} sequences never delivered: {list(cell.missing)}")
            if delivered != want:
                ctx.fail(
                    f"{tag} delivered payloads are not byte-exact/in-order "
                    f"(got {len(delivered)} events, want {len(want)})"
                )
            if cell.retries > budget:
                ctx.fail(f"{tag} retries {cell.retries} exceed budget {budget}")
            if max(cell.attempts) > RETRY["max_attempts"]:
                ctx.fail(f"{tag} an event used {max(cell.attempts)} attempts")
            if name in CORRUPTING_PLANS and cell.frames_rejected == 0:
                ctx.fail(f"{tag} corrupting plan produced no CRC rejections")
            if name == "clean" and cell.retries:
                ctx.fail(f"{tag} clean plan retried {cell.retries} times")
            ctx.row(
                before,
                f"plan={name:18s} seed={seed:3d} "
                f"injected={sum(cell.injected.values()):3d} retries={cell.retries:3d} "
                f"crc_rejected={cell.frames_rejected:3d} "
                f"dups_dropped={cell.duplicates_dropped:3d} "
                f"virtual_s={cell.virtual_seconds:9.3f}",
                "chaos.cell_result",
                plan=name,
                seed=seed,
                injected={k: v for k, v in cell.injected.items() if v},
                retries=cell.retries,
                frames_rejected=cell.frames_rejected,
                duplicates_dropped=cell.duplicates_dropped,
                rerequests=cell.rerequests,
            )


def run_replay_leg(seed: int) -> Tuple:
    """The simulation path: fig08 replay over a FaultyLink."""
    config = ReplayConfig(
        block_count=16,
        production_interval=0.0,
        fault_plan=FaultPlan(
            [
                FaultRule(kind="drop", probability=0.2),
                FaultRule(kind="delay", probability=0.2, delay=0.1),
            ],
            seed=seed,
            name="replay-leg",
        ),
    )
    result = run_replay(commercial_blocks(config), config)
    return (
        tuple(r.method for r in result.records),
        result.total_compressed_bytes,
        round(result.total_time, 9),
    )


def replay_leg(ctx: GateContext) -> None:
    """The fig08 replay over a FaultyLink is deterministic per seed."""
    for seed in SEEDS:
        before = len(ctx.failures)
        methods, _, total_time = ctx.twice(
            lambda seed=seed: run_replay_leg(seed), f"[replay-leg seed={seed}] replay"
        )
        ctx.row(
            before,
            f"plan=replay-leg        seed={seed:3d} methods={len(methods):3d} "
            f"virtual_s={total_time:9.3f}",
            "chaos.replay_leg",
            seed=seed,
            total_time=total_time,
        )


CHECKS = (fault_plan_matrix, replay_leg)

"""Placement break-even model — decision cost and the never-lose invariant.

The placement decision runs once per block on top of the bicriteria
candidate evaluation, so pricing the three arrangements and picking the
winner must stay microseconds-cheap.  The dominance half *is* the CI smoke
gate's ``placement_breakeven`` check (verdict:
``repro.experiments.placement.placement_failures``): because
always-``producer`` is itself in the priced set, the break-even ``auto``
choice can never model slower than it — on any link class.
"""

import math
import zlib

from repro.core.bicriteria import (
    default_candidates,
    evaluate_candidates,
    fastest_compressing_point,
)
from repro.core.placement import (
    choose_placement,
    evaluate_placements,
    raw_breakeven_seconds,
)
from repro.experiments.placement import DEFAULT_INTERFERENCE
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.link import PAPER_LINKS
from repro.verify.gates.smoke import placement_breakeven

_BLOCK_SIZE = 128 * 1024


def _best_point(sending_time, sampled_ratio=0.35):
    points = evaluate_candidates(
        default_candidates(_BLOCK_SIZE),
        sending_time,
        calibration=DEFAULT_COSTS,
        cpu=SUN_FIRE,
        sample=sampled_ratio,
        base_block_size=_BLOCK_SIZE,
    )
    return fastest_compressing_point(points.values())


def _decide_once(sending_time, point):
    costs = evaluate_placements(
        point,
        sending_time,
        downstream_seconds=sending_time * 4.0,
        interference=DEFAULT_INTERFERENCE,
    )
    return choose_placement(costs)


def test_placement_decision_speed(benchmark, record_bench):
    """Pricing the three arrangements + picking one (the per-block cost)."""
    sending_time = _BLOCK_SIZE / PAPER_LINKS["100mbit"].throughput
    point = _best_point(sending_time)
    chosen = benchmark(_decide_once, sending_time, point)
    assert chosen.placement in ("producer", "raw", "consumer")
    assert chosen.total_seconds > 0
    record_bench(
        "placement.chosen_100mbit", zlib.crc32(chosen.placement.encode()), unit="hash"
    )
    knee = raw_breakeven_seconds(point, interference=DEFAULT_INTERFERENCE)
    assert math.isfinite(knee) and knee > 0
    record_bench(
        "placement.raw_breakeven_100mbit_seconds", knee,
        unit="seconds", better="near", tolerance=0.10,
    )


def test_placement_auto_never_loses(run_check):
    """The smoke gate's placement check: the one verdict, on its matrix."""
    run_check(placement_breakeven)

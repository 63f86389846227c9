"""Bicriteria optimizer — frontier cost and the table-dominance invariant.

The optimizer runs once per 128 KB block in production, exactly like the
§2.5 selector it replaces, so building and pruning the candidate frontier
must stay microseconds-cheap.  The dominance half *is* the CI smoke
gate's ``bicriteria_model_grid`` check: because the table's choice (at
default parameters) is always in the evaluated candidate set, the
frontier's budget-feasible minimum can never model slower than the table.
"""

import zlib

from repro.core.bicriteria import build_frontier, select_point
from repro.core.monitor import ReducingSpeedMonitor
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.link import PAPER_LINKS
from repro.verify.gates.smoke import bicriteria_model_grid

_BLOCK_SIZE = 128 * 1024


def _frontier_once(sending_time, lz_speed=1.4e6, sampled_ratio=0.35):
    monitor = ReducingSpeedMonitor()
    monitor.observe_speed("lempel-ziv", lz_speed)
    return build_frontier(
        _BLOCK_SIZE,
        sending_time,
        calibration=DEFAULT_COSTS,
        cpu=SUN_FIRE,
        monitor=monitor,
        sample=sampled_ratio,
    )


def test_bicriteria_frontier_speed(benchmark, record_bench):
    """One full evaluate + prune + select cycle (the per-block cost)."""
    sending_time = _BLOCK_SIZE / PAPER_LINKS["100mbit"].throughput
    frontier = benchmark(_frontier_once, sending_time)
    point, violated = select_point(frontier, space_budget=1.0)
    assert not violated
    assert point.total_seconds > 0
    record_bench("bicriteria.frontier_size_100mbit", len(frontier), unit="points")
    record_bench("bicriteria.chosen_method_100mbit", zlib.crc32(point.label.encode()))


def test_bicriteria_dominates_table(run_check):
    """The smoke gate's model-grid check: chosen point models <= the table's."""
    run_check(bicriteria_model_grid)

"""Multi-link utility matrix — the paper's §1/§4 textual claims.

"We were able to significantly improve the speeds of data exchange for
links from the U.S. to an Israeli university machine, in both low-load
and high-load usage scenarios.  Similarly, for home-based machines, even
when using broadband links like DSL, notable performance advantages are
attained ...  In Intranets, however, the utility of compression is less
evident, especially ... networks offering from 100MB to 1GB connectivity."

:func:`multilink_matrix` transfers the same commercial dataset across
every link class under low and high load, adaptive vs. uncompressed, and
reports the speedup factor per cell — the quantitative version of that
paragraph.  Each cell also carries a placement-aware run
(``AdaptivePolicy(placement="auto")`` over the same blocks): on the fast
intranet links the break-even model ships raw outright instead of asking
the decision table per block, the placement-scheduling reading of "the
utility of compression is less evident" (see
:mod:`repro.core.placement`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from ..core.policy import FixedPolicy
from .config import MULTILINK_CONFIG
from .placement import DEFAULT_INTERFERENCE
from .replay import commercial_blocks, run_replay

__all__ = ["MultilinkCell", "multilink_matrix", "DEFAULT_LINK_ORDER"]

DEFAULT_LINK_ORDER = ["1gbit", "100mbit", "dsl", "1mbit", "international"]

#: Constant competing-connection counts for the two usage scenarios.
LOW_LOAD_CONNECTIONS = 0.0
HIGH_LOAD_CONNECTIONS = 40.0


@dataclass(frozen=True)
class MultilinkCell:
    """One (link, load) comparison."""

    link: str
    load_label: str
    adaptive_seconds: float
    uncompressed_seconds: float
    adaptive_methods: Dict[str, int]
    #: Same stream under the placement-aware selector
    #: (``placement="auto"``): end-to-end seconds and the arrangements
    #: it chose per block.
    auto_seconds: float
    auto_placements: Dict[str, int]

    @property
    def speedup(self) -> float:
        if self.adaptive_seconds <= 0:
            return float("inf")
        return self.uncompressed_seconds / self.adaptive_seconds

    @property
    def speedup_auto(self) -> float:
        if self.auto_seconds <= 0:
            return float("inf")
        return self.uncompressed_seconds / self.auto_seconds


def multilink_matrix() -> List[MultilinkCell]:
    """Run the low/high-load × link matrix over :data:`MULTILINK_CONFIG`;
    returns one cell per combination."""
    blocks = commercial_blocks(MULTILINK_CONFIG)
    cells: List[MultilinkCell] = []
    for link_name in DEFAULT_LINK_ORDER:
        for label, connections in (
            ("low-load", LOW_LOAD_CONNECTIONS),
            ("high-load", HIGH_LOAD_CONNECTIONS),
        ):
            cell = replace(MULTILINK_CONFIG, link=link_name, load=connections)
            adaptive = run_replay(blocks, cell)
            plain = run_replay(blocks, cell, policy=FixedPolicy("none"))
            auto = run_replay(
                blocks, replace(cell, placement="auto", interference=DEFAULT_INTERFERENCE)
            )
            cells.append(
                MultilinkCell(
                    link=link_name,
                    load_label=label,
                    adaptive_seconds=adaptive.total_time,
                    uncompressed_seconds=plain.total_time,
                    adaptive_methods=adaptive.method_counts(),
                    auto_seconds=auto.total_time,
                    auto_placements=auto.placement_counts(),
                )
            )
    return cells

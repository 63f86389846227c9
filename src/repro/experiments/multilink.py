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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.pipeline import AdaptivePipeline
from ..core.policy import AdaptivePolicy, CompressionPolicy, FixedPolicy
from ..data.commercial import CommercialDataGenerator
from ..netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from ..netsim.link import make_link
from ..netsim.loadtrace import LoadTrace
from .placement import DEFAULT_INTERFERENCE

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
    auto_seconds: float = 0.0
    auto_placements: Dict[str, int] = field(default_factory=dict)

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


def _run(
    blocks: Sequence[bytes],
    link_name: str,
    connections: float,
    policy: Optional[CompressionPolicy],
    pipelined: bool,
) -> Tuple[float, Dict[str, int], Dict[str, int]]:
    link = make_link(link_name, seed=5, congestion_per_connection=0.4)
    load = LoadTrace.from_pairs([(0.0, connections)]) if connections else None
    pipeline = AdaptivePipeline(policy=policy, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
    result = pipeline.run(list(blocks), link, load=load, pipelined=pipelined)
    return result.total_time, result.method_counts(), result.placement_counts()


def multilink_matrix(
    total_blocks: int = 24,
    block_size: int = 128 * 1024,
    links: Optional[List[str]] = None,
    pipelined: bool = True,
    seed: int = 2004,
) -> List[MultilinkCell]:
    """Run the low/high-load × link matrix; returns one cell per combination."""
    link_names = links if links is not None else DEFAULT_LINK_ORDER
    blocks = list(CommercialDataGenerator(seed=seed).stream(block_size, total_blocks))
    cells: List[MultilinkCell] = []
    for link_name in link_names:
        for label, connections in (
            ("low-load", LOW_LOAD_CONNECTIONS),
            ("high-load", HIGH_LOAD_CONNECTIONS),
        ):
            adaptive_seconds, methods, _ = _run(
                blocks, link_name, connections, AdaptivePolicy(), pipelined
            )
            plain_seconds, _, _ = _run(
                blocks, link_name, connections, FixedPolicy("none"), pipelined
            )
            auto_seconds, _, auto_placements = _run(
                blocks,
                link_name,
                connections,
                AdaptivePolicy(
                    placement="auto",
                    cost_model=DEFAULT_COSTS,
                    cpu=SUN_FIRE,
                    interference=DEFAULT_INTERFERENCE,
                ),
                pipelined,
            )
            cells.append(
                MultilinkCell(
                    link=link_name,
                    load_label=label,
                    adaptive_seconds=adaptive_seconds,
                    uncompressed_seconds=plain_seconds,
                    adaptive_methods=methods,
                    auto_seconds=auto_seconds,
                    auto_placements=auto_placements,
                )
            )
    return cells

"""Headline end-to-end comparison (paper §5 / table T1 in DESIGN.md).

"Using configurable compression, we could transport the transactional
data of a large company ... on a 100MBits network link under variable
load in 10.7142 seconds (where compression took slightly more than 60% of
total time) rather than in the 29.1388 seconds it took without
compression."  And for the molecular data: "dynamic data compression
actually increases the total time required for data streaming, from
roughly 29 to 30.5 seconds" — i.e. no benefit.

:func:`headline_comparison` reruns that bulk transfer for both datasets
with the adaptive policy and with every fixed baseline (none / huffman /
lempel-ziv / burrows-wheeler) under the config's transport model
(``HEADLINE_CONFIG`` is pipelined, the asynchronous-transport model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.policy import AdaptivePolicy, FixedPolicy
from ..core.pipeline import StreamResult
from .config import HEADLINE_CONFIG, ReplayConfig
from .replay import commercial_blocks, molecular_blocks, run_replay

__all__ = ["HeadlineRow", "headline_comparison", "PAPER_HEADLINE"]

#: The paper's reported totals (seconds).
PAPER_HEADLINE = {
    ("commercial", "adaptive"): 10.7142,
    ("commercial", "none"): 29.1388,
    ("molecular", "none"): 29.0,
    ("molecular", "adaptive"): 30.5,
}


@dataclass(frozen=True)
class HeadlineRow:
    """One policy's bulk-transfer outcome on one dataset."""

    dataset: str
    policy: str
    total_seconds: float
    compression_fraction: float
    overall_ratio: float
    method_counts: Dict[str, int]

    @classmethod
    def from_result(cls, dataset: str, policy: str, result: StreamResult) -> "HeadlineRow":
        return cls(
            dataset=dataset,
            policy=policy,
            total_seconds=result.total_time,
            compression_fraction=result.compression_time_fraction,
            overall_ratio=result.overall_ratio,
            method_counts=result.method_counts(),
        )


def headline_comparison(
    config: Optional[ReplayConfig] = None,
    baselines: Optional[List[str]] = None,
) -> List[HeadlineRow]:
    """Run adaptive vs. fixed baselines on both datasets.

    Each row is one :func:`~repro.experiments.replay.run_replay` cell of
    ``config`` that differs only in its policy.  Returns rows ordered
    dataset-major.
    """
    cfg = config if config is not None else HEADLINE_CONFIG
    methods = baselines if baselines is not None else ["none", "huffman", "lempel-ziv", "burrows-wheeler"]

    datasets = {
        "commercial": commercial_blocks(cfg),
        "molecular": molecular_blocks(cfg),
    }
    rows: List[HeadlineRow] = []
    for dataset, blocks in datasets.items():
        adaptive = run_replay(blocks, cfg, policy=AdaptivePolicy())
        rows.append(HeadlineRow.from_result(dataset, "adaptive", adaptive))
        for method in methods:
            fixed = run_replay(blocks, cfg, policy=FixedPolicy(method))
            rows.append(HeadlineRow.from_result(dataset, f"fixed:{method}", fixed))
    return rows

"""Ablations of the design choices DESIGN.md §6 calls out.

The paper fixes three groups of constants — block size (128 KB), sample
size (4 KB), and the decision thresholds (0.83 / 3.48 / 48.78 %) — noting
only that they were "chosen according to the efficiency of compression
methods" and "can be tuned easily".  These sweeps quantify the
sensitivity on the commercial bulk-transfer scenario: each point is one
:func:`~repro.experiments.replay.run_replay` cell of the given config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from ..core.decision import DecisionThresholds
from ..core.pipeline import StreamResult
from ..core.policy import AdaptivePolicy
from .config import ReplayConfig
from .replay import commercial_blocks, run_replay

__all__ = [
    "AblationPoint",
    "sweep_block_size",
    "sweep_sample_size",
    "sweep_thresholds",
]


@dataclass(frozen=True)
class AblationPoint:
    """One sweep point's outcome."""

    parameter: str
    value: str
    total_seconds: float
    overall_ratio: float
    method_counts: Dict[str, int]

    @classmethod
    def from_result(cls, parameter: str, value: str, result: StreamResult) -> "AblationPoint":
        return cls(
            parameter=parameter,
            value=value,
            total_seconds=result.total_time,
            overall_ratio=result.overall_ratio,
            method_counts=result.method_counts(),
        )


def sweep_block_size(
    config: ReplayConfig,
    sizes: Sequence[int] = (16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024),
) -> List[AblationPoint]:
    """Vary the pipeline block size around the paper's 128 KB.

    Every point streams the config's byte budget, ``block_size x
    block_count``, cut into blocks of that point's size.
    """
    budget = config.block_size * config.block_count
    points = []
    for size in sizes:
        cell = replace(config, block_size=size, block_count=max(1, budget // size))
        result = run_replay(commercial_blocks(cell), cell)
        points.append(AblationPoint.from_result("block_size", str(size), result))
    return points


def sweep_sample_size(
    config: ReplayConfig,
    sizes: Sequence[int] = (1024, 2048, 4096, 8192, 16384, 32768),
) -> List[AblationPoint]:
    """Vary the sampling probe size around the paper's 4 KB."""
    blocks = commercial_blocks(config)
    return [
        AblationPoint.from_result(
            "sample_size", str(size), run_replay(blocks, replace(config, sample_size=size))
        )
        for size in sizes
    ]


#: The threshold variants, each perturbing the paper's constants.
THRESHOLD_VARIANTS = {
    "paper(0.83/3.48/0.4878)": DecisionThresholds(),
    "eager(0.4/2.0/0.4878)": DecisionThresholds(compress_factor=0.4, bw_factor=2.0),
    "lazy(1.6/6.0/0.4878)": DecisionThresholds(compress_factor=1.6, bw_factor=6.0),
    "tight-gate(0.83/3.48/0.30)": DecisionThresholds(ratio_gate=0.30),
    "loose-gate(0.83/3.48/0.70)": DecisionThresholds(ratio_gate=0.70),
}


def sweep_thresholds(config: ReplayConfig) -> List[AblationPoint]:
    """Perturb each decision constant independently around the paper's values."""
    blocks = commercial_blocks(config)
    return [
        AblationPoint.from_result(
            "thresholds", label, run_replay(blocks, config, policy=AdaptivePolicy(thresholds))
        )
        for label, thresholds in THRESHOLD_VARIANTS.items()
    ]

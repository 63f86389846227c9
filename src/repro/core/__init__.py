"""The paper's primary contribution: table-driven configurable compression.

Monitoring (reducing speed, end-to-end bandwidth), the 4 KB Lempel-Ziv
sampling probe, the Figure 1 decision table with the §2.5 threshold
algorithm, pluggable policies (adaptive vs. fixed baselines), and the
128 KB block pipeline that ties them together over a simulated link.
"""

from .bicriteria import (
    CandidateSpec,
    FrontierPoint,
    codec_for,
    default_candidates,
    evaluate_candidates,
    pareto_frontier,
    select_point,
)
from .calibration import calibrate, calibrate_thresholds
from .engine import (
    BlockEngine,
    BlockStats,
    CodecExecutor,
    cut_blocks,
    timed,
)
from .decision import (
    FIGURE1_TABLE,
    Decision,
    DecisionInputs,
    DecisionThresholds,
    Rating,
    select_method,
)
from .monitor import ReducingSpeedMonitor
from .pipeline import (
    DEFAULT_BLOCK_SIZE,
    METHOD_CODES,
    AdaptivePipeline,
    BlockRecord,
    StreamResult,
)
from .placement import (
    PLACEMENT_MODES,
    PLACEMENTS,
    PlacementCost,
    choose_placement,
    evaluate_placements,
    raw_breakeven_seconds,
)
from .policy import AdaptivePolicy, CompressionPolicy, FixedPolicy
from .sampler import DEFAULT_SAMPLE_SIZE, LzSampler
from .workers import (
    DEFAULT_QUEUE_DEPTH,
    PipelinedBlockEngine,
    RelaySchedule,
    simulate_pipeline,
    simulate_relay_pipeline,
)

__all__ = [
    "AdaptivePipeline",
    "AdaptivePolicy",
    "BlockEngine",
    "BlockRecord",
    "BlockStats",
    "CandidateSpec",
    "CodecExecutor",
    "CompressionPolicy",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_SAMPLE_SIZE",
    "Decision",
    "DecisionInputs",
    "DecisionThresholds",
    "FIGURE1_TABLE",
    "FixedPolicy",
    "FrontierPoint",
    "LzSampler",
    "METHOD_CODES",
    "PLACEMENTS",
    "PLACEMENT_MODES",
    "PipelinedBlockEngine",
    "PlacementCost",
    "Rating",
    "ReducingSpeedMonitor",
    "RelaySchedule",
    "StreamResult",
    "calibrate",
    "calibrate_thresholds",
    "choose_placement",
    "codec_for",
    "cut_blocks",
    "default_candidates",
    "evaluate_candidates",
    "evaluate_placements",
    "pareto_frontier",
    "raw_breakeven_seconds",
    "select_method",
    "select_point",
    "simulate_pipeline",
    "simulate_relay_pipeline",
    "timed",
]

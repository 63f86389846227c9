"""Experiment harnesses that regenerate every figure and headline number
of the paper's evaluation (see the experiment index in DESIGN.md)."""

from .ablation import (
    AblationPoint,
    sweep_block_size,
    sweep_sample_size,
    sweep_thresholds,
)
from .config import (
    BLOCK_SIZE,
    FIG8_CONFIG,
    FIG11_CONFIG,
    HEADLINE_CONFIG,
    MBONE_SCALE,
    SAMPLE_SIZE,
    TRACE_DURATION,
    ReplayConfig,
)
from .endtoend import PAPER_HEADLINE, HeadlineRow, headline_comparison
from .links import PAPER_FIG5, LinkMeasurement, figure5_link_speeds
from .micro import (
    METHOD_ORDER,
    MicroResult,
    commercial_sample,
    figure1_rows,
    figure2_ratios,
    figure4_reducing_speeds,
    figure6_molecular_ratios,
)
from .multilink import MultilinkCell, multilink_matrix
from .placement import (
    DEFAULT_INTERFERENCE,
    LINK_CLASSES,
    UPSTREAM_LINK,
    PlacementBreakdown,
    placement_breakdown,
)
from .report import generate_report
from .replay import (
    build_trace,
    commercial_blocks,
    figure7_trace_series,
    figure8_commercial_replay,
    figure11_molecular_replay,
    molecular_blocks,
    run_replay,
)

__all__ = [
    "AblationPoint",
    "BLOCK_SIZE",
    "DEFAULT_INTERFERENCE",
    "FIG11_CONFIG",
    "FIG8_CONFIG",
    "HEADLINE_CONFIG",
    "HeadlineRow",
    "LINK_CLASSES",
    "LinkMeasurement",
    "MBONE_SCALE",
    "METHOD_ORDER",
    "MicroResult",
    "MultilinkCell",
    "PAPER_FIG5",
    "PAPER_HEADLINE",
    "PlacementBreakdown",
    "ReplayConfig",
    "SAMPLE_SIZE",
    "TRACE_DURATION",
    "UPSTREAM_LINK",
    "build_trace",
    "commercial_blocks",
    "commercial_sample",
    "figure11_molecular_replay",
    "figure1_rows",
    "figure2_ratios",
    "figure4_reducing_speeds",
    "figure5_link_speeds",
    "figure6_molecular_ratios",
    "figure7_trace_series",
    "figure8_commercial_replay",
    "generate_report",
    "headline_comparison",
    "molecular_blocks",
    "multilink_matrix",
    "placement_breakdown",
    "run_replay",
    "sweep_block_size",
    "sweep_sample_size",
    "sweep_thresholds",
]

"""Full reproduction report: every figure regenerated into one document.

:func:`generate_report` runs all the figure harnesses and renders a
markdown document with measured-vs-paper rows — what EXPERIMENTS.md
records statically, regenerated live on the current machine.  Exposed on
the CLI as ``repro report``; ``repro figure N`` prints one section of it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.pipeline import StreamResult
from .config import FIG8_CONFIG, ReplayConfig
from .endtoend import PAPER_HEADLINE, headline_comparison
from .links import PAPER_FIG5, figure5_link_speeds
from .micro import (
    METHOD_ORDER,
    PAPER_FIG2_PERCENT,
    commercial_sample,
    figure1_rows,
    figure2_ratios,
    figure4_reducing_speeds,
    figure6_molecular_ratios,
)
from .replay import (
    commercial_blocks,
    figure7_trace_series,
    molecular_blocks,
    run_replay,
)

__all__ = ["FIGURE_SECTIONS", "generate_report"]

_MB = float(1 << 20)


def _table(header: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return lines


def _section(title: str, header: List[str], rows: List[List[str]]) -> List[str]:
    return [f"## {title}", ""] + _table(header, rows)


def figure1_section() -> List[str]:
    return _section(
        "Figure 1 — decision table",
        ["characteristic"] + METHOD_ORDER,
        [[label] + [cells[m] for m in METHOD_ORDER] for label, cells in figure1_rows()],
    )


def figure2_3_section() -> List[str]:
    data = commercial_sample()
    model = figure2_ratios(data)
    ms = 1e3 * len(data)  # size / throughput = seconds
    return _section(
        "Figures 2-3 — commercial ratios and times",
        ["method", "measured %", "paper %", "compress ms", "decompress ms"],
        [
            [
                method,
                f"{model.cost(method).typical_ratio * 100:.1f}",
                f"{PAPER_FIG2_PERCENT[method]:.0f}",
                f"{ms / model.cost(method).compress_throughput:.1f}",
                f"{ms / model.cost(method).decompress_throughput:.1f}",
            ]
            for method in METHOD_ORDER
        ],
    )


def figure4_section() -> List[str]:
    return _section(
        "Figure 4 — reducing speeds (MB removed / s)",
        ["machine"] + METHOD_ORDER,
        [
            [machine] + [f"{by_method[m] / _MB:.3f}" for m in METHOD_ORDER]
            for machine, by_method in figure4_reducing_speeds().items()
        ],
    )


def figure5_section(**harness: int) -> List[str]:
    return _section(
        "Figure 5 — link speeds",
        ["link", "measured MB/s", "paper MB/s", "measured σ%", "paper σ%"],
        [
            [
                name,
                f"{measurement.mean_mb_per_s:.4f}",
                f"{PAPER_FIG5[name][0]:.4f}",
                f"{measurement.stddev_percent:.2f}",
                f"{PAPER_FIG5[name][1]:.2f}",
            ]
            for name, measurement in figure5_link_speeds(**harness).items()
        ],
    )


def figure6_section() -> List[str]:
    return _section(
        "Figure 6 — molecular fields (compressed %)",
        ["field"] + METHOD_ORDER,
        [
            [field] + [f"{model.cost(m).typical_ratio * 100:.1f}" for m in METHOD_ORDER]
            for field, model in figure6_molecular_ratios().items()
        ],
    )


def figure7_section() -> List[str]:
    return _section(
        "Figure 7 — MBone trace",
        ["t (s)", "connections"],
        [[f"{t:.0f}", f"{c:.0f}"] for t, c in figure7_trace_series(step=10.0)],
    )


#: Figure number -> the one function that renders it: ``repro figure N``
#: prints it, :func:`generate_report` concatenates them (Figures 2 and 3
#: share a table).
FIGURE_SECTIONS: Dict[int, Callable[..., List[str]]] = {
    1: figure1_section,
    2: figure2_3_section,
    3: figure2_3_section,
    4: figure4_section,
    5: figure5_section,
    6: figure6_section,
    7: figure7_section,
}


def _replay_section(title: str, result: StreamResult) -> List[str]:
    return _section(
        title,
        ["metric", "value"],
        [
            ["blocks", str(len(result.records))],
            ["overall ratio", f"{result.overall_ratio:.3f}"],
            ["total time (s)", f"{result.total_time:.2f}"],
            ["compression time fraction", f"{result.compression_time_fraction:.3f}"],
            ["method counts", str(result.method_counts())],
        ],
    )


def generate_report(
    replay_config: Optional[ReplayConfig] = None,
    headline_config: Optional[ReplayConfig] = None,
    link_transfers: int = 300,
) -> str:
    """Run every harness and return the markdown report."""
    lines: List[str] = [
        "# Reproduction report",
        "",
        "Regenerated live by `repro report`; compare against EXPERIMENTS.md.",
        "",
    ]
    lines += figure1_section() + figure2_3_section() + figure4_section()
    lines += figure5_section(transfers=link_transfers) + figure6_section() + figure7_section()

    config = replay_config if replay_config is not None else FIG8_CONFIG
    lines += _replay_section(
        "Figures 8-10 — commercial replay", run_replay(commercial_blocks(config), config)
    )
    lines += _replay_section(
        "Figures 11-12 — molecular replay", run_replay(molecular_blocks(config), config)
    )

    lines += _section(
        "Headline — bulk transfer (§5)",
        ["dataset", "policy", "total s", "comp fraction", "ratio"],
        [
            [
                row.dataset,
                row.policy,
                f"{row.total_seconds:.2f}",
                f"{row.compression_fraction:.2f}",
                f"{row.overall_ratio:.2f}",
            ]
            for row in headline_comparison(headline_config, baselines=["none"])
        ],
    )
    lines += [
        "Paper reference: commercial "
        f"{PAPER_HEADLINE[('commercial', 'adaptive')]} s adaptive vs "
        f"{PAPER_HEADLINE[('commercial', 'none')]} s uncompressed; molecular "
        f"{PAPER_HEADLINE[('molecular', 'adaptive')]} s vs "
        f"{PAPER_HEADLINE[('molecular', 'none')]} s.",
        "",
    ]
    return "\n".join(lines)

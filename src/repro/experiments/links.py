"""Figure 5 harness: transfer speeds of the four link classes.

Replays 128 KB block transfers on each simulated link and reports the
measured mean throughput and relative standard deviation, next to the
paper's values (which the link specs were built from — this experiment
verifies the substrate reproduces its calibration, including the
46 % jitter of the international link).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..netsim.link import MEGABYTE, PAPER_LINKS, SimulatedLink
from .config import BLOCK_SIZE

__all__ = ["LinkMeasurement", "figure5_link_speeds", "PAPER_FIG5"]

#: The paper's Figure 5 numbers: (MB/s, stddev %).
PAPER_FIG5 = {
    "1gbit": (26.32094622, 0.782),
    "100mbit": (7.520270348, 8.95),
    "1mbit": (0.146907607, 1.17),
    "international": (0.10891426, 46.02),
}


@dataclass(frozen=True)
class LinkMeasurement:
    """Measured operating point of one link."""

    link: str
    mean_mb_per_s: float
    stddev_percent: float
    transfers: int


#: Block transfers per link, and the links' jitter seed.
FIGURE5_TRANSFERS = 400
FIGURE5_SEED = 11


def figure5_link_speeds() -> Dict[str, LinkMeasurement]:
    """Measure every paper link with :data:`FIGURE5_TRANSFERS` transfers of
    one :data:`~repro.experiments.config.BLOCK_SIZE` block."""
    results: Dict[str, LinkMeasurement] = {}
    for name, spec in PAPER_LINKS.items():
        link = SimulatedLink(spec, seed=FIGURE5_SEED)
        speeds: List[float] = []
        for _ in range(FIGURE5_TRANSFERS):
            seconds = link.transfer_time(BLOCK_SIZE)
            speeds.append(BLOCK_SIZE / seconds / MEGABYTE)
        mean = float(np.mean(speeds))
        stddev = float(np.std(speeds))
        results[name] = LinkMeasurement(
            link=name,
            mean_mb_per_s=mean,
            stddev_percent=100.0 * stddev / mean if mean else 0.0,
            transfers=FIGURE5_TRANSFERS,
        )
    return results

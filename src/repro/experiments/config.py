"""Shared experiment configuration.

One place for every parameter the figure harnesses share, so benchmarks,
examples, and tests replay identical scenarios.  Values are the paper's
where the paper states them (block 128 KB, sample 4 KB, MBone x4,
160 s trace) and calibrated where it does not (congestion factor,
dataset block counts — see DESIGN.md §3 for the back-solving).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ReplayConfig", "FIG8_CONFIG", "FIG11_CONFIG", "HEADLINE_CONFIG"]

#: Paper §2.5: "Take a block of 128KB."
BLOCK_SIZE = 128 * 1024
#: Paper §2.5: "compress the first 4KB of the next block".
SAMPLE_SIZE = 4096
#: Paper §4.2: "the raw MBone numbers multiplied by a factor of 4".
MBONE_SCALE = 4.0
#: Paper Figure 7: the trace spans 160 seconds.
TRACE_DURATION = 160.0


@dataclass(frozen=True)
class ReplayConfig:
    """Parameters of one end-to-end replay."""

    link: str = "100mbit"
    block_size: int = BLOCK_SIZE
    block_count: int = 128
    #: Selection dialect: "table" (the paper-faithful §2.5 threshold
    #: grid, default — baseline CRCs never move) or "bicriteria" (the
    #: Pareto optimizer of :mod:`repro.core.bicriteria`).
    policy: str = "table"
    #: Bicriteria only: modeled compressed/original ratio cap.
    space_budget: float = 1.0
    #: Where compression runs (:mod:`repro.core.placement`):
    #: "producer" (default — the paper's arrangement, decisions and
    #: baseline CRCs untouched), "raw", "consumer" (needs a relay
    #: topology), or "auto" (per-block break-even scheduling).
    placement: str = "producer"
    #: Producer-side I/O-interference fraction for placement pricing.
    interference: float = 0.0
    #: Relay topology for "consumer"/"auto" placement: the downstream
    #: hop modeled as this multiple of the replay link's sending time
    #: (None = no relay, so "consumer" is unpriceable and "auto" never
    #: chooses it).
    downstream_factor: Optional[float] = None
    #: Seconds between successive blocks becoming available (0 = bulk).
    production_interval: float = 1.25
    #: Per-connection bandwidth erosion (calibrated, see DESIGN.md §3).
    congestion_per_connection: float = 0.4
    #: Seconds of quiet MBone prologue to skip (bulk runs face load at once).
    trace_offset: float = 0.0
    link_seed: int = 2
    trace_seed: int = 7
    pipelined: bool = False
    #: Fault injection: a :class:`~repro.netsim.faults.FaultPlan`, or a
    #: path to its JSON form, or None (default — the clean wire every
    #: figure replay uses; faults are strictly opt-in so baseline CRCs
    #: never move).  When set, the replay link is wrapped in a
    #: :class:`~repro.netsim.faults.FaultyLink` and recovery costs land
    #: in the simulated transfer times.
    fault_plan: Optional[object] = None


#: Figures 8, 9, 10: commercial data paced across the whole 160 s trace.
FIG8_CONFIG = ReplayConfig()

#: Figures 11, 12: molecular data, same trace and pacing.
FIG11_CONFIG = ReplayConfig()

#: Headline bulk transfer (paper §5: 10.71 s vs 29.14 s commercial;
#: ~29 s vs 30.5 s molecular).  ~15.75 MB, busy trace region, asynchronous
#: (pipelined) transport.
HEADLINE_CONFIG = ReplayConfig(
    block_count=126,
    production_interval=0.0,
    trace_offset=20.0,
    pipelined=True,
)

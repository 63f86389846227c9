"""Network/CPU simulation substrate: virtual clocks, the paper's four link
classes (Figure 5), CPU models with calibrated codec costs (Figure 4),
MBone load traces (Figure 7), and end-to-end bandwidth estimators."""

from .bandwidth import EwmaBandwidthEstimator
from .clock import Clock, VirtualClock, WallClock
from .faults import (
    FAULT_KINDS,
    FaultDecision,
    FaultExhaustedError,
    FaultPlan,
    FaultRule,
    FaultyLink,
    RetryPolicy,
)
from .cpu import (
    DEFAULT_COSTS,
    SUN_FIRE,
    ULTRA_SPARC,
    CodecCost,
    CodecCostModel,
    CpuModel,
)
from .link import (
    EXTRA_LINKS,
    MEGABYTE,
    PAPER_LINKS,
    LinkSpec,
    SimulatedLink,
    make_link,
)
from .loadtrace import LoadTrace, mbone_trace
from .rudp import PacketLink, RateControlledTransport, TransferReport

__all__ = [
    "Clock",
    "CodecCost",
    "CodecCostModel",
    "CpuModel",
    "DEFAULT_COSTS",
    "EwmaBandwidthEstimator",
    "EXTRA_LINKS",
    "FAULT_KINDS",
    "FaultDecision",
    "FaultExhaustedError",
    "FaultPlan",
    "FaultRule",
    "FaultyLink",
    "LinkSpec",
    "LoadTrace",
    "MEGABYTE",
    "PAPER_LINKS",
    "PacketLink",
    "RateControlledTransport",
    "RetryPolicy",
    "SUN_FIRE",
    "SimulatedLink",
    "TransferReport",
    "ULTRA_SPARC",
    "VirtualClock",
    "WallClock",
    "make_link",
    "mbone_trace",
]

"""The method-selection decision table and algorithm (paper §2.5).

Two artifacts live here:

* :data:`FIGURE1_TABLE` — the paper's qualitative ranking of the four
  methods along six characteristics (Figure 1), exposed programmatically
  so documentation, tests, and the ``bench_fig01`` harness can regenerate
  the table.
* :func:`select_method` — the quantitative per-block selection algorithm.

The paper's pseudocode compares the block's *sending time* against scaled
versions of "the reducing size speed of Lempel-Ziv".  Dimensionally this
only closes if the right-hand side is the *time Lempel-Ziv would need to
reduce the block's worth of data*, i.e.::

    lz_reduce_time = block_size / lz_reducing_speed

where ``lz_reducing_speed`` is the continuously measured bytes-removed-
per-second metric of Figure 4 ("If such space reduction can be performed
faster than the transfer time for a given amount of data, it is worth …
to compress the data", §4.1).  This reading is also what falls out of the
first-principles inequality *compression time < transfer time saved*:
with ``comp_time = saved / reducing_speed`` and
``saved_send_time = sending_time * (1 - ratio)``, the ``(1 - ratio)``
factors cancel, leaving ``sending_time > block_size / reducing_speed``.
A crucial corollary: incompressible data drives the measured reducing
speed toward zero, the reduce time toward infinity, and the selector
toward "don't compress" — regardless of link speed.

With that reading the constants behave exactly as the paper describes:
0.83 is the "is compression worth starting at all" knee, 3.48 is the "is
there enough slack to afford Burrows-Wheeler" knee, and 48.78 % is the
"did the sample respond to dictionary compression" gate.  The first
block's reducing speed is "infinity" (pseudocode line 1), which makes
``lz_reduce_time`` zero and compression maximally attractive until real
measurements arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "Rating",
    "FIGURE1_TABLE",
    "DecisionThresholds",
    "DecisionInputs",
    "Decision",
    "select_method",
]


class Rating(Enum):
    """The paper's four-level qualitative scale (Figure 1)."""

    EXCELLENT = 4
    GOOD = 3
    SATISFACTORY = 2
    POOR = 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.capitalize()


#: Figure 1 verbatim: characteristic -> method -> rating.
FIGURE1_TABLE: Dict[str, Dict[str, Rating]] = {
    "string-repetitions": {
        "burrows-wheeler": Rating.EXCELLENT,
        "lempel-ziv": Rating.EXCELLENT,
        "arithmetic": Rating.POOR,
        "huffman": Rating.POOR,
    },
    "low-entropy": {
        "burrows-wheeler": Rating.EXCELLENT,
        "lempel-ziv": Rating.POOR,
        "arithmetic": Rating.EXCELLENT,
        "huffman": Rating.EXCELLENT,
    },
    "compression-efficiency": {
        "burrows-wheeler": Rating.EXCELLENT,
        "lempel-ziv": Rating.GOOD,
        "arithmetic": Rating.POOR,
        "huffman": Rating.POOR,
    },
    "compression-time": {
        "burrows-wheeler": Rating.POOR,
        "lempel-ziv": Rating.SATISFACTORY,
        "arithmetic": Rating.POOR,
        "huffman": Rating.EXCELLENT,
    },
    "decompression-time": {
        "burrows-wheeler": Rating.SATISFACTORY,
        "lempel-ziv": Rating.EXCELLENT,
        "arithmetic": Rating.POOR,
        "huffman": Rating.EXCELLENT,
    },
    "global-time": {
        "burrows-wheeler": Rating.POOR,
        "lempel-ziv": Rating.GOOD,
        "arithmetic": Rating.POOR,
        "huffman": Rating.EXCELLENT,
    },
}


@dataclass(frozen=True)
class DecisionThresholds:
    """The three tunable constants of the §2.5 algorithm.

    The defaults are the paper's: "these numbers can be tuned easily by
    sampling even a small piece of data … usually, the numbers being used
    are very close to the constants detailed here."
    """

    #: Compress at all when sending_time > compress_factor * lz_reduce_time.
    compress_factor: float = 0.83
    #: Escalate to Burrows-Wheeler when sending_time > bw_factor * lz_reduce_time.
    bw_factor: float = 3.48
    #: Sample must compress below this ratio for dictionary methods to apply.
    ratio_gate: float = 0.4878

    def __post_init__(self) -> None:
        if self.compress_factor <= 0 or self.bw_factor <= 0:
            raise ValueError("threshold factors must be positive")
        if self.bw_factor < self.compress_factor:
            raise ValueError("bw_factor must be >= compress_factor")
        if not 0.0 < self.ratio_gate <= 1.0:
            raise ValueError("ratio_gate must be in (0, 1]")


@dataclass(frozen=True)
class DecisionInputs:
    """Everything the selector observes for one block: its one recorded input.

    ``AdaptivePolicy.choose`` snapshots the monitor into it, and
    ``AdaptivePolicy.decide`` is a pure function of it.
    """

    #: Size of the block about to be sent, bytes (the paper's 128 KB).
    block_size: int
    #: Estimated time to send the block *uncompressed*, seconds
    #: (from the end-to-end bandwidth estimator).
    sending_time: float
    #: Compressed/original ratio of the 4 KB Lempel-Ziv sample;
    #: ``None`` when no sample exists yet (first block).
    sampled_ratio: Optional[float] = None
    #: Measured reducing speed per codec, bytes removed / second; a codec
    #: missing here was never observed and reads ``math.inf`` (line 1).
    speeds: Mapping[str, float] = field(default_factory=dict)
    #: Consecutive decisions without a fresh Lempel-Ziv observation.
    stale_decisions: int = 0

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.sending_time < 0:
            raise ValueError("sending_time must be non-negative")
        if any(speed < 0 for speed in self.speeds.values()):
            raise ValueError("reducing speeds must be non-negative")
        if self.sampled_ratio is not None and self.sampled_ratio < 0:
            raise ValueError("sampled_ratio must be non-negative")
        if self.stale_decisions < 0:
            raise ValueError("stale_decisions must be non-negative")

    @property
    def lz_reducing_speed(self) -> float:
        return self.speeds.get("lempel-ziv", math.inf)


@dataclass(frozen=True)
class Decision:
    """The selector's output plus its visible reasoning.

    ``degraded`` marks a *fallback* decision: the selector refused to act
    on stale monitor feedback and chose ``none`` defensively (see
    :class:`~repro.core.policy.AdaptivePolicy`'s ``staleness_horizon``)
    rather than compress on numbers it no longer trusts.

    The middle five fields exist for the bicriteria policy
    (:mod:`repro.core.bicriteria`): ``params`` carries the chosen
    codec's canonical constructor parameters (empty = registered
    defaults, which is all the table ever chooses), ``frontier_size``
    the Pareto-frontier size behind the choice, ``budget_violated``
    whether no frontier point fit the space budget, and the two modeled
    times let callers audit the optimizer's claimed advantage over the
    table on the *same* observed inputs.

    The placement fields belong to :mod:`repro.core.placement`.
    ``placement`` says where this block's compression runs:
    ``"producer"`` (the paper's arrangement, and the default every
    non-placement policy keeps), ``"raw"`` (nobody compresses — the wire
    outran the codec), or ``"consumer"`` (the producer ships raw and a
    relay compresses with ``relay_method``/``relay_params`` for its
    slower downstream link; ``method`` is then ``"none"`` because the
    *producer* executes nothing).  ``placement_seconds`` and
    ``producer_seconds`` are the modeled end-to-end times of the chosen
    and of the always-producer arrangement on the same inputs — the pair
    the CI placement gate holds ≤.

    A run's counts and modeled-seconds totals are sums over its decisions:
    a bicriteria choice has ``frontier_size > 0``, a placed decision a
    ``placement_seconds`` that is not NaN.
    """

    method: str
    lz_reduce_time: float
    sending_time: float
    effective_ratio: float
    degraded: bool = False
    params: Tuple[Tuple[str, object], ...] = field(default=())
    frontier_size: int = 0
    budget_violated: bool = False
    modeled_seconds: float = math.nan
    table_modeled_seconds: float = math.nan
    placement: str = "producer"
    relay_method: str = "none"
    relay_params: Tuple[Tuple[str, object], ...] = field(default=())
    placement_seconds: float = math.nan
    producer_seconds: float = math.nan

    @property
    def compresses(self) -> bool:
        return self.method != "none"

    @property
    def offloaded(self) -> bool:
        """Whether compression (if any) runs downstream of the producer."""
        return self.placement == "consumer" and self.relay_method != "none"


#: Ratio assumed for a block that has not been sampled yet (first block).
#: 0.5 sits just above the gate, so an unsampled block that is worth
#: compressing at all gets the safe cheap method (Huffman) rather than an
#: unjustified dictionary method.
_UNSAMPLED_RATIO = 0.5


def select_method(
    inputs: DecisionInputs, thresholds: DecisionThresholds = DecisionThresholds()
) -> Decision:
    """Choose a method for one block — the §2.5 pseudocode.

    ::

        If (sending time) > 0.83*(the reducing size speed of Lempel-Ziv)
            If sampling has been compressed into less than 48.78%
                If (sending time) > 3.48*(the reducing size speed of Lempel-Ziv)
                    Use Burrows-Wheeler
                Else
                    Use Lempel-Ziv
            Else
                Use Huffman
        Else
            Don't Compress
    """
    method, lz_reduce_time, ratio = _table_choice(inputs, thresholds)
    return Decision(
        method=method,
        lz_reduce_time=lz_reduce_time,
        sending_time=inputs.sending_time,
        effective_ratio=ratio,
    )


def _table_choice(
    inputs: DecisionInputs, thresholds: DecisionThresholds
) -> Tuple[str, float, float]:
    """:func:`select_method`'s (method, Lempel-Ziv reduce time, effective
    ratio), for a chooser that reads the table without returning it."""
    ratio = inputs.sampled_ratio if inputs.sampled_ratio is not None else _UNSAMPLED_RATIO
    ratio = min(ratio, 1.0)
    if math.isinf(inputs.lz_reducing_speed):
        lz_reduce_time = 0.0
    elif inputs.lz_reducing_speed == 0.0:
        lz_reduce_time = math.inf
    else:
        lz_reduce_time = inputs.block_size / inputs.lz_reducing_speed

    if inputs.sending_time > thresholds.compress_factor * lz_reduce_time:
        if ratio < thresholds.ratio_gate:
            if inputs.sending_time > thresholds.bw_factor * lz_reduce_time:
                method = "burrows-wheeler"
            else:
                method = "lempel-ziv"
        else:
            method = "huffman"
    else:
        method = "none"
    return method, lz_reduce_time, ratio

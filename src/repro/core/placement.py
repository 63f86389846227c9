"""Placement-aware compression scheduling: producer, raw, or consumer offload.

The paper's §2.5 selector decides *which* codec but always compresses at
the producer.  The DTSchedule line of work (SNIPPETS.md) shows that on
fast links the better question is *where* — shipping raw and letting a
consumer-side relay compress for its slower downstream link wins by an
order of magnitude when the wire outruns the codec, because the producer
never stalls behind its own compressor.  This module prices that choice
from the same substrate the bicriteria optimizer already uses
(:class:`~repro.netsim.cpu.CodecCostModel` calibration scaled by a
:class:`~repro.netsim.cpu.CpuModel`, blended with live
:class:`~repro.core.monitor.ReducingSpeedMonitor` feedback through
:func:`~repro.core.bicriteria.evaluate_candidates`), so codec choice and
placement choice are cross-priced from one candidate set.

Topology: ``producer --upstream link--> relay --downstream link-->
subscriber``.  Without a relay (``downstream_seconds=None``) the model
degenerates to the direct producer/consumer pair and only the
``producer`` and ``raw`` placements exist.  Per block the placements
price as phase sums (pipelining across blocks is the schedule model's
job, :func:`~repro.core.workers.simulate_relay_pipeline`):

* ``producer`` — compress at the source, compressed bytes on every hop::

      compress * (1 + interference) + (up + down) * ratio + decompress

  ``interference`` is DTSchedule's I/O-interference charge: producer-side
  compression competes with the producer's real work (their measured
  overhead is ~15 %), while a relay compresses on an otherwise idle box.
* ``raw`` — no codec anywhere: ``up + down``.
* ``consumer`` — raw on the fast upstream hop, the relay compresses for
  the slow downstream hop: ``up + relay_compress + down * ratio +
  decompress``.  The producer-side compression bar of the time-breakdown
  figure is *empty* — the DTSchedule signature.

The break-even knee between ``raw`` and ``producer`` is the ISSUE's
``send_time(raw) < compress_time + interference`` inequality solved for
the raw send time: compression pays iff the transfer seconds it saves,
``raw * (1 - ratio)``, exceed what it costs,
``compress * (1 + interference) + decompress``
(:func:`raw_breakeven_seconds`).  Comparisons here are deliberately
**exact** (no epsilon slack): modeled ties resolve by the fixed
preference order ``producer < consumer < raw`` — the paper-faithful
arrangement wins unless a placement is strictly faster — so the knee is
a real float boundary that ``math.nextafter`` tests can straddle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from .bicriteria import FrontierPoint

__all__ = [
    "PLACEMENTS",
    "PLACEMENT_MODES",
    "PlacementCost",
    "placement_costs",
    "evaluate_placements",
    "choose_placement",
    "raw_breakeven_seconds",
]

#: The three physical arrangements a block can take.
PLACEMENTS = ("producer", "raw", "consumer")

#: Valid values of ``AdaptivePolicy(placement=...)`` — the arrangements
#: plus ``auto``, which picks the modeled-fastest one per block.
PLACEMENT_MODES = ("auto",) + PLACEMENTS

#: Tie-break preference: the paper's producer-side arrangement wins
#: modeled ties, then consumer offload, then shipping raw.
_PREFERENCE: Dict[str, int] = {"producer": 0, "consumer": 1, "raw": 2}


@dataclass(frozen=True)
class PlacementCost:
    """Modeled per-block phase breakdown of one placement.

    The four phase fields are the columns of the DTSchedule-style
    stacked time-breakdown figure: producer-side compression, wire
    transfer (both hops), relay-side compression, and subscriber-side
    decompression.  ``ratio`` is the modeled compressed/original ratio
    of whatever hop carries compressed bytes (1.0 for ``raw``).
    """

    placement: str
    method: str
    params: Tuple[Tuple[str, object], ...]
    compress_seconds: float
    wire_seconds: float
    relay_seconds: float
    decompress_seconds: float
    ratio: float

    @property
    def total_seconds(self) -> float:
        """Modeled end-to-end seconds for one block, phases summed."""
        return (
            self.compress_seconds
            + self.wire_seconds
            + self.relay_seconds
            + self.decompress_seconds
        )


def raw_breakeven_seconds(
    point: FrontierPoint, interference: float = 0.0
) -> float:
    """Raw send time at which ``raw`` and ``producer`` placements tie.

    Below this many seconds the wire outruns the codec and shipping
    uncompressed wins; above it compression pays.  Solves
    ``raw = compress * (1 + interference) + raw * ratio + decompress``
    for ``raw``.  A point that models no space win (``ratio >= 1``)
    never breaks even: the knee is ``inf`` and raw always wins.
    """
    if interference < 0:
        raise ValueError("interference must be non-negative")
    saved_fraction = 1.0 - point.ratio
    if saved_fraction <= 0.0:
        return math.inf
    cost = point.compress_seconds * (1.0 + interference) + point.decompress_seconds
    return cost / saved_fraction


def placement_costs(
    point: Optional[FrontierPoint],
    wire_seconds: Mapping[str, float],
    interference: float = 0.0,
) -> Dict[str, PlacementCost]:
    """The placement rows, built once: one per placement in ``wire_seconds``.

    ``wire_seconds`` maps each arrangement that exists (``raw`` always,
    ``consumer`` only with a relay) to its wire seconds, both hops
    summed — modeled from ``point.ratio`` by :func:`evaluate_placements`,
    taken from real compressed sizes by the breakdown experiment.
    ``point`` supplies the codec, its ratio and its CPU seconds; ``None``
    or a non-compressing point leaves only ``raw``.
    """
    costs = {"raw": PlacementCost("raw", "none", (), 0.0, wire_seconds["raw"], 0.0, 0.0, 1.0)}
    if point is None or point.method == "none":
        return costs
    codec = dict(
        method=point.method,
        params=point.params,
        decompress_seconds=point.decompress_seconds,
        ratio=point.ratio,
    )
    costs["producer"] = PlacementCost(
        placement="producer",
        compress_seconds=point.compress_seconds * (1.0 + interference),
        wire_seconds=wire_seconds["producer"],
        relay_seconds=0.0,
        **codec,
    )
    if "consumer" in wire_seconds:
        costs["consumer"] = PlacementCost(
            placement="consumer",
            compress_seconds=0.0,
            wire_seconds=wire_seconds["consumer"],
            relay_seconds=point.compress_seconds,
            **codec,
        )
    return costs


def evaluate_placements(
    point: Optional[FrontierPoint],
    raw_seconds: float,
    downstream_seconds: Optional[float] = None,
    interference: float = 0.0,
) -> Dict[str, PlacementCost]:
    """Price every placement the available data supports.

    ``point`` is the compressing candidate to schedule (typically the
    modeled-fastest compressing :class:`FrontierPoint` from the
    bicriteria candidate set); ``None`` means nothing is priceable and
    only ``raw`` is returned.  ``raw_seconds`` is the estimated time to
    send the block *uncompressed* on the producer's (upstream) link —
    the same estimate the decision table consumes.
    ``downstream_seconds`` is the raw send time on the relay's slower
    downstream hop; ``None`` means no relay exists and the ``consumer``
    placement is unavailable.  The relay runs ``point``'s codec at
    ``point``'s modeled cost.
    """
    if raw_seconds < 0:
        raise ValueError("raw_seconds must be non-negative")
    if downstream_seconds is not None and downstream_seconds < 0:
        raise ValueError("downstream_seconds must be non-negative")
    if interference < 0:
        raise ValueError("interference must be non-negative")
    down = downstream_seconds if downstream_seconds is not None else 0.0
    wire = {"raw": raw_seconds + down}
    if point is not None:
        wire["producer"] = (raw_seconds + down) * point.ratio
        if downstream_seconds is not None:
            wire["consumer"] = raw_seconds + downstream_seconds * point.ratio
    return placement_costs(point, wire, interference)


def choose_placement(costs: Mapping[str, PlacementCost]) -> PlacementCost:
    """The modeled-fastest placement; exact ties go by preference order.

    Exact comparison is load-bearing: the raw-vs-producer knee of
    :func:`raw_breakeven_seconds` must be a real float boundary, so a
    ``nextafter`` step across it flips the choice.
    """
    if not costs:
        raise ValueError("no placements to choose from")
    return min(
        costs.values(),
        key=lambda c: (c.total_seconds, _PREFERENCE.get(c.placement, len(_PREFERENCE))),
    )

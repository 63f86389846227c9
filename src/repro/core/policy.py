"""Compression policies: adaptive (the contribution) and fixed baselines.

The paper's evaluation implicitly compares the adaptive selector against
"non-adaptive approaches" — always using one method, or never compressing.
Expressing all of these behind one interface lets the pipeline,
middleware, and the headline end-to-end benchmark treat them uniformly.

:class:`AdaptivePolicy` is one pipeline per block — *candidates* →
*price* → *constrain* → *choose* — and its dialects are presets of it:

* ``policy="table"`` (default) — the chooser is the paper-faithful §2.5
  threshold table, :func:`~repro.core.decision.select_method`, verbatim;
* ``policy="bicriteria"`` — the chooser is the argmin of modeled
  end-to-end time over the Pareto frontier of the priced candidates,
  under a space budget (:mod:`repro.core.bicriteria`);
* ``placement`` other than ``"producer"`` — one more argmin, over the
  arrangements :mod:`repro.core.placement` prices for the point the
  chooser picked.

The grid is priced at most once per decision, and never for the
``table``/``producer`` preset, which stays the paper's pseudocode.  Its
static half, a :class:`~repro.core.bicriteria.PriceSheet`, is built once
per block size, calibration and CPU load; a decision folds in only the
live terms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Protocol, Tuple

from ..compression.base import params_label
from ..compression.registry import get_codec
from ..obs.catalogue import (
    PLACEMENT_DEGRADED_TOTAL,
    SELECTOR_DEGRADED_TOTAL,
    record_choice,
    record_placement,
)
from .bicriteria import (
    PriceSheet,
    _fastest,
    _pareto,
    _select,
    default_candidates,
    sample_ratio,
)
from .decision import Decision, DecisionInputs, DecisionThresholds, select_method
from .engine import BlockStats
from .monitor import ReducingSpeedMonitor
from .placement import (
    PLACEMENT_MODES,
    PlacementCost,
    choose_placement,
    evaluate_placements,
)

__all__ = [
    "CompressionPolicy",
    "AdaptivePolicy",
    "FixedPolicy",
    "POLICY_NAMES",
]

#: The two selection dialects AdaptivePolicy speaks.
POLICY_NAMES = ("table", "bicriteria")


class CompressionPolicy(Protocol):
    """Chooses a compression method for each block."""

    def choose(
        self,
        block_size: int,
        sending_time: float,
        monitor: ReducingSpeedMonitor,
        sample: Optional[BlockStats],
    ) -> Decision:
        """Return the decision for the block about to be compressed."""
        ...


@lru_cache(maxsize=64)
def _grid(block_size: int, native: Optional[bool]) -> Tuple[tuple, Tuple[str, ...]]:
    """One memo of the pure ``default_candidates``, with the codecs it prices."""
    grid = default_candidates(block_size, native=native)
    return grid, tuple(dict.fromkeys(spec.method for spec in grid if spec.method != "none"))


#: (block size, native, calibration, CPU load and speed) -> its PriceSheet.
_SHEETS: Dict[tuple, PriceSheet] = {}


def _sheet(
    block_size: int, native: Optional[bool], calibration: Optional[object], cpu: Optional[object]
) -> PriceSheet:
    """The grid's :class:`PriceSheet`, built on the first block of a size
    and again only when the CPU's load (or speed) moved; the calibration
    is keyed by identity, as a :class:`~repro.netsim.cpu.CodecCostModel`
    never changes."""
    state = (cpu.load, cpu.speed_factor) if cpu is not None else None
    key = (block_size, native, calibration, state)
    sheet = _SHEETS.get(key)
    if sheet is None:
        if len(_SHEETS) >= 64:
            _SHEETS.clear()
        sheet = _SHEETS[key] = PriceSheet(_grid(block_size, native)[0], calibration, cpu)
    return sheet


def _frontier_decision(
    sheet: PriceSheet, priced: List[tuple], table: Decision, space_budget: float
) -> Decision:
    """The bicriteria chooser: argmin over the frontier, within the budget.

    ``table`` is what §2.5 chose on the same inputs (a method and the
    three numbers behind it); its default-param spec is always in the
    priced set, so ``table_modeled_seconds`` prices both choices
    identically.
    """
    frontier = _pareto(priced)
    row, violated = _select(frontier, space_budget)
    spec = sheet.specs[row[-1]]
    table_position = sheet.index.get((table.method, (), spec.block_size))
    return Decision(
        method=spec.method,
        lz_reduce_time=table.lz_reduce_time,
        sending_time=table.sending_time,
        effective_ratio=row[1],
        params=spec.params,
        frontier_size=len(frontier),
        budget_violated=violated,
        modeled_seconds=row[2],
        table_modeled_seconds=(
            priced[table_position][2] if table_position is not None else math.nan
        ),
    )


def _placed_decision(
    decision: Decision, chosen: PlacementCost, producer: PlacementCost
) -> Decision:
    """``decision`` rescheduled onto ``chosen``: off the producer, it ships raw."""
    at_producer = chosen.placement == "producer"
    offloaded = chosen.placement == "consumer"
    return Decision(
        method=chosen.method if at_producer else "none",
        lz_reduce_time=decision.lz_reduce_time,
        sending_time=decision.sending_time,
        effective_ratio=chosen.ratio if at_producer else 1.0,
        degraded=decision.degraded,
        params=chosen.params if at_producer else (),
        frontier_size=decision.frontier_size,
        budget_violated=decision.budget_violated,
        modeled_seconds=decision.modeled_seconds,
        table_modeled_seconds=decision.table_modeled_seconds,
        placement=chosen.placement,
        relay_method=chosen.method if offloaded else "none",
        relay_params=chosen.params if offloaded else (),
        placement_seconds=chosen.total_seconds,
        producer_seconds=producer.total_seconds,
    )


class AdaptivePolicy:
    """The adaptive selector: candidates → price → constrain → choose.

    :meth:`choose` snapshots the monitor into one
    :class:`~repro.core.decision.DecisionInputs`, calls the pure
    :meth:`decide` and records; it keeps no running totals (see
    :class:`~repro.core.decision.Decision`).  Each argument is read by one
    stage of :meth:`decide`.

    *candidates* — :func:`~repro.core.bicriteria.default_candidates` at
    each block's size, memoized per size:

    * ``native`` — forwarded to ``default_candidates``: ``None``
      auto-includes the zstd/lz4 tier when its bindings registered,
      ``False`` pins the grid to the pure-Python methods, ``True``
      demands the native tier.

    *price* — the grid's :class:`~repro.core.bicriteria.PriceSheet`
    (rebuilt only when the block size or ``cpu.load`` changes), priced at
    most once per decision and never for ``policy="table"`` with
    ``placement="producer"``; then
    :func:`~repro.core.placement.evaluate_placements` for the
    arrangements of the one chosen point:

    * ``cost_model`` / ``cpu`` — the calibration substrate
      (:class:`~repro.netsim.cpu.CodecCostModel` scaled by a
      :class:`~repro.netsim.cpu.CpuModel`).  Without it nothing but
      ``none`` is priceable, however many speeds were measured: a
      measured speed steers a calibrated method, it carries no ratio.
    * ``interference`` — producer-side surcharge on compression time for
      competing with the producer's real work (DTSchedule measures
      ~15 %; a relay compresses unloaded).
    * ``downstream_factor`` — the relay's downstream hop as a multiple
      of the upstream raw send time (``None`` = no relay, so the
      ``consumer`` placement does not exist).

    *constrain*:

    * ``staleness_horizon`` — after more than this many consecutive
      decisions without a fresh lempel-ziv observation
      (``DecisionInputs.stale_decisions``) the feedback loop is
      considered broken: the selector falls back to ``none`` at the
      producer (``degraded=True``, ``repro_selector_degraded_total`` and
      ``repro_placement_degraded_total`` on the monitor's registry) until
      observations resume.  ``None`` (default) keeps the paper's
      always-optimistic behaviour.
    * ``space_budget`` — modeled compressed/original ratio cap of the
      bicriteria chooser; 1.0 (default) only rules out modeled expansion.

    *choose*:

    * ``policy`` — ``"table"``: :func:`~repro.core.decision.select_method`
      with ``thresholds``, verbatim; ``"bicriteria"``: the modeled-fastest
      frontier point within the budget.
    * ``placement`` — ``"producer"`` (default) is the paper's arrangement
      and leaves every decision untouched; ``"raw"`` always ships
      uncompressed; ``"consumer"`` always offloads to a downstream relay;
      ``"auto"`` takes the modeled-fastest arrangement of the chosen
      point, keeping the decision as it is when nothing compressing can
      be priced.

    The record step writes bicriteria choices to the monitor's registry
    as ``repro_bicriteria_*`` and placements as ``repro_placement_*``.
    """

    def __init__(
        self,
        thresholds: DecisionThresholds = DecisionThresholds(),
        staleness_horizon: Optional[int] = None,
        policy: str = "table",
        space_budget: float = 1.0,
        cost_model: Optional[object] = None,
        cpu: Optional[object] = None,
        native: Optional[bool] = None,
        placement: str = "producer",
        interference: float = 0.0,
        downstream_factor: Optional[float] = None,
    ) -> None:
        if staleness_horizon is not None and staleness_horizon < 1:
            raise ValueError("staleness_horizon must be positive (or None)")
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICY_NAMES}")
        if space_budget <= 0:
            raise ValueError("space_budget must be positive")
        if placement not in PLACEMENT_MODES:
            raise ValueError(
                f"unknown placement {placement!r}; choose from {PLACEMENT_MODES}"
            )
        if interference < 0:
            raise ValueError("interference must be non-negative")
        if downstream_factor is not None and downstream_factor <= 0:
            raise ValueError("downstream_factor must be positive (or None)")
        if placement == "consumer" and downstream_factor is None:
            raise ValueError(
                "placement='consumer' needs a downstream_factor: without a "
                "downstream hop there is nobody to offload to"
            )
        self.thresholds = thresholds
        self.staleness_horizon = staleness_horizon
        self.policy = policy
        self.space_budget = space_budget
        self.cost_model = cost_model
        self.cpu = cpu
        self.native = native
        self.placement = placement
        self.interference = interference
        self.downstream_factor = downstream_factor
        #: The table/producer preset prices nothing: it reads the LZ speed only.
        self._prices = policy == "bicriteria" or placement != "producer"
        self._last_observations: Optional[int] = None
        self._stale_decisions = 0

    def _stale_count(self, monitor: ReducingSpeedMonitor) -> int:
        if self.staleness_horizon is None:
            return 0
        observed = monitor.observations("lempel-ziv")
        if self._last_observations is not None and observed == self._last_observations:
            self._stale_decisions += 1
        else:
            self._stale_decisions = 0
        self._last_observations = observed
        return self._stale_decisions

    def choose(
        self,
        block_size: int,
        sending_time: float,
        monitor: ReducingSpeedMonitor,
        sample: Optional[BlockStats],
    ) -> Decision:
        """Snapshot ``monitor`` into :class:`DecisionInputs`, decide, record."""
        codecs = _grid(block_size, self.native)[1] if self._prices else ("lempel-ziv",)
        inputs = DecisionInputs(
            block_size=block_size,
            sending_time=sending_time,
            sampled_ratio=sample_ratio(sample),
            speeds={codec: monitor.reducing_speed(codec) for codec in codecs},
            stale_decisions=self._stale_count(monitor),
        )
        choice, decision = self._decide(inputs)
        self._record(monitor.registry, choice, decision)
        return decision

    def decide(self, inputs: DecisionInputs) -> Decision:
        """The decision for ``inputs``: no monitor, clock or registry, ``self`` untouched."""
        return self._decide(inputs)[1]

    def _decide(self, inputs: DecisionInputs) -> Tuple[Decision, Decision]:
        """(the chooser's decision, the same decision placed)."""
        # constrain: a dead feedback loop poisons every price below.
        if self.staleness_horizon is not None and inputs.stale_decisions > self.staleness_horizon:
            degraded = Decision(
                method="none",
                lz_reduce_time=math.nan,
                sending_time=inputs.sending_time,
                effective_ratio=1.0,
                degraded=True,
            )
            return degraded, degraded
        table = select_method(inputs, self.thresholds)
        if not self._prices:
            # The table/producer preset is the paper's pseudocode: §2.5
            # verbatim is the chooser, and nothing is priced.
            return table, table
        # candidates -> price: one pass, shared by every stage below.
        sheet = _sheet(inputs.block_size, self.native, self.cost_model, self.cpu)
        priced = sheet.price(
            inputs.sending_time, inputs.speeds, inputs.sampled_ratio, inputs.block_size
        )
        if self.policy == "bicriteria":
            # constrain (space budget) + choose (argmin over the frontier).
            choice = _frontier_decision(sheet, priced, table, self.space_budget)
        else:
            # choose (table preset): §2.5 verbatim is the chooser.
            choice = table
        if self.placement == "producer":
            return choice, choice

        # choose (placement): where the chosen compression runs, if anywhere.
        row = None
        if choice.compresses:
            position = sheet.index.get((choice.method, choice.params, inputs.block_size))
            if position is not None:
                row = priced[position]
        if row is None:
            row = _fastest([priced[position] for position in sheet.compressing])
        costs = evaluate_placements(
            sheet.point(row) if row is not None else None,
            inputs.sending_time,
            downstream_seconds=(
                inputs.sending_time * self.downstream_factor
                if self.downstream_factor is not None
                else None
            ),
            interference=self.interference,
        )
        # constrain: only arrangements the data can price exist.  With
        # nothing compressing priceable (no calibration)
        # ``auto`` keeps the paper's arrangement rather than schedule on
        # guesswork; an explicit ``raw`` still ships raw.
        if self.placement != "auto":
            chosen = costs.get(self.placement)
        else:
            chosen = choose_placement(costs) if row is not None else None
        if chosen is None:
            return choice, choice
        producer = costs.get("producer", costs["raw"])
        return choice, _placed_decision(choice, chosen, producer)

    def _record(self, registry, choice: Decision, decision: Decision) -> None:
        """The one registry write; ``choice`` is what the chooser picked before placement."""
        if decision.degraded:
            registry.family(SELECTOR_DEGRADED_TOTAL).inc()
            if self.placement != "producer":
                # The break-even numbers are no more trustworthy than the
                # thresholds: scheduling degrades to the paper's
                # producer-side arrangement alongside the method fallback.
                registry.family(PLACEMENT_DEGRADED_TOTAL).inc()
            return
        if self.policy == "bicriteria":
            record_choice(
                registry,
                frontier_size=choice.frontier_size,
                method=choice.method,
                params=params_label(choice.params),
                modeled_seconds=choice.modeled_seconds,
                budget_violated=choice.budget_violated,
            )
        if not math.isnan(decision.placement_seconds):
            at_producer = decision.placement == "producer"
            record_placement(
                registry,
                placement=decision.placement,
                method=decision.method if at_producer else decision.relay_method,
                params=params_label(decision.params if at_producer else decision.relay_params),
                modeled_seconds=decision.placement_seconds,
                producer_seconds=decision.producer_seconds,
            )


class FixedPolicy:
    """Always use one method — the non-adaptive baseline."""

    def __init__(self, method: str) -> None:
        get_codec(method)  # validate the name eagerly
        self.method = method

    def choose(
        self,
        block_size: int,
        sending_time: float,
        monitor: ReducingSpeedMonitor,
        sample: Optional[BlockStats],
    ) -> Decision:
        ratio = sample_ratio(sample)
        return Decision(
            method=self.method,
            lz_reduce_time=float("nan"),
            sending_time=sending_time,
            effective_ratio=ratio if ratio is not None else 1.0,
        )

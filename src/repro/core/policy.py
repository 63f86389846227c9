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
``table``/``producer`` preset, which stays the paper's pseudocode.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Mapping, Optional, Protocol, Tuple

from ..compression.base import params_label
from ..compression.registry import get_codec
from ..obs.catalogue import (
    PLACEMENT_DEGRADED_TOTAL,
    SELECTOR_DEGRADED_TOTAL,
    record_choice,
    record_placement,
)
from .bicriteria import (
    CandidateSpec,
    FrontierPoint,
    default_candidates,
    evaluate_candidates,
    fastest_compressing_point,
    pareto_frontier,
    sample_ratio,
    select_point,
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


def _frontier_decision(
    points: Mapping[CandidateSpec, FrontierPoint],
    table: Decision,
    space_budget: float,
    block_size: int,
) -> Decision:
    """The bicriteria chooser: argmin over the frontier, within the budget.

    ``table`` is what §2.5 chose on the same inputs; its default-param
    spec is always in the priced set, so ``table_modeled_seconds`` prices
    both choices identically.
    """
    frontier = pareto_frontier(points.values())
    point, violated = select_point(frontier, space_budget)
    table_point = points.get(CandidateSpec(method=table.method, block_size=block_size))
    return replace(
        table,
        method=point.method,
        effective_ratio=point.ratio,
        params=point.params,
        frontier_size=len(frontier),
        budget_violated=violated,
        modeled_seconds=point.total_seconds,
        table_modeled_seconds=(
            table_point.total_seconds if table_point is not None else math.nan
        ),
    )


def _placed_decision(
    decision: Decision, chosen: PlacementCost, producer: PlacementCost
) -> Decision:
    """``decision`` rescheduled onto ``chosen``: off the producer, it ships raw."""
    at_producer = chosen.placement == "producer"
    offloaded = chosen.placement == "consumer"
    return replace(
        decision,
        method=chosen.method if at_producer else "none",
        params=chosen.params if at_producer else (),
        effective_ratio=chosen.ratio if at_producer else 1.0,
        placement=chosen.placement,
        relay_method=chosen.method if offloaded else "none",
        relay_params=chosen.params if offloaded else (),
        placement_seconds=chosen.total_seconds,
        producer_seconds=producer.total_seconds,
    )


class AdaptivePolicy:
    """The adaptive selector: candidates → price → constrain → choose.

    Each argument is read by one stage of :meth:`choose`.

    *candidates* — :func:`~repro.core.bicriteria.default_candidates` at
    each block's size, cached per size:

    * ``native`` — forwarded to ``default_candidates``: ``None``
      auto-includes the zstd/lz4 tier when its bindings registered,
      ``False`` pins the grid to the pure-Python methods, ``True``
      demands the native tier.

    *price* — :func:`~repro.core.bicriteria.evaluate_candidates` for the
    grid, at most once per decision and never for ``policy="table"`` with
    ``placement="producer"``; then
    :func:`~repro.core.placement.evaluate_placements` for the
    arrangements of the one chosen point:

    * ``cost_model`` / ``cpu`` — the calibration substrate
      (:class:`~repro.netsim.cpu.CodecCostModel` scaled by a
      :class:`~repro.netsim.cpu.CpuModel`).  Without it nothing but
      ``none`` is priceable, however many monitor observations arrive:
      the monitor steers a calibrated method's speed, it carries no ratio.
    * ``interference`` — producer-side surcharge on compression time for
      competing with the producer's real work (DTSchedule measures
      ~15 %; a relay compresses unloaded).
    * ``downstream_factor`` — the relay's downstream hop as a multiple
      of the upstream raw send time (``None`` = no relay, so the
      ``consumer`` placement does not exist).

    *constrain*:

    * ``staleness_horizon`` — after more than this many consecutive
      decisions without a fresh lempel-ziv observation the feedback loop
      is considered broken: the selector falls back to ``none`` at the
      producer (``degraded=True``, ``repro_selector_degraded_total``
      and ``repro_placement_degraded_total`` on the monitor's registry) until
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

    Bicriteria decisions land in the monitor's registry as
    ``repro_bicriteria_*`` and placements as ``repro_placement_*``.  The
    running totals ``modeled_seconds_total`` /
    ``table_modeled_seconds_total`` and
    ``placement_modeled_seconds_total`` /
    ``producer_placement_seconds_total`` compare the choices against the
    table and against always-producer on the same observed inputs — the
    pairs the CI gates hold ≤.
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
        self.degraded_decisions = 0
        self.budget_violations = 0
        self.choices = 0
        #: Accumulated modeled end-to-end seconds of the chosen points and
        #: of the table's counterpart choices on the same inputs.
        self.modeled_seconds_total = 0.0
        self.table_modeled_seconds_total = 0.0
        #: Placement decisions by arrangement, and the accumulated modeled
        #: seconds of the chosen vs. always-producer arrangements on the
        #: same inputs (empty/zero under ``placement="producer"``).
        self.placement_counts: Dict[str, int] = {}
        self.placement_modeled_seconds_total = 0.0
        self.producer_placement_seconds_total = 0.0
        self._last_observations: Optional[int] = None
        self._stale_decisions = 0
        self._grids: Dict[int, Tuple[CandidateSpec, ...]] = {}

    def _feedback_is_stale(self, monitor: ReducingSpeedMonitor) -> bool:
        if self.staleness_horizon is None:
            return False
        observed = monitor.observations("lempel-ziv")
        if self._last_observations is not None and observed == self._last_observations:
            self._stale_decisions += 1
        else:
            self._stale_decisions = 0
        self._last_observations = observed
        return self._stale_decisions > self.staleness_horizon

    def _grid(self, block_size: int) -> Tuple[CandidateSpec, ...]:
        grid = self._grids.get(block_size)
        if grid is None:
            grid = default_candidates(block_size, native=self.native)
            self._grids[block_size] = grid
        return grid

    def choose(
        self,
        block_size: int,
        sending_time: float,
        monitor: ReducingSpeedMonitor,
        sample: Optional[BlockStats],
    ) -> Decision:
        registry = monitor.registry
        # constrain: a dead feedback loop poisons every price below.
        if self._feedback_is_stale(monitor):
            self.degraded_decisions += 1
            registry.family(SELECTOR_DEGRADED_TOTAL).inc()
            if self.placement != "producer":
                # The break-even numbers are no more trustworthy than the
                # thresholds: scheduling degrades to the paper's
                # producer-side arrangement alongside the method fallback.
                registry.family(PLACEMENT_DEGRADED_TOTAL).inc()
            return Decision(
                method="none",
                lz_reduce_time=math.nan,
                sending_time=sending_time,
                effective_ratio=1.0,
                degraded=True,
            )
        table = select_method(
            DecisionInputs(
                block_size=block_size,
                sending_time=sending_time,
                lz_reducing_speed=monitor.reducing_speed("lempel-ziv"),
                sampled_ratio=sample_ratio(sample),
            ),
            self.thresholds,
        )
        # candidates -> price: one pass, shared by every stage below; the
        # table/producer preset is the paper's pseudocode and prices nothing.
        points = (
            evaluate_candidates(
                self._grid(block_size),
                sending_time,
                calibration=self.cost_model,
                cpu=self.cpu,
                monitor=monitor,
                sample=sample,
                base_block_size=block_size,
            )
            if self.policy == "bicriteria" or self.placement != "producer"
            else {}
        )
        if self.policy == "bicriteria":
            # constrain (space budget) + choose (argmin over the frontier).
            decision = _frontier_decision(points, table, self.space_budget, block_size)
            self.choices += 1
            self.budget_violations += decision.budget_violated
            self.modeled_seconds_total += decision.modeled_seconds
            if not math.isnan(decision.table_modeled_seconds):
                self.table_modeled_seconds_total += decision.table_modeled_seconds
            record_choice(
                registry,
                frontier_size=decision.frontier_size,
                method=decision.method,
                params=params_label(decision.params),
                modeled_seconds=decision.modeled_seconds,
                budget_violated=decision.budget_violated,
            )
        else:
            # choose (table preset): §2.5 verbatim is the chooser.
            decision = table
        if self.placement == "producer":
            return decision

        # choose (placement): where the chosen compression runs, if anywhere.
        point = None
        if decision.compresses:
            point = points.get(
                CandidateSpec(decision.method, decision.params, block_size)
            )
        if point is None:
            point = fastest_compressing_point(points.values())
        costs = evaluate_placements(
            point,
            sending_time,
            downstream_seconds=(
                sending_time * self.downstream_factor
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
            chosen = choose_placement(costs) if point is not None else None
        if chosen is None:
            return decision
        producer = costs.get("producer", costs["raw"])
        self.placement_counts[chosen.placement] = (
            self.placement_counts.get(chosen.placement, 0) + 1
        )
        self.placement_modeled_seconds_total += chosen.total_seconds
        self.producer_placement_seconds_total += producer.total_seconds
        record_placement(
            registry,
            placement=chosen.placement,
            method=chosen.method,
            params=params_label(chosen.params),
            modeled_seconds=chosen.total_seconds,
            producer_seconds=producer.total_seconds,
        )
        return _placed_decision(decision, chosen, producer)


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

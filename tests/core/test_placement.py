"""Unit tests for the break-even placement model and its policy hookup."""

import math

import pytest

from repro.core.bicriteria import FrontierPoint
from repro.core.monitor import ReducingSpeedMonitor
from repro.core.placement import (
    PLACEMENT_MODES,
    PLACEMENTS,
    choose_placement,
    evaluate_placements,
    raw_breakeven_seconds,
)
from repro.core.policy import AdaptivePolicy
from repro.core.sampler import SampleResult
from repro.core.workers import RelaySchedule, simulate_pipeline, simulate_relay_pipeline
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.obs.catalogue import (
    PLACEMENT_CHOICES_TOTAL,
    PLACEMENT_DEGRADED_TOTAL,
)

BLOCK = 128 * 1024


def _point(ratio=0.5, compress=1.0, decompress=0.5, method="lempel-ziv"):
    """A frontier point with exactly representable float phases."""
    return FrontierPoint(
        method=method,
        params=(),
        block_size=BLOCK,
        ratio=ratio,
        compress_seconds=compress,
        transfer_seconds=0.0,
        decompress_seconds=decompress,
    )


class TestEvaluatePlacements:
    def test_raw_always_available(self):
        costs = evaluate_placements(None, 2.0)
        assert set(costs) == {"raw"}
        assert costs["raw"].total_seconds == 2.0
        assert costs["raw"].method == "none"

    def test_producer_needs_a_priceable_point(self):
        costs = evaluate_placements(_point(), 2.0)
        assert set(costs) == {"raw", "producer"}
        # compress + (up * ratio) + decompress, no interference.
        assert costs["producer"].total_seconds == 1.0 + 2.0 * 0.5 + 0.5

    def test_consumer_needs_a_downstream_hop(self):
        without = evaluate_placements(_point(), 2.0)
        assert "consumer" not in without
        with_relay = evaluate_placements(_point(), 2.0, downstream_seconds=8.0)
        consumer = with_relay["consumer"]
        # Raw upstream, relay compresses, compressed downstream.
        assert consumer.compress_seconds == 0.0
        assert consumer.wire_seconds == 2.0 + 8.0 * 0.5
        assert consumer.relay_seconds == 1.0
        assert consumer.decompress_seconds == 0.5

    def test_interference_surcharges_only_the_producer(self):
        costs = evaluate_placements(
            _point(), 2.0, downstream_seconds=8.0, interference=0.5
        )
        assert costs["producer"].compress_seconds == 1.5
        assert costs["consumer"].relay_seconds == 1.0
        assert costs["raw"].total_seconds == 10.0

    def test_none_point_prices_like_no_point(self):
        costs = evaluate_placements(_point(method="none"), 2.0)
        assert set(costs) == {"raw"}

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_placements(_point(), -1.0)
        with pytest.raises(ValueError):
            evaluate_placements(_point(), 1.0, downstream_seconds=-1.0)
        with pytest.raises(ValueError):
            evaluate_placements(_point(), 1.0, interference=-0.1)
        with pytest.raises(ValueError):
            choose_placement({})


class TestBreakevenKnee:
    """The raw-vs-producer knee is an exact float boundary.

    With ratio=0.5, compress=1.0, decompress=0.5 and no interference the
    tie point solves exactly: raw = (1.0 + 0.5) / (1 - 0.5) = 3.0, with
    every operand representable, so nextafter steps must flip the choice.
    """

    def test_knee_value_is_exact(self):
        assert raw_breakeven_seconds(_point()) == 3.0

    def test_tie_prefers_producer(self):
        costs = evaluate_placements(_point(), 3.0)
        assert costs["raw"].total_seconds == costs["producer"].total_seconds
        assert choose_placement(costs).placement == "producer"

    def test_nextafter_below_knee_ships_raw(self):
        below = math.nextafter(3.0, 0.0)
        assert choose_placement(evaluate_placements(_point(), below)).placement == "raw"

    def test_nextafter_above_knee_compresses(self):
        above = math.nextafter(3.0, math.inf)
        chosen = choose_placement(evaluate_placements(_point(), above))
        assert chosen.placement == "producer"

    def test_interference_moves_the_knee(self):
        # With a 100% surcharge the knee doubles the compress term:
        # (1.0 * 2 + 0.5) / 0.5 = 5.0 — again exact.
        assert raw_breakeven_seconds(_point(), interference=1.0) == 5.0
        assert (
            choose_placement(
                evaluate_placements(_point(), 4.0, interference=1.0)
            ).placement
            == "raw"
        )

    def test_expanding_point_never_breaks_even(self):
        assert raw_breakeven_seconds(_point(ratio=1.0)) == math.inf
        assert raw_breakeven_seconds(_point(ratio=1.25)) == math.inf

    def test_interference_validation(self):
        with pytest.raises(ValueError):
            raw_breakeven_seconds(_point(), interference=-0.01)


class TestPolicyPlacement:
    def _monitor(self):
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 140_000, 0.1)
        return monitor

    def _policy(self, **kwargs):
        kwargs.setdefault("cost_model", DEFAULT_COSTS)
        kwargs.setdefault("cpu", SUN_FIRE)
        return AdaptivePolicy(**kwargs)

    def test_modes_exported(self):
        assert PLACEMENTS == ("producer", "raw", "consumer")
        assert set(PLACEMENT_MODES) == {"auto", *PLACEMENTS}

    def test_default_placement_untouched(self):
        """placement='producer' must not change the paper's decisions."""
        monitor = self._monitor()
        sample = SampleResult(4096, 1400, 0.001)
        baseline = AdaptivePolicy().choose(BLOCK, 0.5, self._monitor(), sample)
        decision = self._policy().choose(BLOCK, 0.5, monitor, sample)
        assert decision.method == baseline.method
        assert decision.placement == "producer"
        assert decision.relay_method == "none"

    def test_auto_ships_raw_on_fast_link(self):
        policy = self._policy(placement="auto")
        sample = SampleResult(4096, 1400, 0.001)
        decision = policy.choose(BLOCK, 0.01, self._monitor(), sample)
        assert decision.placement == "raw"
        assert decision.method == "none"
        assert not decision.offloaded
        assert policy.placement_counts == {"raw": 1}

    def test_auto_compresses_on_slow_link(self):
        policy = self._policy(placement="auto")
        sample = SampleResult(4096, 1400, 0.001)
        decision = policy.choose(BLOCK, 5.0, self._monitor(), sample)
        assert decision.placement == "producer"
        assert decision.compresses

    def test_consumer_offload_carries_relay_method(self):
        policy = self._policy(placement="consumer", downstream_factor=4.0)
        sample = SampleResult(4096, 1400, 0.001)
        decision = policy.choose(BLOCK, 5.0, self._monitor(), sample)
        assert decision.placement == "consumer"
        assert decision.method == "none"  # producer sends raw
        assert decision.relay_method != "none"
        assert decision.offloaded

    def test_accumulator_pair_auto_never_loses(self):
        policy = self._policy(placement="auto", interference=0.15)
        sample = SampleResult(4096, 1400, 0.001)
        for sending_time in (0.01, 0.1, 0.5, 2.0, 5.0):
            policy.choose(BLOCK, sending_time, self._monitor(), sample)
        assert policy.placement_modeled_seconds_total <= (
            policy.producer_placement_seconds_total * (1.0 + 1e-9)
        )
        assert sum(policy.placement_counts.values()) == 5

    def test_placement_metrics_recorded(self):
        policy = self._policy(placement="auto")
        monitor = self._monitor()
        policy.choose(BLOCK, 0.01, monitor, SampleResult(4096, 1400, 0.001))
        counter = monitor.registry.family(PLACEMENT_CHOICES_TOTAL)
        assert counter.value(placement="raw", method="none", params="-") == 1

    def test_staleness_degrades_to_producer(self):
        policy = self._policy(placement="auto", staleness_horizon=1)
        monitor = self._monitor()
        sample = SampleResult(4096, 1400, 0.001)
        decisions = [policy.choose(BLOCK, 0.01, monitor, sample) for _ in range(4)]
        degraded = decisions[-1]
        assert degraded.degraded
        assert degraded.method == "none"
        assert degraded.placement == "producer"  # the Decision default
        assert monitor.registry.family(PLACEMENT_DEGRADED_TOTAL).value() >= 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            self._policy(placement="edge")
        with pytest.raises(ValueError):
            self._policy(placement="auto", interference=-0.1)
        with pytest.raises(ValueError):
            self._policy(placement="auto", downstream_factor=0.0)
        with pytest.raises(ValueError):
            self._policy(placement="consumer")  # no downstream_factor

    def test_bicriteria_dialect_takes_placement(self):
        policy = self._policy(policy="bicriteria", placement="auto")
        sample = SampleResult(4096, 1400, 0.001)
        decision = policy.choose(BLOCK, 0.01, self._monitor(), sample)
        assert decision.placement == "raw"

    def test_auto_does_not_schedule_on_guesswork(self):
        # No cost substrate, cold monitor: nothing compressing is
        # priceable, so auto must leave the table's decision exactly as
        # it was — and count nothing.
        cold = ReducingSpeedMonitor()
        untouched = AdaptivePolicy().choose(BLOCK, 0.5, cold, None)
        policy = AdaptivePolicy(placement="auto")
        monitor = ReducingSpeedMonitor()
        decision = policy.choose(BLOCK, 0.5, monitor, None)
        assert decision == untouched
        assert (decision.method, decision.placement) == ("huffman", "producer")
        assert policy.placement_counts == {}
        assert policy.placement_modeled_seconds_total == 0.0
        assert monitor.registry.to_json() == cold.registry.to_json()

    def test_explicit_raw_ships_raw_even_unpriced(self):
        policy = AdaptivePolicy(placement="raw")
        decision = policy.choose(BLOCK, 0.5, ReducingSpeedMonitor(), None)
        assert (decision.method, decision.placement) == ("none", "raw")
        assert policy.placement_counts == {"raw": 1}


class TestRelayPipeline:
    def test_degenerates_to_simulate_pipeline(self):
        compress = [0.4, 0.3, 0.5, 0.2]
        sends = [0.1, 0.6, 0.2, 0.3]
        zero = [0.0] * 4
        plain = simulate_pipeline(compress, sends, workers=2, queue_depth=2)
        relay = simulate_relay_pipeline(
            compress, sends, zero, zero, zero, workers=2, queue_depth=2
        )
        assert isinstance(relay, RelaySchedule)
        assert relay.makespan == pytest.approx(plain.makespan)
        assert relay.serial_seconds == pytest.approx(plain.serial_seconds)

    def test_relay_stage_serializes_in_order(self):
        schedule = simulate_relay_pipeline(
            [0.0, 0.0], [0.1, 0.1], [1.0, 0.1], [0.1, 0.1], [0.0, 0.0]
        )
        # In-order forwarding: block 1 reaches the downstream wire only
        # after block 0's relay run (done at 1.1) — so 0.1 up + waiting
        # on block 0's slow relay + 0.1 relay + back-to-back downstream
        # sends land the last block at 1.3, not the 0.4 a free-for-all
        # relay would allow.
        assert schedule.makespan == pytest.approx(1.3)

    def test_makespan_bounded_by_serial(self):
        schedule = simulate_relay_pipeline(
            [0.4, 0.3], [0.2, 0.2], [0.1, 0.1], [0.3, 0.3], [0.2, 0.2],
            workers=2, relay_workers=2,
        )
        assert schedule.makespan <= schedule.serial_seconds
        assert schedule.serial_seconds == pytest.approx(2.3)
        assert schedule.speedup >= 1.0
        assert 0.0 <= schedule.overlap_fraction < 1.0
        assert schedule.wire_seconds == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_relay_pipeline([0.1], [0.1, 0.2], [0.1], [0.1], [0.1])
        with pytest.raises(ValueError):
            simulate_relay_pipeline([0.1], [0.1], [0.1], [0.1], [0.1], workers=0)
        with pytest.raises(ValueError):
            simulate_relay_pipeline([0.1], [0.1], [0.1], [0.1], [0.1], queue_depth=0)
        assert simulate_relay_pipeline([], [], [], [], []).makespan == 0.0

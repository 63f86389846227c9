"""Unit tests for the bicriteria optimizer and its policy integration."""

import math
import zlib

import pytest

from repro.compression.lz77 import Lz77Codec
from repro.core.bicriteria import (
    CandidateSpec,
    FrontierPoint,
    build_frontier,
    codec_for,
    default_candidates,
    evaluate_candidates,
    pareto_frontier,
    select_point,
)
from repro.core.decision import DecisionInputs, select_method
from repro.core.monitor import ReducingSpeedMonitor
from repro.core.pipeline import AdaptivePipeline
from repro.core.policy import AdaptivePolicy
from repro.experiments.config import ReplayConfig
from repro.experiments.replay import commercial_blocks, make_policy, run_replay
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, CodecCostModel
from repro.netsim.link import make_link
from repro.obs.catalogue import (
    BUDGET_VIOLATIONS_TOTAL,
    CHOICES_TOTAL,
    FRONTIER_SIZE_GAUGE,
)

BLOCK = 128 * 1024


def frontier(sending_time=0.5, sample=None, monitor=None, candidates=None):
    return build_frontier(
        BLOCK,
        sending_time,
        calibration=DEFAULT_COSTS,
        cpu=SUN_FIRE,
        monitor=monitor,
        sample=sample,
        candidates=candidates,
    )


class TestFrontier:
    def test_none_is_always_priceable(self):
        points = evaluate_candidates([CandidateSpec(method="none")], 1.0)
        (point,) = points.values()
        assert point.method == "none"
        assert point.ratio == 1.0
        assert point.compress_seconds == 0.0
        assert point.transfer_seconds == pytest.approx(1.0)

    def test_unknown_methods_are_skipped_not_priced(self):
        points = evaluate_candidates(
            [CandidateSpec(method="none"), CandidateSpec(method="mystery")],
            1.0,
            calibration=DEFAULT_COSTS,
        )
        assert [spec.method for spec in points] == ["none"]

    def test_frontier_is_pareto_optimal(self):
        result = frontier(sending_time=0.5, sample=0.35)
        assert result
        for a in result:
            for b in result:
                if a is not b:
                    assert not a.dominates(b)

    def test_frontier_sorted_fastest_first_space_decreasing(self):
        result = frontier(sending_time=0.5, sample=0.35)
        times = [p.seconds_per_byte for p in result]
        spaces = [p.space for p in result]
        assert times == sorted(times)
        assert spaces == sorted(spaces, reverse=True)

    def test_empty_calibration_degenerates_to_none(self):
        result = build_frontier(BLOCK, 0.5, calibration=CodecCostModel({}))
        assert [p.method for p in result] == ["none"]

    def test_param_variant_trades_time_for_space(self):
        fast_spec = CandidateSpec.make(
            "lempel-ziv", {"window": 4096, "max_chain": 4}, block_size=BLOCK
        )
        default_spec = CandidateSpec(method="lempel-ziv", block_size=BLOCK)
        points = evaluate_candidates(
            [fast_spec, default_spec], 0.5, calibration=DEFAULT_COSTS, cpu=SUN_FIRE
        )
        fast, default = points[fast_spec], points[default_spec]
        assert fast.compress_seconds < default.compress_seconds
        assert fast.ratio > default.ratio

    def test_monitor_speed_steers_compress_time(self):
        slow, fast = ReducingSpeedMonitor(), ReducingSpeedMonitor()
        slow.observe_speed("lempel-ziv", 1e5)
        fast.observe_speed("lempel-ziv", 1e7)
        spec = CandidateSpec(method="lempel-ziv", block_size=BLOCK)
        slow_point = evaluate_candidates(
            [spec], 0.5, calibration=DEFAULT_COSTS, monitor=slow
        )[spec]
        fast_point = evaluate_candidates(
            [spec], 0.5, calibration=DEFAULT_COSTS, monitor=fast
        )[spec]
        assert fast_point.compress_seconds < slow_point.compress_seconds


class TestSelectPoint:
    def test_budget_one_never_violates(self):
        point, violated = select_point(frontier(sample=0.35), space_budget=1.0)
        assert not violated
        assert point.space <= 1.0 + 1e-9

    def test_tight_budget_excludes_none(self):
        point, violated = select_point(frontier(sample=0.2), space_budget=0.5)
        assert not violated
        assert point.method != "none"
        assert point.space <= 0.5 + 1e-9

    def test_impossible_budget_flags_violation_with_minimal_space(self):
        result = frontier(sample=0.35)
        point, violated = select_point(result, space_budget=1e-6)
        assert violated
        assert point.space == min(p.space for p in result)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_point([], space_budget=1.0)
        with pytest.raises(ValueError):
            select_point(frontier(), space_budget=0.0)


class TestCodecFor:
    def test_default_params_resolve_registry_instance(self):
        from repro.compression.registry import get_codec

        assert codec_for("lempel-ziv") is get_codec("lempel-ziv")

    def test_param_instances_are_memoized(self):
        params = (("max_chain", 4), ("window", 4096))
        assert codec_for("lempel-ziv", params) is codec_for("lempel-ziv", params)

    def test_wire_identity_with_direct_construction(self):
        data = bytes(range(256)) * 64
        params = (("max_chain", 4), ("window", 4096))
        via_resolver = codec_for("lempel-ziv", params).compress(data)
        direct = Lz77Codec(window=4096, max_chain=4).compress(data)
        assert via_resolver == direct
        assert Lz77Codec().decompress(via_resolver) == data


class TestAdaptivePolicyBicriteria:
    def choose_once(self, policy, sending_time=0.5, monitor=None, sample=None):
        monitor = monitor if monitor is not None else ReducingSpeedMonitor()
        return policy.choose(BLOCK, sending_time, monitor, sample), monitor

    def make(self, **kwargs):
        kwargs.setdefault("policy", "bicriteria")
        kwargs.setdefault("cost_model", DEFAULT_COSTS)
        kwargs.setdefault("cpu", SUN_FIRE)
        return AdaptivePolicy(**kwargs)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(policy="psychic")
        with pytest.raises(ValueError):
            AdaptivePolicy(policy="bicriteria", space_budget=0.0)

    def test_decision_carries_frontier_and_models(self):
        policy = self.make()
        decision, _ = self.choose_once(policy)
        assert decision.frontier_size >= 1
        assert decision.modeled_seconds > 0
        assert not decision.budget_violated
        assert decision.method in {"none", "huffman", "lempel-ziv", "burrows-wheeler"}

    def test_never_models_slower_than_table(self):
        policy = self.make()
        for sending_time in (0.01, 0.1, 0.5, 2.0, 10.0):
            decision, _ = self.choose_once(policy, sending_time=sending_time)
            assert (
                decision.modeled_seconds
                <= decision.table_modeled_seconds + 1e-9
            )
        assert policy.modeled_seconds_total <= policy.table_modeled_seconds_total + 1e-9
        assert policy.choices == 5

    def test_metrics_land_in_monitor_registry(self):
        policy = self.make(space_budget=1e-6)
        decision, monitor = self.choose_once(policy, sample=0.3)
        assert decision.budget_violated
        assert policy.budget_violations == 1
        registry = monitor.registry
        assert registry.family(FRONTIER_SIZE_GAUGE).value() == decision.frontier_size
        assert registry.family(BUDGET_VIOLATIONS_TOTAL).value() == 1
        from repro.compression.base import params_label

        label = params_label(decision.params)
        assert (
            registry.family(CHOICES_TOTAL).value(
                method=decision.method, params=label
            )
            == 1
        )

    def test_degenerate_frontier_agrees_with_table(self):
        """Empty calibration -> lone 'none' point; the table with a dead
        (zero) reducing speed also refuses to compress."""
        policy = self.make(cost_model=CodecCostModel({}), cpu=None)
        monitor = ReducingSpeedMonitor()
        monitor.observe_speed("lempel-ziv", 0.0)
        decision = policy.choose(BLOCK, 0.5, monitor, None)
        assert decision.frontier_size == 1
        assert decision.method == "none"
        table = select_method(
            DecisionInputs(
                block_size=BLOCK,
                sending_time=0.5,
                lz_reducing_speed=0.0,
                sampled_ratio=None,
            )
        )
        assert table.method == decision.method
        assert decision.modeled_seconds == decision.table_modeled_seconds

    def test_staleness_degradation_still_guards_bicriteria(self):
        policy = self.make(staleness_horizon=1)
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 4096, 0.01)
        decisions = [policy.choose(BLOCK, 0.5, monitor, None) for _ in range(4)]
        assert any(d.degraded for d in decisions)
        degraded = [d for d in decisions if d.degraded]
        assert all(d.method == "none" for d in degraded)
        assert policy.degraded_decisions == len(degraded)

    def test_table_mode_ignores_bicriteria_fields(self):
        policy = AdaptivePolicy()
        decision, _ = self.choose_once(policy)
        assert policy.policy == "table"
        assert decision.params == ()
        assert decision.frontier_size == 0
        assert math.isnan(decision.modeled_seconds)


class TestPipelineIntegration:
    def run_small(self, policy=None, link_name="1mbit"):
        blocks = commercial_blocks(ReplayConfig(block_count=6))
        pipeline = AdaptivePipeline(
            policy=policy, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE
        )
        link = make_link(link_name, seed=2)
        return blocks, pipeline.run(blocks, link, production_interval=2.5)

    def test_records_carry_params_and_wire_crc(self):
        policy = AdaptivePolicy(
            policy="bicriteria", cost_model=DEFAULT_COSTS, cpu=SUN_FIRE
        )
        blocks, result = self.run_small(policy=policy)
        assert len(result.records) == len(blocks)
        for block, record in zip(blocks, result.records):
            wire = (
                block
                if record.method == "none"
                else codec_for(record.method, record.params).compress(block)
            )
            assert zlib.crc32(wire) & 0xFFFFFFFF == record.payload_crc32

    def test_table_policy_records_empty_params(self):
        _, result = self.run_small()
        assert all(r.params == () for r in result.records)
        assert all(r.payload_crc32 != 0 for r in result.records)


class TestReplayPlumbing:
    def test_make_policy_dispatch(self):
        table = make_policy(ReplayConfig())
        assert isinstance(table, AdaptivePolicy) and table.policy == "table"
        bicriteria = make_policy(
            ReplayConfig(policy="bicriteria", space_budget=0.6)
        )
        assert bicriteria.policy == "bicriteria"
        assert bicriteria.space_budget == 0.6
        assert bicriteria.cost_model is DEFAULT_COSTS

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy(ReplayConfig(policy="psychic"))

    def test_unknown_link_raises_value_error(self):
        config = ReplayConfig(link="wormhole", block_count=2)
        with pytest.raises(ValueError, match="unknown link"):
            run_replay(commercial_blocks(config), config)

    def test_replay_config_runs_bicriteria_end_to_end(self):
        config = ReplayConfig(block_count=6, policy="bicriteria")
        result = run_replay(commercial_blocks(config), config)
        assert len(result.records) == 6

    def test_dominance_sorted_points_survive_dataclass_round_trip(self):
        point = FrontierPoint(
            method="huffman",
            params=(),
            block_size=BLOCK,
            ratio=0.47,
            compress_seconds=0.01,
            transfer_seconds=0.02,
            decompress_seconds=0.005,
        )
        assert point.total_seconds == pytest.approx(0.035)
        assert point.seconds_per_byte == pytest.approx(0.035 / BLOCK)
        assert point.space == 0.47

    def test_default_candidates_cover_param_variants(self):
        specs = default_candidates(BLOCK)
        methods = {s.method for s in specs}
        assert {"none", "huffman", "lempel-ziv", "burrows-wheeler"} <= methods
        assert any(s.params for s in specs)
        sized = default_candidates(BLOCK, block_sizes=(BLOCK // 2, BLOCK))
        assert {s.block_size for s in sized} == {BLOCK // 2, BLOCK}

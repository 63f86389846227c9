"""Unit tests for compression policies."""

import math

import pytest

from repro.compression.base import CodecError
from repro.core import policy as policy_module
from repro.core.bicriteria import evaluate_candidates
from repro.core.monitor import ReducingSpeedMonitor
from repro.core.policy import AdaptivePolicy, FixedPolicy
from repro.core.sampler import SampleResult
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE


class TestFixedPolicy:
    def test_always_returns_its_method(self):
        policy = FixedPolicy("huffman")
        monitor = ReducingSpeedMonitor()
        for sending_time in (0.0001, 1.0, 100.0):
            decision = policy.choose(128 * 1024, sending_time, monitor, None)
            assert decision.method == "huffman"

    def test_unknown_method_rejected_eagerly(self):
        with pytest.raises(CodecError):
            FixedPolicy("zstd")

    def test_none_policy(self):
        decision = FixedPolicy("none").choose(1024, 1.0, ReducingSpeedMonitor(), None)
        assert not decision.compresses

    def test_sample_may_be_a_probe_result_or_a_bare_ratio(self):
        policy = FixedPolicy("huffman")
        monitor = ReducingSpeedMonitor()
        probe = policy.choose(1024, 1.0, monitor, SampleResult(4096, 1638, 0.001))
        bare = policy.choose(1024, 1.0, monitor, 0.4)
        assert probe.effective_ratio == pytest.approx(0.4, abs=1e-3)
        assert bare.effective_ratio == 0.4
        assert policy.choose(1024, 1.0, monitor, None).effective_ratio == 1.0


class TestAdaptivePolicy:
    def test_uses_monitor_speed(self):
        policy = AdaptivePolicy()
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 140_000, 0.1)  # 1.4 MB/s
        sample = SampleResult(4096, 1400, 0.001)  # ratio ~0.34
        fast_link = policy.choose(128 * 1024, 0.01, monitor, sample)
        slow_link = policy.choose(128 * 1024, 0.5, monitor, sample)
        assert fast_link.method == "none"
        assert slow_link.method == "burrows-wheeler"

    def test_first_block_without_sample(self):
        policy = AdaptivePolicy()
        monitor = ReducingSpeedMonitor()  # infinite speed
        decision = policy.choose(128 * 1024, 0.01, monitor, None)
        assert decision.compresses  # infinity => compression looks free

    def test_sample_ratio_gates_dictionary_methods(self):
        policy = AdaptivePolicy()
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 140_000, 0.1)
        poor_sample = SampleResult(4096, 3900, 0.001)  # ratio ~0.95
        decision = policy.choose(128 * 1024, 0.5, monitor, poor_sample)
        assert decision.method == "huffman"


class TestStalenessDegradation:
    def choose(self, policy, monitor):
        return policy.choose(128 * 1024, 0.5, monitor, None)

    def test_degrades_past_horizon_without_fresh_observations(self):
        policy = AdaptivePolicy(staleness_horizon=3)
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 140_000, 0.1)
        decisions = [self.choose(policy, monitor) for _ in range(6)]
        # Decision 1 sees a fresh count; 2-4 are within the horizon;
        # 5 and 6 are past it and must fall back.
        assert [d.degraded for d in decisions] == [False] * 4 + [True] * 2
        assert decisions[-1].method == "none"
        assert not decisions[-1].compresses
        assert policy.degraded_decisions == 2

    def test_fresh_observation_clears_degradation(self):
        policy = AdaptivePolicy(staleness_horizon=1)
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 140_000, 0.1)
        self.choose(policy, monitor)  # fresh
        self.choose(policy, monitor)  # stale 1 (at horizon, still trusted)
        assert self.choose(policy, monitor).degraded  # stale 2: degraded
        monitor.observe_raw("lempel-ziv", 140_000, 0.1)  # feedback resumes
        recovered = self.choose(policy, monitor)
        assert not recovered.degraded
        assert recovered.compresses

    def test_degraded_metric_emitted_on_monitor_registry(self):
        policy = AdaptivePolicy(staleness_horizon=1)
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 140_000, 0.1)
        for _ in range(4):
            self.choose(policy, monitor)
        assert (
            monitor.registry.counter("repro_selector_degraded_total").value() == 2
        )

    def test_disabled_by_default(self):
        policy = AdaptivePolicy()
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 140_000, 0.1)
        decisions = [self.choose(policy, monitor) for _ in range(50)]
        assert not any(d.degraded for d in decisions)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(staleness_horizon=0)


class TestPriceOnce:
    """The grid is priced at most once per decision, whatever the preset."""

    MODELED = dict(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, native=False)

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            (dict(), 0),
            (dict(staleness_horizon=2), 0),
            (dict(policy="bicriteria", **MODELED), 1),
            (dict(placement="auto", **MODELED), 1),
            (dict(placement="raw"), 1),
            (dict(policy="bicriteria", placement="auto", downstream_factor=4.0, **MODELED), 1),
            (dict(policy="bicriteria", placement="consumer", downstream_factor=4.0, **MODELED), 1),
        ],
    )
    def test_evaluate_candidates_calls_per_choose(self, monkeypatch, kwargs, expected):
        calls = []

        def counting(*args, **kw):
            calls.append(1)
            return evaluate_candidates(*args, **kw)

        monkeypatch.setattr(policy_module, "evaluate_candidates", counting)
        policy = AdaptivePolicy(**kwargs)
        monitor = ReducingSpeedMonitor()
        for sending_time in (0.001, 0.05, 2.0):
            monitor.observe_raw("lempel-ziv", 140_000, 0.1)
            calls.clear()
            policy.choose(128 * 1024, sending_time, monitor, SampleResult(4096, 1400, 0.001))
            assert len(calls) == expected

"""The fault-injection substrate: determinism, addressing, and recovery."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.framing import FrameDecoder, encode_frame
from repro.netsim.faults import (
    FAULT_KINDS,
    FaultExhaustedError,
    FaultPlan,
    FaultRule,
    FaultyLink,
    RetryPolicy,
)
from repro.netsim.link import PAPER_LINKS, SimulatedLink
from repro.obs.metrics import MetricsRegistry
from tests.strategies import examples


def make_sim_link(seed=0):
    return SimulatedLink(PAPER_LINKS["100mbit"], seed=seed)


class TestFaultRule:
    def test_exact_index_addressing(self):
        rule = FaultRule(kind="drop", index=3)
        assert rule.matches(3)
        assert not rule.matches(2)
        assert not rule.matches(4)

    def test_range_addressing_inclusive(self):
        rule = FaultRule(kind="drop", first=2, last=4)
        assert [rule.matches(i) for i in range(6)] == [
            False,
            False,
            True,
            True,
            True,
            False,
        ]

    def test_open_ended_range_and_everywhere(self):
        assert FaultRule(kind="drop", first=10).matches(10**6)
        assert not FaultRule(kind="drop", first=10).matches(9)
        assert FaultRule(kind="drop").matches(0)

    def test_rejects_unknown_kind_and_bad_params(self):
        with pytest.raises(ValueError):
            FaultRule(kind="explode")
        with pytest.raises(ValueError):
            FaultRule(kind="drop", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(kind="drop", index=1, first=2)
        with pytest.raises(ValueError):
            FaultRule(kind="delay")  # delay rules need delay > 0
        with pytest.raises(ValueError):
            FaultRule(kind="corrupt", xor_mask=256)

    def test_dict_round_trip(self):
        rules = [
            FaultRule(kind="drop", index=7),
            FaultRule(kind="delay", first=0, last=3, delay=0.5, probability=0.25),
            FaultRule(kind="corrupt", byte_offset=2, xor_mask=0x01),
        ]
        for rule in rules:
            assert FaultRule.from_dict(rule.to_dict()) == rule


class TestFaultPlan:
    def test_decide_is_deterministic_and_order_independent(self):
        def build():
            return FaultPlan(
                [FaultRule(kind="drop", probability=0.3)], seed=42, name="p"
            )

        forward = [build().decide(i).kinds for i in range(100)]
        backward = [build().decide(i).kinds for i in reversed(range(100))]
        assert forward == list(reversed(backward))
        assert any(forward)  # some fire
        assert not all(forward)  # some don't

    def test_different_seeds_differ(self):
        def fires(seed):
            plan = FaultPlan([FaultRule(kind="drop", probability=0.5)], seed=seed)
            return [plan.decide(i).dropped for i in range(64)]

        assert fires(1) != fires(2)

    def test_decision_aggregates_kinds_and_delay(self):
        plan = FaultPlan(
            [
                FaultRule(kind="delay", index=5, delay=0.25),
                FaultRule(kind="delay", index=5, delay=0.5),
                FaultRule(kind="duplicate", index=5),
            ]
        )
        decision = plan.decide(5)
        assert decision.duplicated and not decision.clean
        assert decision.delay == pytest.approx(0.75)
        assert plan.decide(6).clean

    def test_counts_accumulate(self):
        plan = FaultPlan([FaultRule(kind="drop", first=0, last=9)])
        for i in range(20):
            plan.decide(i)
        assert plan.counts["drop"] == 10
        assert plan.faults_injected == 10
        assert plan.decisions == 20
        plan.reset()
        assert plan.faults_injected == 0

    def test_corrupt_flips_exactly_one_byte_deterministically(self):
        plan = FaultPlan([], seed=9)
        data = bytes(range(64))
        mutated = plan.corrupt(data, 3)
        assert mutated != data
        assert len(mutated) == len(data)
        assert sum(a != b for a, b in zip(mutated, data)) == 1
        assert plan.corrupt(data, 3) == mutated  # same index → same damage
        assert plan.corrupt(data, 4) != mutated or True  # defined either way

    def test_corrupt_honors_byte_offset_and_mask(self):
        plan = FaultPlan([])
        rule = FaultRule(kind="corrupt", byte_offset=0, xor_mask=0x01)
        assert plan.corrupt(b"\x00\x00", 0, rule) == b"\x01\x00"
        assert plan.corrupt(b"", 0, rule) == b""

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            [
                FaultRule(kind="drop", index=2),
                FaultRule(kind="corrupt", probability=0.1),
            ],
            seed=7,
            name="mixed",
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.seed == 7
        assert restored.name == "mixed"
        assert restored.rules == plan.rules
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path).rules == plan.rules

    def test_all_kinds_representable(self):
        for kind in FAULT_KINDS:
            rule = FaultRule(kind=kind, delay=0.1 if kind == "delay" else 0.0)
            assert FaultPlan([rule]).decide(0).kinds == (kind,)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.0
        )
        waits = [wait for _, wait in policy.attempts()]
        assert waits == pytest.approx([0.0, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0, 1.0])

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=3, max_delay=10.0)
        again = RetryPolicy(base_delay=0.1, jitter=0.5, seed=3, max_delay=10.0)
        assert list(policy.attempts()) == list(again.attempts())
        for attempt in range(1, policy.max_attempts):
            raw = min(0.1 * 2.0 ** (attempt - 1), 10.0)
            assert raw * 0.5 <= policy.backoff(attempt) <= raw * 1.5

    @given(
        max_attempts=st.integers(min_value=1, max_value=12),
        base_delay=st.floats(min_value=0.0, max_value=2.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        max_delay=st.floats(min_value=0.0, max_value=5.0),
        jitter=st.floats(min_value=0.0, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @examples(100)
    def test_attempts_is_the_one_schedule(self, **fields):
        """Attempt 1 at once, ``backoff(n)`` before attempt ``n + 1``,
        ``max_attempts`` in all, nothing after the last."""
        policy = RetryPolicy(**fields)
        schedule = list(policy.attempts())
        assert [attempt for attempt, _ in schedule] == list(
            range(1, policy.max_attempts + 1)
        )
        assert schedule[0] == (1, 0.0)
        assert [wait for _, wait in schedule[1:]] == [
            policy.backoff(n) for n in range(1, policy.max_attempts)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


class TestFaultyLink:
    def test_proxies_simulated_link_surface(self):
        inner = make_sim_link()
        link = FaultyLink(inner, FaultPlan([]))
        assert link.spec is inner.spec
        assert link.mean_transfer_time(1 << 20) == inner.mean_transfer_time(1 << 20)
        link.transfer_time(1024)
        assert link.bytes_sent == 1024
        assert link.transfers == 1

    def test_drop_recovers_with_backoff_charged(self):
        plan = FaultPlan([FaultRule(kind="drop", index=0)])
        retry = RetryPolicy(base_delay=0.5, jitter=0.0)
        link = FaultyLink(make_sim_link(seed=1), plan, retry=retry)
        clean = FaultyLink(make_sim_link(seed=1), FaultPlan([]), retry=retry)
        faulted = link.transfer_time(1 << 16)
        baseline = clean.transfer_time(1 << 16) + clean.transfer_time(1 << 16)
        # One failed send + 0.5 s backoff + one successful resend.
        assert faulted == pytest.approx(baseline + 0.5)
        assert link.retries == 1
        assert link.recovery_seconds == pytest.approx(0.5)

    def test_exhaustion_raises(self):
        plan = FaultPlan([FaultRule(kind="drop")])  # every transmission
        link = FaultyLink(
            make_sim_link(), plan, retry=RetryPolicy(max_attempts=3, jitter=0.0)
        )
        with pytest.raises(FaultExhaustedError):
            link.transfer_time(1024)
        assert link.retries == 2

    @pytest.mark.parametrize(
        "retry",
        [
            RetryPolicy(max_attempts=4, base_delay=0.25, seed=9),
            RetryPolicy(max_attempts=3, base_delay=0.0),
        ],
    )
    def test_exhaustion_follows_the_one_schedule(self, retry):
        """``max_attempts`` transmissions, charged the schedule's waits —
        and a zero wait still counts as a retry."""
        plan = FaultPlan([FaultRule(kind="drop")])
        link = FaultyLink(make_sim_link(), plan, retry=retry)
        with pytest.raises(FaultExhaustedError):
            link.transfer_time(1024)
        assert link.transfers == plan.decisions == retry.max_attempts
        assert link.retries == retry.max_attempts - 1
        assert link.recovery_seconds == sum(wait for _, wait in retry.attempts())

    def test_registry_counters_flow(self):
        registry = MetricsRegistry()
        plan = FaultPlan([FaultRule(kind="drop", index=0)])
        link = FaultyLink(
            make_sim_link(), plan, retry=RetryPolicy(jitter=0.0), registry=registry
        )
        link.transfer_time(1024)
        assert registry.counter("repro_faults_injected_total").value(kind="drop") == 1
        assert registry.counter("repro_link_retries_total").value() == 1

    def test_deterministic_across_runs(self):
        def run():
            plan = FaultPlan(
                [FaultRule(kind="drop", probability=0.2)], seed=11
            )
            link = FaultyLink(
                make_sim_link(seed=2), plan, retry=RetryPolicy(seed=11)
            )
            times = [link.transfer_time(4096) for _ in range(50)]
            return times, link.retries, plan.counts

        first = run()
        second = run()
        assert first == second
        assert first[1] > 0  # faults actually fired


class TestPlanAgainstRealFrames:
    def test_corrupted_frame_rejected_by_crc(self):
        plan = FaultPlan([FaultRule(kind="corrupt", index=0)], seed=4)
        wire = encode_frame(b"huffman", b"payload bytes here")
        damaged = plan.corrupt(wire, 0)
        decoder = FrameDecoder()
        with pytest.raises(CorruptStreamError):
            decoder.feed(damaged)
        assert decoder.frames_rejected == 1

"""Unit tests for compression policies."""

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CodecError
from repro.core import policy as policy_module
from repro.core.bicriteria import PriceSheet, sample_ratio
from repro.core.decision import DecisionInputs
from repro.core.engine import BlockStats
from repro.core.monitor import ReducingSpeedMonitor
from repro.core.policy import AdaptivePolicy, FixedPolicy
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, CpuModel
from repro.obs.metrics import get_registry
from tests.core.test_engine_equivalence import DECISION_PRESETS
from tests.strategies import examples


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
        sample = BlockStats("lempel-ziv", "lempel-ziv", 4096, 1638, 0.001)
        probe = policy.choose(1024, 1.0, monitor, sample)
        bare = policy.choose(1024, 1.0, monitor, 0.4)
        assert probe.effective_ratio == pytest.approx(0.4, abs=1e-3)
        assert bare.effective_ratio == 0.4
        assert policy.choose(1024, 1.0, monitor, None).effective_ratio == 1.0


class TestAdaptivePolicy:
    def test_uses_monitor_speed(self):
        policy = AdaptivePolicy()
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 140_000, 0.1)  # 1.4 MB/s
        sample = BlockStats("lempel-ziv", "lempel-ziv", 4096, 1400, 0.001)  # ratio ~0.34
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
        poor_sample = BlockStats("lempel-ziv", "lempel-ziv", 4096, 3900, 0.001)  # ratio ~0.95
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
        """``PriceSheet.price`` is the one pricing call (``evaluate_candidates``
        is a sheet priced once)."""
        calls = []
        price = PriceSheet.price

        def counting(*args, **kw):
            calls.append(1)
            return price(*args, **kw)

        monkeypatch.setattr(PriceSheet, "price", counting)
        policy = AdaptivePolicy(**kwargs)
        monitor = ReducingSpeedMonitor()
        sample = BlockStats("lempel-ziv", "lempel-ziv", 4096, 1400, 0.001)
        for sending_time in (0.001, 0.05, 2.0):
            monitor.observe_raw("lempel-ziv", 140_000, 0.1)
            calls.clear()
            policy.choose(128 * 1024, sending_time, monitor, sample)
            assert len(calls) == expected


    def test_sheet_is_built_once_per_block_size_and_cpu_load(self, monkeypatch):
        builds = []
        build = PriceSheet.__init__

        def counting(self, *args):
            builds.append(1)
            build(self, *args)

        monkeypatch.setattr(PriceSheet, "__init__", counting)
        monkeypatch.setattr(policy_module, "_SHEETS", {})
        cpu = CpuModel("host")
        policy = AdaptivePolicy(
            policy="bicriteria", cost_model=DEFAULT_COSTS, cpu=cpu, native=False
        )
        monitor = ReducingSpeedMonitor()
        sample = BlockStats("lempel-ziv", "lempel-ziv", 4096, 1400, 0.001)
        steps = [(128 * 1024, 0.0)] * 3 + [(4096, 0.0)] * 2 + [(4096, 0.5)] * 2 + [(4096, 0.0)]
        for block_size, load in steps:
            cpu.load = load
            decision = policy.choose(block_size, 0.01, monitor, sample)
            unpriced = AdaptivePolicy(
                policy="bicriteria", cost_model=DEFAULT_COSTS, cpu=CpuModel("host", load=load),
                native=False,
            )
            with monkeypatch.context() as fresh:
                fresh.setattr(policy_module, "_SHEETS", {})
                assert decision == unpriced.choose(block_size, 0.01, monitor, sample)
        # 128 KB; 4 KB; 4 KB loaded — the unloaded 4 KB sheet is still
        # there — plus one for each decision made from an empty memo.
        assert len(builds) == 3 + len(steps)

# -- decide: a pure function of one DecisionInputs ---------------------------------

_CODECS = ("lempel-ziv", "huffman", "burrows-wheeler")
_SIZES = (4096, 64 * 1024, 128 * 1024)

_speed = st.one_of(st.just(0.0), st.floats(1e3, 1e8))
_inputs = st.builds(
    DecisionInputs,
    block_size=st.sampled_from(_SIZES),
    sending_time=st.floats(1e-5, 5.0),
    sampled_ratio=st.one_of(st.none(), st.floats(0.0, 1.2)),
    speeds=st.dictionaries(st.sampled_from(_CODECS), _speed),
    stale_decisions=st.integers(0, 6),
)
#: One choose call: (block size, sending time, observed codecs, sample).
_step = st.tuples(
    st.sampled_from(_SIZES),
    st.floats(1e-5, 5.0),
    st.lists(st.sampled_from(_CODECS), max_size=3),
    st.one_of(st.none(), st.floats(0.0, 1.1)),
)


def _decided(policy, inputs):
    """``repr`` of each decision: exact floats, and NaN equal to NaN."""
    return [repr(policy.decide(one)) for one in inputs]


class TestDecideIsPure:
    @pytest.mark.parametrize("preset", sorted(DECISION_PRESETS))
    @given(inputs=st.lists(_inputs, min_size=1, max_size=4), history=st.lists(_step, max_size=8))
    @examples(25)
    def test_equal_inputs_give_equal_decisions(self, preset, inputs, history):
        """Whatever came before and in whatever order, equal inputs decide equally."""
        fresh = AdaptivePolicy(**DECISION_PRESETS[preset])
        seasoned = AdaptivePolicy(**DECISION_PRESETS[preset])
        monitor = ReducingSpeedMonitor()
        for block_size, sending_time, observed, sample in history:
            for codec in observed:
                monitor.observe_raw(codec, block_size // 3, sending_time / 7 + 1e-4)
            seasoned.choose(block_size, sending_time, monitor, sample)

        state = pickle.dumps(vars(seasoned))
        registry = monitor.registry.to_json()
        process_registry = get_registry().to_json()
        expected = _decided(fresh, inputs)
        assert _decided(seasoned, inputs) == expected
        assert _decided(fresh, inputs[::-1]) == expected[::-1]
        assert pickle.dumps(vars(seasoned)) == state
        assert monitor.registry.to_json() == registry
        assert get_registry().to_json() == process_registry

    @pytest.mark.parametrize("preset", sorted(DECISION_PRESETS))
    def test_choose_is_decide_of_the_monitor_snapshot(self, preset):
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lempel-ziv", 60_000, 0.05)
        monitor.observe_raw("huffman", 40_000, 0.01)
        sample = BlockStats("lempel-ziv", "lempel-ziv", 4096, 1400, 0.001)
        for sending_time in (1e-4, 0.01, 0.1, 0.5, 5.0):
            inputs = DecisionInputs(
                block_size=128 * 1024,
                sending_time=sending_time,
                sampled_ratio=sample_ratio(sample),
                speeds={codec: monitor.reducing_speed(codec) for codec in _CODECS},
            )
            chosen = AdaptivePolicy(**DECISION_PRESETS[preset]).choose(
                128 * 1024, sending_time, monitor, sample
            )
            assert repr(chosen) == repr(AdaptivePolicy(**DECISION_PRESETS[preset]).decide(inputs))

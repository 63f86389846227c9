"""Unit tests for the Figure 1 table and the §2.5 selection algorithm."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.decision import (
    FIGURE1_TABLE,
    DecisionInputs,
    DecisionThresholds,
    Rating,
    select_method,
)
from tests.strategies import examples

BLOCK = 128 * 1024


def decide(sending_time, lz_speed, ratio, thresholds=DecisionThresholds()):
    return select_method(
        DecisionInputs(
            block_size=BLOCK,
            sending_time=sending_time,
            lz_reducing_speed=lz_speed,
            sampled_ratio=ratio,
        ),
        thresholds,
    )


class TestFigure1Table:
    def test_all_methods_rated_on_all_characteristics(self):
        methods = {"burrows-wheeler", "lempel-ziv", "arithmetic", "huffman"}
        for characteristic, by_method in FIGURE1_TABLE.items():
            assert set(by_method) == methods, characteristic

    def test_paper_cells(self):
        assert FIGURE1_TABLE["compression-time"]["huffman"] is Rating.EXCELLENT
        assert FIGURE1_TABLE["compression-time"]["burrows-wheeler"] is Rating.POOR
        assert FIGURE1_TABLE["string-repetitions"]["lempel-ziv"] is Rating.EXCELLENT
        assert FIGURE1_TABLE["low-entropy"]["lempel-ziv"] is Rating.POOR
        assert FIGURE1_TABLE["global-time"]["arithmetic"] is Rating.POOR
        assert FIGURE1_TABLE["decompression-time"]["burrows-wheeler"] is Rating.SATISFACTORY

    def test_burrows_wheeler_handles_both_characteristics(self):
        """§4.1: 'Burrows-Wheeler handles both of these cases.'"""
        assert FIGURE1_TABLE["string-repetitions"]["burrows-wheeler"] is Rating.EXCELLENT
        assert FIGURE1_TABLE["low-entropy"]["burrows-wheeler"] is Rating.EXCELLENT


class TestThresholds:
    def test_paper_defaults(self):
        t = DecisionThresholds()
        assert t.compress_factor == 0.83
        assert t.bw_factor == 3.48
        assert t.ratio_gate == 0.4878

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionThresholds(compress_factor=0)
        with pytest.raises(ValueError):
            DecisionThresholds(compress_factor=2.0, bw_factor=1.0)
        with pytest.raises(ValueError):
            DecisionThresholds(ratio_gate=0.0)
        with pytest.raises(ValueError):
            DecisionThresholds(ratio_gate=1.5)


class TestSelectMethod:
    def test_fast_link_no_compression(self):
        # 1 Gbit-class: sending is far cheaper than reducing.
        decision = decide(sending_time=0.005, lz_speed=1.4e6, ratio=0.35)
        assert decision.method == "none"
        assert not decision.compresses

    def test_moderate_load_picks_lempel_ziv(self):
        decision = decide(sending_time=0.13, lz_speed=1.4e6, ratio=0.35)
        assert decision.method == "lempel-ziv"

    def test_heavy_load_picks_burrows_wheeler(self):
        decision = decide(sending_time=0.5, lz_speed=1.4e6, ratio=0.35)
        assert decision.method == "burrows-wheeler"

    def test_unresponsive_sample_picks_huffman(self):
        decision = decide(sending_time=0.5, lz_speed=1.4e6, ratio=0.80)
        assert decision.method == "huffman"

    def test_ratio_gate_boundary(self):
        t = DecisionThresholds()
        just_below = decide(sending_time=0.5, lz_speed=1.4e6, ratio=t.ratio_gate - 1e-6)
        at_gate = decide(sending_time=0.5, lz_speed=1.4e6, ratio=t.ratio_gate)
        assert just_below.method == "burrows-wheeler"
        assert at_gate.method == "huffman"

    def test_first_block_infinite_speed_compresses(self):
        """Pseudocode line 1: infinite reducing speed => compression looks free."""
        decision = decide(sending_time=0.001, lz_speed=math.inf, ratio=None)
        assert decision.compresses
        assert decision.lz_reduce_time == 0.0

    def test_unsampled_block_defaults_to_cheap_method(self):
        decision = decide(sending_time=0.5, lz_speed=1.4e6, ratio=None)
        assert decision.method == "huffman"

    def test_zero_reducing_speed_disables_compression(self):
        """Incompressible data drives measured speed to ~0 => never compress."""
        decision = decide(sending_time=100.0, lz_speed=0.0, ratio=0.2)
        assert decision.method == "none"
        assert math.isinf(decision.lz_reduce_time)

    def test_compress_factor_boundary(self):
        lz_speed = 1.4e6
        reduce_time = BLOCK / lz_speed
        t = DecisionThresholds()
        below = decide(sending_time=t.compress_factor * reduce_time * 0.999, lz_speed=lz_speed, ratio=0.3)
        above = decide(sending_time=t.compress_factor * reduce_time * 1.001, lz_speed=lz_speed, ratio=0.3)
        assert below.method == "none"
        assert above.compresses

    def test_bw_factor_boundary(self):
        lz_speed = 1.4e6
        reduce_time = BLOCK / lz_speed
        t = DecisionThresholds()
        below = decide(sending_time=t.bw_factor * reduce_time * 0.999, lz_speed=lz_speed, ratio=0.3)
        above = decide(sending_time=t.bw_factor * reduce_time * 1.001, lz_speed=lz_speed, ratio=0.3)
        assert below.method == "lempel-ziv"
        assert above.method == "burrows-wheeler"

    def test_ratio_above_one_clamped(self):
        decision = decide(sending_time=0.5, lz_speed=1.4e6, ratio=1.5)
        assert decision.effective_ratio == 1.0

    def test_custom_thresholds_respected(self):
        eager = DecisionThresholds(compress_factor=0.01, bw_factor=0.02)
        decision = decide(sending_time=0.01, lz_speed=1.4e6, ratio=0.3, thresholds=eager)
        assert decision.method == "burrows-wheeler"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            DecisionInputs(block_size=0, sending_time=1, lz_reducing_speed=1)
        with pytest.raises(ValueError):
            DecisionInputs(block_size=1, sending_time=-1, lz_reducing_speed=1)
        with pytest.raises(ValueError):
            DecisionInputs(block_size=1, sending_time=1, lz_reducing_speed=-1)
        with pytest.raises(ValueError):
            DecisionInputs(block_size=1, sending_time=1, lz_reducing_speed=1, sampled_ratio=-0.1)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1e9),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0)),
    )
    @examples(200)
    def test_always_returns_valid_method(self, sending_time, lz_speed, ratio):
        decision = decide(sending_time, lz_speed, ratio)
        assert decision.method in {"none", "huffman", "lempel-ziv", "burrows-wheeler"}

    def test_exact_compress_knee_boundary_does_not_compress(self):
        """Strict ``>`` at the 0.83 knee: equality means "don't compress".

        lz_speed == block size makes lz_reduce_time exactly 1.0, so
        sending_time == compress_factor hits the boundary with no float
        rounding in the product.
        """
        decision = decide(sending_time=0.83, lz_speed=float(BLOCK), ratio=0.2)
        assert decision.lz_reduce_time == 1.0
        assert decision.method == "none"
        assert decide(
            sending_time=math.nextafter(0.83, 1.0), lz_speed=float(BLOCK), ratio=0.2
        ).method == "lempel-ziv"

    def test_exact_bw_knee_boundary_stays_lempel_ziv(self):
        """Strict ``>`` at the 3.48 knee: equality stays on Lempel-Ziv."""
        decision = decide(sending_time=3.48, lz_speed=float(BLOCK), ratio=0.2)
        assert decision.method == "lempel-ziv"
        assert decide(
            sending_time=math.nextafter(3.48, 4.0), lz_speed=float(BLOCK), ratio=0.2
        ).method == "burrows-wheeler"

    def test_exact_ratio_gate_boundary_uses_huffman(self):
        """Strict ``<`` on the 48.78 % gate: equality is "did not respond"."""
        gate = DecisionThresholds().ratio_gate
        assert decide(sending_time=5.0, lz_speed=float(BLOCK), ratio=gate).method == (
            "huffman"
        )
        assert decide(
            sending_time=5.0, lz_speed=float(BLOCK), ratio=math.nextafter(gate, 0.0)
        ).method == "burrows-wheeler"

    @given(st.floats(min_value=1e3, max_value=1e8))
    @examples(100)
    def test_monotone_in_sending_time(self, lz_speed):
        """Slower links never cause a *weaker* method to be chosen."""
        strength = {"none": 0, "huffman": 1, "lempel-ziv": 2, "burrows-wheeler": 3}
        ratio = 0.3
        previous = -1
        for sending_time in [0.001, 0.01, 0.05, 0.2, 1.0, 5.0, 50.0]:
            method = decide(sending_time, lz_speed, ratio).method
            # with ratio fixed below gate, escalation order: none->lz->bw
            assert strength[method] >= previous or method == "huffman"
            previous = strength[method]

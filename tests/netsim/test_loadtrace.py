"""Unit tests for MBone-style load traces (Figure 7 substrate)."""

import pytest

from repro.netsim.loadtrace import MBONE_PEAK, LoadTrace, mbone_trace


class TestLoadTrace:
    def test_from_pairs(self):
        trace = LoadTrace.from_pairs([(0, 0), (10, 5), (20, 2)])
        assert trace.connections_at(0) == 0
        assert trace.connections_at(9.99) == 0
        assert trace.connections_at(10) == 5
        assert trace.connections_at(15) == 5
        assert trace.connections_at(25) == 2  # clamped at end

    def test_before_start_clamped(self):
        trace = LoadTrace.from_pairs([(0, 3), (5, 7)])
        assert trace.connections_at(-1) == 3

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            LoadTrace.from_pairs([(1, 0), (2, 1)])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            LoadTrace.from_pairs([(0, 0), (5, 1), (5, 2)])

    def test_negative_connections_rejected(self):
        with pytest.raises(ValueError):
            LoadTrace.from_pairs([(0, -1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LoadTrace(times=(), connections=())

    def test_scaled(self):
        trace = LoadTrace.from_pairs([(0, 2), (10, 4)]).scaled(4.0)
        assert trace.connections_at(0) == 8
        assert trace.connections_at(10) == 16

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            LoadTrace.from_pairs([(0, 1)]).scaled(-1)

    def test_shifted(self):
        trace = LoadTrace.from_pairs([(0, 0), (10, 5), (20, 9)]).shifted(12.0)
        assert trace.connections_at(0) == 5
        assert trace.connections_at(8) == 9

    def test_shifted_beyond_end_rejected(self):
        with pytest.raises(ValueError):
            LoadTrace.from_pairs([(0, 0), (10, 5)]).shifted(100.0)

    def test_sample_grid(self):
        trace = LoadTrace.from_pairs([(0, 1), (2, 3), (4, 0)])
        samples = list(trace.sample(step=1.0))
        assert samples == [(0.0, 1), (1.0, 1), (2.0, 3), (3.0, 3), (4.0, 0)]

    def test_sample_step_validation(self):
        with pytest.raises(ValueError):
            list(LoadTrace.from_pairs([(0, 1), (1, 2)]).sample(step=0))


class TestTraceIO:
    def test_save_load_roundtrip(self, tmp_path):
        trace = mbone_trace(seed=5)
        path = tmp_path / "trace.csv"
        trace.save(path)
        restored = LoadTrace.load(path)
        assert restored.times == trace.times
        assert restored.connections == trace.connections

    def test_load_without_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("0,3\n10,7\n")
        trace = LoadTrace.load(path)
        assert trace.connections_at(11) == 7

    def test_load_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time,connections\n")
        with pytest.raises(ValueError):
            LoadTrace.load(path)


class TestMboneTrace:
    def test_deterministic(self):
        assert mbone_trace(seed=3).times == mbone_trace(seed=3).times

    def test_figure7_shape(self):
        """Quiet start, busy middle peaking under ~20, 160 s span."""
        trace = mbone_trace(duration=160.0, seed=7)
        assert trace.connections_at(0.0) == 0
        assert trace.duration == 160.0
        levels = [c for _, c in trace.sample(1.0)]
        assert max(levels) <= MBONE_PEAK == 19.0
        assert max(levels) >= 10.0  # a genuinely busy phase exists

    def test_lull_exists(self):
        trace = mbone_trace(duration=160.0, seed=7)
        lull = [trace.connections_at(t) for t in range(95, 118)]
        busy = [trace.connections_at(t) for t in range(20, 90)]
        assert min(lull) < max(busy) / 2

    def test_too_short_duration_rejected(self):
        with pytest.raises(ValueError):
            mbone_trace(duration=10.0)

    def test_scaling_rule_x4(self):
        raw = mbone_trace(seed=1)
        scaled = raw.scaled(4.0)
        for t in (0, 40, 80, 120):
            assert scaled.connections_at(t) == raw.connections_at(t) * 4

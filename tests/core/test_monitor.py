"""Unit tests for the reducing-speed monitor."""

import math

import pytest

from repro.core.monitor import ReducingSpeedMonitor


class TestReducingSpeedMonitor:
    def test_unobserved_codec_is_infinite(self):
        """'Assume the reducing size speed of first block is infinity.'"""
        monitor = ReducingSpeedMonitor()
        assert math.isinf(monitor.reducing_speed("lempel-ziv"))

    def test_first_observation_replaces_infinity(self):
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lz", 600, 0.1)
        assert monitor.reducing_speed("lz") == pytest.approx(6000.0)

    def test_ewma_smoothing(self):
        monitor = ReducingSpeedMonitor(alpha=0.5)
        monitor.observe_raw("lz", 1000, 1.0)  # 1000 B/s
        monitor.observe_raw("lz", 2000, 1.0)  # 2000 B/s
        assert monitor.reducing_speed("lz") == pytest.approx(1500.0)

    def test_zero_duration_observation_ignored(self):
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lz", 600, 0.0)
        assert math.isinf(monitor.reducing_speed("lz"))

    def test_observe_raw(self):
        monitor = ReducingSpeedMonitor(alpha=1.0)
        monitor.observe_raw("lz", 500, 0.5)
        assert monitor.reducing_speed("lz") == pytest.approx(1000.0)

    def test_observe_raw_ignores_invalid(self):
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lz", 100, 0.0)
        monitor.observe_raw("lz", -5, 1.0)
        assert math.isinf(monitor.reducing_speed("lz"))

    def test_observe_speed(self):
        monitor = ReducingSpeedMonitor(alpha=0.5)
        monitor.observe_speed("lz", 100.0)
        monitor.observe_speed("lz", 300.0)
        assert monitor.reducing_speed("lz") == pytest.approx(200.0)

    def test_observe_speed_rejects_nonsense(self):
        monitor = ReducingSpeedMonitor()
        monitor.observe_speed("lz", math.inf)
        monitor.observe_speed("lz", math.nan)
        monitor.observe_speed("lz", -1.0)
        assert math.isinf(monitor.reducing_speed("lz"))

    def test_codecs_tracked_independently(self):
        monitor = ReducingSpeedMonitor()
        monitor.observe_raw("lz", 100, 1.0)
        assert math.isinf(monitor.reducing_speed("bw"))

    def test_cpu_load_change_visible_quickly(self):
        """A CPU slowdown halves speeds; the EWMA must track within a few blocks."""
        monitor = ReducingSpeedMonitor(alpha=0.5)
        for _ in range(5):
            monitor.observe_raw("lz", 1000, 1.0)
        for _ in range(4):
            monitor.observe_raw("lz", 500, 1.0)
        assert monitor.reducing_speed("lz") < 600

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ReducingSpeedMonitor(alpha=0.0)

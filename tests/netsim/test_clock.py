"""Unit tests for the simulation clocks."""

import pytest

from repro.netsim.clock import VirtualClock, WallClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now() == 1.75

    def test_advance_zero_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now() == 0.0

    def test_backwards_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestWallClock:
    def test_monotone(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_advance_is_noop(self):
        clock = WallClock()
        clock.advance(100.0)  # does not sleep or jump

    def test_backwards_rejected(self):
        with pytest.raises(ValueError):
            WallClock().advance(-0.1)

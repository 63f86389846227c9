"""Unit tests for the rate-controlled reliable transport (IQ-RUDP model)."""

import pytest

from repro.netsim.link import make_link
from repro.netsim.rudp import (
    DEFAULT_PACKET_SIZE,
    PacketLink,
    RateControlledTransport,
)


def packet_link(loss_rate=0.0, link_name="100mbit", seed=1):
    return PacketLink(make_link(link_name, seed=seed), loss_rate=loss_rate, seed=seed)


class ScheduledDrops(PacketLink):
    """A lossless packet link that loses exactly the transmissions in ``drops``
    (indices count every send, retransmissions included)."""

    def __init__(self, drops, seed):
        super().__init__(make_link("100mbit", seed=seed), seed=seed)
        self.drops = set(drops)

    def send_packet(self, size, connections=0.0):
        index = self.packets_sent
        service = super().send_packet(size, connections)
        if index in self.drops:
            self.packets_lost += 1
            return None
        return service


class TestPacketLink:
    def test_lossless_delivers_everything(self):
        link = packet_link(0.0)
        for _ in range(100):
            assert link.send_packet(1400) is not None
        assert link.packets_lost == 0

    def test_loss_rate_observed(self):
        link = packet_link(0.2)
        for _ in range(5000):
            link.send_packet(1400)
        assert link.observed_loss_rate == pytest.approx(0.2, abs=0.03)

    def test_deterministic_per_seed(self):
        a = packet_link(0.3, seed=9)
        b = packet_link(0.3, seed=9)
        outcomes_a = [a.send_packet(100) is None for _ in range(50)]
        outcomes_b = [b.send_packet(100) is None for _ in range(50)]
        assert outcomes_a == outcomes_b

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            PacketLink(make_link("1gbit"), loss_rate=1.0)

    def test_zero_packets_zero_loss_rate(self):
        assert packet_link().observed_loss_rate == 0.0


class TestRateControlledTransport:
    def test_zero_bytes(self):
        transport = RateControlledTransport(packet_link())
        report = transport.transfer(0)
        assert report.elapsed == 0.0
        assert report.packets == 0

    def test_lossless_transfer_no_retransmissions(self):
        transport = RateControlledTransport(packet_link(0.0))
        report = transport.transfer(100_000)
        assert report.retransmissions == 0
        expected = (100_000 + DEFAULT_PACKET_SIZE - 1) // DEFAULT_PACKET_SIZE
        assert report.packets == expected
        assert report.goodput > 0

    def test_lossy_transfer_completes(self):
        transport = RateControlledTransport(packet_link(0.15, seed=3))
        report = transport.transfer(200_000)
        assert report.retransmissions > 0
        assert report.size == 200_000

    def test_loss_halves_rate(self):
        transport = RateControlledTransport(packet_link(0.9, seed=5), initial_rate=8e5)
        transport.transfer(50_000)
        assert transport.rate < 8e5

    def test_lossfree_rounds_raise_rate(self):
        transport = RateControlledTransport(
            packet_link(0.0), initial_rate=1e5, increase=1e4
        )
        transport.transfer(10_000)
        transport.transfer(10_000)
        assert transport.rate == pytest.approx(1e5 + 2e4)

    def test_rate_floor_respected(self):
        transport = RateControlledTransport(
            packet_link(0.5, seed=7), initial_rate=2e4, floor=1.5e4
        )
        for _ in range(10):
            transport.transfer(30_000)
        assert transport.rate >= 1.5e4

    def test_loss_costs_time(self):
        clean = RateControlledTransport(packet_link(0.0, seed=2), initial_rate=5e5)
        lossy = RateControlledTransport(packet_link(0.3, seed=2), initial_rate=5e5)
        assert lossy.transfer(300_000).elapsed > clean.transfer(300_000).elapsed

    def test_rate_persists_across_transfers(self):
        transport = RateControlledTransport(packet_link(0.0), initial_rate=1e5)
        transport.transfer(10_000)
        warmed = transport.rate
        report = transport.transfer(10_000)
        assert report.final_rate > warmed - 1  # monotone without loss

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RateControlledTransport(packet_link(), packet_size=10)
        with pytest.raises(ValueError):
            RateControlledTransport(packet_link(), initial_rate=0)
        with pytest.raises(ValueError):
            RateControlledTransport(packet_link(), floor=0)
        with pytest.raises(ValueError):
            RateControlledTransport(packet_link()).transfer(-1)

    def test_loss_on_final_packet_only(self):
        """The last (short) packet is the only loss: exactly one
        retransmission round, carrying exactly that packet, and the
        tail-packet size is preserved on the retransmit."""
        size = 10 * DEFAULT_PACKET_SIZE + 100  # 11 packets, short tail
        link = ScheduledDrops({10}, seed=6)  # the final packet
        transport = RateControlledTransport(link)
        report = transport.transfer(size)
        assert report.size == size
        assert report.retransmissions == 1
        assert report.packets == 12  # 11 + the one retransmit
        assert link.packets_lost == 1
        # One lossy round halves once, one clean round adds once.
        assert transport.rate == pytest.approx(1e6 / 2 + 5e4)

    def test_total_loss_then_recover_aimd(self):
        """100% loss for several rounds drives the rate to the floor;
        once the faults stop, every packet still gets through and AIMD
        climbs back additively."""
        size = 4 * DEFAULT_PACKET_SIZE
        # Three full rounds of 4 packets each are annihilated (indices
        # 0-11 count retransmissions too), then the link goes quiet.
        link = ScheduledDrops(range(12), seed=8)
        transport = RateControlledTransport(
            link, initial_rate=1e5, increase=1e4, floor=2e4
        )
        report = transport.transfer(size)
        assert report.size == size
        assert report.retransmissions == 12  # 3 retransmit rounds of 4
        assert report.packets == 16
        # Three halvings from 1e5 (floored at 2e4) then one clean round.
        assert transport.rate == pytest.approx(max(2e4, 1e5 / 8) + 1e4)
        # Recovery: the next transfer is fault-free and climbs.
        before = transport.rate
        clean = transport.transfer(size)
        assert clean.retransmissions == 0
        assert transport.rate == pytest.approx(before + 1e4)

    def test_compression_reduces_wireless_transfer_time(self, commercial_block):
        """The §1 embedded/tethered scenario: compressing before the lossy
        wireless hop pays off."""
        from repro.compression import get_codec

        payload = get_codec("lempel-ziv").compress(commercial_block)
        raw = RateControlledTransport(
            packet_link(0.05, "wireless-11mbit", seed=4)
        ).transfer(len(commercial_block))
        compressed = RateControlledTransport(
            packet_link(0.05, "wireless-11mbit", seed=4)
        ).transfer(len(payload))
        assert compressed.elapsed < raw.elapsed * 0.6

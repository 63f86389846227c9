"""IQ-RUDP-style rate-controlled reliable transport (paper ref [14]).

The paper's middleware targets "alternative communication protocols,
including those well-suited for the large-data transfers" — specifically
IQ-RUDP (He & Schwan, HPDC 2002), a rate-based reliable UDP that
coordinates application adaptation with transport-level congestion
response.  This module supplies a packet-level simulation of that
transport class:

* :class:`PacketLink` — a lossy packet pipe over a
  :class:`~repro.netsim.link.SimulatedLink`: per-packet Bernoulli loss
  (deterministic per seed) plus the link's stochastic service rate;
* :class:`RateControlledTransport` — sends a block as fixed-size packets
  at a controlled rate, retransmits losses (selective repeat), and adapts
  the rate with AIMD: additive increase per loss-free round, halving on
  loss.  ``transfer`` returns the simulated completion time and statistics.

The adaptive compression pipeline can sit on top of either this or the
plain link model; the end-to-end bandwidth estimator neither knows nor
cares, which is exactly the paper's layering argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .link import SimulatedLink

__all__ = ["PacketLink", "RateControlledTransport", "TransferReport"]

DEFAULT_PACKET_SIZE = 1400  # Ethernet-ish MTU payload


class PacketLink:
    """A lossy packet pipe with the service rate of a simulated link."""

    def __init__(
        self,
        link: SimulatedLink,
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.link = link
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)
        self.packets_sent = 0
        self.packets_lost = 0

    def send_packet(self, size: int, connections: float = 0.0) -> Optional[float]:
        """Service time for one packet, or None if it was lost."""
        self.packets_sent += 1
        service_time = self.link.transfer_time(size, connections)
        if self._rng.random() < self.loss_rate:
            self.packets_lost += 1
            return None
        return service_time

    @property
    def observed_loss_rate(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return self.packets_lost / self.packets_sent


@dataclass(frozen=True)
class TransferReport:
    """Outcome of one rate-controlled block transfer."""

    size: int
    elapsed: float
    packets: int
    retransmissions: int
    final_rate: float

    @property
    def goodput(self) -> float:
        """Application bytes per second achieved."""
        if self.elapsed <= 0:
            return float("inf")
        return self.size / self.elapsed


class RateControlledTransport:
    """Selective-repeat block transfer with AIMD rate control.

    The sender paces packets at ``rate`` bytes/second.  Each *round*
    transmits the outstanding window; NACKed (lost) packets are queued for
    the next round.  A loss-free round raises the rate additively
    (``increase`` bytes/s); any loss halves it (never below ``floor``).
    The rate persists across ``transfer`` calls, so consecutive blocks see
    warmed-up control state — matching how IQ-RUDP exports its current
    rate to the application as a quality attribute.
    """

    def __init__(
        self,
        packet_link: PacketLink,
        packet_size: int = DEFAULT_PACKET_SIZE,
        initial_rate: float = 1e6,
        increase: float = 5e4,
        floor: float = 1e4,
    ) -> None:
        if packet_size < 64:
            raise ValueError("packet_size must be at least 64 bytes")
        if initial_rate <= 0 or increase < 0 or floor <= 0:
            raise ValueError("rates must be positive")
        self.packet_link = packet_link
        self.packet_size = packet_size
        self.rate = initial_rate
        self.increase = increase
        self.floor = floor

    def transfer(self, size: int, connections: float = 0.0) -> TransferReport:
        """Deliver ``size`` bytes reliably; returns timing + statistics."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0:
            return TransferReport(0, 0.0, 0, 0, self.rate)
        packet_count = (size + self.packet_size - 1) // self.packet_size
        outstanding = list(range(packet_count))
        elapsed = 0.0
        total_packets = 0
        retransmissions = 0
        first_round = True

        while outstanding:
            lost = []
            round_loss = False
            for index in outstanding:
                packet_bytes = (
                    size - index * self.packet_size
                    if index == packet_count - 1
                    else self.packet_size
                )
                # Pacing: the sender injects at `rate`; the link may be
                # slower, in which case its service time dominates.
                pacing_time = packet_bytes / self.rate
                service = self.packet_link.send_packet(packet_bytes, connections)
                total_packets += 1
                if service is None:
                    round_loss = True
                    lost.append(index)
                    elapsed += pacing_time
                else:
                    elapsed += max(pacing_time, service)
            if not first_round:
                retransmissions += len(outstanding)
            first_round = False
            if round_loss:
                self.rate = max(self.floor, self.rate / 2.0)
            else:
                self.rate += self.increase
            outstanding = lost
        return TransferReport(
            size=size,
            elapsed=elapsed,
            packets=total_packets,
            retransmissions=retransmissions,
            final_rate=self.rate,
        )

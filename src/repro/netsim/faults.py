"""Deterministic fault injection: the chaos substrate (robustness layer).

The paper's end-to-end argument only holds if the selector keeps making
good choices while the network misbehaves — variable MBone-derived load,
lossy international links, IQ-RUDP congestion response.  This module
supplies the misbehavior as data: a :class:`FaultPlan` is a seeded,
schedule-driven description of *which* packet/frame indices suffer
*which* faults (drop, duplicate, reorder, delay, byte-corrupt), fully
deterministic per seed so every chaos run is replayable bit for bit.

Three consumers wrap it around existing machinery:

* :class:`FaultyPacketLink` — wraps a :class:`~repro.netsim.rudp.PacketLink`
  so the IQ-RUDP transport model sees scheduled losses, corruptions
  (checksum-failed at the receiver, hence NACKed), delays, and duplicate
  deliveries (observable as duplicate ACKs);
* :class:`FaultyLink` — wraps a :class:`~repro.netsim.link.SimulatedLink`
  at frame/transfer granularity: a dropped or corrupted transfer models a
  frame the integrity-checked framing rejected, and the wrapper pays the
  recovery cost (capped exponential backoff with deterministic jitter +
  re-send time) into the returned transfer time;
* the middleware's corrupting in-memory transport
  (:mod:`repro.middleware.chaos`) applies the same plan to framed wire
  bytes, where CRC32 rejection and retry/re-request recovery run for real.

:class:`RetryPolicy` lives here (clock-free, transport-agnostic) and is
re-exported by :mod:`repro.middleware.transport` for the recovery layers.
Nothing in this module reads a wall clock; all randomness is derived from
``(seed, index)`` via stable string seeding, so decisions are independent
of call order and identical across processes and platforms.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs.catalogue import FAULTS_INJECTED_TOTAL, LINK_RETRIES_TOTAL
from .link import SimulatedLink
from .rudp import PacketLink

__all__ = [
    "FAULT_KINDS",
    "FaultDecision",
    "FaultExhaustedError",
    "FaultPlan",
    "FaultRule",
    "FaultyLink",
    "FaultyPacketLink",
    "RetryPolicy",
]

#: The five schedulable fault kinds.
FAULT_KINDS = ("drop", "duplicate", "reorder", "delay", "corrupt")


class FaultExhaustedError(RuntimeError):
    """Recovery gave up: retries exhausted without a successful delivery."""


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: a kind plus its addressing and parameters.

    Addressing is by packet/frame index — exact (``index``), inclusive
    range (``first``/``last``), or everywhere (neither) — gated by
    ``probability`` (deterministic per plan seed and index; 1.0 means
    every addressed index fires).
    """

    kind: str
    index: Optional[int] = None
    first: Optional[int] = None
    last: Optional[int] = None
    probability: float = 1.0
    #: Extra seconds charged to delivery (kind == "delay").
    delay: float = 0.0
    #: Byte position to corrupt (kind == "corrupt"); None = seeded-random.
    byte_offset: Optional[int] = None
    #: XOR mask applied to the corrupted byte (never a no-op: 0 -> 0xFF).
    xor_mask: int = 0xFF

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.index is not None and (self.first is not None or self.last is not None):
            raise ValueError("use either index or first/last, not both")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if not 0 <= self.xor_mask <= 0xFF:
            raise ValueError("xor_mask must be one byte")
        if self.kind == "delay" and self.delay == 0.0:
            raise ValueError("delay rules need delay > 0")

    def matches(self, index: int) -> bool:
        """Does this rule address packet/frame ``index`` (before the coin flip)?"""
        if self.index is not None:
            return index == self.index
        if self.first is not None and index < self.first:
            return False
        if self.last is not None and index > self.last:
            return False
        return True

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"kind": self.kind}
        for key in ("index", "first", "last", "byte_offset"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.delay:
            out["delay"] = self.delay
        if self.xor_mask != 0xFF:
            out["xor_mask"] = self.xor_mask
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(**data)


@dataclass(frozen=True)
class FaultDecision:
    """Every fault hitting one packet/frame index (empty = clean delivery)."""

    kinds: Tuple[str, ...] = ()
    delay: float = 0.0
    corrupt_rule: Optional[FaultRule] = None

    @property
    def clean(self) -> bool:
        return not self.kinds

    @property
    def dropped(self) -> bool:
        return "drop" in self.kinds

    @property
    def duplicated(self) -> bool:
        return "duplicate" in self.kinds

    @property
    def reordered(self) -> bool:
        return "reorder" in self.kinds

    @property
    def corrupted(self) -> bool:
        return "corrupt" in self.kinds


class FaultPlan:
    """A seeded schedule of faults, addressable by packet/frame index.

    :meth:`decide` is a pure function of ``(seed, rules, index)`` — the
    same index always yields the same decision regardless of query order,
    which is what makes chaos runs replayable.  ``counts`` accumulates
    injected faults per kind for observability (one count per *distinct
    deciding call site progression*; wrappers call it once per wire
    transmission).
    """

    def __init__(
        self, rules: Sequence[FaultRule], seed: int = 0, name: str = ""
    ) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self.name = name
        self.counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.decisions = 0

    # -- the schedule ------------------------------------------------------------

    def _fires(self, rule_position: int, rule: FaultRule, index: int) -> bool:
        if not rule.matches(index):
            return False
        if rule.probability >= 1.0:
            return True
        rng = random.Random(f"fault:{self.seed}:{rule_position}:{index}")
        return rng.random() < rule.probability

    def decide(self, index: int) -> FaultDecision:
        """The faults scheduled for packet/frame ``index`` (deterministic)."""
        kinds: List[str] = []
        delay = 0.0
        corrupt_rule: Optional[FaultRule] = None
        for position, rule in enumerate(self.rules):
            if not self._fires(position, rule, index):
                continue
            if rule.kind not in kinds:
                kinds.append(rule.kind)
            if rule.kind == "delay":
                delay += rule.delay
            if rule.kind == "corrupt" and corrupt_rule is None:
                corrupt_rule = rule
        self.decisions += 1
        for kind in kinds:
            self.counts[kind] += 1
        return FaultDecision(kinds=tuple(kinds), delay=delay, corrupt_rule=corrupt_rule)

    def corrupt(self, data: bytes, index: int, rule: Optional[FaultRule] = None) -> bytes:
        """Flip one byte of ``data``, deterministically per (seed, index)."""
        if not data:
            return data
        if rule is None:
            rule = FaultRule(kind="corrupt")
        if rule.byte_offset is not None:
            position = min(rule.byte_offset, len(data) - 1)
        else:
            position = random.Random(f"corrupt:{self.seed}:{index}").randrange(len(data))
        mask = rule.xor_mask or 0xFF
        mutated = bytearray(data)
        mutated[position] ^= mask
        return bytes(mutated)

    @property
    def faults_injected(self) -> int:
        return sum(self.counts.values())

    def reset(self) -> None:
        """Zero the counters (the schedule itself is stateless)."""
        self.counts = {kind: 0 for kind in FAULT_KINDS}
        self.decisions = 0

    # -- (de)serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out: Dict[str, object] = {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }
        if self.name:
            out["name"] = self.name
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            rules=[FaultRule.from_dict(rule) for rule in data.get("rules", [])],
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def dump(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter (clock-free).

    ``backoff(attempt)`` is a pure function: the jitter for attempt *n*
    comes from a stable string-seeded RNG, so two processes holding the
    same policy compute identical delay schedules — the property that
    keeps chaos runs and the ``scripts/check.sh`` timing invariant intact
    (delays are *charged to injected clocks*, never slept from here).
    """

    max_attempts: int = 6
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    #: Jitter fraction: attempt delays are scaled by a deterministic
    #: factor in [1 - jitter, 1 + jitter].
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter:
            rng = random.Random(f"retry:{self.seed}:{attempt}")
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return min(raw, self.max_delay)

    def attempts(self) -> Iterator[Tuple[int, float]]:
        """The one retry schedule, as ``(attempt, wait_before_it)`` pairs.

        Attempt 1 goes immediately, ``backoff(n)`` precedes attempt
        ``n + 1``, there are at most ``max_attempts``, and nothing is
        waited after the last failure.  Every retry loop iterates this
        and keeps only its own accounting.
        """
        yield 1, 0.0
        for attempt in range(2, self.max_attempts + 1):
            yield attempt, self.backoff(attempt - 1)


class FaultyPacketLink:
    """A :class:`~repro.netsim.rudp.PacketLink` with scheduled faults.

    Per-packet semantics (packet indices count every transmission,
    including retransmissions, so a plan can target either):

    * ``drop`` — the packet vanishes (returns ``None``, like Bernoulli loss);
    * ``corrupt`` — the packet arrives damaged, fails the receiver's
      checksum, and is NACKed — indistinguishable from loss to the
      sender, but counted separately;
    * ``delay`` — delivered late (service time + rule delay);
    * ``duplicate`` — delivered, and the receiver's duplicate ACK is
      observable through :meth:`consume_duplicate` (the transport counts
      it without double-crediting delivery);
    * ``reorder`` — counted only: the round-based selective-repeat model
      is insensitive to within-round order.
    """

    def __init__(self, inner: PacketLink, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.packets_dropped = 0
        self.packets_corrupted = 0
        self.packets_delayed = 0
        self.packets_duplicated = 0
        self._index = 0
        self._pending_duplicate = False

    # -- PacketLink surface ------------------------------------------------------

    @property
    def link(self) -> SimulatedLink:
        return self.inner.link

    @property
    def packets_sent(self) -> int:
        return self.inner.packets_sent

    @property
    def packets_lost(self) -> int:
        return self.inner.packets_lost

    @property
    def observed_loss_rate(self) -> float:
        return self.inner.observed_loss_rate

    def send_packet(self, size: int, connections: float = 0.0) -> Optional[float]:
        index = self._index
        self._index += 1
        decision = self.plan.decide(index)
        service = self.inner.send_packet(size, connections)
        if decision.dropped:
            self.packets_dropped += 1
            if service is not None:
                self.inner.packets_lost += 1  # keep observed_loss_rate truthful
            return None
        if decision.corrupted:
            self.packets_corrupted += 1
            if service is not None:
                self.inner.packets_lost += 1
            return None
        if service is None:
            return None
        if decision.delay:
            self.packets_delayed += 1
            service += decision.delay
        if decision.duplicated:
            self.packets_duplicated += 1
            self._pending_duplicate = True
        return service

    def consume_duplicate(self) -> bool:
        """True once per duplicated delivery (the duplicate-ACK signal)."""
        pending = self._pending_duplicate
        self._pending_duplicate = False
        return pending


class FaultyLink:
    """A :class:`~repro.netsim.link.SimulatedLink` with faults + recovery.

    Operates at frame/transfer granularity: every :meth:`transfer_time`
    call is one framed wire transmission.  A ``drop`` or ``corrupt``
    models a frame the CRC-checked framing rejected at the receiver; the
    wrapper then *recovers* — capped exponential backoff (deterministic
    jitter) followed by a re-send, all charged into the returned transfer
    time so virtual clocks see the true recovery cost.  A ``delay`` adds
    its seconds to the transmission.  ``duplicate`` and ``reorder`` are
    only *counted*: the link models transfer time, not bytes, and a
    second copy or a swapped arrival costs a transfer no time
    (:class:`~repro.middleware.chaos.ChaosWire` acts on all five kinds).
    Exhausting ``retry.max_attempts`` raises :class:`FaultExhaustedError`
    (a chaos gate failure, never silent data loss).
    """

    def __init__(
        self,
        inner: SimulatedLink,
        plan: FaultPlan,
        retry: RetryPolicy = RetryPolicy(),
        registry=None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.retry = retry
        self.registry = registry
        self.retries = 0
        self.recovery_seconds = 0.0
        self._index = 0

    # -- SimulatedLink surface ---------------------------------------------------

    @property
    def spec(self):
        return self.inner.spec

    @property
    def bytes_sent(self) -> int:
        return self.inner.bytes_sent

    @property
    def transfers(self) -> int:
        return self.inner.transfers

    def effective_throughput(self, connections: float = 0.0) -> float:
        return self.inner.effective_throughput(connections)

    def mean_transfer_time(self, size: int, connections: float = 0.0) -> float:
        return self.inner.mean_transfer_time(size, connections)

    def transfer_time(self, size: int, connections: float = 0.0) -> float:
        total = 0.0
        for attempt, backoff in self.retry.attempts():
            if attempt > 1:
                total += backoff
                self.retries += 1
                self.recovery_seconds += backoff
                if self.registry is not None:
                    self.registry.family(LINK_RETRIES_TOTAL).inc()
            index = self._index
            self._index += 1
            decision = self.plan.decide(index)
            total += self.inner.transfer_time(size, connections) + decision.delay
            if self.registry is not None:
                for kind in decision.kinds:
                    self.registry.family(FAULTS_INJECTED_TOTAL).inc(kind=kind)
            if not (decision.dropped or decision.corrupted):
                return total
        raise FaultExhaustedError(
            f"transfer still failing after {attempt} attempts "
            f"(plan {self.plan.name or 'unnamed'!r}, wire index {index})"
        )

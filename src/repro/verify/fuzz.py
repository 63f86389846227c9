"""Deterministic coverage-guided byte fuzzing of the decode surfaces.

The attack surface the middleware exposes to hostile bytes is exactly
three APIs: the frame parser, the streaming decoder, and every codec's
``decompress``.  This module mutates seeded inputs against all of them
and enforces the corruption contract
(:data:`~repro.compression.base.ACCEPTABLE_DECODE_ERRORS` or bytes out —
nothing else, ever).

Design constraints, in order:

* **Deterministic per seed.**  The mutation schedule is a pure function
  of ``(seed, iteration)``; two runs with the same seed and iteration
  count execute byte-identical inputs and reach the same verdict.  A
  wall-clock budget only *truncates* the schedule (the run reports
  ``budget_exhausted``), it never reorders it.
* **Coverage-guided, without instrumentation.**  Each execution is
  classified into a coarse outcome signature (target, outcome class,
  exception type, size bucket).  Inputs producing a signature never seen
  before join the mutation pool — the classic corpus-growth loop, with
  the outcome signature standing in for branch coverage (no tracer, so
  the loop stays fast and fully deterministic).
* **Failures shrink to minimal reproducers.**  A contract violation is
  greedily minimized (chunk deletion, then byte deletion) while it keeps
  raising the same exception type, then recorded as a
  :class:`CrashEntry` — a JSONL line small enough to commit, replayable
  via ``repro fuzz --replay``.

Timing goes through :class:`~repro.netsim.clock.WallClock` (the
sanctioned clock substrate); this module reads no clocks directly.
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..compression.base import ACCEPTABLE_DECODE_ERRORS
from ..compression.framing import FrameDecoder, encode_block_frame
from ..compression.registry import available_codecs, get_codec
from ..compression.streaming import StreamingDecompressor
from ..netsim.clock import Clock, WallClock
from .corpus import CorpusGenerator

__all__ = [
    "CrashEntry",
    "FuzzReport",
    "Fuzzer",
    "FuzzTarget",
    "build_default_targets",
    "load_corpus",
    "mutated_copies",
    "parse_budget",
    "replay_corpus",
    "write_corpus",
]

#: Exceptions the event wire format may additionally raise: its header is
#: a JSON document, so damage surfaces through the JSON/unicode layers
#: before the framing contract can catch it.
_WIRE_ACCEPTABLE = ACCEPTABLE_DECODE_ERRORS + (
    ValueError,
    KeyError,
    TypeError,
    UnicodeDecodeError,
)

_SHRINK_ATTEMPTS = 1200


def mutated_copies(payload: bytes, rng: random.Random, count: int = 24) -> Iterator[bytes]:
    """The canonical systematic+random mutation set for one payload.

    Shared by the conformance kit, the corruption tests, and the fuzzer's
    seed rounds: truncations, trailing junk, total garbage, and ``count``
    seeded single-bit flips.
    """
    yield payload[: len(payload) // 2]
    yield payload[:-1]
    yield payload + b"\x00"
    yield b""
    yield b"\xff" * len(payload)
    if not payload:
        return
    for _ in range(count):
        mutated = bytearray(payload)
        position = rng.randrange(len(mutated))
        mutated[position] ^= 1 << rng.randrange(8)
        yield bytes(mutated)


def _mutate(payload: bytes, rng: random.Random) -> bytes:
    """One seeded mutation: flip, splice, duplicate, truncate, or inject."""
    if not payload:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(1, 8)))
    mutated = bytearray(payload)
    operation = rng.randrange(6)
    if operation == 0:  # single bit flip
        position = rng.randrange(len(mutated))
        mutated[position] ^= 1 << rng.randrange(8)
    elif operation == 1:  # overwrite a short window with random bytes
        position = rng.randrange(len(mutated))
        for offset in range(min(rng.randrange(1, 9), len(mutated) - position)):
            mutated[position + offset] = rng.randrange(256)
    elif operation == 2:  # delete a slice
        start = rng.randrange(len(mutated))
        end = min(len(mutated), start + rng.randrange(1, 64))
        del mutated[start:end]
    elif operation == 3:  # duplicate a slice in place
        start = rng.randrange(len(mutated))
        end = min(len(mutated), start + rng.randrange(1, 64))
        mutated[start:start] = mutated[start:end]
    elif operation == 4:  # truncate
        mutated = mutated[: rng.randrange(len(mutated) + 1)]
    else:  # inject interesting bytes (varint continuation, escapes, markers)
        position = rng.randrange(len(mutated) + 1)
        token = rng.choice(
            (b"\x80\x00", b"\xff", b"\x00", b"\xfe\xff", b"\x80\x80\x80\x80\x80")
        )
        mutated[position:position] = token
    return bytes(mutated)


@dataclass(frozen=True)
class FuzzTarget:
    """One decode surface: a callable plus its contract exception set."""

    name: str
    execute: Callable[[bytes], object]
    acceptable: Tuple[type, ...] = ACCEPTABLE_DECODE_ERRORS
    seeds: Tuple[bytes, ...] = ()


@dataclass
class CrashEntry:
    """One minimal reproducer, serializable as a JSONL line."""

    id: str
    target: str
    seed: int
    iteration: int
    error_type: str
    error_message: str
    data: bytes

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "target": self.target,
            "seed": self.seed,
            "iteration": self.iteration,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "data_b64": base64.b64encode(self.data).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "CrashEntry":
        return cls(
            id=str(raw["id"]),
            target=str(raw["target"]),
            seed=int(raw["seed"]),  # type: ignore[arg-type]
            iteration=int(raw["iteration"]),  # type: ignore[arg-type]
            error_type=str(raw["error_type"]),
            error_message=str(raw["error_message"]),
            data=base64.b64decode(str(raw["data_b64"])),
        )


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    seed: int
    iterations_run: int
    signatures: int
    crashes: List[CrashEntry] = field(default_factory=list)
    budget_exhausted: bool = False
    pool_sizes: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.crashes

    def describe(self) -> str:
        """The one-line outcome the CLI and the fuzz gate both print."""
        suffix = " (budget exhausted)" if self.budget_exhausted else ""
        return (
            f"seed={self.seed} iterations={self.iterations_run} "
            f"signatures={self.signatures} crashes={len(self.crashes)}{suffix}"
        )


def parse_budget(text: str) -> float:
    """A wall budget like ``30``, ``30s`` or ``2m``, in seconds."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    seconds = float(text) * scale
    if seconds <= 0:
        raise ValueError("budget must be positive")
    return seconds


def _decode_framing(data: bytes) -> object:
    return FrameDecoder().feed(data)


def _decode_streaming(data: bytes) -> object:
    decompressor = StreamingDecompressor()
    out = decompressor.write(data)
    decompressor.close()
    return out


def _decode_wire(data: bytes) -> object:
    from ..middleware.transport import WireFormat

    return WireFormat.decode(data)


def _framed_seed_streams(corpus: Dict[str, bytes]) -> Tuple[bytes, ...]:
    """Small framed streams (v1 and v2 frames, mixed methods) to mutate."""
    block = (corpus.get("commercial") or b"framed seed corpus ")[:3072]
    streams = []
    for check in (True, False):
        stream = bytearray()
        for method in ("none", "lempel-ziv", "huffman"):
            payload = get_codec(method).compress(block[:1024])
            stream += encode_block_frame(method, payload, check=check)
        streams.append(bytes(stream))
    return tuple(streams)


def build_default_targets(
    corpus: Optional[Dict[str, bytes]] = None,
    codec_names: Optional[Sequence[str]] = None,
) -> List[FuzzTarget]:
    """The default attack surface: framing, streaming, wire, every codec."""
    if corpus is None:
        corpus = CorpusGenerator(size=4096).as_dict()
    framed = _framed_seed_streams(corpus)
    targets = [
        FuzzTarget(name="framing", execute=_decode_framing, seeds=framed),
        FuzzTarget(name="streaming", execute=_decode_streaming, seeds=framed),
    ]
    try:
        from ..middleware.events import Event
        from ..middleware.transport import WireFormat

        wire_seed = WireFormat.encode(
            Event(
                payload=(corpus.get("lowentropy") or b"payload ")[:512],
                attributes={"method": "huffman", "k": 1},
                channel_id="fuzz",
                sequence=7,
            )
        )
        targets.append(
            FuzzTarget(
                name="wire",
                execute=_decode_wire,
                acceptable=_WIRE_ACCEPTABLE,
                seeds=(wire_seed,),
            )
        )
    except ImportError:  # pragma: no cover - middleware is always present today
        pass
    names = list(codec_names) if codec_names is not None else available_codecs()
    for name in names:
        codec = get_codec(name)
        if codec.family == "lossy":
            # Lossy codecs consume float64 blocks; their decode surface
            # obeys the same contract over arbitrary payload bytes.
            import numpy as np

            sample = np.linspace(-2.0, 2.0, 512).astype("<f8").tobytes()
        else:
            size = 2048 if name.startswith("arithmetic") else 4096
            sample = (corpus.get("commercial") or b"codec seed corpus ")[:size]
        seeds = (codec.compress(sample), codec.compress(b""))
        targets.append(
            FuzzTarget(name=f"codec:{name}", execute=codec.decompress, seeds=seeds)
        )
    return targets


def _signature(target: FuzzTarget, status: str, detail: object) -> Tuple:
    """Coarse outcome signature standing in for branch coverage."""
    if status == "ok":
        if isinstance(detail, (bytes, bytearray)):
            size = len(detail)
        elif isinstance(detail, list):
            size = len(detail)
        else:
            size = 0
        return (target.name, "ok", size.bit_length())
    return (target.name, "rejected", detail)


class Fuzzer:
    """Seeded mutation loop over a set of :class:`FuzzTarget`\\ s."""

    def __init__(
        self,
        seed: int = 0,
        targets: Optional[Sequence[FuzzTarget]] = None,
        corpus: Optional[Dict[str, bytes]] = None,
    ) -> None:
        self.seed = seed
        self.targets = (
            list(targets) if targets is not None else build_default_targets(corpus)
        )
        if not self.targets:
            raise ValueError("fuzzer needs at least one target")
        self._pools: Dict[str, List[bytes]] = {
            target.name: list(target.seeds) or [b""] for target in self.targets
        }
        self._seen: set = set()

    # -- execution -------------------------------------------------------------

    def _execute(
        self, target: FuzzTarget, data: bytes
    ) -> Tuple[str, object, Optional[BaseException]]:
        """Run one input; returns (status, detail, violation)."""
        try:
            result = target.execute(data)
        except target.acceptable as exc:
            return "rejected", type(exc).__name__, None
        except Exception as exc:  # noqa: BLE001 - the violation we hunt for
            return "crash", type(exc).__name__, exc
        return "ok", result, None

    def _violates(self, target: FuzzTarget, data: bytes, error_type: str) -> bool:
        status, detail, _ = self._execute(target, data)
        return status == "crash" and detail == error_type

    def shrink(self, target: FuzzTarget, data: bytes, error_type: str) -> bytes:
        """Greedy deterministic minimization preserving the failure type."""
        attempts = 0
        current = data
        # Pass 1: halving — keep either half while the failure persists.
        changed = True
        while changed and attempts < _SHRINK_ATTEMPTS:
            changed = False
            half = len(current) // 2
            for candidate in (current[:half], current[half:]):
                attempts += 1
                if len(candidate) < len(current) and self._violates(
                    target, candidate, error_type
                ):
                    current = candidate
                    changed = True
                    break
        # Pass 2: chunk deletion with shrinking windows, then single bytes.
        window = max(1, len(current) // 4)
        while window >= 1 and attempts < _SHRINK_ATTEMPTS:
            position = 0
            while position < len(current) and attempts < _SHRINK_ATTEMPTS:
                candidate = current[:position] + current[position + window :]
                attempts += 1
                if self._violates(target, candidate, error_type):
                    current = candidate
                else:
                    position += window
            if window == 1:
                break
            window //= 2
        return current

    def _record_crash(
        self,
        target: FuzzTarget,
        data: bytes,
        iteration: int,
        exc: BaseException,
        crashes: List[CrashEntry],
        seen_keys: set,
    ) -> None:
        error_type = type(exc).__name__
        key = (target.name, error_type)
        if key in seen_keys:
            return
        seen_keys.add(key)
        minimal = self.shrink(target, data, error_type)
        status, detail, final_exc = self._execute(target, minimal)
        message = str(final_exc) if status == "crash" else str(exc)
        digest = hashlib.sha256(
            target.name.encode() + b"\x00" + minimal
        ).hexdigest()[:12]
        crashes.append(
            CrashEntry(
                id=digest,
                target=target.name,
                seed=self.seed,
                iteration=iteration,
                error_type=error_type,
                error_message=message[:200],
                data=minimal,
            )
        )

    # -- the loop --------------------------------------------------------------

    def run(
        self,
        iterations: int = 2000,
        budget_seconds: Optional[float] = None,
        clock: Optional[Clock] = None,
    ) -> FuzzReport:
        """Execute the deterministic mutation schedule.

        ``iterations`` bounds the schedule (the determinism contract);
        ``budget_seconds`` is a wall-clock safety cap that can only stop
        the run early, flagged in the report.
        """
        rng = random.Random(self.seed)
        clock = clock if clock is not None else WallClock()
        deadline = (
            clock.now() + budget_seconds if budget_seconds is not None else None
        )
        crashes: List[CrashEntry] = []
        crash_keys: set = set()
        executed = 0
        budget_exhausted = False
        # Seed round: every target's seeds run unmutated so their
        # signatures populate the coverage map before mutation starts.
        for target in self.targets:
            for seed_input in self._pools[target.name]:
                status, detail, exc = self._execute(target, seed_input)
                self._seen.add(_signature(target, status, detail))
                if exc is not None:
                    self._record_crash(
                        target, seed_input, -1, exc, crashes, crash_keys
                    )
        for iteration in range(iterations):
            if deadline is not None and clock.now() >= deadline:
                budget_exhausted = True
                break
            target = self.targets[rng.randrange(len(self.targets))]
            pool = self._pools[target.name]
            base = pool[rng.randrange(len(pool))]
            mutated = _mutate(base, rng)
            status, detail, exc = self._execute(target, mutated)
            executed += 1
            if exc is not None:
                self._record_crash(target, mutated, iteration, exc, crashes, crash_keys)
                continue
            signature = _signature(target, status, detail)
            if signature not in self._seen:
                self._seen.add(signature)
                if len(pool) < 256:  # bound memory; determinism unaffected
                    pool.append(mutated)
        return FuzzReport(
            seed=self.seed,
            iterations_run=executed,
            signatures=len(self._seen),
            crashes=crashes,
            budget_exhausted=budget_exhausted,
            pool_sizes={name: len(pool) for name, pool in self._pools.items()},
        )


# -- crash corpus I/O ----------------------------------------------------------


def write_corpus(path: str, entries: Sequence[CrashEntry]) -> None:
    """Write a JSONL crash corpus (one entry per line)."""
    with open(path, "w", encoding="utf-8") as sink:
        for entry in entries:
            sink.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")


def load_corpus(path: str) -> List[CrashEntry]:
    """Load a JSONL crash corpus written by :func:`write_corpus`."""
    entries: List[CrashEntry] = []
    with open(path, encoding="utf-8") as source:
        for line in source:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entries.append(CrashEntry.from_dict(json.loads(line)))
    return entries


def replay_corpus(
    entries: Sequence[CrashEntry],
    targets: Optional[Sequence[FuzzTarget]] = None,
) -> List[Tuple[CrashEntry, bool, str]]:
    """Re-run each entry; returns (entry, still_fails, detail) triples.

    A committed corpus doubles as a regression suite: every entry records
    a once-minimal reproducer, and replay proves the decode surface now
    handles it within the contract (``still_fails`` must be False).
    """
    if targets is None:
        targets = build_default_targets()
    by_name = {target.name: target for target in targets}
    results: List[Tuple[CrashEntry, bool, str]] = []
    for entry in entries:
        target = by_name.get(entry.target)
        if target is None:
            results.append((entry, True, f"unknown target {entry.target!r}"))
            continue
        try:
            result = target.execute(entry.data)
        except target.acceptable as exc:
            results.append(
                (entry, False, f"rejected with {type(exc).__name__} (contract)")
            )
        except Exception as exc:  # noqa: BLE001
            results.append(
                (entry, True, f"still crashes: {type(exc).__name__}: {exc}")
            )
        else:
            kind = type(result).__name__
            results.append((entry, False, f"decoded cleanly ({kind})"))
    return results

"""Failure injection: corrupted payloads must never crash the decoders.

The contract (:data:`~repro.compression.base.ACCEPTABLE_DECODE_ERRORS`):
for any mutated compressed stream, ``decompress`` either raises
:class:`CorruptStreamError` (or ``EOFError`` from bit exhaustion) or
returns *some* bytes — it must never raise an unrelated exception
(IndexError, struct.error, infinite loop, ...).  Entropy coders cannot
always detect corruption (a flipped bit may decode to different valid
symbols), so "wrong output" is acceptable; crashing or hanging is not.

The mutation set is the canonical one from :mod:`repro.verify.fuzz`, so
the conformance kit, the fuzz gate, and this suite all agree on what
"corrupted" means.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import get_codec
from repro.compression.base import ACCEPTABLE_DECODE_ERRORS, CorruptStreamError
from repro.middleware.transport import WireFormat
from repro.verify.fuzz import _mutate, mutated_copies
from tests.strategies import LOSSLESS_CODECS, SEED_DATA, examples

#: The codecs whose decoders are array kernels: numpy indexing on hostile
#: input raises IndexError/ValueError/OverflowError where a scalar loop
#: would have run out of stream, so these are held to the strict contract.
KERNEL_CODECS = ["huffman", "lempel-ziv", "burrows-wheeler"]

#: Seeds spanning the stream shapes the kernels branch on: repetitive text
#: (long matches, long zero runs after BWT+MTF), every byte value (escape
#: pairs, deep codes), one-symbol and two-symbol inputs (degenerate codes).
KERNEL_SEEDS = [
    SEED_DATA[:1600],
    bytes(range(256)) * 5,
    b"\x00" * 1200 + b"abc" * 90,
    random.Random(1).randbytes(900),
    b"a",
    b"ab" * 600,
]


@pytest.mark.parametrize("name", LOSSLESS_CODECS)
def test_bitflips_never_crash(name):
    codec = get_codec(name)
    data = SEED_DATA[:8192] if name.startswith("arithmetic") else SEED_DATA
    payload = codec.compress(data)
    rng = random.Random(hash(name) & 0xFFFF)
    for mutated in mutated_copies(payload, rng):
        try:
            result = codec.decompress(mutated)
        except ACCEPTABLE_DECODE_ERRORS:
            continue
        assert isinstance(result, bytes)


@pytest.mark.parametrize("name", KERNEL_CODECS)
def test_kernel_codecs_raise_only_corrupt_stream_error(name):
    """2 400 seeded flips, splices, duplications, truncations and injections
    per codec: clean bytes or :class:`CorruptStreamError`, nothing else."""
    codec = get_codec(name)
    payloads = [codec.compress(seed) for seed in KERNEL_SEEDS]
    rng = random.Random(2004)
    rejected = 0
    for index in range(2400):
        mutated = _mutate(payloads[index % len(payloads)], rng)
        if index % 3 == 0:
            mutated = _mutate(mutated, rng)
        try:
            assert isinstance(codec.decompress(mutated), bytes)
        except CorruptStreamError:
            rejected += 1
    assert 0 < rejected < 2400  # the mutations bite, and not all of them


def test_resynchronizing_decode_raises_only_corrupt_stream_error():
    """``decode_from`` at random bit offsets (inside, at and past the end)
    of mutated and intact streams."""
    codec = get_codec("burrows-wheeler")
    payloads = [codec.compress(seed * 3) for seed in KERNEL_SEEDS]
    rng = random.Random(31)
    for index in range(2000):
        payload = payloads[index % len(payloads)]
        if index % 4:
            payload = _mutate(payload, rng)
        start_bit = rng.randrange(len(payload) * 8 + 24)
        try:
            recovered, chunks = codec.decode_from(payload, start_bit)
        except CorruptStreamError:
            continue
        assert isinstance(recovered, bytes) and chunks >= 0


@pytest.mark.parametrize("name", ["quantized-float", "truncated-float"])
def test_lossy_bitflips_never_crash(name):
    import numpy as np

    codec = get_codec(name)
    data = np.linspace(-5.0, 5.0, 4096).astype("<f8").tobytes()
    payload = codec.compress(data)
    rng = random.Random(7)
    for mutated in mutated_copies(payload, rng):
        try:
            result = codec.decompress(mutated)
        except ACCEPTABLE_DECODE_ERRORS:
            continue
        assert isinstance(result, bytes)


@given(st.binary(max_size=600))
@examples(60)
def test_random_bytes_as_payload_never_crash(blob):
    for name in LOSSLESS_CODECS:
        codec = get_codec(name)
        try:
            result = codec.decompress(blob)
        except ACCEPTABLE_DECODE_ERRORS:
            continue
        assert isinstance(result, bytes)


class TestWireFormatFuzz:
    def test_mutated_wire_events_never_crash(self):
        from repro.middleware.events import Event

        wire = WireFormat.encode(
            Event(payload=b"payload" * 100, attributes={"k": 1}, channel_id="c", sequence=3)
        )
        rng = random.Random(11)
        for mutated in mutated_copies(wire, rng):
            try:
                event = WireFormat.decode(mutated)
            except (ValueError, KeyError, CorruptStreamError, UnicodeDecodeError):
                continue
            # Decode is zero-copy: payloads arrive as read-only views.
            assert isinstance(event.payload, (bytes, memoryview))
            if isinstance(event.payload, memoryview):
                assert event.payload.readonly

    @given(st.binary(max_size=300))
    @examples(80)
    def test_random_wire_bytes_never_crash(self, blob):
        try:
            WireFormat.decode(blob)
        except (ValueError, KeyError, CorruptStreamError, UnicodeDecodeError, TypeError):
            pass

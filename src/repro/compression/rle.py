"""Run-length coding with runs capped at 254 (paper §2.4, step 3).

The paper modifies classic RLE so that "the 255th character never appears"
in the coded output: byte value 255 is reserved as the chunk terminator
that makes the joint Huffman stream resynchronizable.  This module encodes
move-to-front output into the alphabet ``0..254``:

* value 254 is an escape; ``(254, 0)`` encodes a literal 254 and
  ``(254, 1)`` a literal 255 (both are rare after MTF),
* ``(254, c)`` with ``2 <= c <= 254`` encodes a run of ``c`` zeros —
  runs of at most 254, exactly as the paper prescribes; longer runs split,
* every other byte stands for itself.

Zero-runs shorter than :data:`MIN_RUN` are cheaper raw, so they stay raw.

Both directions are array code: the encoder reduces every run to at most
two ``(value, repeat)`` pieces by run arithmetic (``// MAX_RUN``,
``% MAX_RUN``, ``>= MIN_RUN``) and expands them with one ``np.repeat``;
the decoder classifies escape and argument bytes from the parity of their
offset inside a run of 254s and expands the tokens the same way.  The
per-byte loops are the oracles
:func:`repro.verify.references.reference_rle_encode` / ``_decode``.
"""

from __future__ import annotations

import numpy as np

from .base import CorruptStreamError

__all__ = ["rle_encode", "rle_decode", "ESCAPE", "MAX_RUN", "MIN_RUN"]

ESCAPE = 254
MAX_RUN = 254
MIN_RUN = 3


def rle_encode(data: bytes) -> bytes:
    """Encode ``data`` (any bytes) into the 0..254 alphabet.

    Output is byte-identical to the classic per-byte greedy encoder: a
    zero run longer than :data:`MAX_RUN` splits greedily, and the remainder
    independently chooses escape vs. raw form.
    """
    n = len(data)
    if n == 0:
        return b""
    values = np.frombuffer(data, dtype=np.uint8)
    # Runs of equal bytes, except that 254/255 never form runs (each one
    # is its own escape pair).
    heads = np.zeros(1, dtype=np.int64)
    if n > 1:
        tail = values[1:]
        heads = np.append(heads, np.flatnonzero((tail != values[:-1]) | (tail >= ESCAPE)) + 1)
    byte = values[heads].astype(np.int64)
    length = np.diff(heads, append=n)
    zero = byte == 0
    escaped = byte >= ESCAPE
    full, rest = np.divmod(length, MAX_RUN)
    long_rest = rest >= MIN_RUN
    # Every run becomes two (value, repeat) pieces; np.repeat drops the
    # pieces whose repeat is zero.
    #   zero run     ESCAPE x (2*full + long_rest)   then (rest x 1) or (0 x rest)
    #   254 / 255    ESCAPE x 1                      then (byte - ESCAPE) x 1
    #   other byte   byte x length                   then nothing
    pieces = np.empty((len(heads), 2), dtype=np.uint8)
    repeats = np.empty((len(heads), 2), dtype=np.int64)
    pieces[:, 0] = np.where(zero | escaped, ESCAPE, byte)
    repeats[:, 0] = np.where(zero, 2 * full + long_rest, length)
    pieces[:, 1] = np.where(zero, rest * long_rest, byte - ESCAPE)
    repeats[:, 1] = np.where(zero, np.where(long_rest, 1, rest), escaped)
    return np.repeat(pieces.reshape(-1), repeats.reshape(-1)).tobytes()


def rle_decode(data: bytes) -> bytes:
    """Invert :func:`rle_encode`; raises on 255 or truncated escapes."""
    n = len(data)
    if n == 0:
        return b""
    values = np.frombuffer(data, dtype=np.uint8)
    if (values == 255).any():
        raise CorruptStreamError("reserved byte 255 inside RLE payload")
    # Inside a maximal run of 254s the bytes alternate escape, argument,
    # escape, ...: the first cannot be an argument because the byte before
    # it is not an escape.
    index = np.arange(n)
    is_escape = values == ESCAPE
    run_start = np.maximum.accumulate(np.where(is_escape, -1, index)) + 1
    is_escape &= ((index - run_start) & 1) == 0
    if is_escape[-1]:
        raise CorruptStreamError("truncated escape sequence")
    is_argument = np.zeros(n, dtype=bool)
    is_argument[1:] = is_escape[:-1]
    tokens = np.flatnonzero(~is_argument)
    escapes = is_escape[tokens]
    argument = values[tokens[escapes] + 1]
    # argument 0 / 1 is a literal 254 / 255; anything larger a zero run.
    piece = values[tokens]
    piece[escapes] = np.where(argument < 2, ESCAPE + argument, 0)
    repeat = np.ones(len(tokens), dtype=np.int64)
    repeat[escapes] = np.maximum(argument, 1)
    return np.repeat(piece, repeat).tobytes()

"""Move-to-front coding (paper §2.4, step 2).

"This algorithm keeps all 256 possible characters in a list.  When a
character is to be sent …, its position in the list will be sent.  After
the character is 'sent', it is moved … to the front of the list."

After a Burrows-Wheeler transform the input is dominated by runs, so the
emitted indices are mostly zeros and small values — which is what makes the
subsequent run-length + Huffman stages effective.

That same run structure is what the implementation exploits: the recency
list only changes at the *first* byte of each run (every later byte of the
run is already at the front and encodes as rank 0), so the Python-level
list update runs once per run boundary while numpy handles the per-byte
work — gathering the run heads on encode, broadcasting the front byte
over the zero ranks on decode (one ``cumsum`` + gather).  The recency list
itself is a ``bytearray``: finding a byte is a ``memchr`` and moving it to
the front is two in-place ``memmove``s (``pop`` + ``insert``).  Output is
byte-identical to the classic per-byte formulation, kept as
:func:`repro.verify.references.reference_mtf_encode` / ``_decode``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mtf_encode", "mtf_decode"]


def mtf_encode(data: bytes) -> bytes:
    """Replace each byte with its current position in the recency list."""
    n = len(data)
    if n == 0:
        return b""
    values = np.frombuffer(data, dtype=np.uint8)
    # Positions where a run begins; inside a run every byte after the
    # first has rank 0, which is what the zero-initialised output encodes.
    heads = np.zeros(1, dtype=np.int64)
    if n > 1:
        heads = np.append(heads, np.flatnonzero(values[1:] != values[:-1]) + 1)
    table = bytearray(range(256))
    find, pop, insert = table.index, table.pop, table.insert
    ranks = bytearray()
    append = ranks.append
    for byte in values[heads].tobytes():
        rank = find(byte)
        append(rank)
        pop(rank)
        insert(0, byte)
    out = np.zeros(n, dtype=np.uint8)
    out[heads] = np.frombuffer(ranks, dtype=np.uint8)
    return out.tobytes()


def mtf_decode(indices: bytes) -> bytes:
    """Invert :func:`mtf_encode`."""
    n = len(indices)
    if n == 0:
        return b""
    ranks = np.frombuffer(indices, dtype=np.uint8)
    # Rank 0 repeats whatever is at the front of the list, so only the
    # nonzero ranks touch the recency list.  fronts[j] is the front byte
    # after the j-th of them; every position then reads the front that was
    # current there.
    moves = ranks != 0
    table = bytearray(range(256))
    pop, insert = table.pop, table.insert
    fronts = bytearray(1)
    append = fronts.append
    for rank in ranks[moves].tobytes():
        byte = pop(rank)
        insert(0, byte)
        append(byte)
    return np.frombuffer(fronts, dtype=np.uint8)[np.cumsum(moves)].tobytes()

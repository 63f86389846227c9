"""The Burrows-Wheeler transform (paper §2.4, refs [28, 29, 30]).

The forward transform computes a suffix array by prefix doubling over
numpy arrays (O(n log n), fully vectorized), appends a unique smallest
sentinel so every suffix is distinct, and returns the last column together
with the *primary index* (the row at which the sentinel would appear).
The doubling starts from as many symbols as pack into one 64-bit word
(seven for bytes) rather than from one, and every round sorts a single
combined integer key, so a 32 KB chunk needs three or four plain integer
sorts.  The inverse rebuilds the text with the LF mapping, batched by
pointer doubling.  The textbook formulations (sort the suffixes
themselves; walk the LF mapping a byte at a time) are the differential
oracles :func:`repro.verify.references.reference_bwt_transform` and
``reference_bwt_inverse``.

The paper's step 1 — "creates pointers to all characters of the file …
sorted according to the characters to which they are pointing; the
preceding characters … are sent to the next step" — is exactly the
last-column-of-sorted-suffixes construction implemented here.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import CorruptStreamError

__all__ = ["suffix_array", "bwt_transform", "bwt_inverse"]


def _dense_ranks(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Sort ``keys``; returns ``(rank, order, all_distinct)``.

    ``rank[i]`` is the number of distinct keys smaller than ``keys[i]``.
    Equal keys share a rank whatever order the sort leaves them in, so an
    unstable sort serves; ``order`` is a suffix array once all are distinct.
    """
    order = np.argsort(keys)
    in_order = keys[order]
    rank_in_order = np.empty(len(keys), dtype=np.int64)
    rank_in_order[0] = 0
    np.cumsum(in_order[1:] != in_order[:-1], out=rank_in_order[1:])
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = rank_in_order
    return rank, order, bool(rank_in_order[-1] == len(keys) - 1)


def suffix_array(values: np.ndarray) -> np.ndarray:
    """Suffix array of an integer sequence via prefix doubling.

    ``values`` must be non-negative.  Returns the permutation ``sa`` such
    that the suffixes ``values[sa[0]:], values[sa[1]:], ...`` are in
    ascending lexicographic order (a suffix that is a prefix of another
    sorts first).
    """
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Shift up by one so 0 can stand for "past the end", then seed the
    # ranks with as many leading symbols as fit one 64-bit word.
    symbols = np.asarray(values).astype(np.uint64) + np.uint64(1)
    width = int(symbols.max()).bit_length()
    span = max(1, 64 // width)
    padded = np.zeros(n + span - 1, dtype=np.uint64)
    padded[:n] = symbols
    keys = padded[:n].copy()
    for offset in range(1, span):
        keys <<= np.uint64(width)
        keys |= padded[offset : offset + n]
    rank, order, distinct = _dense_ranks(keys)
    k = span
    while not distinct:
        if k > 2 * n:  # pragma: no cover - suffixes of one sequence always differ
            raise RuntimeError("prefix doubling failed to separate suffixes")
        # Rank of the first k symbols, then of the next k (0 past the end).
        keys = rank * (n + 1)
        keys[: n - k] += rank[k:] + 1
        rank, order, distinct = _dense_ranks(keys)
        k *= 2
    return order.astype(np.int64, copy=False)


def bwt_transform(data: bytes) -> Tuple[bytes, int]:
    """Forward BWT.  Returns ``(last_column, primary_index)``.

    The sentinel itself is not part of ``last_column``; ``primary_index``
    records the row where it sat, which is all the inverse needs.
    """
    if not data:
        return b"", 0
    symbols = np.frombuffer(data, dtype=np.uint8)
    terminated = np.zeros(len(symbols) + 1, dtype=np.int64)
    terminated[:-1] = symbols
    terminated[:-1] += 1
    sa = suffix_array(terminated)
    # Row r's last-column symbol precedes suffix sa[r]; the row of suffix 0
    # is preceded by the sentinel and is the one dropped.
    primary = int(np.flatnonzero(sa == 0)[0])
    preceding = np.delete(sa, primary) - 1
    return symbols[preceding].tobytes(), primary


def bwt_inverse(last_column: bytes, primary: int) -> bytes:
    """Invert :func:`bwt_transform` via the LF mapping."""
    n = len(last_column)
    if n == 0:
        if primary != 0:
            raise CorruptStreamError("primary index out of range for empty block")
        return b""
    if not 0 <= primary <= n:
        raise CorruptStreamError("primary index out of range")
    m = n + 1
    column = np.empty(m, dtype=np.int64)
    values = np.frombuffer(last_column, dtype=np.uint8).astype(np.int64) + 1
    column[:primary] = values[:primary]
    column[primary] = 0
    column[primary + 1 :] = values[primary:]

    # Stable sort positions by symbol: position j lands at sorted slot
    # C[symbol] + rank(j), which *is* the LF mapping.
    order = np.argsort(column, kind="stable")
    lf = np.empty(m, dtype=np.int64)
    lf[order] = np.arange(m)

    # The classic walk iterates row = lf[row] one step per output byte.
    # Because lf is a permutation, the whole orbit can instead be batched
    # by pointer doubling: after k rounds the first 2**k positions are
    # known and ``jump`` holds lf**(2**k), so each round doubles the
    # recovered prefix with two vectorized gathers — O(m log m) numpy work
    # replacing m Python-level iterations.
    positions = np.empty(m, dtype=np.int64)
    positions[0] = primary
    filled = 1
    jump = lf
    while filled < m:
        count = min(filled, m - filled)
        positions[filled : filled + count] = jump[positions[:count]]
        filled += count
        if filled < m:
            jump = jump[jump]

    out = column[positions[::-1]]
    if out[m - 1] != 0:
        raise CorruptStreamError("sentinel did not surface at end of inverse BWT")
    body = out[:-1]
    if body.size and not body.all():
        raise CorruptStreamError("sentinel surfaced inside inverse BWT output")
    return (body - 1).astype(np.uint8).tobytes()

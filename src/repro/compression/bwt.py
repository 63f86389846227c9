"""The Burrows-Wheeler transform (paper §2.4, refs [28, 29, 30]).

The forward transform computes a suffix array by prefix doubling over
numpy arrays, appends a unique smallest sentinel so every suffix is
distinct, and returns the last column together with the *primary index*
(the row at which the sentinel would appear).  The two sorts that touch
every position are sorts of plain 64-bit values with the position packed
into the low bits, so the sorted values *are* the permutation — no
``argsort``, no gather to learn which neighbours tie:

* :func:`suffix_array` seeds the order with as many leading symbols as
  share a word with a position (five for a 32 KB chunk of bytes) in one
  ``np.sort``.  A suffix's rank is the slot of the first member of its
  group of still-equal suffixes, which is final once the suffix is alone
  and does not move when another group splits; so every later doubling
  round gathers, sorts and re-ranks **only the members of groups still
  tied** — an ``argsort`` of ``(group, rank of the suffix `known` symbols
  on)``, a pair that fits one word at any length — and writes them back
  into the slots the group already occupies.  The work of a round is
  proportional to what the round before left unresolved (after the seed
  round about half of a text chunk, then a shrinking remainder), not to
  the chunk.
* :func:`bwt_inverse` gets the LF mapping from one sort of ``symbol <<
  index_bits | position`` and walks it by pointer doubling.

The textbook formulations (sort the suffixes themselves; walk the LF
mapping a byte at a time) are the differential oracles
:func:`repro.verify.references.reference_bwt_transform` and
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


def _group_heads(keys: np.ndarray, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(heads, tied)`` of the groups of equal neighbours in sorted ``keys``.

    ``keys[i]`` sits in slot ``slots[i]`` (ascending) of the order being
    built.  ``heads[i]`` is the slot of the first member of
    ``i``'s group and ``tied[i]`` says the group has another member.
    """
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    heads = np.maximum.accumulate(slots * starts)
    starts[:-1] &= starts[1:]
    return heads, ~starts


def suffix_array(values: np.ndarray) -> np.ndarray:
    """Suffix array of an integer sequence via prefix doubling.

    ``values`` must be non-negative (``ValueError`` otherwise).  Returns the
    permutation ``sa`` such that the suffixes ``values[sa[0]:],
    values[sa[1]:], ...`` are in ascending lexicographic order (a suffix
    that is a prefix of another sorts first).
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if values.min() < 0:
        raise ValueError("suffix_array needs non-negative values")
    # Symbols go up by one so that 0 can stand for "past the end"; a key is
    # the symbols that fit one non-negative 64-bit word above a position.
    index_bits = (n - 1).bit_length()
    width = (int(values.max()) + 1).bit_length()
    if width + index_bits > 63:
        # A symbol and a position cannot share a word: sort on the symbols'
        # dense ranks instead, of which there are at most n.
        values = np.unique(values, return_inverse=True)[1]
        width = (int(values.max()) + 1).bit_length()
        if width + index_bits > 63:  # pragma: no cover - needs 2**31 positions
            raise ValueError("sequence too long to suffix-sort in 64-bit words")
    span = (63 - index_bits) // width
    padded = np.zeros(n + span - 1, dtype=np.int64)
    padded[:n] = values
    padded[:n] += 1

    # Seed round.  Sorting ``key << index_bits | position`` as plain values
    # sorts the positions by their first ``span`` symbols: no argsort, and
    # no gather to see which neighbours tie.
    packed = padded[:n].copy()
    for offset in range(1, span):
        packed <<= width
        packed |= padded[offset : offset + n]
    packed <<= index_bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << index_bits) - 1)
    packed >>= index_bits

    # A suffix's rank is the slot of the first member of its group in
    # ``order``: final once the suffix is alone, and untouched by a split of
    # any other group.  Rank -1 is "past the end", before every suffix.
    slots = np.arange(n, dtype=np.int64)
    rank = np.full(n + 1, -1, dtype=np.int64)
    rank[order], tied = _group_heads(packed, slots)
    slots = slots[tied]
    members = order[tied]
    known = span
    while len(slots):
        if known > 2 * n:  # pragma: no cover - suffixes of one sequence always differ
            raise RuntimeError("prefix doubling failed to separate suffixes")
        # Only the groups still tied are sorted again, each inside its own
        # slots: by the group, then by the rank of what follows the
        # ``known`` symbols its members share.
        keys = rank.take(members)
        keys *= n + 1
        keys += rank.take(members + known, mode="clip")
        resorted = np.argsort(keys)
        members = members.take(resorted)
        order[slots] = members
        rank[members], tied = _group_heads(keys.take(resorted), slots)
        slots = slots[tied]
        members = members[tied]
        known *= 2
    return order


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

    # Sorting ``symbol << index_bits | position`` as plain values is the
    # stable sort of positions by symbol: position j lands at sorted slot
    # C[symbol] + rank(j), which *is* the LF mapping.
    index_bits = n.bit_length()
    packed = column << index_bits
    packed |= np.arange(m, dtype=np.int64)
    packed.sort()
    packed &= (1 << index_bits) - 1
    lf = np.empty(m, dtype=np.int64)
    lf[packed] = np.arange(m, dtype=np.int64)

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
        positions[filled : filled + count] = jump.take(positions[:count])
        filled += count
        if filled < m:
            jump = jump.take(jump)

    out = column.take(positions[::-1])
    if out[m - 1] != 0:
        raise CorruptStreamError("sentinel did not surface at end of inverse BWT")
    body = out[:-1]
    if body.size and not body.all():
        raise CorruptStreamError("sentinel surfaced inside inverse BWT output")
    return (body - 1).astype(np.uint8).tobytes()

"""Canonical, length-limited Huffman coding (paper §2.1).

This module provides:

* :class:`HuffmanCode` — a reusable canonical Huffman code over an arbitrary
  integer alphabet.  It is shared by the standalone :class:`HuffmanCodec`,
  by the Lempel-Ziv pointer encoder (§2.3: "pointers … are represented by
  Huffman codes") and by the joint chunk coder of the modified
  Burrows-Wheeler pipeline (§2.4).  Building one is on the selector's
  critical path — the 4 KB Lempel-Ziv probe of §2.5 builds two per block —
  so construction keeps nothing per symbol beyond flat index lists:
  :func:`huffman_code_lengths` sorts the leaves once and merges over two
  queues (``parent`` links, one reverse pass for depths), the canonical
  codewords and the range and Kraft checks come from one count of symbols
  per length (:func:`_length_counts`), and the flat decode tables are two
  ``np.repeat`` calls over the canonical order (:func:`_decode_tables`).
  The heap-of-symbol-lists merge, the sorted codeword walk and the
  slice-assign table builder they replaced are the differential oracles
  ``reference_huffman_code_lengths``, ``reference_canonical_codes`` and
  ``reference_decode_tables`` in :mod:`repro.verify.references`: same
  lengths (ties included), same codewords, same tables.
* :class:`PositionMap` — the one decode kernel.  Code lengths are limited
  to :data:`MAX_CODE_LENGTH` bits, so the codeword starting at *any* bit is
  determined by the 15-bit window there.  The kernel takes that window at
  **every** bit position of a span of the payload in one numpy pass, looks
  each up in the code's flat table, and so obtains a per-position successor
  map ``step[p] = p + length(p)`` whose invalid windows and past-the-end
  codewords fall into an absorbing sink.  Decoding is then following
  ``step`` from a start bit; :meth:`PositionMap.chain` does it by pointer
  jumping (``step`` composed with itself a few times, one Python iteration
  per 2**k codewords, the rest filled in by vectorised gathers), an 8 KB
  span at a time.  Because the map covers every position, not just
  the true codeword boundaries, one map serves a decode from any start bit
  — the Huffman self-synchronizing property the paper highlights (§2.4,
  ref [31]): :meth:`HuffmanCode.decode_array`, the chunk-resynchronizing
  decoder in :mod:`repro.compression.bwhuff` and (with a token-level
  ``step``) the Lempel-Ziv decoder in :mod:`repro.compression.lz77` all walk it.  The
  per-symbol scalar loop it replaced is the differential oracle
  :func:`repro.verify.references.reference_huffman_decode`.
* :meth:`HuffmanCode.encode` — the one whole-block encoder: codewords and
  lengths gathered by symbol and written by :func:`~.bitio.pack_fields`,
  :data:`_ENCODE_SPAN` symbols at a time (the Lempel-Ziv encoder lays the
  same two tables out between its raw extra bits).  Its temporaries come
  from the heap :mod:`~.heap` keeps resident; the string-concatenation
  emitter it replaced is the differential oracle
  :func:`repro.verify.references.reference_huffman_encode`.
* :class:`HuffmanCodec` — the standalone byte-oriented codec evaluated in
  the paper's microbenchmarks (Figures 2, 3, 4, 6).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .base import Codec, CorruptStreamError
from .bitio import BitReader, BitWriter, pack_fields
from .varint import read_varint, write_varint

__all__ = [
    "MAX_CODE_LENGTH",
    "HuffmanCode",
    "HuffmanCodec",
    "PositionMap",
    "huffman_code_lengths",
]

#: Longest permitted codeword, in bits.  15 bits keeps the flat decode
#: table at 32768 entries while being ample for 128 KB blocks.
MAX_CODE_LENGTH = 15

#: Times a span's successor map is composed with itself before it is
#: walked: the Python loop then visits one boundary in ``2**_JUMP_ROUNDS``.
#: Each round is one gather over every bit position, each halving of the
#: walk saves a few thousand interpreter iterations per 128 KB block; the
#: two costs cross between 3 and 5 rounds on every corpus measured.
_JUMP_ROUNDS = 4

#: Payload bytes whose bit positions are mapped at a time.  A map costs
#: about 20 bytes per position (window, advance, successor and two
#: generations of its powers), so spans keep the kernel's working set near
#: 1.3 MB — inside the cache and off the peak RSS — whatever the payload.
_SPAN_BYTES = 1 << 13

#: Upper bound, in bits, on one unit a map follows (a Lempel-Ziv token is at
#: most 15 + 5 + 15 + 13 = 48): how far past its span a span's successors
#: may point, and how much lookahead its windows carry.
_MAX_UNIT_BITS = 64

#: Symbols :meth:`HuffmanCode.encode` packs at a time.  Its field arrays
#: (about 40 bytes per symbol) then stay near 1.3 MB whatever the block,
#: like the decode kernel's spans, and below the resident heap's mmap
#: threshold (:mod:`~.heap`) for blocks of any size.
_ENCODE_SPAN = 1 << 15

#: Distinct decode tables kept alive at once.  The 4 KB Lempel-Ziv
#: sampling probe and the per-chunk Burrows-Wheeler verify path rebuild
#: codes with recurring length profiles block after block; a handful of
#: cached tables absorbs nearly all of that reconstruction cost.
_DECODE_TABLE_CACHE = 64


def _length_counts(lengths: Sequence[int]) -> List[int]:
    """Symbols per code length ``0 .. MAX_CODE_LENGTH`` of a length profile.

    Everything a canonical code is derives from these counts — its Kraft
    sum, the first codeword of each length, how the codewords tile the
    decode window — so they are taken once, and a length outside the
    supported range is refused here, before anything is built on it.
    """
    try:
        profile = bytes(lengths)
    except (TypeError, ValueError):
        raise CorruptStreamError("code length outside supported range") from None
    counts = [profile.count(bits) for bits in range(MAX_CODE_LENGTH + 1)]
    if sum(counts) != len(profile):
        raise CorruptStreamError("code length outside supported range")
    if sum(counts[bits] << (MAX_CODE_LENGTH - bits) for bits in range(1, MAX_CODE_LENGTH + 1)) > (
        1 << MAX_CODE_LENGTH
    ):
        raise CorruptStreamError("code lengths violate the Kraft inequality")
    return counts


def _canonical_codes(lengths: Sequence[int], counts: Sequence[int]) -> List[int]:
    """Canonical codeword values for ``lengths`` (0 for absent symbols).

    Codewords ascend in ``(length, symbol)`` order: the first of each
    length follows from how many shorter ones there are (``counts``, from
    :func:`_length_counts`), and the symbols of one length take consecutive
    values in symbol order.
    """
    next_code = [0] * (MAX_CODE_LENGTH + 1)
    code = 0
    for bits in range(1, MAX_CODE_LENGTH + 1):
        next_code[bits] = code
        code = (code + counts[bits]) << 1
    codes = [0] * len(lengths)
    for sym, length in enumerate(lengths):
        if length:
            codes[sym] = next_code[length]
            next_code[length] += 1
    return codes


@lru_cache(maxsize=_DECODE_TABLE_CACHE)
def _decode_tables(lengths: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Flat (symbols, lengths) decode tables for a code-length profile.

    Indexed by a :data:`MAX_CODE_LENGTH`-bit window; length 0 marks a
    window no codeword matches.  Canonical codewords ascend in ``(length,
    symbol)`` order and a codeword of ``length`` bits owns the ``2**(15 -
    length)`` windows it prefixes, so the codewords tile the window space
    from zero upward in that order with no gaps: each table is one
    ``np.repeat`` over the canonical order, closed by a run of zeros for
    the windows past the Kraft sum.  Keyed by the length tuple: two
    :class:`HuffmanCode` instances with the same profile share one pair of
    tables.  They are numpy arrays because the decode kernel gathers
    through them a whole span of positions at a time
    (``table.take(windows)``), and read-only because the cache hands the
    same objects to every caller.
    """
    profile = np.array(lengths, dtype=np.int64)
    canonical = np.argsort(profile, kind="stable")[np.count_nonzero(profile == 0) :]
    bits = profile[canonical]
    spans = 1 << (MAX_CODE_LENGTH - bits)
    # One closing entry (symbol 0, length 0) owns the windows the code leaves.
    spans = np.append(spans, (1 << MAX_CODE_LENGTH) - spans.sum())
    syms = np.repeat(np.append(canonical, 0).astype(np.uint16), spans)
    lens = np.repeat(np.append(bits, 0).astype(np.uint8), spans)
    syms.setflags(write=False)
    lens.setflags(write=False)
    return syms, lens


#: ``units(windows, count)`` describes the units starting at the first
#: ``count`` positions of ``windows`` (which carries ``_MAX_UNIT_BITS`` more
#: positions of lookahead): ``(advance, invalid, exits)`` — bits spanned,
#: mask of positions where nothing decodes, and indices of positions whose
#: unit ends the stream by design.
Units = Callable[[np.ndarray, int], Tuple[np.ndarray, np.ndarray, Sequence[int]]]

_WINDOW_MASK = (1 << MAX_CODE_LENGTH) - 1


class PositionMap:
    """Successor map over every bit position of one payload.

    Code lengths are bounded by :data:`MAX_CODE_LENGTH`, so what starts at
    a bit is determined by the 15-bit window there.  ``units`` turns the
    windows of a span of positions into the bits each unit spans (a
    codeword; for Lempel-Ziv a whole token); the successor of position
    ``p`` is ``p + advance(p)``, and following successors from a start bit
    is decoding.  Two absorbing sinks sit above the last stream bit:
    ``end_bit + 1`` for "nothing decodes here" (an invalid window, a unit
    that would end past the last bit, the end of the stream itself) and
    ``end_bit + 2`` (:attr:`exit_bit`) for a unit that ends the stream by
    design, such as Lempel-Ziv's end-of-block.

    The map is never materialised whole: :meth:`chain` builds it one
    :data:`_SPAN_BYTES` span at a time, starting at the byte it is asked to
    walk from, so memory does not grow with the payload and a map is as
    cheap to make as it is to ignore.
    """

    def __init__(self, data: bytes, units: Units) -> None:
        raw = np.frombuffer(data, dtype=np.uint8)
        lookahead = _MAX_UNIT_BITS // 8
        padded = np.zeros(len(raw) + lookahead + 2, dtype=np.uint32)
        padded[: len(raw)] = raw
        # Each byte with the two after it: the 24 bits that hold every
        # window starting in that byte (zeros past the end of the data).
        triples = padded[:-2] << 16
        triples |= padded[1:-1] << 8
        triples |= padded[2:]
        self._triples = triples
        self._units = units
        self.end_bit = len(raw) * 8
        # Narrowest dtype that holds every absolute position, sinks included.
        self._position_dtype = np.int32 if self.end_bit + 2 < (1 << 31) else np.int64

    @property
    def exit_bit(self) -> int:
        """What a :meth:`chain` that left through an exit unit ends in."""
        return self.end_bit + 2

    def windows_at(self, positions: np.ndarray) -> np.ndarray:
        """The 15-bit windows at absolute bit ``positions`` (at most ``end_bit``)."""
        shifts = ((24 - MAX_CODE_LENGTH) - (positions & 7)).astype(np.uint32)
        windows = self._triples.take(positions >> 3)
        windows >>= shifts
        windows &= _WINDOW_MASK
        return windows

    def _span_windows(self, first_byte: int, nbytes: int) -> np.ndarray:
        """The window at every bit of ``nbytes`` bytes from ``first_byte`` (``uint16``)."""
        triples = self._triples[first_byte : first_byte + nbytes]
        windows = np.empty((nbytes, 8), dtype=np.uint16)
        for offset in range(8):
            np.bitwise_and(
                triples >> (24 - MAX_CODE_LENGTH - offset),
                _WINDOW_MASK,
                out=windows[:, offset],
                casting="unsafe",
            )
        return windows.reshape(-1)

    def _span(self, first_byte: int) -> Tuple[int, np.ndarray, np.ndarray]:
        """``(count, step, jump)`` of the span that starts at ``first_byte``.

        Local index ``i`` is absolute bit ``first_byte * 8 + i``.  Indices
        below ``count`` are mapped; the next :data:`_MAX_UNIT_BITS` are
        where a unit may land past the span (fixed points: the walk leaves
        the span there); then come the two sinks.  ``jump`` is ``step``
        composed with itself ``_JUMP_ROUNDS`` times.
        """
        nbytes = min(_SPAN_BYTES, self.end_bit // 8 - first_byte)
        count = nbytes * 8
        windows = self._span_windows(first_byte, nbytes + _MAX_UNIT_BITS // 8)
        advance, invalid, exits = self._units(windows, count)
        sink = count + _MAX_UNIT_BITS
        last_bit = self.end_bit - first_byte * 8
        step = np.arange(sink + 2, dtype=np.int32)
        body = step[:count]
        body += advance
        fits = body <= last_bit
        body[invalid | ~fits] = sink
        exits = np.asarray(exits, dtype=np.intp)
        body[exits[fits[exits]]] = sink + 1
        jump = step
        for _ in range(_JUMP_ROUNDS):
            jump = jump.take(jump)
        return count, step, jump

    def chain(
        self, start_bit: int, limit: int, stop_bit: Optional[int] = None
    ) -> np.ndarray:
        """Follow successors from ``start_bit``; absolute positions, in order.

        Returns ``[p0, p1, ..., pj]`` with ``p0 = start_bit`` and
        ``p(i+1)`` the successor of ``pi``: at most ``limit + 1`` entries,
        ending early at the first entry ``>= stop_bit`` (which is
        included).  ``stop_bit`` defaults to the first sink, so a chain
        that ends in an entry above :attr:`end_bit` ran into a position
        where nothing decodes (or, for :attr:`exit_bit`, into an exit).
        Work is bounded by the number of stream bits whatever ``limit``
        says, because every step advances at least one bit.
        """
        if not 0 <= start_bit <= self.end_bit:
            raise CorruptStreamError("start bit outside the stream")
        sink = self.end_bit + 1
        stop = sink if stop_bit is None else min(stop_bit, sink)
        pieces = [np.array([start_bit], dtype=self._position_dtype)]
        position = start_bit
        while limit > 0 and position < stop:
            piece = self._span_chain(position, limit, stop)
            pieces.append(piece)
            limit -= len(piece)
            position = int(piece[-1])
        return np.concatenate(pieces)

    def _span_chain(self, position: int, limit: int, stop: int) -> np.ndarray:
        """The successors of ``position`` (itself excluded) inside the span
        that starts at its byte: up to ``limit`` of them, through the first
        one that reaches ``stop``, leaves the span or is a sink."""
        sink = self.end_bit + 1
        if position == self.end_bit:
            return np.array([sink], dtype=self._position_dtype)
        first_byte = position >> 3
        base = first_byte * 8
        count, step, jump = self._span(first_byte)
        local = _follow(step, jump, position - base, limit, min(stop - base, count))
        piece = local[1:].astype(self._position_dtype)
        piece += base
        if local[-1] >= count + _MAX_UNIT_BITS:
            piece[-1] = sink + (local[-1] - count - _MAX_UNIT_BITS)
        return piece


def _follow(
    step: np.ndarray, jump: np.ndarray, start: int, limit: int, stop: int
) -> np.ndarray:
    """``[start, step[start], step[step[start]], ...]`` by pointer jumping.

    At most ``limit + 1`` entries, ending at the first one ``>= stop``.
    ``jump`` is ``step`` composed ``_JUMP_ROUNDS`` times: the Python loop
    hops a stride of units at a time and the units in between are filled
    in by a stride's worth of vectorised gathers.
    """
    stride = 1 << _JUMP_ROUNDS
    anchors = [start]
    position = start
    hop = jump.item
    full_strides = limit // stride
    while position < stop and len(anchors) <= full_strides:
        position = hop(position)
        anchors.append(position)
    rows = np.empty((stride, len(anchors)), dtype=step.dtype)
    rows[0] = anchors
    for row in range(1, stride):
        np.take(step, rows[row - 1], out=rows[row])
    chain = rows.T.reshape(-1)
    # Non-decreasing (fixed points absorb and sit above every mapped bit),
    # so the first entry at or past the stop is a binary search away.
    last = min(int(np.searchsorted(chain, stop)), limit)
    return chain[: last + 1]


def huffman_code_lengths(frequencies: Sequence[int], max_length: int = MAX_CODE_LENGTH) -> List[int]:
    """Compute length-limited Huffman code lengths for ``frequencies``.

    Zero-frequency symbols get length 0 (no codeword).  The classic merge
    of the two lightest subtrees (the recursive procedure of §2.1) yields
    optimal lengths; if any exceeds ``max_length`` they are clamped and the
    Kraft inequality is repaired, trading a small amount of optimality for
    a bounded decode table.

    The merge runs over two queues instead of a heap.  The leaves are
    sorted once by ``(frequency, symbol)``; internal nodes are born in
    non-decreasing weight order, so the queue they join is sorted as made;
    the lightest subtree is always at the head of one of the two, and a
    leaf wins a tie against an internal node.  That is the pop order of a
    heap keyed ``(frequency, tiebreak)`` whose leaves tiebreak by symbol
    and whose internal nodes by birth, after every leaf — the formulation
    kept as :func:`repro.verify.references.reference_huffman_code_lengths`
    — so the lengths are identical, not merely equally good.  Nothing is
    kept per subtree: a merge records the parent of its two nodes, and one
    reverse pass turns parents into depths.
    """
    lengths = [0] * len(frequencies)
    present = [sym for sym, freq in enumerate(frequencies) if freq > 0]
    count = len(present)
    if count < 2:
        for sym in present:
            lengths[sym] = 1
        return lengths
    # Stable by frequency over ascending symbols: (frequency, symbol) order.
    present.sort(key=frequencies.__getitem__)
    leaf = [frequencies[sym] for sym in present]
    # No subtree outweighs the whole tree: the sentinel closes the leaf
    # queue and stands in for internal nodes not born yet.
    sentinel = sum(leaf) + 1
    leaf.append(sentinel)
    inner = [sentinel] * (count - 1)
    # Nodes are numbered leaves first (in queue order), then internal nodes
    # by birth, so a parent's number is above both of its children's.
    parent = [0] * (2 * count - 1)
    next_leaf = next_inner = 0
    for born in range(count - 1):
        node = count + born
        if leaf[next_leaf] <= inner[next_inner]:
            weight = leaf[next_leaf]
            parent[next_leaf] = node
            next_leaf += 1
        else:
            weight = inner[next_inner]
            parent[count + next_inner] = node
            next_inner += 1
        if leaf[next_leaf] <= inner[next_inner]:
            weight += leaf[next_leaf]
            parent[next_leaf] = node
            next_leaf += 1
        else:
            weight += inner[next_inner]
            parent[count + next_inner] = node
            next_inner += 1
        inner[born] = weight
    depth = [0] * (2 * count - 1)
    for node in range(2 * count - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    for sym, bits in zip(present, depth):
        lengths[sym] = bits

    if max(lengths) <= max_length:
        return lengths

    # Clamp and repair the Kraft sum, then (greedily) shorten codes again
    # while slack remains.  Symbols are treated in increasing-frequency
    # order so the cheapest codes absorb the damage.
    for sym in range(len(lengths)):
        if lengths[sym] > max_length:
            lengths[sym] = max_length
    budget = 1 << max_length
    kraft = sum(1 << (max_length - l) for l in lengths if l)
    order = sorted((sym for sym, l in enumerate(lengths) if l), key=lambda s: frequencies[s])
    while kraft > budget:
        for sym in order:
            if 0 < lengths[sym] < max_length:
                kraft -= 1 << (max_length - lengths[sym] - 1)
                lengths[sym] += 1
                break
        else:  # pragma: no cover - cannot happen while alphabet <= 2**max_length
            raise CorruptStreamError("unable to repair Kraft inequality")
    for sym in sorted(order, key=lambda s: -frequencies[s]):
        while lengths[sym] > 1 and kraft + (1 << (max_length - lengths[sym])) <= budget:
            kraft += 1 << (max_length - lengths[sym])
            lengths[sym] -= 1
    return lengths


class HuffmanCode:
    """A canonical Huffman code over the alphabet ``0 .. len(lengths)-1``."""

    def __init__(self, lengths: Sequence[int]) -> None:
        self.lengths = list(lengths)
        self.codes: List[int] = _canonical_codes(self.lengths, _length_counts(self.lengths))
        self._decode_symbols: Optional[np.ndarray] = None
        self._decode_lengths: Optional[np.ndarray] = None

    @classmethod
    def from_frequencies(cls, frequencies: Sequence[int]) -> "HuffmanCode":
        """Build the code for observed symbol ``frequencies``."""
        return cls(huffman_code_lengths(frequencies))

    # -- table serialization -------------------------------------------------

    def write_table(self, writer: BitWriter) -> None:
        """Serialize code lengths (4 bits each; canonical codes are implied)."""
        # One hex digit per length (the low nibble of each byte's two) is
        # the table, as one integer.
        digits = bytes(self.lengths).hex()[1::2]
        writer.write_bits(int(digits, 16), 4 * len(self.lengths))

    @classmethod
    def read_table(cls, reader: BitReader, alphabet_size: int) -> "HuffmanCode":
        """Inverse of :meth:`write_table`."""
        if reader.remaining < 4 * alphabet_size:
            raise CorruptStreamError("truncated code-length table")
        digits = format(reader.read_bits(4 * alphabet_size), f"0{alphabet_size}x")
        return cls([int(digit, 16) for digit in digits])

    # -- encoding -------------------------------------------------------------

    @cached_property
    def _fields(self) -> Tuple[np.ndarray, np.ndarray]:
        """Codeword and length of every symbol, as arrays to gather from."""
        return np.array(self.codes, dtype=np.int64), np.array(self.lengths, dtype=np.int64)

    def encode(self, symbols: np.ndarray) -> bytes:
        """The codewords of ``symbols`` (an integer array) back to back,
        zero-padded to a byte.

        Codewords and lengths are gathered by symbol and written by
        :func:`~.bitio.pack_fields` a span at a time, each span led by the
        bits of the byte the previous one left unfinished — the
        whole-block encoder of the Huffman and Burrows-Wheeler codecs, and
        the layout the Lempel-Ziv encoder interleaves with raw extra bits.
        A symbol the code has no codeword for (length 0) writes nothing.
        The string-concatenation emitter it replaced is the differential
        oracle :func:`repro.verify.references.reference_huffman_encode`.
        """
        codewords, lengths = self._fields
        out = bytearray()
        # The unfinished last byte of the spans so far: its value and bits.
        carry = carry_bits = 0
        for start in range(0, len(symbols), _ENCODE_SPAN):
            span = symbols[start : start + _ENCODE_SPAN]
            # The carried bits lead the span as one more field.
            values = np.empty(len(span) + 1, dtype=np.int64)
            widths = np.empty(len(span) + 1, dtype=np.int64)
            values[0], widths[0] = carry, carry_bits
            codewords.take(span, out=values[1:])
            lengths.take(span, out=widths[1:])
            packed = pack_fields(values, widths)
            whole, carry_bits = divmod(int(widths.sum()), 8)
            out += packed[:whole]
            carry = packed[whole] >> (8 - carry_bits) if carry_bits else 0
        if carry_bits:
            out.append(carry << (8 - carry_bits))
        return bytes(out)

    # -- decoding -------------------------------------------------------------

    def _ensure_decode_table(self) -> None:
        if self._decode_symbols is not None:
            return
        self._decode_symbols, self._decode_lengths = _decode_tables(
            tuple(self.lengths)
        )

    def decode_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The shared, read-only ``(symbols, lengths)`` tables of this code,
        indexed by a :data:`MAX_CODE_LENGTH`-bit window (length 0: no codeword)."""
        self._ensure_decode_table()
        assert self._decode_symbols is not None and self._decode_lengths is not None
        return self._decode_symbols, self._decode_lengths

    def position_map(self, data: bytes) -> PositionMap:
        """The codeword successor map of ``data``: the successor of bit
        ``p`` is the end of the codeword that starts there.  Good for a
        decode from any bit — see :meth:`walk`."""
        lengths_of = self.decode_tables()[1]

        def codewords(windows: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray, tuple]:
            lengths = lengths_of.take(windows[:count])
            return lengths, lengths == 0, ()

        return PositionMap(data, codewords)

    def walk(
        self,
        pmap: PositionMap,
        start_bit: int,
        limit: int,
        stop_bit: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode along ``pmap`` (from :meth:`position_map`) from ``start_bit``.

        Returns ``(boundaries, symbols)``: ``symbols[i]`` is the codeword
        at bit ``boundaries[i]`` and ``boundaries[-1]`` is where decoding
        stopped — after ``limit`` symbols, at the first boundary at or past
        ``stop_bit``, or where the stream stops decoding (an invalid
        window, or a codeword cut off by the end), whichever comes first.
        ``start_bit`` need not be a true codeword boundary (§2.4).
        """
        boundaries = pmap.chain(start_bit, limit, stop_bit)
        if boundaries[-1] > pmap.end_bit:
            boundaries = boundaries[:-1]
        symbols = self.decode_tables()[0].take(pmap.windows_at(boundaries[:-1]))
        return boundaries, symbols

    def decode_array(
        self, data: bytes, start_bit: int, count: int
    ) -> Tuple[np.ndarray, int]:
        """Decode ``count`` symbols starting at ``start_bit``.

        Returns ``(symbols, end_bit)``, the symbols as a ``uint16`` array.
        ``start_bit`` may point anywhere in the stream — the Huffman
        self-synchronization property (§2.4) means decoding from a wrong
        offset produces a few garbage symbols and then locks on; callers
        exploiting that simply pass a guessed offset.  Raises
        :class:`CorruptStreamError` on a window no codeword matches, a
        codeword ending past the last bit, or a ``count`` the remaining
        bits cannot hold.
        """
        if count == 0:
            return np.empty(0, dtype=np.uint16), start_bit
        # Every codeword is at least one bit: a count beyond the remaining
        # bits cannot be honest, and nothing is sized before this check.
        if count > len(data) * 8 - start_bit:
            raise CorruptStreamError("symbol count exceeds the bits in the stream")
        boundaries, symbols = self.walk(self.position_map(data), start_bit, count)
        if len(symbols) < count:
            raise CorruptStreamError("invalid codeword or truncated stream")
        return symbols, int(boundaries[-1])


class HuffmanCodec(Codec):
    """Standalone byte-level Huffman codec (paper §2.1).

    Wire format::

        varint  original_length
        256 x 4-bit code lengths          (only if original_length > 0)
        padded  Huffman bitstream
    """

    name = "huffman"
    family = "entropy"

    def compress(self, data: bytes) -> bytes:
        header = bytearray()
        write_varint(header, len(data))
        if not data:
            return bytes(header)
        symbols = np.frombuffer(data, dtype=np.uint8)
        code = HuffmanCode.from_frequencies(np.bincount(symbols, minlength=256).tolist())
        writer = BitWriter()
        code.write_table(writer)  # 256 * 4 bits = exactly 128 bytes
        return bytes(header) + writer.getvalue() + code.encode(symbols)

    def decompress(self, payload: bytes) -> bytes:
        view = memoryview(payload)
        original_length, offset = read_varint(view, 0)
        if original_length == 0:
            if offset != len(payload):
                raise CorruptStreamError("trailing bytes after empty stream")
            return b""
        reader = BitReader(payload, start_bit=offset * 8)
        code = HuffmanCode.read_table(reader, 256)
        symbols, _ = code.decode_array(payload, reader.position, original_length)
        return symbols.astype(np.uint8).tobytes()


"""Scalar reference implementations for differential testing.

The hot loops in :mod:`repro.compression` (Huffman code construction,
the whole-block Huffman encoder, Huffman and Lempel-Ziv decoding, the
Lempel-Ziv match finder and field emitter, move-to-front, the 254-capped
RLE, the Burrows-Wheeler transform, and the structured codecs'
zigzag/delta/bitpack column primitives) are array or index-queue
rewrites of classic per-symbol algorithms; the template codec's value
pattern is a shortened regular expression; and the selector prices its
grid from a :class:`~repro.core.bicriteria.PriceSheet` built once, not by
re-deriving every spec's operating point per block.
This module keeps the classic formulations — short, obviously-correct
Python loops straight out of the textbook — as the differential oracle:
the optimized path must be **byte-identical** (for the pricing model:
bit-identical in every float) to these on every input, forever.

They are deliberately slow (the BWT reference sorts suffixes with
Python's ``sorted``, O(n² log n)); use them on test-sized inputs only.
"""

from __future__ import annotations

import heapq
import math
import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..compression.base import CorruptStreamError
from ..compression.bitio import BitWriter
from ..compression.huffman import MAX_CODE_LENGTH, HuffmanCode
from ..compression.lz77 import (
    _DIST_ALPHABET,
    _DISTANCE_CODES,
    _END_OF_BLOCK,
    _LENGTH_CODES,
    _LITLEN_ALPHABET,
    MAX_MATCH,
    MIN_MATCH,
    WINDOW_SIZE,
    Token,
)
from ..compression.rle import ESCAPE, MAX_RUN, MIN_RUN
from ..compression.varint import read_varint, write_varint
from ..core.bicriteria import (
    _MAX_RATIO,
    _MIN_RATIO,
    DICTIONARY_METHODS,
    CandidateSpec,
    FrontierPoint,
    _param_factors,
    sample_ratio,
)

__all__ = [
    "StreamDecoder",
    "reference_huffman_code_lengths",
    "reference_canonical_codes",
    "reference_decode_tables",
    "reference_huffman_encode",
    "reference_huffman_decode",
    "reference_lz77_decode",
    "reference_lz77_tokenize",
    "reference_lz77_encode",
    "reference_mtf_encode",
    "reference_mtf_decode",
    "reference_rle_encode",
    "reference_rle_decode",
    "reference_bwt_transform",
    "reference_bwt_inverse",
    "reference_bitpack",
    "reference_bitunpack",
    "reference_delta_zigzag",
    "reference_undelta_zigzag",
    "reference_template_value_spans",
    "reference_evaluate_candidates",
]

_U64_MASK = (1 << 64) - 1


def reference_huffman_code_lengths(
    frequencies: Sequence[int], max_length: int = MAX_CODE_LENGTH
) -> List[int]:
    """Length-limited Huffman code lengths by the classic heap merge (§2.1).

    Every heap entry carries the symbols of its subtree, and a merge
    deepens each of them by one.  Leaves tiebreak by symbol and internal
    nodes by birth, after every leaf; lengths past ``max_length`` are
    clamped and the Kraft inequality repaired.
    :func:`repro.compression.huffman.huffman_code_lengths` must return the
    same lengths, not merely equally good ones.
    """
    present = [(f, s) for s, f in enumerate(frequencies) if f > 0]
    lengths = [0] * len(frequencies)
    if not present:
        return lengths
    if len(present) == 1:
        lengths[present[0][1]] = 1
        return lengths

    # Heap entries: (frequency, tiebreak, [symbols in this subtree]).
    heap: List[Tuple[int, int, List[int]]] = [
        (freq, sym, [sym]) for freq, sym in present
    ]
    heapq.heapify(heap)
    tiebreak = len(frequencies)
    while len(heap) > 1:
        f1, _, s1 = heapq.heappop(heap)
        f2, _, s2 = heapq.heappop(heap)
        for sym in s1:
            lengths[sym] += 1
        for sym in s2:
            lengths[sym] += 1
        heapq.heappush(heap, (f1 + f2, tiebreak, s1 + s2))
        tiebreak += 1

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


def reference_canonical_codes(lengths: Sequence[int]) -> List[int]:
    """Canonical codeword values (0 for absent symbols), one symbol at a
    time in ``(length, symbol)`` order: each codeword is its predecessor
    plus one, shifted up to its own length."""
    codes = [0] * len(lengths)
    code = 0
    previous_length = 0
    for sym in sorted(
        (sym for sym, length in enumerate(lengths) if length > 0),
        key=lambda sym: (lengths[sym], sym),
    ):
        length = lengths[sym]
        code <<= length - previous_length
        codes[sym] = code
        code += 1
        previous_length = length
    return codes


def reference_decode_tables(lengths: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(symbols, lengths)`` decode tables, one codeword at a time:
    every :data:`MAX_CODE_LENGTH`-bit window a codeword prefixes is
    slice-assigned its symbol and length; length 0 marks the rest."""
    codes = reference_canonical_codes(lengths)
    size = 1 << MAX_CODE_LENGTH
    syms = np.zeros(size, dtype=np.uint16)
    lens = np.zeros(size, dtype=np.uint8)
    for sym, length in enumerate(lengths):
        if length == 0:
            continue
        prefix = codes[sym] << (MAX_CODE_LENGTH - length)
        span = 1 << (MAX_CODE_LENGTH - length)
        syms[prefix : prefix + span] = sym
        lens[prefix : prefix + span] = length
    return syms, lens


def reference_huffman_encode(code: HuffmanCode, symbols: Iterable[int]) -> bytes:
    """The codewords of ``symbols`` as one '0'/'1' string, packed by
    ``int(s, 2)``: :meth:`HuffmanCode.encode` by string concatenation.

    A symbol with no codeword (length 0) contributes the empty string; the
    stream is zero-padded to a byte boundary.
    """
    table = [
        format(codeword, f"0{length}b") if length else ""
        for codeword, length in zip(code.codes, code.lengths)
    ]
    bits = "".join(map(table.__getitem__, symbols))
    if not bits:
        return b""
    padding = (-len(bits)) % 8
    bits += "0" * padding
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def _scalar_tables(code: HuffmanCode) -> Tuple[List[int], List[int]]:
    """``code``'s flat decode tables as lists of Python ints.

    The loops below do unbounded bit-accumulator arithmetic, which fixed
    width numpy scalars would silently wrap.
    """
    symbols, lengths = code.decode_tables()
    return symbols.tolist(), lengths.tolist()


def reference_huffman_decode(
    code: HuffmanCode, data: bytes, start_bit: int, count: int
) -> Tuple[List[int], int]:
    """One table lookup per symbol over a bit accumulator.

    The contract of :meth:`HuffmanCode.decode_array`, the symbols as a
    list: ``(symbols, end_bit)``, or :class:`CorruptStreamError` on a
    window no codeword matches or a codeword the stream ends inside.
    """
    table_syms, table_lens = _scalar_tables(code)
    width = MAX_CODE_LENGTH
    total_bits = len(data) * 8
    out: List[int] = []
    append = out.append
    byte_index = start_bit >> 3
    acc = 0
    nbits = 0
    if start_bit & 7:
        acc = data[byte_index] & ((1 << (8 - (start_bit & 7))) - 1)
        nbits = 8 - (start_bit & 7)
        byte_index += 1
    consumed = start_bit
    data_len = len(data)
    while len(out) < count:
        while nbits < width and byte_index < data_len:
            acc = (acc << 8) | data[byte_index]
            byte_index += 1
            nbits += 8
        if nbits >= width:
            window = (acc >> (nbits - width)) & ((1 << width) - 1)
        else:
            window = (acc << (width - nbits)) & ((1 << width) - 1)
        length = table_lens[window]
        if length == 0 or length > nbits:
            raise CorruptStreamError("invalid codeword or truncated stream")
        append(table_syms[window])
        nbits -= length
        acc &= (1 << nbits) - 1
        consumed += length
        if consumed > total_bits:
            raise CorruptStreamError("bit stream exhausted mid-symbol")
    return out, consumed


class StreamDecoder:
    """Sequential bit-stream decoder mixing Huffman codes and raw bits.

    The Lempel-Ziv stream interleaves Huffman codewords (literal/length and
    distance symbols) with raw extra bits; this decoder keeps an
    accumulator over the payload and serves both kinds of reads in input
    order — the token-at-a-time reading that
    :func:`reference_lz77_decode` is built on.
    """

    def __init__(self, data: bytes, start_bit: int = 0) -> None:
        self._data = data
        self._byte_index = start_bit >> 3
        self._acc = 0
        self._nbits = 0
        self._tables: Dict[int, Tuple[List[int], List[int]]] = {}
        if start_bit & 7:
            self._acc = data[self._byte_index] & ((1 << (8 - (start_bit & 7))) - 1)
            self._nbits = 8 - (start_bit & 7)
            self._byte_index += 1

    @property
    def bit_position(self) -> int:
        """Absolute bit offset of the next unread bit."""
        return self._byte_index * 8 - self._nbits

    def _fill(self, want: int) -> None:
        data = self._data
        length = len(data)
        while self._nbits < want and self._byte_index < length:
            self._acc = (self._acc << 8) | data[self._byte_index]
            self._byte_index += 1
            self._nbits += 8

    def read_bits(self, width: int) -> int:
        """Read ``width`` raw bits (MSB first)."""
        if width == 0:
            return 0
        self._fill(width)
        if self._nbits < width:
            raise CorruptStreamError("bit stream exhausted")
        self._nbits -= width
        value = (self._acc >> self._nbits) & ((1 << width) - 1)
        self._acc &= (1 << self._nbits) - 1
        return value

    def read_code(self, code: HuffmanCode) -> int:
        """Read one Huffman codeword of ``code``."""
        tables = self._tables.get(id(code))
        if tables is None:
            tables = self._tables[id(code)] = _scalar_tables(code)
        table_syms, table_lens = tables
        self._fill(MAX_CODE_LENGTH)
        if self._nbits >= MAX_CODE_LENGTH:
            window = (self._acc >> (self._nbits - MAX_CODE_LENGTH)) & (
                (1 << MAX_CODE_LENGTH) - 1
            )
        else:
            window = (self._acc << (MAX_CODE_LENGTH - self._nbits)) & (
                (1 << MAX_CODE_LENGTH) - 1
            )
        length = table_lens[window]
        if length == 0 or length > self._nbits:
            raise CorruptStreamError("invalid codeword or truncated stream")
        self._nbits -= length
        self._acc &= (1 << self._nbits) - 1
        return table_syms[window]


def reference_lz77_tokenize(
    data: bytes,
    window: int = WINDOW_SIZE,
    max_chain: int = 8,
) -> List[Token]:
    """Greedy LZ77 tokenization over per-prefix hash chains (§2.3).

    The per-position formulation :func:`repro.compression.lz77.tokenize`
    must match token for token.  Returns a list whose elements are either a
    literal byte value (``int``) or a ``(length, distance)`` match tuple.
    Matching keeps, per 4-byte prefix, the ``max_chain`` most recent
    inserted positions and picks the longest match among them (preferring
    recent = short distances on ties, which is exactly what makes
    Huffman-coded pointers effective).  Every position of a match up to 16
    bytes is inserted, every third of a longer one.
    """
    if not isinstance(data, bytes):
        # Snapshot buffer-protocol inputs once: the 4-byte prefixes below
        # become dict keys, and bytes slices are both hashable and the
        # fastest thing to hash.
        data = bytes(data)
    n = len(data)
    tokens: List[Token] = []
    append = tokens.append
    table: Dict[bytes, List[int]] = {}
    pos = 0
    while pos < n:
        best_len = 0
        best_dist = 0
        if pos + MIN_MATCH <= n:
            quad = data[pos : pos + MIN_MATCH]
            chain = table.get(quad)
            if chain is not None:
                limit = pos - window
                max_len = min(MAX_MATCH, n - pos)
                for cand in reversed(chain):
                    if cand < limit:
                        break
                    length = _extend_match(data, cand, pos, max_len)
                    if length > best_len:
                        best_len = length
                        best_dist = pos - cand
                        if length >= 64:
                            break
                chain.append(pos)
                if len(chain) > max_chain:
                    del chain[0]
            else:
                table[quad] = [pos]
        if best_len >= MIN_MATCH:
            append((best_len, best_dist))
            end = pos + best_len
            step = 1 if best_len <= 16 else 3
            j = pos + 1
            while j < end and j + MIN_MATCH <= n:
                q = data[j : j + MIN_MATCH]
                chain = table.get(q)
                if chain is None:
                    table[q] = [j]
                else:
                    chain.append(j)
                    if len(chain) > max_chain:
                        del chain[0]
                j += step
            pos = end
        else:
            append(data[pos])
            pos += 1
    return tokens


def _extend_match(data: bytes, cand: int, pos: int, max_len: int) -> int:
    """Length of the match between ``cand`` and ``pos`` (chunked compare)."""
    length = MIN_MATCH
    while length < max_len:
        step = min(32, max_len - length)
        if (
            data[cand + length : cand + length + step]
            == data[pos + length : pos + length + step]
        ):
            length += step
        else:
            a = data[cand + length : cand + length + step]
            b = data[pos + length : pos + length + step]
            for i in range(step):
                if a[i] != b[i]:
                    return length + i
            return length + step  # pragma: no cover - unequal slices differ
    return length


def reference_lz77_encode(data: bytes, window: int = WINDOW_SIZE, max_chain: int = 8) -> bytes:
    """``Lz77Codec(window, max_chain).compress`` one field at a time.

    Tokens from :func:`reference_lz77_tokenize`, Huffman codes from their
    frequencies, and every field — table entries, codewords, extra bits,
    end-of-block — through its own :meth:`BitWriter.write_bits`.
    """
    header = bytearray()
    write_varint(header, len(data))
    if not data:
        return bytes(header)
    tokens = reference_lz77_tokenize(data, window, max_chain)
    litlen_freq = [0] * _LITLEN_ALPHABET
    dist_freq = [0] * _DIST_ALPHABET
    for token in tokens:
        if isinstance(token, int):
            litlen_freq[token] += 1
        else:
            litlen_freq[_length_code(token[0])[0]] += 1
            dist_freq[_distance_code(token[1])[0]] += 1
    litlen_freq[_END_OF_BLOCK] = 1
    litlen_code = HuffmanCode.from_frequencies(litlen_freq)
    dist_code = HuffmanCode.from_frequencies(dist_freq)
    writer = BitWriter()
    for code in (litlen_code, dist_code):
        for length in code.lengths:
            writer.write_bits(length, 4)
    for token in tokens:
        if isinstance(token, int):
            writer.write_bits(litlen_code.codes[token], litlen_code.lengths[token])
            continue
        for code, (symbol, extra, base), value in (
            (litlen_code, _length_code(token[0]), token[0]),
            (dist_code, _distance_code(token[1]), token[1]),
        ):
            writer.write_bits(code.codes[symbol], code.lengths[symbol])
            writer.write_bits(value - base, extra)
    writer.write_bits(litlen_code.codes[_END_OF_BLOCK], litlen_code.lengths[_END_OF_BLOCK])
    return bytes(header) + writer.getvalue()


def _length_code(length: int) -> Tuple[int, int, int]:
    """The ``(symbol, extra_bits, base)`` row that encodes ``length``."""
    if length == MAX_MATCH:
        return _LENGTH_CODES[-1]  # 258 has its own zero-extra code
    return next(row for row in reversed(_LENGTH_CODES[:-1]) if row[2] <= length)


def _distance_code(distance: int) -> Tuple[int, int, int]:
    """The ``(symbol, extra_bits, base)`` row that encodes ``distance``."""
    return next(row for row in reversed(_DISTANCE_CODES) if row[2] <= distance)


_LEN_DECODE = {symbol: (extra, base) for symbol, extra, base in _LENGTH_CODES}
_DIST_DECODE = {symbol: (extra, base) for symbol, extra, base in _DISTANCE_CODES}


def reference_lz77_decode(payload: bytes) -> bytes:
    """Token-at-a-time inverse of ``Lz77Codec.compress`` (§2.3).

    Reads one literal/length codeword, then — for a match — the length
    extra bits, the distance codeword and the distance extra bits, and
    copies the match one byte at a time.
    """
    original_length, offset = read_varint(memoryview(payload), 0)
    if original_length == 0:
        if offset != len(payload):
            raise CorruptStreamError("trailing bytes after empty stream")
        return b""
    decoder = StreamDecoder(payload, start_bit=offset * 8)
    litlen_code = HuffmanCode([decoder.read_bits(4) for _ in range(_LITLEN_ALPHABET)])
    dist_code = HuffmanCode([decoder.read_bits(4) for _ in range(_DIST_ALPHABET)])
    out = bytearray()
    while True:
        symbol = decoder.read_code(litlen_code)
        if symbol < 256:
            out.append(symbol)
        elif symbol == _END_OF_BLOCK:
            break
        else:
            extra, base = _LEN_DECODE[symbol]
            length = base + decoder.read_bits(extra)
            extra, base = _DIST_DECODE[decoder.read_code(dist_code)]
            distance = base + decoder.read_bits(extra)
            start = len(out) - distance
            if start < 0:
                raise CorruptStreamError("distance reaches before stream start")
            for i in range(length):
                out.append(out[start + i])
        if len(out) > original_length:
            raise CorruptStreamError("decoded size exceeds header length")
    if len(out) != original_length:
        raise CorruptStreamError("decoded size does not match header length")
    return bytes(out)


def reference_mtf_encode(data: bytes) -> bytes:
    """Classic per-byte move-to-front (paper §2.4 step 2, verbatim)."""
    table = list(range(256))
    out = bytearray()
    for byte in data:
        index = table.index(byte)
        out.append(index)
        table.pop(index)
        table.insert(0, byte)
    return bytes(out)


def reference_mtf_decode(ranks: bytes) -> bytes:
    """Invert :func:`reference_mtf_encode`, one rank at a time."""
    table = list(range(256))
    out = bytearray()
    for rank in ranks:
        byte = table.pop(rank)
        out.append(byte)
        table.insert(0, byte)
    return bytes(out)


def reference_rle_encode(data: bytes) -> bytes:
    """Classic greedy per-byte RLE into the 0..254 alphabet."""
    out = bytearray()
    i = 0
    while i < len(data):
        byte = data[i]
        if byte == 0:
            run = 1
            while i + run < len(data) and data[i + run] == 0 and run < MAX_RUN:
                run += 1
            if run >= MIN_RUN:
                out += bytes((ESCAPE, run))
            else:
                out += b"\x00" * run
            i += run
        elif byte >= ESCAPE:
            out += bytes((ESCAPE, byte - ESCAPE))
            i += 1
        else:
            out.append(byte)
            i += 1
    return bytes(out)


def reference_rle_decode(data: bytes) -> bytes:
    """Per-byte inverse of :func:`reference_rle_encode`."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        if byte == 255:
            raise CorruptStreamError("reserved byte 255 inside RLE payload")
        if byte == ESCAPE:
            if i + 1 >= n:
                raise CorruptStreamError("truncated escape sequence")
            argument = data[i + 1]
            if argument == 0:
                out.append(254)
            elif argument == 1:
                out.append(255)
            elif argument == 255:
                raise CorruptStreamError("reserved byte 255 inside RLE payload")
            else:
                out += b"\x00" * argument
            i += 2
        else:
            out.append(byte)
            i += 1
    return bytes(out)


def reference_bwt_transform(data: bytes) -> Tuple[bytes, int]:
    """Suffix sort by actual suffix comparison (sentinel semantics intact).

    Mirrors :func:`repro.compression.bwt.bwt_transform` exactly: symbols
    are shifted up by one, a unique smallest sentinel (0) is appended, the
    sentinel's own row is dropped from the last column, and its position
    is returned as the primary index.
    """
    if not data:
        return b"", 0
    terminated = [b + 1 for b in data] + [0]
    m = len(terminated)
    order = sorted(range(m), key=lambda i: terminated[i:])
    primary = order.index(0)
    last_column = bytearray()
    for row, start in enumerate(order):
        if row == primary:
            continue
        last_column.append(terminated[(start - 1) % m] - 1)
    return bytes(last_column), primary


def reference_bwt_inverse(last_column: bytes, primary: int) -> bytes:
    """Classic one-step-per-byte LF-mapping backward walk."""
    n = len(last_column)
    if n == 0:
        if primary != 0:
            raise CorruptStreamError("primary index out of range for empty block")
        return b""
    if not 0 <= primary <= n:
        raise CorruptStreamError("primary index out of range")
    m = n + 1
    column = [b + 1 for b in last_column[:primary]]
    column.append(0)
    column += [b + 1 for b in last_column[primary:]]
    order = sorted(range(m), key=lambda i: (column[i], i))
    lf = [0] * m
    for slot, position in enumerate(order):
        lf[position] = slot
    out = []
    row = primary
    for _ in range(m):
        out.append(column[row])
        row = lf[row]
    out.reverse()
    if out[-1] != 0:
        raise CorruptStreamError("sentinel did not surface at end of inverse BWT")
    body = out[:-1]
    if any(value == 0 for value in body):
        raise CorruptStreamError("sentinel surfaced inside inverse BWT output")
    return bytes(value - 1 for value in body)


def _reference_zigzag(delta: int) -> int:
    """Zigzag-map one signed 64-bit delta (small magnitudes stay small)."""
    return (delta << 1) if delta >= 0 else ((-delta << 1) - 1)


def _reference_unzigzag(value: int) -> int:
    """Invert :func:`_reference_zigzag`."""
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


def reference_bitpack(values: Sequence[int], width: int) -> bytes:
    """Pack uint64 values into ``width`` bits each, MSB first, one bit
    at a time; the final partial byte is zero-padded on the right."""
    if not 0 <= width <= 64:
        raise ValueError(f"bit width out of range: {width}")
    if width == 0 or not values:
        return b""
    bits = []
    for value in values:
        for position in range(width - 1, -1, -1):
            bits.append((value >> position) & 1)
    while len(bits) % 8:
        bits.append(0)
    out = bytearray()
    for start in range(0, len(bits), 8):
        byte = 0
        for bit in bits[start : start + 8]:
            byte = (byte << 1) | bit
        out.append(byte)
    return bytes(out)


def reference_bitunpack(packed: bytes, count: int, width: int) -> List[int]:
    """Invert :func:`reference_bitpack`; returns ``count`` uint64 values."""
    if not 0 <= width <= 64:
        raise ValueError(f"bit width out of range: {width}")
    if width == 0 or count == 0:
        return [0] * count
    out = []
    for index in range(count):
        value = 0
        for offset in range(width):
            position = index * width + offset
            byte = packed[position >> 3]
            value = (value << 1) | ((byte >> (7 - (position & 7))) & 1)
        out.append(value)
    return out


def reference_delta_zigzag(column: Sequence[int]) -> List[int]:
    """Wrapping first differences of a uint64 column, zigzag-mapped.

    The wrapped difference is reinterpreted as a two's-complement signed
    64-bit value before zigzagging, matching the vectorized path's
    ``view("<i8")``.
    """
    out = []
    for previous, current in zip(column, column[1:]):
        delta = (current - previous) & _U64_MASK
        if delta >= 1 << 63:
            delta -= 1 << 64
        out.append(_reference_zigzag(delta))
    return out


def reference_undelta_zigzag(first: int, encoded: Sequence[int]) -> List[int]:
    """Invert :func:`reference_delta_zigzag` given the first raw value."""
    out = [first & _U64_MASK]
    for value in encoded:
        out.append((out[-1] + _reference_unzigzag(value)) & _U64_MASK)
    return out


def reference_template_value_spans(data: bytes) -> List[Tuple[int, int]]:
    """Where the template tokenizer finds slot values in ``data``: its value
    pattern as first written, whose hex runs must hold a letter."""
    pattern = rb"(?:\d{1,3}\.){3}\d{1,3}|(?=[0-9a-f]*[a-f])[0-9a-f]{8,}|\d+"
    return [match.span() for match in re.finditer(pattern, data)]


def _reference_base_estimate(
    method: str,
    calibration: Optional[object],
    cpu: Optional[object],
    speeds: Mapping[str, float],
) -> Optional[Tuple[float, float, float]]:
    """(compress_throughput, decompress_throughput, ratio) or None: the
    calibrated point scaled to ``cpu``, a measured speed overriding the
    compression speed via ``throughput = reducing_speed / (1 - ratio)``."""
    compress = decompress = ratio = None
    if calibration is not None:
        try:
            cost = calibration.cost(method)
        except KeyError:
            cost = None
        if cost is not None:
            compress = cost.compress_throughput
            decompress = cost.decompress_throughput
            ratio = cost.typical_ratio
            if cpu is not None:
                compress = cpu.scale_speed(compress)
                decompress = cpu.scale_speed(decompress)
    speed = speeds.get(method, math.inf)
    if ratio is not None and ratio < 1.0 and speed > 0 and math.isfinite(speed):
        compress = speed / max(1.0 - ratio, 1e-6)
        if decompress is None:
            decompress = compress
    if compress is None or decompress is None or ratio is None:
        return None
    return compress, decompress, ratio


def reference_evaluate_candidates(
    candidates: Iterable[CandidateSpec],
    sending_time: float,
    calibration: Optional[object],
    cpu: Optional[object],
    speeds: Optional[Mapping[str, float]],
    sample: Optional[object],
    base_block_size: Optional[int],
) -> Dict[CandidateSpec, FrontierPoint]:
    """:func:`repro.core.bicriteria.evaluate_candidates` as one loop over the
    specs that re-derives every spec's calibrated operating point per call."""
    if sending_time < 0:
        raise ValueError("sending_time must be non-negative")
    speeds = speeds if speeds is not None else {}
    probe = sample_ratio(sample)
    if not isinstance(probe, (int, float)) or math.isnan(probe) or probe < 0:
        probe = None
    lz_base = _reference_base_estimate("lempel-ziv", calibration, cpu, speeds)
    points: Dict[CandidateSpec, FrontierPoint] = {}
    for spec in candidates:
        reference = base_block_size if base_block_size else spec.block_size
        raw_transfer = sending_time * (spec.block_size / reference)
        if spec.method == "none":
            points[spec] = FrontierPoint(
                method="none",
                params=(),
                block_size=spec.block_size,
                ratio=1.0,
                compress_seconds=0.0,
                transfer_seconds=raw_transfer,
                decompress_seconds=0.0,
            )
            continue
        base = _reference_base_estimate(spec.method, calibration, cpu, speeds)
        if base is None:
            continue
        compress_throughput, decompress_throughput, ratio = base
        if probe is not None and spec.method in DICTIONARY_METHODS:
            scale = ratio / lz_base[2] if lz_base and lz_base[2] > 0 else 1.0
            ratio = probe * scale
        throughput_factor, ratio_factor = _param_factors(spec.method, spec.params)
        ratio = min(max(ratio * ratio_factor, _MIN_RATIO), _MAX_RATIO)
        compress_throughput *= throughput_factor
        points[spec] = FrontierPoint(
            method=spec.method,
            params=spec.params,
            block_size=spec.block_size,
            ratio=ratio,
            compress_seconds=spec.block_size / compress_throughput,
            transfer_seconds=raw_transfer * ratio,
            decompress_seconds=spec.block_size / decompress_throughput,
        )
    return points

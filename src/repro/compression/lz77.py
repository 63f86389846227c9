"""Lempel-Ziv coding with Huffman-compressed pointers (paper §2.3).

The paper uses an LZ77 variant in which back-pointers ``(distance, length)``
are themselves entropy coded: "These numbers are represented by Huffman
codes, which give shorter representation for small numbers" (ref [27]).
This module implements that design with the well-understood DEFLATE symbol
layout:

* a literal/length alphabet (0-255 literals, 256 end-of-block, 257-285
  length codes with extra bits), and
* a distance alphabet (30 codes with extra bits, distances 1-32768),

with both Huffman tables built from the block's actual symbol frequencies
and shipped in the header as 4-bit code lengths.

Matching uses hash chains over 4-byte prefixes with a bounded chain depth —
the classic speed/ratio compromise; the paper rates Lempel-Ziv
"Satisfactory" for compression time and "Excellent" for decompression time
(Figure 1), which this implementation preserves.

Decoding reuses the Huffman decode kernel (:class:`~.huffman.PositionMap`)
with a *token-level* successor: from any bit, one step spans the
literal/length codeword and — for a match — its extra bits, the distance
codeword and the distance extra bits, so following the map from the first
token visits exactly the token boundaries and ends in the end-of-block
sink.  Lengths and distances are then extracted at those boundaries only,
the literals land in one scatter store, and the Python loop runs over
matches alone.  The token-at-a-time formulation is kept as
:func:`repro.verify.references.reference_lz77_decode`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple, Union

import numpy as np

from .base import Codec, CorruptStreamError
from .bitio import BitReader
from .huffman import MAX_CODE_LENGTH, HuffmanCode, PositionMap, _decode_tables
from .varint import read_varint, write_varint

__all__ = ["Lz77Codec", "tokenize", "MIN_MATCH", "MAX_MATCH", "WINDOW_SIZE"]

MIN_MATCH = 4
MAX_MATCH = 258
WINDOW_SIZE = 32768

_END_OF_BLOCK = 256
_LITLEN_ALPHABET = 286
_DIST_ALPHABET = 30

# DEFLATE length codes: (symbol, extra_bits, base_length).
_LENGTH_CODES: List[Tuple[int, int, int]] = [
    (257, 0, 3), (258, 0, 4), (259, 0, 5), (260, 0, 6),
    (261, 0, 7), (262, 0, 8), (263, 0, 9), (264, 0, 10),
    (265, 1, 11), (266, 1, 13), (267, 1, 15), (268, 1, 17),
    (269, 2, 19), (270, 2, 23), (271, 2, 27), (272, 2, 31),
    (273, 3, 35), (274, 3, 43), (275, 3, 51), (276, 3, 59),
    (277, 4, 67), (278, 4, 83), (279, 4, 99), (280, 4, 115),
    (281, 5, 131), (282, 5, 163), (283, 5, 195), (284, 5, 227),
    (285, 0, 258),
]

# DEFLATE distance codes: (symbol, extra_bits, base_distance).
_DISTANCE_CODES: List[Tuple[int, int, int]] = [
    (0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4),
    (4, 1, 5), (5, 1, 7), (6, 2, 9), (7, 2, 13),
    (8, 3, 17), (9, 3, 25), (10, 4, 33), (11, 4, 49),
    (12, 5, 65), (13, 5, 97), (14, 6, 129), (15, 6, 193),
    (16, 7, 257), (17, 7, 385), (18, 8, 513), (19, 8, 769),
    (20, 9, 1025), (21, 9, 1537), (22, 10, 2049), (23, 10, 3073),
    (24, 11, 4097), (25, 11, 6145), (26, 12, 8193), (27, 12, 12289),
    (28, 13, 16385), (29, 13, 24577),
]


def _build_length_lookup() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    symbols = np.zeros(MAX_MATCH + 1, dtype=np.int32)
    extra_bits = np.zeros(MAX_MATCH + 1, dtype=np.int32)
    bases = np.zeros(MAX_MATCH + 1, dtype=np.int32)
    for symbol, extra, base in _LENGTH_CODES:
        top = MAX_MATCH if symbol == 285 else base + (1 << extra) - 1
        for length in range(base, min(top, MAX_MATCH) + 1):
            symbols[length] = symbol
            extra_bits[length] = extra
            bases[length] = base
    # length 258 has its own dedicated zero-extra code
    symbols[MAX_MATCH] = 285
    extra_bits[MAX_MATCH] = 0
    bases[MAX_MATCH] = 258
    return symbols, extra_bits, bases


def _build_distance_lookup() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    symbols = np.zeros(WINDOW_SIZE + 1, dtype=np.int32)
    extra_bits = np.zeros(WINDOW_SIZE + 1, dtype=np.int32)
    bases = np.zeros(WINDOW_SIZE + 1, dtype=np.int32)
    for symbol, extra, base in _DISTANCE_CODES:
        top = min(WINDOW_SIZE, base + (1 << extra) - 1)
        symbols[base : top + 1] = symbol
        extra_bits[base : top + 1] = extra
        bases[base : top + 1] = base
    return symbols, extra_bits, bases


_LEN_SYMBOL, _LEN_EXTRA, _LEN_BASE = _build_length_lookup()
_DIST_SYMBOL, _DIST_EXTRA, _DIST_BASE = _build_distance_lookup()



def _build_symbol_lookup(
    codes: List[Tuple[int, int, int]], alphabet: int
) -> Tuple[np.ndarray, np.ndarray]:
    extra_bits = np.zeros(alphabet, dtype=np.uint8)
    bases = np.zeros(alphabet, dtype=np.int32)
    for symbol, extra, base in codes:
        extra_bits[symbol] = extra
        bases[symbol] = base
    return extra_bits, bases


# Decoder-side tables indexed by symbol (literals and EOB carry no extra bits).
_LEN_EXTRA_OF, _LEN_BASE_OF = _build_symbol_lookup(_LENGTH_CODES, _LITLEN_ALPHABET)
_DIST_EXTRA_OF, _DIST_BASE_OF = _build_symbol_lookup(_DISTANCE_CODES, _DIST_ALPHABET)

# Per-window token tables pack a token part's bit advance with what follows it.
_ADVANCE_BITS = 0x1F  # litlen codeword + length extra <= 20; distance part <= 28
_NO_CODE = 0x20  # no codeword matches the window
_IS_EOB = 0x40
_IS_MATCH = 0x80  # a distance part follows


@lru_cache(maxsize=16)
def _token_tables(
    litlen_lengths: Tuple[int, ...], dist_lengths: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-window advance of the two parts of a token, with flags folded in.

    ``head[w]`` describes the literal/length part when the 15-bit window
    ``w`` starts a token: codeword length plus length-extra bits, or-ed
    with :data:`_IS_MATCH` / :data:`_IS_EOB`; ``tail[w]`` the distance part
    when ``w`` starts one: codeword length plus distance-extra bits.  A
    window no codeword matches is :data:`_NO_CODE` in either.
    """
    symbols, lengths = _decode_tables(litlen_lengths)
    head = lengths + _LEN_EXTRA_OF.take(symbols)
    head[symbols > _END_OF_BLOCK] |= _IS_MATCH
    head[symbols == _END_OF_BLOCK] |= _IS_EOB
    head[lengths == 0] = _NO_CODE
    symbols, lengths = _decode_tables(dist_lengths)
    tail = lengths + _DIST_EXTRA_OF.take(symbols)
    tail[lengths == 0] = _NO_CODE
    head.setflags(write=False)
    tail.setflags(write=False)
    return head, tail


Token = Union[int, Tuple[int, int]]


def tokenize(
    data: bytes,
    window: int = WINDOW_SIZE,
    max_chain: int = 8,
) -> List[Token]:
    """Greedy LZ77 tokenization.

    Returns a list whose elements are either a literal byte value (``int``)
    or a ``(length, distance)`` match tuple.  Matching keeps, per 4-byte
    prefix, the ``max_chain`` most recent positions and picks the longest
    match among them (preferring recent = short distances on ties, which is
    exactly what makes Huffman-coded pointers effective).
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


class Lz77Codec(Codec):
    """LZ77 with Huffman-coded literal/length and distance symbols.

    Wire format::

        varint  original_length
        286 x 4-bit litlen code lengths   (only if original_length > 0)
        30  x 4-bit distance code lengths
        padded bitstream of codewords and extra bits, ending in EOB
    """

    name = "lempel-ziv"
    family = "dictionary"

    def __init__(self, window: int = WINDOW_SIZE, max_chain: int = 8) -> None:
        if not 256 <= window <= WINDOW_SIZE:
            raise ValueError(f"window must be in [256, {WINDOW_SIZE}]")
        self.window = window
        self.max_chain = max_chain

    def compress(self, data: bytes) -> bytes:
        header = bytearray()
        write_varint(header, len(data))
        if not data:
            return bytes(header)
        tokens = tokenize(data, window=self.window, max_chain=self.max_chain)

        litlen_freq = [0] * _LITLEN_ALPHABET
        dist_freq = [0] * _DIST_ALPHABET
        for token in tokens:
            if isinstance(token, int):
                litlen_freq[token] += 1
            else:
                length, dist = token
                litlen_freq[_LEN_SYMBOL[length]] += 1
                dist_freq[_DIST_SYMBOL[dist]] += 1
        litlen_freq[_END_OF_BLOCK] = 1
        litlen_code = HuffmanCode.from_frequencies(litlen_freq)
        dist_code = HuffmanCode.from_frequencies(dist_freq)

        pieces: List[str] = [
            "".join(format(l, "04b") for l in litlen_code.lengths),
            "".join(format(l, "04b") for l in dist_code.lengths),
        ]
        lit_strings = litlen_code.code_strings
        dist_strings = dist_code.code_strings
        for token in tokens:
            if isinstance(token, int):
                pieces.append(lit_strings[token])
            else:
                length, dist = token
                pieces.append(lit_strings[_LEN_SYMBOL[length]])
                extra = int(_LEN_EXTRA[length])
                if extra:
                    pieces.append(format(length - int(_LEN_BASE[length]), f"0{extra}b"))
                pieces.append(dist_strings[_DIST_SYMBOL[dist]])
                extra = int(_DIST_EXTRA[dist])
                if extra:
                    pieces.append(format(dist - int(_DIST_BASE[dist]), f"0{extra}b"))
        pieces.append(lit_strings[_END_OF_BLOCK])
        bits = "".join(pieces)
        padding = (-len(bits)) % 8
        bits += "0" * padding
        return bytes(header) + int(bits, 2).to_bytes(len(bits) // 8, "big")

    def decompress(self, payload: bytes) -> bytes:
        view = memoryview(payload)
        original_length, offset = read_varint(view, 0)
        if original_length == 0:
            if offset != len(payload):
                raise CorruptStreamError("trailing bytes after empty stream")
            return b""
        reader = BitReader(payload, start_bit=offset * 8)
        litlen_code = HuffmanCode.read_table(reader, _LITLEN_ALPHABET)
        dist_code = HuffmanCode.read_table(reader, _DIST_ALPHABET)
        # A token is at least one bit and yields at most MAX_MATCH bytes: a
        # longer declared length cannot be honest; reject it before sizing
        # anything from it.
        if original_length > MAX_MATCH * reader.remaining:
            raise CorruptStreamError("declared length exceeds what the stream can hold")
        pmap = _token_map(payload, litlen_code, dist_code)
        tokens = pmap.chain(reader.position, pmap.end_bit)
        if tokens[-1] != pmap.exit_bit:
            raise CorruptStreamError("invalid token or stream ends before end-of-block")
        tokens = tokens[:-2]  # drop the sink and the end-of-block token itself

        symbols = litlen_code.decode_tables()[0].take(pmap.windows_at(tokens))
        is_match = symbols > _END_OF_BLOCK
        matches = np.flatnonzero(is_match)
        lengths, distances = _match_fields(pmap, tokens[matches], litlen_code, dist_code)

        sizes = np.ones(len(tokens), dtype=np.int64)
        sizes[matches] = lengths
        ends = np.cumsum(sizes)
        if (int(ends[-1]) if len(ends) else 0) != original_length:
            raise CorruptStreamError("decoded size does not match header length")
        starts = ends - sizes
        match_starts = starts[matches]
        if (distances > match_starts).any():
            raise CorruptStreamError("distance reaches before stream start")

        out = bytearray(original_length)
        literals = ~is_match
        np.frombuffer(out, dtype=np.uint8)[starts[literals]] = symbols[literals]
        for start, length, distance in zip(
            match_starts.tolist(), lengths.tolist(), distances.tolist()
        ):
            source = start - distance
            if distance >= length:
                out[start : start + length] = out[source : source + length]
            else:
                # Overlapping copy: the last `distance` bytes repeat.
                pattern = out[source:start]
                out[start : start + length] = (pattern * (length // distance + 1))[:length]
        return bytes(out)


def _match_fields(
    pmap: PositionMap, at: np.ndarray, litlen_code: HuffmanCode, dist_code: HuffmanCode
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lengths, distances)`` of the match tokens starting at bits ``at``.

    A match is a length codeword, its extra bits, a distance codeword and
    its extra bits; an e-bit field is the top e bits of the window at its
    first bit.
    """
    fields = []
    for code, extra_of, base_of in (
        (litlen_code, _LEN_EXTRA_OF, _LEN_BASE_OF),
        (dist_code, _DIST_EXTRA_OF, _DIST_BASE_OF),
    ):
        symbols, code_lengths = code.decode_tables()
        windows = pmap.windows_at(at)
        symbol = symbols.take(windows)
        extra = extra_of.take(symbol)
        at = at + code_lengths.take(windows)
        fields.append(base_of.take(symbol) + (pmap.windows_at(at) >> (MAX_CODE_LENGTH - extra)))
        at += extra
    return fields[0], fields[1]


def _token_map(payload: bytes, litlen_code: HuffmanCode, dist_code: HuffmanCode) -> PositionMap:
    """Token-level successor map of ``payload``.

    One step spans a whole token.  A window without a codeword in either
    part is invalid, and an end-of-block codeword is an exit.
    """
    head_of, tail_of = _token_tables(tuple(litlen_code.lengths), tuple(dist_code.lengths))

    def tokens(windows: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        head = head_of.take(windows[:count])
        advance = head & _ADVANCE_BITS
        # The distance part is looked up where the length part ends.
        after_head = np.arange(count, dtype=np.int32)
        after_head += advance
        tail = tail_of.take(windows.take(after_head))
        tail[head < _IS_MATCH] = 0
        advance += tail & _ADVANCE_BITS
        return advance, ((head | tail) & _NO_CODE) != 0, np.flatnonzero(head & _IS_EOB)

    return PositionMap(payload, tokens)

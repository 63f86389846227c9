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

Matching is greedy over chains of 4-byte prefixes with a bounded chain
depth — the classic speed/ratio compromise; the paper rates Lempel-Ziv
"Satisfactory" for compression time and "Excellent" for decompression time
(Figure 1), which this implementation preserves.  The encoder is array
code around one short Python walk:

* :func:`_words` reads the block once as big-endian ``uint64`` words at a
  one-byte stride (zero-padded by eight bytes): ``words[p]`` is the eight
  bytes from ``p`` as one Python-sized integer.
* :func:`_prefix_links` takes every 4-byte prefix as the top half of its
  word, and one sort gives each position its most recent predecessor with
  the same prefix (``prev`` — the chain, with nothing to insert and no hash
  collisions) and the next position that has a predecessor inside the
  window, so runs of literals are stepped over without touching Python.
* :func:`_parse` walks token starts only.  A candidate is looked at only
  if it agrees with the position at offset ``best_len`` (it cannot be
  longer otherwise — the "fifth byte" test for the second candidate).  Its
  length is then the leading zero bytes of the XOR of the two words,
  capped at the end of the buffer; only a candidate that agrees on all
  eight bytes pays for a big-integer XOR of the two runs.  What decides
  wire bytes is kept exactly: most recent candidate first, at most
  ``max_chain`` candidates that were not skipped, strictly longer wins, a
  64-byte match ends the search, matches stop at :data:`MAX_MATCH` and at
  the end of the buffer, and a match longer than 16 bytes leaves only
  every third of its positions as later candidates (one slice-assign into
  a ``skipped`` bytearray).
* :meth:`Lz77Codec.compress` takes the matches as three arrays — literals
  are the complement — counts symbols with two ``bincount`` calls, lays
  the stream out as one ``(values, widths)`` field list (both tables,
  then per token codeword / length extra / distance codeword / distance
  extra, then end-of-block) and writes it with one
  :func:`~.bitio.pack_fields`.

The per-position hash-chain formulation it replaced, and a
one-``write_bits``-per-field emitter, are the differential oracles
:func:`repro.verify.references.reference_lz77_tokenize` and
:func:`~repro.verify.references.reference_lz77_encode`: same tokens, same
bytes, on every input.

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
from .bitio import BitReader, pack_fields
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

#: A match longer than this indexes only every third of its positions (the
#: speed/ratio compromise of the hash-chain formulation; it decides bytes).
_DENSE_INSERT_MAX = 16
#: Flags for offsets ``1 ..`` of such a match: offsets 1, 4, 7, … stay
#: match candidates for later positions, the rest never become one.
_SKIP_PATTERN = bytes((0, 1, 1)) * (MAX_MATCH // 3 + 1)
#: A match this long ends the search at its position.
_GOOD_MATCH = 64


def _words(data: bytes) -> np.ndarray:
    """The eight bytes from each position of ``data`` as one big-endian ``uint64``.

    Read at a one-byte stride over ``data`` plus eight zero bytes, so the
    words near the end are zero-padded: byte ``k`` of ``words[p]`` is
    ``data[p + k]`` wherever that exists.
    """
    padded = data + bytes(8)
    return np.ndarray((len(data),), dtype=">u8", buffer=padded, strides=(1,)).astype(np.uint64)


def _prefix_links(words: np.ndarray, window: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(prev, upcoming)`` over the 4-byte prefixes of the block of ``words``.

    ``prev[p]`` is the most recent position before ``p`` that starts with
    the same four bytes (``-1``: none) — following it repeatedly is the
    hash chain of position ``p``, most recent first, with no insertion work
    and no collisions.  ``upcoming[p]`` is the first position ``>= p`` whose
    ``prev`` lies inside the window, or the block length: where the greedy
    walk lands next, so literal runs cost it nothing.

    A prefix is the top half of its position's word (:func:`_words`);
    sorting ``prefix << 32 | position`` groups equal prefixes with their
    positions ascending, which makes each sorted neighbour the predecessor
    sought.  (The top prefix bit lands on the ``int64`` sign: the groups
    sort in another order, each still together and ascending.)
    """
    n = len(words)
    count = n - MIN_MATCH + 1
    positions = np.arange(count, dtype=np.int64)
    keys = (words[:count] & np.uint64(0xFFFFFFFF00000000)).view(np.int64)
    keys |= positions
    keys.sort()
    order = keys & 0xFFFFFFFF
    keys >>= 32
    prev = np.full(count, -1, dtype=np.int64)
    prev[order[1:]] = np.where(keys[1:] == keys[:-1], order[:-1], -1)
    upcoming = np.full(n + 1, n, dtype=np.int64)
    reachable = (prev >= 0) & (positions - prev <= window)
    upcoming[:count][reachable] = positions[reachable]
    return prev, np.minimum.accumulate(upcoming[::-1])[::-1]


def _parse(data: bytes, window: int, max_chain: int) -> Tuple[List[int], List[int], List[int]]:
    """Greedy LZ77 parse: ``(starts, lengths, distances)`` of the matches.

    Literals are the complement.  At a token start the candidates are the
    first ``max_chain`` links of the position's prefix chain that lie in the
    window and were not skipped by a long match; the longest wins, the most
    recent on ties (short distances are what makes Huffman-coded pointers
    effective), and a match of :data:`_GOOD_MATCH` ends the search.
    """
    if not isinstance(data, bytes):
        # Snapshot buffer-protocol inputs once: the walk indexes and slices
        # the block, and bytes are the fastest thing to do either to.
        data = bytes(data)
    n = len(data)
    starts: List[int] = []
    lengths: List[int] = []
    distances: List[int] = []
    if n <= MIN_MATCH:
        return starts, lengths, distances
    # Read through memoryviews: an element comes back as a Python int at
    # twice the cost of a list's, but the walk touches a fraction of the
    # entries a ``tolist()`` would box, and three lists are 13 MB per 128 KB.
    words = _words(data)
    prev, upcoming = map(memoryview, _prefix_links(words, window))
    words = memoryview(words)
    skipped = bytearray(n)
    from_bytes = int.from_bytes
    add_start, add_length, add_distance = starts.append, lengths.append, distances.append
    # A chain always kept its newest entry, whatever ``max_chain`` says.
    max_chain = max(max_chain, 1)
    pos = upcoming[0]
    while pos < n:
        oldest = pos - window if pos > window else 0
        max_len = n - pos
        if max_len > MAX_MATCH:
            max_len = MAX_MATCH
        head = words[pos]
        best_len = 0
        best_cand = 0
        target = -1
        examined = 0
        want = data[pos]  # the byte at offset ``best_len``
        cand = prev[pos]
        while cand >= oldest:
            if not skipped[cand]:
                # Only a candidate that agrees at offset ``best_len`` can be
                # longer; its length is the leading zero bytes of the XOR of
                # the two words, and past eight of them, of the two runs.
                if data[cand + best_len] == want:
                    differing = head ^ words[cand]
                    if differing:
                        length = 8 - ((differing.bit_length() + 7) >> 3)
                        if length > max_len:
                            length = max_len
                    else:
                        if target < 0:
                            target = from_bytes(data[pos : pos + max_len], "big")
                        differing = target ^ from_bytes(data[cand : cand + max_len], "big")
                        length = max_len - ((differing.bit_length() + 7) >> 3)
                    if length > best_len:
                        best_len = length
                        best_cand = cand
                        if length >= _GOOD_MATCH or length == max_len:
                            break
                        want = data[pos + length]
                examined += 1
                if examined == max_chain:
                    break
            cand = prev[cand]
        if best_len:
            add_start(pos)
            add_length(best_len)
            add_distance(pos - best_cand)
            end = pos + best_len
            if best_len > _DENSE_INSERT_MAX:
                skipped[pos + 1 : end] = _SKIP_PATTERN[: best_len - 1]
            pos = upcoming[end]
        else:
            pos = upcoming[pos + 1]
    return starts, lengths, distances


def tokenize(
    data: bytes,
    window: int = WINDOW_SIZE,
    max_chain: int = 8,
) -> List[Token]:
    """Greedy LZ77 tokenization.

    Returns a list whose elements are either a literal byte value (``int``)
    or a ``(length, distance)`` match tuple: the parse the codec encodes
    (:func:`_parse`), spelled out token by token.
    """
    tokens: List[Token] = []
    cursor = 0
    for start, length, distance in zip(*_parse(data, window, max_chain)):
        tokens.extend(data[cursor:start])
        tokens.append((length, distance))
        cursor = start + length
    tokens.extend(data[cursor:])
    return tokens


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
        n = len(data)
        starts, lengths, distances = (
            np.array(column, dtype=np.int64)
            for column in _parse(data, self.window, self.max_chain)
        )

        # Symbol per position; a token starts wherever no match is under
        # way (+1 after a match start, -1 at its end, running sum zero).
        # End-of-block is the last token.
        symbols = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        symbols[starts] = _LEN_SYMBOL[lengths]
        edges = np.zeros(n + 1, dtype=np.int8)
        edges[starts + 1] = 1
        edges[starts + lengths] -= 1
        symbols = np.append(symbols[np.cumsum(edges[:n], dtype=np.int8) == 0], _END_OF_BLOCK)
        is_match = symbols > _END_OF_BLOCK
        dist_symbols = _DIST_SYMBOL[distances]

        litlen_code = HuffmanCode.from_frequencies(
            np.bincount(symbols, minlength=_LITLEN_ALPHABET).tolist()
        )
        dist_code = HuffmanCode.from_frequencies(
            np.bincount(dist_symbols, minlength=_DIST_ALPHABET).tolist()
        )
        # Both codes as one table: distance symbols follow the literal/length ones.
        code_lengths = np.array(litlen_code.lengths + dist_code.lengths, dtype=np.int64)
        codewords = np.array(litlen_code.codes + dist_code.codes, dtype=np.int64)
        dist_symbols += _LITLEN_ALPHABET

        # Field layout: both tables, then per token the literal/length
        # codeword and — for a match — length extra, distance codeword and
        # distance extra.  ``head`` is the index of each token's first field.
        tables = _LITLEN_ALPHABET + _DIST_ALPHABET
        head = tables + np.arange(len(symbols)) + 3 * (np.cumsum(is_match) - is_match)
        total = tables + len(symbols) + 3 * len(starts)
        values = np.zeros(total, dtype=np.int64)
        widths = np.zeros(total, dtype=np.int64)
        values[:tables] = code_lengths
        widths[:tables] = 4
        values[head] = codewords[symbols]
        widths[head] = code_lengths[symbols]
        head = head[is_match]
        values[head + 1] = lengths - _LEN_BASE[lengths]
        widths[head + 1] = _LEN_EXTRA[lengths]
        values[head + 2] = codewords[dist_symbols]
        widths[head + 2] = code_lengths[dist_symbols]
        values[head + 3] = distances - _DIST_BASE[distances]
        widths[head + 3] = _DIST_EXTRA[distances]
        return bytes(header) + pack_fields(values, widths)

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

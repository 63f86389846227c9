"""The modified Burrows-Wheeler codec of paper §2.4.

Pipeline (per chunk, default 32 KB):

    chunk -> BWT -> move-to-front -> RLE (runs <= 254, alphabet 0..254)

Chunks are independent until the joint stage, so the per-chunk stages
run through :func:`~.parallel.chunk_map`: the caller and the shared
codec pool's workers claim the chunks of every multi-chunk block as each
is free, and the bytes are those of the in-process chunk loop.  Then all chunks are
**jointly Huffman coded** as a single symbol stream in
which byte 255 terminates each chunk.  Because canonical Huffman codes are
self-synchronizing (ref [31]), a receiver that starts decoding at an
arbitrary position inside the bitstream produces a few erroneous symbols,
locks on, and can then recover every chunk that begins after the next 255
marker — this is the paper's adaptation for out-of-order block delivery,
exposed here as :meth:`BurrowsWheelerCodec.decode_from`.

Chunk layout inside the joint symbol stream::

    [p0 p1 p2]   primary index, three base-254 digits (most significant first)
    [rle bytes]  alphabet 0..254
    [255]        chunk terminator

Wire format::

    varint  original_length
    varint  total_symbol_count          (only if original_length > 0)
    256 x 4-bit Huffman code lengths
    padded  Huffman bitstream
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import Codec, CorruptStreamError
from .bitio import BitReader, BitWriter
from .bwt import bwt_inverse, bwt_transform
from .huffman import HuffmanCode
from .mtf import mtf_decode, mtf_encode
from .parallel import chunk_map
from .rle import rle_decode, rle_encode
from .varint import read_varint, write_varint

__all__ = ["BurrowsWheelerCodec", "CHUNK_TERMINATOR", "DEFAULT_CHUNK_SIZE"]

CHUNK_TERMINATOR = 255
DEFAULT_CHUNK_SIZE = 32768
_PRIMARY_DIGITS = 3
_PRIMARY_BASE = 254


def _encode_primary(primary: int) -> bytes:
    """Primary index as three base-254 digits (values 0..253)."""
    if not 0 <= primary < _PRIMARY_BASE**_PRIMARY_DIGITS:
        raise ValueError("primary index too large for chunk header")
    digits = bytearray(_PRIMARY_DIGITS)
    for slot in range(_PRIMARY_DIGITS - 1, -1, -1):
        digits[slot] = primary % _PRIMARY_BASE
        primary //= _PRIMARY_BASE
    return bytes(digits)


def _decode_primary(digits: bytes) -> int:
    value = 0
    for digit in digits:
        if digit >= _PRIMARY_BASE:
            raise CorruptStreamError("invalid primary-index digit")
        value = value * _PRIMARY_BASE + digit
    return value


def _encode_chunk(chunk: bytes) -> bytes:
    """One chunk's contribution to the joint symbol stream."""
    last_column, primary = bwt_transform(chunk)
    coded = rle_encode(mtf_encode(last_column))
    return _encode_primary(primary) + coded + bytes([CHUNK_TERMINATOR])


def _decode_chunk(symbols: bytes) -> bytes:
    """Invert :func:`_encode_chunk` given the stream *without* terminator."""
    if len(symbols) < _PRIMARY_DIGITS:
        raise CorruptStreamError("chunk too short for its header")
    primary = _decode_primary(symbols[:_PRIMARY_DIGITS])
    last_column = mtf_decode(rle_decode(symbols[_PRIMARY_DIGITS:]))
    return bwt_inverse(last_column, primary)


class BurrowsWheelerCodec(Codec):
    """Chunked BWT + MTF + RLE-254 + joint Huffman (paper §2.4)."""

    name = "burrows-wheeler"
    family = "block-sorting"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 64:
            raise ValueError("chunk_size must be at least 64 bytes")
        if chunk_size >= _PRIMARY_BASE**_PRIMARY_DIGITS:
            raise ValueError("chunk_size exceeds primary-index header capacity")
        self.chunk_size = chunk_size

    def _cut(self, data: bytes) -> List[bytes]:
        """The block's chunks, as ``bytes`` (a pool task's items must pickle)."""
        return [
            bytes(data[start : start + self.chunk_size])
            for start in range(0, len(data), self.chunk_size)
        ]

    def compress(self, data: bytes) -> bytes:
        return _joint_encode(len(data), chunk_map(_encode_chunk, self._cut(data)))

    def decompress(self, payload: bytes) -> bytes:
        original_length, chunks = _joint_decode(payload)
        out = b"".join(chunk_map(_decode_chunk, chunks))
        if len(out) != original_length:
            raise CorruptStreamError("decoded size does not match header length")
        return out

    def decode_from(self, payload: bytes, start_bit: int) -> Tuple[bytes, int]:
        """Resynchronizing decode from an arbitrary bit offset (paper §2.4).

        Decodes Huffman symbols starting at ``start_bit`` (which need not be
        a codeword boundary), discards everything before the first chunk
        terminator, and returns ``(recovered_bytes, chunks_recovered)`` for
        every complete chunk found after it.  The initial symbols may be
        garbage — that is the expected self-synchronization behaviour.
        """
        view = memoryview(payload)
        original_length, offset = read_varint(view, 0)
        if original_length == 0:
            return b"", 0
        symbol_count, offset = read_varint(view, offset)
        reader = BitReader(payload, start_bit=offset * 8)
        code = HuffmanCode.read_table(reader, 256)
        table_end = reader.position
        aligned_start = start_bit <= table_end
        if start_bit < table_end:
            start_bit = table_end
        if start_bit > len(payload) * 8:
            return b"", 0
        # Decode until the bitstream runs out (or one symbol past the
        # declared count); the final padding may decode to a few junk
        # symbols, which are discarded after the last terminator.
        _, symbols = code.walk(code.position_map(payload), start_bit, symbol_count + 1)
        parts = symbols.astype(np.uint8).tobytes().split(bytes([CHUNK_TERMINATOR]))
        # parts[-1] is padding garbage (or empty); parts[0] is a partial
        # chunk unless decoding started at the true stream beginning.
        chunks = parts[:-1] if aligned_start else parts[1:-1]
        recovered = []
        for chunk in chunks:
            try:
                recovered.append(_decode_chunk(chunk))
            except CorruptStreamError:
                continue
        return b"".join(recovered), len(recovered)


def _joint_encode(original_length: int, encoded_chunks: List[bytes]) -> bytes:
    """The wire payload: header, then one Huffman code over every chunk."""
    header = bytearray()
    write_varint(header, original_length)
    if not original_length:
        return bytes(header)
    stream = np.frombuffer(b"".join(encoded_chunks), dtype=np.uint8)
    write_varint(header, len(stream))
    code = HuffmanCode.from_frequencies(np.bincount(stream, minlength=256).tolist())
    table_writer = BitWriter()
    code.write_table(table_writer)
    return bytes(header) + table_writer.getvalue() + code.encode(stream)


def _joint_decode(payload: bytes) -> Tuple[int, List[bytes]]:
    """Invert :func:`_joint_encode`: ``(original_length, chunk streams)``."""
    view = memoryview(payload)
    original_length, offset = read_varint(view, 0)
    if original_length == 0:
        if offset != len(payload):
            raise CorruptStreamError("trailing bytes after empty stream")
        return 0, []
    symbol_count, offset = read_varint(view, offset)
    reader = BitReader(payload, start_bit=offset * 8)
    code = HuffmanCode.read_table(reader, 256)
    symbols, _ = code.decode_array(payload, reader.position, symbol_count)
    return original_length, _split_chunks(symbols.astype(np.uint8).tobytes())


def _split_chunks(stream: bytes) -> List[bytes]:
    """Strictly split the joint symbol stream at 255 terminators.

    The stream must end exactly at a terminator and contain at least one
    chunk — anything else is corruption.
    """
    parts = stream.split(bytes([CHUNK_TERMINATOR]))
    if parts[-1] != b"":
        raise CorruptStreamError("joint stream does not end at a chunk terminator")
    chunks = parts[:-1]
    if not chunks:
        raise CorruptStreamError("no chunks in joint stream")
    return chunks

"""Bit-level input/output used by the entropy coders.

The coders in this package (Huffman, arithmetic, LZ77 pointer encoding)
produce and consume streams of individual bits.  ``BitWriter`` accumulates
bits most-significant-first into a ``bytearray``; ``BitReader`` replays such
a stream.  Both keep the bit order compatible so that
``BitReader(BitWriter-out)`` round-trips exactly.

The classes are deliberately simple and allocation-light: the adaptive
selection loop may compress many 128 KB blocks per run, so the hot paths
(``write_bits``/``read_bits``) avoid per-bit Python objects where possible.

:func:`pack_fields` is the whole-stream form of ``write_bits``: every field
of a stream written in one numpy pass — the write-side mirror of the
decode kernel :class:`~.huffman.PositionMap`, which reads every position
in one pass.  Every Huffman stage writes through it: the interleaved
Lempel-Ziv stream (codewords mixed with raw extra bits), a block at a
time, and the single-table streams of ``huffman`` and
``burrows-wheeler`` (:meth:`~.huffman.HuffmanCode.encode`), a span of
symbols at a time.  Its temporaries are a few ``int64`` arrays of one
entry per field, a megabyte each for a 128 KB Lempel-Ziv block, so it is
fast only on the resident heap :mod:`~.heap` sets up: handed back to the
kernel after every block, they are page-faulted in afresh by the next.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader", "pack_fields", "MAX_FIELD_WIDTH"]

#: Widest field :func:`pack_fields` places: with up to 7 bits of in-byte
#: shift a field then spans at most three bytes.
MAX_FIELD_WIDTH = 16


def pack_fields(values: np.ndarray, widths: np.ndarray) -> bytes:
    """``BitWriter.write_bits(value, width)`` for every field, in order.

    Returns what :meth:`BitWriter.getvalue` would: the fields back to back,
    most significant bit first, zero-padded to a byte boundary.  Widths are
    ``0 .. MAX_FIELD_WIDTH`` (a zero-width field writes nothing) and values
    are masked to their width, as ``write_bits`` does.

    The cumulative widths give each field's first bit, hence its first byte
    and its shift inside the 24-bit window that starts at that byte.
    Windows that share a first byte are summed (fields do not overlap, so
    the sum is the bitwise or — and exact in the ``float64`` that
    ``bincount`` accumulates in); the three bytes of the summed windows are
    three planes, and an output byte is the sum of the plane entries that
    land on it.
    """
    widths = np.asarray(widths, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if not len(widths):
        return b""
    if not 0 <= int(widths.min()) <= int(widths.max()) <= MAX_FIELD_WIDTH:
        raise ValueError(f"field widths must be in [0, {MAX_FIELD_WIDTH}]")
    # Updated in place: four field-sized temporaries besides the inputs
    # (bit offsets, shifts, windows and the windows as float64).
    first_bit = np.cumsum(widths)
    size = (int(first_bit[-1]) + 7) >> 3
    first_bit -= widths
    shifts = first_bit & 7
    shifts += widths
    np.subtract(24, shifts, out=shifts)
    windows = np.left_shift(1, widths)
    windows -= 1
    windows &= values
    windows <<= shifts
    del shifts
    first_bit >>= 3
    merged = np.bincount(
        first_bit, weights=windows.astype(np.float64), minlength=size + 2
    ).astype(np.int64)
    packed = merged >> 16
    packed[1:] += (merged[:-1] >> 8) & 0xFF
    packed[2:] += merged[:-2] & 0xFF
    return packed[:size].astype(np.uint8).tobytes()


class BitWriter:
    """Accumulate bits (MSB-first within each byte) into a byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._bit_count = 0

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._accumulator = (self._accumulator << 1) | (bit & 1)
        self._bit_count += 1
        if self._bit_count == 8:
            self._buffer.append(self._accumulator)
            self._accumulator = 0
            self._bit_count = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, most significant first."""
        if width < 0:
            raise ValueError("bit width must be non-negative")
        acc = (self._accumulator << width) | (value & ((1 << width) - 1))
        count = self._bit_count + width
        buffer = self._buffer
        while count >= 8:
            count -= 8
            buffer.append((acc >> count) & 0xFF)
        self._accumulator = acc & ((1 << count) - 1)
        self._bit_count = count

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * 8 + self._bit_count

    def getvalue(self) -> bytes:
        """Return the stream padded with zero bits to a byte boundary."""
        if self._bit_count == 0:
            return bytes(self._buffer)
        tail = self._accumulator << (8 - self._bit_count)
        return bytes(self._buffer) + bytes([tail & 0xFF])


class BitReader:
    """Replay a bit stream produced by :class:`BitWriter`."""

    def __init__(self, data: bytes, start_bit: int = 0) -> None:
        self._data = data
        self._position = start_bit

    @property
    def position(self) -> int:
        """Current bit offset from the start of the stream."""
        return self._position

    @property
    def remaining(self) -> int:
        """Number of unread bits (including any final padding bits)."""
        return len(self._data) * 8 - self._position

    def seek(self, bit_position: int) -> None:
        """Jump to an absolute bit offset (used for synchronized decode)."""
        if bit_position < 0 or bit_position > len(self._data) * 8:
            raise ValueError("seek outside of stream")
        self._position = bit_position

    def read_bit(self) -> int:
        """Read one bit; raises ``EOFError`` past the end of the stream."""
        pos = self._position
        byte_index = pos >> 3
        if byte_index >= len(self._data):
            raise EOFError("bit stream exhausted")
        self._position = pos + 1
        return (self._data[byte_index] >> (7 - (pos & 7))) & 1

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (MSB first)."""
        if width < 0:
            raise ValueError("bit width must be non-negative")
        pos = self._position
        end = pos + width
        data = self._data
        if end > len(data) * 8:
            raise EOFError("bit stream exhausted")
        first_byte = pos >> 3
        last_byte = (end + 7) >> 3
        chunk = int.from_bytes(data[first_byte:last_byte], "big")
        total_bits = (last_byte - first_byte) * 8
        chunk >>= total_bits - (end - first_byte * 8)
        self._position = end
        return chunk & ((1 << width) - 1)

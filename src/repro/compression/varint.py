"""LEB128-style variable-length integers for codec headers.

Every codec in this package stores the original payload length (and the
Burrows-Wheeler pipeline stores chunk geometry) as varints so small blocks
do not pay a fixed 8-byte header tax.
"""

from __future__ import annotations

from typing import Tuple, Union

from .base import CorruptStreamError

__all__ = ["write_varint", "read_varint", "read_canonical_varint", "varint_size"]

_Buffer = Union[bytes, bytearray, memoryview]


def write_varint(buffer: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) to ``buffer`` as a LEB128 varint."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    while value >= 0x80:
        buffer.append(value & 0x7F | 0x80)
        value >>= 7
    buffer.append(value)


def read_varint(data: _Buffer, offset: int) -> Tuple[int, int]:
    """Read a varint at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise CorruptStreamError("truncated varint")
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 63:
            raise CorruptStreamError("varint too large")


def read_canonical_varint(data: _Buffer, offset: int) -> Tuple[int, int]:
    """Like :func:`read_varint`, but reject over-long (non-canonical) encodings.

    LEB128 admits infinitely many encodings of every value by padding with
    ``0x80 ... 0x00`` continuation groups; :func:`write_varint` only ever
    emits the shortest one.  A parser that accepts the padded forms lets a
    single corrupted length byte alias to a valid shorter frame, so wire
    parsers must call this variant: a multi-byte encoding whose final
    (terminating) byte is ``0x00`` contributes no value bits and raises
    :class:`~repro.compression.base.CorruptStreamError`.
    """
    value, end = read_varint(data, offset)
    if end - offset > 1 and data[end - 1] == 0x00:
        raise CorruptStreamError("non-canonical (over-long) varint")
    return value, end


def varint_size(value: int) -> int:
    """Number of bytes :func:`write_varint` will emit for ``value``."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size

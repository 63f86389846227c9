"""Application-specific lossy compression (paper §5).

"Cases like these indicate the importance of permitting end users to
integrate their own, application-specific, lossy compression techniques
into data streaming middleware.  This is a topic of our current work."

The paper's problem case is the molecular coordinate field: random
mantissas defeat every lossless method.  Scientific workflows, however,
rarely need all 52 mantissa bits — instruments and integrators carry far
less precision.  This module supplies the two lossy codecs that work for
that data class, both with *guaranteed absolute error bounds*:

* :class:`QuantizedFloatCodec` — uniform scalar quantization of float64
  arrays to a caller-chosen tolerance; the integer quanta are
  delta-encoded, zig-zag mapped and packed as 32-bit words (an escape
  plane holds the rare delta that does not fit), and the words are
  compressed by the lossless Lempel-Ziv codec.
* :class:`TruncatedFloatCodec` — mantissa truncation (keep the top
  ``mantissa_bits``), byte-plane shuffled and losslessly compressed; the
  relative error is bounded by ``2**-mantissa_bits``.

Both are normal :class:`~repro.compression.base.Codec` subclasses, so
they register, travel through middleware handlers, and participate in the
selector like any lossless method — except ``decompress(compress(x))``
returns an *approximation* whose error bound is checkable via
:meth:`max_error` / :meth:`max_relative_error`.
"""

from __future__ import annotations

import struct

import numpy as np

from .base import Codec, CorruptStreamError
from .lz77 import Lz77Codec
from .varint import read_varint, write_varint

__all__ = ["QuantizedFloatCodec", "TruncatedFloatCodec"]

_QUANT_MAGIC = b"LQF1"
_TRUNC_MAGIC = b"LTF1"


class QuantizedFloatCodec(Codec):
    """Uniform quantization of little-endian float64 payloads.

    ``tolerance`` is the guaranteed absolute reconstruction error bound:
    every decoded value differs from its original by at most
    ``tolerance`` (half a quantization step).  Inputs whose length is not
    a multiple of 8 raise — this codec is explicitly application-specific.
    """

    family = "lossy"

    def __init__(self, tolerance: float = 1e-3) -> None:
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance
        self.name = f"quantized-float:{tolerance:g}"
        self._entropy = Lz77Codec()

    def max_error(self) -> float:
        """Guaranteed absolute error bound of a round trip."""
        return self.tolerance

    def compress(self, data: bytes) -> bytes:
        if len(data) % 8:
            raise CorruptStreamError("payload is not a float64 array")
        values = np.frombuffer(data, dtype="<f8")
        if not np.all(np.isfinite(values)):
            raise CorruptStreamError("lossy float codec requires finite values")
        step = 2.0 * self.tolerance
        quanta = np.round(values / step).astype(np.int64)
        deltas = np.diff(quanta, prepend=np.int64(0))
        zigzag = ((deltas << 1) ^ (deltas >> 63)).astype(np.uint64)
        # Values above 32 bits would overflow the packing; fall back to raw
        # 64-bit storage for those rare spikes via an escape plane.
        small = zigzag < np.uint64(0xFFFFFFFF)  # marker value itself escapes
        packed = np.where(small, zigzag, np.uint64(0xFFFFFFFF)).astype("<u4")
        escapes = zigzag[~small].astype("<u8").tobytes()
        body = self._entropy.compress(packed.tobytes())
        out = bytearray(_QUANT_MAGIC)
        out += struct.pack("<d", self.tolerance)
        write_varint(out, len(values))
        write_varint(out, len(escapes))
        out += escapes
        out += body
        return bytes(out)

    def decompress(self, payload: bytes) -> bytes:
        if payload[: len(_QUANT_MAGIC)] != _QUANT_MAGIC:
            raise CorruptStreamError("not a quantized-float stream")
        offset = len(_QUANT_MAGIC)
        if len(payload) < offset + 8:
            raise CorruptStreamError("truncated quantized-float header")
        (tolerance,) = struct.unpack_from("<d", payload, offset)
        offset += 8
        count, offset = read_varint(payload, offset)
        escape_bytes, offset = read_varint(payload, offset)
        if escape_bytes % 8 or offset + escape_bytes > len(payload):
            raise CorruptStreamError("corrupt escape plane")
        escapes = np.frombuffer(
            payload[offset : offset + escape_bytes], dtype="<u8"
        )
        offset += escape_bytes
        body = self._entropy.decompress(payload[offset:])
        if len(body) % 4:
            raise CorruptStreamError("quantized body is not a u32 plane")
        packed = np.frombuffer(body, dtype="<u4").astype(np.uint64)
        if len(packed) != count:
            raise CorruptStreamError("quantized stream length mismatch")
        zigzag = packed.copy()
        escape_slots = zigzag == 0xFFFFFFFF
        if int(escape_slots.sum()) != len(escapes):
            raise CorruptStreamError("escape-plane count mismatch")
        zigzag[escape_slots] = escapes
        signed = zigzag.astype(np.int64)
        deltas = (signed >> 1) ^ -(signed & 1)
        quanta = np.cumsum(deltas)
        step = 2.0 * tolerance
        return (quanta.astype(np.float64) * step).astype("<f8").tobytes()


class TruncatedFloatCodec(Codec):
    """Mantissa truncation for float64 payloads.

    Keeps the top ``mantissa_bits`` of each value's 52-bit mantissa and
    losslessly compresses the byte-plane-shuffled result.  The relative
    reconstruction error is below ``2**-mantissa_bits``.
    """

    family = "lossy"

    def __init__(self, mantissa_bits: int = 20) -> None:
        if not 0 <= mantissa_bits <= 52:
            raise ValueError("mantissa_bits must be in [0, 52]")
        self.mantissa_bits = mantissa_bits
        self.name = f"truncated-float:{mantissa_bits}"
        self._entropy = Lz77Codec()

    def max_relative_error(self) -> float:
        """Guaranteed relative error bound of a round trip."""
        return 2.0 ** (-self.mantissa_bits)

    def compress(self, data: bytes) -> bytes:
        if len(data) % 8:
            raise CorruptStreamError("payload is not a float64 array")
        bits = np.frombuffer(data, dtype="<u8")
        drop = 52 - self.mantissa_bits
        mask = np.uint64(~((1 << drop) - 1) & 0xFFFFFFFFFFFFFFFF)
        truncated = (bits & mask).astype("<u8")
        planes = truncated.view(np.uint8).reshape(-1, 8).T.copy().tobytes()
        out = bytearray(_TRUNC_MAGIC)
        out.append(self.mantissa_bits)
        write_varint(out, len(bits))
        out += self._entropy.compress(planes)
        return bytes(out)

    def decompress(self, payload: bytes) -> bytes:
        if payload[: len(_TRUNC_MAGIC)] != _TRUNC_MAGIC:
            raise CorruptStreamError("not a truncated-float stream")
        offset = len(_TRUNC_MAGIC)
        if len(payload) <= offset:
            raise CorruptStreamError("truncated-float stream missing width byte")
        mantissa_bits = payload[offset]
        if mantissa_bits > 52:
            raise CorruptStreamError("invalid mantissa width")
        offset += 1
        count, offset = read_varint(payload, offset)
        planes = np.frombuffer(
            self._entropy.decompress(payload[offset:]), dtype=np.uint8
        )
        if len(planes) != count * 8:
            raise CorruptStreamError("truncated-float stream length mismatch")
        recombined = planes.reshape(8, -1).T.copy().view("<u8").reshape(-1)
        return recombined.astype("<u8").tobytes()

"""Structure-aware codecs: template-mined logs and columnar records.

The paper's selector (§3) chooses among *generic* byte-stream codecs;
this module adds the two structure-exploiting family members the ROADMAP
calls for:

``template``
    Mines recurring line templates from newline-delimited logs.  Each
    line is tokenized into literal fragments and typed value slots
    (decimal integers, dotted-quad IPv4 addresses, long lowercase hex
    runs); lines sharing the same fragment/slot skeleton share one
    template.  The wire carries the template dictionary once, a
    template-id stream, and one *channel* per (template, slot) holding
    that slot's values across all matching lines — zigzag-varint deltas
    for integers, 4 packed bytes per IPv4, nibble-packed hex, and a
    length-prefixed raw escape for anything non-canonical.

``columnar``
    Fixed-width record arrays (multi-channel telemetry) are transposed
    to per-field columns; each column independently picks raw /
    delta+bitpack / delta-of-delta+bitpack, whichever is smallest.  The
    record width and field width are detected by scoring candidate
    layouts and are carried in the header, so the wire is fully
    self-describing.

Both codecs share a strict contract:

* **Whole-block fallback.**  When structure detection fails (binary
  noise, empty input, too few lines, or the structured encoding would
  not actually win) the codec emits a 4-byte header plus the original
  bytes verbatim.  That payload is always >= the input, so the engine's
  expansion guard (``CodecExecutor(expansion_fallback=True)``) ships
  method ``none`` instead — the fallback is a correctness device, not a
  wire format anyone should pay for.
* **Corruption discipline.**  ``decompress`` raises only
  :data:`~repro.compression.base.ACCEPTABLE_DECODE_ERRORS` on hostile
  bytes; every count read from the wire is bounds-checked against the
  remaining payload *before* allocation, and the declared output size is
  capped at :data:`MAX_STRUCTURED_OUTPUT`.
* **Deterministic wire.**  Same input bytes -> same payload, regardless
  of the input container (bytes/bytearray/memoryview).

The numpy delta/zigzag/bitpack primitives are exported so
``repro.verify.references`` can hold scalar oracles against them
bit-for-bit (the differential stage of the ``fuzz`` gate).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.catalogue import record_structured_block
from ..obs.metrics import get_registry
from .base import Codec, CorruptStreamError
from .varint import read_varint, varint_size, write_varint

__all__ = [
    "MAX_STRUCTURED_OUTPUT",
    "ColumnarCodec",
    "TemplateCodec",
    "bitpack",
    "bitunpack",
    "delta_zigzag",
    "undelta_zigzag",
    "zigzag_encode",
    "zigzag_decode",
]

# Decode-side cap on the declared original length.  Engine blocks top out
# well below 1 MiB; anything claiming more than 16 MiB is a corrupted or
# hostile header, and refusing it bounds decoder memory.
MAX_STRUCTURED_OUTPUT = 1 << 24

_U64_MASK = (1 << 64) - 1
_ONE = np.uint64(1)


# ---------------------------------------------------------------------------
# Vectorized primitives (scalar oracles live in repro.verify.references)
# ---------------------------------------------------------------------------


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map int64 values to uint64 so small magnitudes stay small."""
    signed = np.ascontiguousarray(values, dtype="<i8")
    doubled = signed.view("<u8") << _ONE
    sign_fill = (signed >> np.int64(63)).view("<u8")
    return doubled ^ sign_fill


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode` (uint64 -> int64)."""
    unsigned = np.ascontiguousarray(values, dtype="<u8")
    half = unsigned >> _ONE
    sign_fill = (unsigned & _ONE) * np.uint64(_U64_MASK)
    return (half ^ sign_fill).view("<i8")


def bitpack(values: np.ndarray, width: int) -> bytes:
    """Pack uint64 values into ``width`` bits each, MSB first."""
    if not 0 <= width <= 64:
        raise ValueError(f"bit width out of range: {width}")
    values = np.ascontiguousarray(values, dtype="<u8")
    if width == 0 or values.size == 0:
        return b""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts) & _ONE).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def bitunpack(packed: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`bitpack`; returns ``count`` uint64 values."""
    if not 0 <= width <= 64:
        raise ValueError(f"bit width out of range: {width}")
    if width == 0 or count == 0:
        return np.zeros(count, dtype="<u8")
    needed = (count * width + 7) // 8
    raw = np.frombuffer(packed, dtype=np.uint8, count=needed)
    bits = np.unpackbits(raw, count=count * width).reshape(count, width)
    out = np.zeros(count, dtype="<u8")
    for column in range(width):
        out = (out << _ONE) | bits[:, column].astype("<u8")
    return out


def delta_zigzag(column: np.ndarray) -> np.ndarray:
    """Wrapping first differences of a uint64 column, zigzag-mapped."""
    column = np.ascontiguousarray(column, dtype="<u8")
    deltas = (column[1:] - column[:-1]).view("<i8")
    return zigzag_encode(deltas)


def undelta_zigzag(first: int, encoded: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_zigzag` given the first raw value."""
    deltas = zigzag_decode(encoded).view("<u8")
    out = np.empty(len(deltas) + 1, dtype="<u8")
    out[0] = np.uint64(first & _U64_MASK)
    if len(deltas):
        out[1:] = out[0] + np.cumsum(deltas, dtype="<u8")
    return out


# ---------------------------------------------------------------------------
# Scalar helpers shared by the template channel coder
# ---------------------------------------------------------------------------


def _zigzag_int(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag_int(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


# ---------------------------------------------------------------------------
# Template codec
# ---------------------------------------------------------------------------

# IPv4 first (so dotted quads don't shatter into four int slots), then
# long lowercase hex runs (>= 8 chars), then bare digit runs.  A hex run
# without a letter is all digits: it spans what ``\d+`` would, and
# ``_classify_token`` calls it an integer.
_VALUE_RE = re.compile(
    rb"(?:\d{1,3}\.){3}\d{1,3}"
    rb"|[0-9a-f]{8,}"
    rb"|\d+"
)

_SLOT_INT = 1
_SLOT_IP = 2
_SLOT_HEX = 3

_CH_INT_DELTA = 1  # canonical decimal ints as zigzag-varint deltas
_CH_INT_FIXED = 2  # zero-padded fixed-width ints: width byte + deltas
_CH_IP_PACKED = 3  # 4 bytes per value
_CH_HEX_NIBBLES = 4  # varint nibble count + packed nibbles per value
_CH_RAW = 5  # varint length + bytes per value

# Channels switch from varint deltas to the raw escape above this bound:
# the varint reader rejects shift > 63, and deltas of two values < 2**60
# always zigzag below 2**62, comfortably inside that budget.
_MAX_CHANNEL_INT = 1 << 60

_TEMPLATE_MAGIC = b"TL"
_COLUMNAR_MAGIC = b"CO"
_VERSION = 1
_MODE_RAW = 0
_MODE_STRUCTURED = 1

_MIN_LINES = 4


def _classify_token(token: bytes) -> int:
    if b"." in token:
        return _SLOT_IP
    if token.isdigit():
        return _SLOT_INT
    return _SLOT_HEX


def _tokenize_line(line: bytes) -> Tuple[Tuple, List[bytes]]:
    """Split one line into a template key and its slot values."""
    parts: List[Tuple] = []
    values: List[bytes] = []
    position = 0
    for match in _VALUE_RE.finditer(line):
        if match.start() > position:
            parts.append((0, line[position:match.start()]))
        token = match.group()
        parts.append((_classify_token(token),))
        values.append(token)
        position = match.end()
    if position < len(line):
        parts.append((0, line[position:]))
    return tuple(parts), values


class TemplateCodec(Codec):
    """Template-mined log compression with typed slot channels."""

    name = "template"
    family = "structured"

    def is_fallback(self, payload: bytes) -> bool:
        """True when ``payload`` took the whole-block raw escape."""
        head = bytes(payload[:4])
        return len(head) == 4 and head[:2] == _TEMPLATE_MAGIC and head[3] == _MODE_RAW

    # -- encode -------------------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        data = bytes(data)
        structured = self._encode_structured(data)
        if structured is not None and len(structured[0]) < len(data):
            payload, templates, channel_bytes = structured
            record_structured_block(
                get_registry(), self.name, fallback=False, templates=templates,
                channel_bytes=channel_bytes,
            )
            return payload
        record_structured_block(get_registry(), self.name, fallback=True)
        return _TEMPLATE_MAGIC + bytes((_VERSION, _MODE_RAW)) + data

    def _encode_structured(
        self, data: bytes
    ) -> Optional[Tuple[bytes, int, Dict[str, int]]]:
        if not data or len(data) > MAX_STRUCTURED_OUTPUT or b"\x00" in data:
            return None
        pieces = data.split(b"\n")
        if len(pieces) < _MIN_LINES:
            return None

        template_ids: Dict[Tuple, int] = {}
        templates: List[Tuple] = []
        line_ids: List[int] = []
        line_values: List[List[bytes]] = []
        for piece in pieces:
            key, values = _tokenize_line(piece)
            template_id = template_ids.get(key)
            if template_id is None:
                template_id = len(templates)
                template_ids[key] = template_id
                templates.append(key)
            line_ids.append(template_id)
            line_values.append(values)
        if len(templates) > max(2, len(pieces) // 2):
            return None  # too little repetition to be a templated log

        channels: Dict[Tuple[int, int], List[bytes]] = {}
        for template_id, values in zip(line_ids, line_values):
            for slot, value in enumerate(values):
                channels.setdefault((template_id, slot), []).append(value)

        out = bytearray(_TEMPLATE_MAGIC)
        out.append(_VERSION)
        out.append(_MODE_STRUCTURED)
        write_varint(out, len(data))
        write_varint(out, len(templates))
        for parts in templates:
            write_varint(out, len(parts))
            for part in parts:
                out.append(part[0] if part[0] else 0)
                if part[0] == 0:
                    write_varint(out, len(part[1]))
                    out += part[1]
        write_varint(out, len(pieces))
        for template_id in line_ids:
            write_varint(out, template_id)

        channel_bytes = {"int": 0, "ip": 0, "hex": 0, "raw": 0}
        for template_id, parts in enumerate(templates):
            slot = 0
            for part in parts:
                if part[0] == 0:
                    continue
                values = channels.get((template_id, slot), [])
                before = len(out)
                kind = self._encode_channel(out, part[0], values)
                channel_bytes[kind] += len(out) - before
                slot += 1

        return bytes(out), len(templates), channel_bytes

    @staticmethod
    def _encode_channel(out: bytearray, slot_kind: int, values: Sequence[bytes]) -> str:
        """Append one slot channel; returns the byte-accounting label."""
        if slot_kind == _SLOT_INT:
            canonical = all(
                (value == b"0" or not value.startswith(b"0")) for value in values
            )
            ints = [int(value) for value in values]
            small = all(value < _MAX_CHANNEL_INT for value in ints)
            widths = {len(value) for value in values}
            if canonical and small:
                out.append(_CH_INT_DELTA)
                previous = 0
                for value in ints:
                    write_varint(out, _zigzag_int(value - previous))
                    previous = value
                return "int"
            if small and len(widths) == 1 and next(iter(widths)) <= 255:
                out.append(_CH_INT_FIXED)
                out.append(next(iter(widths)))
                previous = 0
                for value in ints:
                    write_varint(out, _zigzag_int(value - previous))
                    previous = value
                return "int"
        elif slot_kind == _SLOT_IP:
            octet_rows = [value.split(b".") for value in values]
            if all(
                len(octets) == 4
                and all(
                    (octet == b"0" or not octet.startswith(b"0"))
                    and int(octet) <= 255
                    for octet in octets
                )
                for octets in octet_rows
            ):
                out.append(_CH_IP_PACKED)
                for octets in octet_rows:
                    out += bytes(int(octet) for octet in octets)
                return "ip"
        elif slot_kind == _SLOT_HEX:
            out.append(_CH_HEX_NIBBLES)
            for value in values:
                write_varint(out, len(value))
                padded = value if len(value) % 2 == 0 else value + b"0"
                out += bytes.fromhex(padded.decode("ascii"))
            return "hex"
        # Non-canonical values (leading zeros on a huge int, octets > 255
        # the regex let through, ...) take the per-value raw escape.
        out.append(_CH_RAW)
        for value in values:
            write_varint(out, len(value))
            out += value
        return "raw"

    # -- decode -------------------------------------------------------------

    def decompress(self, payload: bytes) -> bytes:
        payload = bytes(payload)
        if len(payload) < 4 or payload[:2] != _TEMPLATE_MAGIC:
            raise CorruptStreamError("template: bad magic")
        if payload[2] != _VERSION:
            raise CorruptStreamError(f"template: unknown version {payload[2]}")
        mode = payload[3]
        if mode == _MODE_RAW:
            return payload[4:]
        if mode != _MODE_STRUCTURED:
            raise CorruptStreamError(f"template: unknown mode {mode}")
        limit = len(payload)
        offset = 4
        original_length, offset = read_varint(payload, offset)
        if original_length > MAX_STRUCTURED_OUTPUT:
            raise CorruptStreamError("template: implausible output length")
        template_count, offset = read_varint(payload, offset)
        if template_count == 0 or template_count > limit - offset:
            raise CorruptStreamError("template: bad template count")
        templates: List[List[Tuple]] = []
        for _ in range(template_count):
            part_count, offset = read_varint(payload, offset)
            if part_count > limit - offset:
                raise CorruptStreamError("template: bad part count")
            parts: List[Tuple] = []
            for _ in range(part_count):
                if offset >= limit:
                    raise CorruptStreamError("template: truncated template")
                tag = payload[offset]
                offset += 1
                if tag == 0:
                    length, offset = read_varint(payload, offset)
                    if length > limit - offset:
                        raise CorruptStreamError("template: truncated literal")
                    parts.append((0, payload[offset:offset + length]))
                    offset += length
                elif tag in (_SLOT_INT, _SLOT_IP, _SLOT_HEX):
                    parts.append((tag,))
                else:
                    raise CorruptStreamError(f"template: unknown part tag {tag}")
            templates.append(parts)
        line_count, offset = read_varint(payload, offset)
        if line_count == 0 or line_count > limit - offset:
            raise CorruptStreamError("template: bad line count")
        line_ids: List[int] = []
        for _ in range(line_count):
            template_id, offset = read_varint(payload, offset)
            if template_id >= template_count:
                raise CorruptStreamError("template: template id out of range")
            line_ids.append(template_id)

        per_template = [0] * template_count
        for template_id in line_ids:
            per_template[template_id] += 1
        channels: Dict[Tuple[int, int], List[bytes]] = {}
        for template_id, parts in enumerate(templates):
            slot = 0
            for part in parts:
                if part[0] == 0:
                    continue
                values, offset = self._decode_channel(
                    payload, offset, per_template[template_id]
                )
                channels[(template_id, slot)] = values
                slot += 1

        cursor = [0] * template_count
        lines: List[bytes] = []
        total = 0
        for template_id in line_ids:
            index = cursor[template_id]
            cursor[template_id] = index + 1
            chunks: List[bytes] = []
            slot = 0
            for part in templates[template_id]:
                if part[0] == 0:
                    chunks.append(part[1])
                else:
                    chunks.append(channels[(template_id, slot)][index])
                    slot += 1
            line = b"".join(chunks)
            total += len(line)
            # + len(lines) accounts for the newline separators so a
            # hostile id stream cannot balloon the output mid-loop.
            if total + len(lines) > original_length:
                raise CorruptStreamError("template: output exceeds declared length")
            lines.append(line)
        out = b"\n".join(lines)
        if len(out) != original_length:
            raise CorruptStreamError("template: output length mismatch")
        return out

    @staticmethod
    def _decode_channel(
        payload: bytes, offset: int, count: int
    ) -> Tuple[List[bytes], int]:
        limit = len(payload)
        if offset >= limit:
            raise CorruptStreamError("template: truncated channel")
        mode = payload[offset]
        offset += 1
        values: List[bytes] = []
        if mode in (_CH_INT_DELTA, _CH_INT_FIXED):
            width = 0
            if mode == _CH_INT_FIXED:
                if offset >= limit:
                    raise CorruptStreamError("template: truncated channel width")
                width = payload[offset]
                offset += 1
                if width == 0:
                    raise CorruptStreamError("template: zero channel width")
            previous = 0
            for _ in range(count):
                encoded, offset = read_varint(payload, offset)
                previous += _unzigzag_int(encoded)
                token = b"%d" % previous
                if mode == _CH_INT_FIXED:
                    token = token.zfill(width)
                values.append(token)
        elif mode == _CH_IP_PACKED:
            if 4 * count > limit - offset:
                raise CorruptStreamError("template: truncated ip channel")
            for _ in range(count):
                quad = payload[offset:offset + 4]
                offset += 4
                values.append(b"%d.%d.%d.%d" % tuple(quad))
        elif mode == _CH_HEX_NIBBLES:
            for _ in range(count):
                nibbles, offset = read_varint(payload, offset)
                packed_len = (nibbles + 1) // 2
                if packed_len > limit - offset:
                    raise CorruptStreamError("template: truncated hex channel")
                text = payload[offset:offset + packed_len].hex().encode("ascii")
                offset += packed_len
                values.append(text[:nibbles])
        elif mode == _CH_RAW:
            for _ in range(count):
                length, offset = read_varint(payload, offset)
                if length > limit - offset:
                    raise CorruptStreamError("template: truncated raw channel")
                values.append(payload[offset:offset + length])
                offset += length
        else:
            raise CorruptStreamError(f"template: unknown channel mode {mode}")
        return values, offset


# ---------------------------------------------------------------------------
# Columnar codec
# ---------------------------------------------------------------------------

_COL_RAW = 0
_COL_DELTA = 1
_COL_DOD = 2

_MIN_RECORDS = 4
_MAX_RECORD_WIDTH = 4096

# Candidate record widths, most common telemetry layouts first; the
# scored detection below breaks ties toward earlier entries.
_CANDIDATE_WIDTHS = (64, 56, 48, 40, 32, 24, 16, 8, 12, 20, 28, 4)


class ColumnarCodec(Codec):
    """Columnar delta/bitpack compression for fixed-width record streams."""

    name = "columnar"
    family = "structured"

    def is_fallback(self, payload: bytes) -> bool:
        """True when ``payload`` took the whole-block raw escape."""
        head = bytes(payload[:4])
        return len(head) == 4 and head[:2] == _COLUMNAR_MAGIC and head[3] == _MODE_RAW

    # -- encode -------------------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        data = bytes(data)
        structured = self._encode_structured(data)
        if structured is not None and len(structured[0]) < len(data):
            payload, fields, channel_bytes = structured
            record_structured_block(
                get_registry(), self.name, fallback=False, templates=fields,
                channel_bytes=channel_bytes,
            )
            return payload
        record_structured_block(get_registry(), self.name, fallback=True)
        return _COLUMNAR_MAGIC + bytes((_VERSION, _MODE_RAW)) + data

    def _encode_structured(
        self, data: bytes
    ) -> Optional[Tuple[bytes, int, Dict[str, int]]]:
        size = len(data)
        if size < _MIN_RECORDS * 4 or size > MAX_STRUCTURED_OUTPUT:
            return None
        layout = self._detect_layout(data)
        if layout is None:
            return None
        record_width, field_width = layout
        columns = self._columns(data, record_width, field_width)

        out = bytearray(_COLUMNAR_MAGIC)
        out.append(_VERSION)
        out.append(_MODE_STRUCTURED)
        write_varint(out, size)
        write_varint(out, record_width)
        out.append(field_width)
        write_varint(out, size // record_width)
        channel_bytes = {"raw": 0, "delta": 0, "dod": 0}
        for column in columns:
            before = len(out)
            label = self._encode_column(out, column, field_width)
            channel_bytes[label] += len(out) - before
        return bytes(out), record_width // field_width, channel_bytes

    @staticmethod
    def _columns(data: bytes, record_width: int, field_width: int) -> List[np.ndarray]:
        dtype = "<u8" if field_width == 8 else "<u4"
        table = np.frombuffer(data, dtype=dtype).reshape(-1, record_width // field_width)
        return [np.ascontiguousarray(table[:, index]) for index in range(table.shape[1])]

    @classmethod
    def _detect_layout(cls, data: bytes) -> Optional[Tuple[int, int]]:
        """Score candidate (record_width, field_width) layouts cheaply."""
        size = len(data)
        best: Optional[Tuple[int, int, int]] = None
        for record_width in _CANDIDATE_WIDTHS:
            if size % record_width or size // record_width < _MIN_RECORDS:
                continue
            field_widths = (8, 4) if record_width % 8 == 0 else (4,)
            for field_width in field_widths:
                cost = 0
                for column in cls._columns(data, record_width, field_width):
                    cost += cls._plan_column(column, field_width)[1]
                if best is None or cost < best[0]:
                    best = (cost, record_width, field_width)
        if best is None:
            return None
        return best[1], best[2]

    @staticmethod
    def _plan_column(column: np.ndarray, field_width: int) -> Tuple[int, int]:
        """Choose the cheapest column mode; returns (mode, size_bytes)."""
        count = len(column)
        raw_size = 1 + count * field_width
        best_mode, best_size = _COL_RAW, raw_size
        signed_view = "<i8" if field_width == 8 else "<i4"
        deltas = (column[1:] - column[:-1]).view(signed_view).astype("<i8")
        encoded = zigzag_encode(deltas)
        first_cost = varint_size(int(column[0]))
        if count >= 2:
            width = int(encoded.max()).bit_length() if encoded.size else 0
            delta_size = 1 + first_cost + 1 + ((count - 1) * width + 7) // 8
            if delta_size < best_size:
                best_mode, best_size = _COL_DELTA, delta_size
        if count >= 3:
            second = zigzag_encode(deltas[1:] - deltas[:-1])
            width = int(second.max()).bit_length() if second.size else 0
            dod_size = (
                1
                + first_cost
                + varint_size(int(encoded[0]))
                + 1
                + ((count - 2) * width + 7) // 8
            )
            if dod_size < best_size:
                best_mode, best_size = _COL_DOD, dod_size
        return best_mode, best_size

    @classmethod
    def _encode_column(cls, out: bytearray, column: np.ndarray, field_width: int) -> str:
        mode, _ = cls._plan_column(column, field_width)
        count = len(column)
        signed_view = "<i8" if field_width == 8 else "<i4"
        if mode == _COL_RAW:
            out.append(_COL_RAW)
            out += column.tobytes()
            return "raw"
        deltas = (column[1:] - column[:-1]).view(signed_view).astype("<i8")
        encoded = zigzag_encode(deltas)
        if mode == _COL_DELTA:
            out.append(_COL_DELTA)
            write_varint(out, int(column[0]))
            width = int(encoded.max()).bit_length() if encoded.size else 0
            out.append(width)
            out += bitpack(encoded, width)
            return "delta"
        out.append(_COL_DOD)
        write_varint(out, int(column[0]))
        write_varint(out, int(encoded[0]))
        second = zigzag_encode(deltas[1:] - deltas[:-1])
        width = int(second.max()).bit_length() if second.size else 0
        out.append(width)
        out += bitpack(second, width)
        return "dod"

    # -- decode -------------------------------------------------------------

    def decompress(self, payload: bytes) -> bytes:
        payload = bytes(payload)
        if len(payload) < 4 or payload[:2] != _COLUMNAR_MAGIC:
            raise CorruptStreamError("columnar: bad magic")
        if payload[2] != _VERSION:
            raise CorruptStreamError(f"columnar: unknown version {payload[2]}")
        mode = payload[3]
        if mode == _MODE_RAW:
            return payload[4:]
        if mode != _MODE_STRUCTURED:
            raise CorruptStreamError(f"columnar: unknown mode {mode}")
        limit = len(payload)
        offset = 4
        original_length, offset = read_varint(payload, offset)
        if original_length == 0 or original_length > MAX_STRUCTURED_OUTPUT:
            raise CorruptStreamError("columnar: implausible output length")
        record_width, offset = read_varint(payload, offset)
        if record_width == 0 or record_width > _MAX_RECORD_WIDTH:
            raise CorruptStreamError("columnar: bad record width")
        if offset >= limit:
            raise CorruptStreamError("columnar: truncated header")
        field_width = payload[offset]
        offset += 1
        if field_width not in (4, 8) or record_width % field_width:
            raise CorruptStreamError("columnar: bad field width")
        record_count, offset = read_varint(payload, offset)
        if record_count * record_width != original_length:
            raise CorruptStreamError("columnar: record count/length mismatch")
        fields = record_width // field_width
        columns = []
        for _ in range(fields):
            column, offset = self._decode_column(payload, offset, record_count, field_width)
            columns.append(column)
        dtype = "<u8" if field_width == 8 else "<u4"
        table = np.empty((record_count, fields), dtype=dtype)
        for index, column in enumerate(columns):
            table[:, index] = column.astype(dtype)
        out = table.tobytes()
        if len(out) != original_length:
            raise CorruptStreamError("columnar: output length mismatch")
        return out

    @staticmethod
    def _decode_column(
        payload: bytes, offset: int, count: int, field_width: int
    ) -> Tuple[np.ndarray, int]:
        limit = len(payload)
        if offset >= limit:
            raise CorruptStreamError("columnar: truncated column")
        mode = payload[offset]
        offset += 1
        if mode == _COL_RAW:
            need = count * field_width
            if need > limit - offset:
                raise CorruptStreamError("columnar: truncated raw column")
            dtype = "<u8" if field_width == 8 else "<u4"
            column = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
            return column.astype("<u8"), offset + need
        if mode not in (_COL_DELTA, _COL_DOD):
            raise CorruptStreamError(f"columnar: unknown column mode {mode}")
        first, offset = read_varint(payload, offset)
        if first > _U64_MASK:
            raise CorruptStreamError("columnar: first value out of range")
        first_delta = 0
        if mode == _COL_DOD:
            if count < 2:
                raise CorruptStreamError("columnar: dod column needs >= 2 records")
            first_delta, offset = read_varint(payload, offset)
            if first_delta > _U64_MASK:
                raise CorruptStreamError("columnar: first delta out of range")
        if offset >= limit:
            raise CorruptStreamError("columnar: truncated bit width")
        width = payload[offset]
        offset += 1
        if width > 64:
            raise CorruptStreamError("columnar: bit width out of range")
        packed_count = count - 1 if mode == _COL_DELTA else count - 2
        packed_count = max(packed_count, 0)
        need = (packed_count * width + 7) // 8
        if need > limit - offset:
            raise CorruptStreamError("columnar: truncated packed column")
        unpacked = bitunpack(payload[offset:offset + need], packed_count, width)
        offset += need
        if mode == _COL_DELTA:
            return undelta_zigzag(first, unpacked), offset
        second = zigzag_decode(unpacked).view("<u8")
        deltas = np.empty(packed_count + 1, dtype="<u8")
        delta0 = np.uint64(_unzigzag_int(first_delta) & _U64_MASK)
        deltas[0] = delta0
        if packed_count:
            deltas[1:] = delta0 + np.cumsum(second, dtype="<u8")
        column = np.empty(count, dtype="<u8")
        column[0] = np.uint64(first)
        column[1:] = np.uint64(first) + np.cumsum(deltas, dtype="<u8")
        return column, offset

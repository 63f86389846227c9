"""Common codec interface for the configurable-compression library.

Every compression method in the paper (Huffman, arithmetic, Lempel-Ziv,
Burrows-Wheeler, and the "no compression" identity) is exposed through the
same two-method interface so the selection algorithm and the middleware
handlers can treat them uniformly.

A codec is *stateless* between calls: all state needed for decompression is
embedded in the compressed representation itself.  This mirrors the paper's
design in which any block can be handed to a receiver that only knows which
method id was used (transported as a quality attribute).
"""

from __future__ import annotations

import abc
from typing import Mapping, Optional, Tuple

__all__ = [
    "ACCEPTABLE_DECODE_ERRORS",
    "Codec",
    "CodecError",
    "CorruptStreamError",
    "ReductionMetrics",
    "canonical_params",
    "params_label",
]


class CodecError(Exception):
    """Base class for all compression-related failures."""


class CorruptStreamError(CodecError, ValueError):
    """The compressed representation cannot be decoded.

    Also a :class:`ValueError`: corrupt wire input is a bad value, and the
    shared framing module serves layers whose callers historically caught
    ``ValueError`` (the event wire format).
    """


#: The corruption contract: for *any* input bytes, ``decompress`` either
#: returns bytes (entropy coders cannot always detect damage — wrong
#: output is acceptable) or raises one of these.  ``EOFError`` covers bit
#: exhaustion in the bit-level readers.  Anything else (IndexError,
#: struct.error, a hang, ...) is a codec bug; the conformance kit and the
#: fuzz gate both assert against this exact tuple.
ACCEPTABLE_DECODE_ERRORS = (CorruptStreamError, EOFError)


def _canonical_value(value: object) -> object:
    """Normalize one parameter value for canonical comparison/hashing.

    Numeric values that denote the same quantity canonicalize identically
    (``6`` and ``6.0`` collapse to ``6``), mappings recurse into sorted
    key order, and sequences become tuples.  Booleans are *tagged*: a
    flag is not the number 1, but ``True == 1`` in Python, so a bare bool
    would collide with an int under dict hashing.  Anything else must
    already be hashable.
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, Mapping):
        return tuple(
            (str(k), _canonical_value(v)) for k, v in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(v) for v in value)
    return value


def canonical_params(
    params: Optional[Mapping[str, object]],
) -> Tuple[Tuple[str, object], ...]:
    """Canonicalize a codec-parameter mapping into one hashable key.

    Cache keys and metric labels must treat ``{"level": 6}`` and every
    equivalent spelling (different insertion order, ``6.0`` for ``6``)
    as the *same* configuration — otherwise a shared compressed-block
    cache fragments and label cardinality multiplies.  This is the one
    helper both sides use: keys are sorted, values normalized by
    :func:`_canonical_value`, and ``None``/empty maps canonicalize to
    the empty tuple.
    """
    if not params:
        return ()
    return tuple((str(k), _canonical_value(v)) for k, v in sorted(params.items()))


def _label_value(value: object) -> str:
    if isinstance(value, tuple) and len(value) == 2 and value[0] == "bool":
        return str(value[1])  # unwrap the canonical bool tag
    if isinstance(value, str):
        return repr(value)
    return str(value)


def params_label(params) -> str:
    """Render canonical params as a compact, stable metric-label value.

    ``{"level": 6}`` -> ``"level=6"``; empty/None -> ``"-"`` (labels must
    be non-empty strings).  Accepts either a raw mapping or an
    already-canonical tuple from :func:`canonical_params` (cache keys
    carry the latter); equivalent spellings always label identically.
    """
    canon = params if isinstance(params, tuple) else canonical_params(params)
    if not canon:
        return "-"
    return ",".join(f"{key}={_label_value(value)}" for key, value in canon)


class Codec(abc.ABC):
    """Abstract lossless codec.

    Subclasses define :attr:`name` (stable registry key, also used as the
    method id in middleware attributes) and implement :meth:`compress` /
    :meth:`decompress` such that ``decompress(compress(data)) == data`` for
    every ``bytes`` input.
    """

    #: Stable identifier used by the registry and the wire protocol.
    name: str = "abstract"

    #: Method family (``entropy``, ``dictionary``, ``block-sorting``,
    #: ``structured``, ``identity``).  ``repro methods`` prints it and the
    #: conformance kit runs ``structured-fallback`` on the ``structured``
    #: family; the selector does not read it.
    family: str = "generic"

    @abc.abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Return a self-describing compressed representation of ``data``."""

    @abc.abstractmethod
    def decompress(self, payload: bytes) -> bytes:
        """Invert :meth:`compress`; raises :class:`CorruptStreamError`."""

    def compressed_size(self, data: bytes) -> int:
        """``len(self.compress(data))``; a codec that can count its output
        without writing it overrides this (a modeled probe reads only the
        size)."""
        return len(self.compress(data))

    def ratio(self, data: bytes) -> float:
        """Compressed size as a fraction of the original size.

        Matches the paper's "percents of compression" axis (Figures 2 and 6)
        when multiplied by 100.  Empty inputs compress to ratio 1.0 by
        convention.
        """
        if not data:
            return 1.0
        return len(self.compress(data)) / len(data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class ReductionMetrics:
    """How far, and how fast, one timed codec run shrank its input.

    The one definition of ``ratio`` / ``bytes_saved`` / ``reducing_speed``,
    mixed into every record that carries ``original_size``,
    ``compressed_size`` and the run's CPU seconds (under the attribute
    the record names in ``_seconds_attr``).
    """

    _seconds_attr = "compression_seconds"

    @property
    def ratio(self) -> float:
        """Compressed/original size; 1.0 for empty input."""
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size

    @property
    def bytes_saved(self) -> int:
        """How many bytes compression removed (never negative)."""
        return max(0, self.original_size - self.compressed_size)

    @property
    def reducing_speed(self) -> float:
        """Bytes removed per second of CPU time (paper §4.1, Figure 4)."""
        seconds = getattr(self, self._seconds_attr)
        if seconds <= 0.0:
            return float("inf") if self.bytes_saved else 0.0
        return self.bytes_saved / seconds

"""Differential testing: our codecs cross-checked against references.

Three families of oracle, per the bicriteria-compression argument that
compressor choice must be *verified*, not assumed:

* **Wire-level counterparts.**  The native codecs emit standard formats
  (zlib's DEFLATE, bz2's bzip2), so the standard library can decode what
  we encode and vice versa — a full cross-implementation check of the
  wire bytes, not just a round trip through our own code.  ``lzma`` is
  wired the same way and activates automatically if an xz-family codec
  is ever registered (none is today).
* **Scalar vs vectorized.**  The rewritten hot loops (Huffman code
  construction and decode tables, the Huffman and Lempel-Ziv decode
  kernel, the Lempel-Ziv match finder and field packer, mtf/rle/bwt)
  must be byte-identical to the classic scalar formulations kept in
  :mod:`repro.verify.references`: one ``(subject, kernel, oracle,
  prepare)`` row of :data:`_ROWS` each, all run by :func:`_compare`.
* **Serial vs parallel.**  A :class:`ParallelCodec` must emit identical
  container bytes under every pool strategy — the strategy is an
  execution detail, never a wire-format input.

Both sides of every comparison are timed through
:func:`repro.core.engine.measure_callable` (the one sanctioned timing
site), so a differential run doubles as a reference-speed probe.
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..compression import native as _native
from ..compression.base import ACCEPTABLE_DECODE_ERRORS
from ..compression.bwt import bwt_inverse, bwt_transform
from ..compression.huffman import (
    HuffmanCode,
    _bitstring_to_bytes,
    _decode_tables,
    huffman_code_lengths,
)
from ..compression.lz77 import Lz77Codec, tokenize
from ..compression.mtf import mtf_decode, mtf_encode
from ..compression.parallel import ParallelCodec
from ..compression.registry import available_codecs, get_codec
from ..compression.rle import rle_decode, rle_encode
from ..compression.structured import bitpack, bitunpack, delta_zigzag, undelta_zigzag
from ..core.engine import measure_callable
from .corpus import CorpusGenerator
from .references import (
    reference_bitpack,
    reference_bitunpack,
    reference_bwt_inverse,
    reference_bwt_transform,
    reference_canonical_codes,
    reference_decode_tables,
    reference_delta_zigzag,
    reference_huffman_code_lengths,
    reference_huffman_decode,
    reference_lz77_decode,
    reference_lz77_encode,
    reference_lz77_tokenize,
    reference_mtf_decode,
    reference_mtf_encode,
    reference_rle_decode,
    reference_rle_encode,
    reference_undelta_zigzag,
)

__all__ = [
    "DifferentialResult",
    "REFERENCE_COUNTERPARTS",
    "counterpart_for",
    "run_differential",
    "differential_failures",
    "diff_wire_counterpart",
    "diff_scalar_vectorized",
    "diff_serial_parallel",
]


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of one differential comparison."""

    kind: str
    subject: str
    case: str
    passed: bool
    detail: str = ""
    subject_seconds: float = 0.0
    reference_seconds: float = 0.0


@dataclass(frozen=True)
class ReferenceCounterpart:
    """A standard-library codec sharing a wire format with one of ours."""

    label: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]


#: Registry-name -> standard-library counterpart.  Keyed by codec name so
#: a newly registered xz-family codec picks up the lzma oracle for free.
REFERENCE_COUNTERPARTS: Dict[str, ReferenceCounterpart] = {
    "lempel-ziv-native": ReferenceCounterpart(
        label="zlib", compress=zlib.compress, decompress=zlib.decompress
    ),
    "burrows-wheeler-native": ReferenceCounterpart(
        label="bz2", compress=bz2.compress, decompress=bz2.decompress
    ),
    "lzma-native": ReferenceCounterpart(
        label="lzma", compress=lzma.compress, decompress=lzma.decompress
    ),
}

# The optional fast-compressor tier gets its oracles only when a binding
# is importable — matching the registry, which skips the codecs then.
# The counterpart drives the binding's *module-level* one-shot helpers at
# default settings while our codec goes through the object API: the check
# is that the wrapper emits the standard frame format (level and API
# choices must not leak into decodability).
if _native.HAVE_ZSTD:
    REFERENCE_COUNTERPARTS["zstd-native"] = ReferenceCounterpart(
        label="zstd",
        compress=lambda data: _native._zstd_impl.compress(data),
        decompress=lambda payload: _native._zstd_impl.decompress(payload),
    )
if _native.HAVE_LZ4:
    import lz4.frame as _lz4_frame  # type: ignore[import-not-found]

    REFERENCE_COUNTERPARTS["lz4-native"] = ReferenceCounterpart(
        label="lz4", compress=_lz4_frame.compress, decompress=_lz4_frame.decompress
    )


def counterpart_for(name: str) -> Optional[ReferenceCounterpart]:
    """The standard-library counterpart for ``name``, if one exists."""
    return REFERENCE_COUNTERPARTS.get(name)


def diff_wire_counterpart(name: str, case: str, data: bytes) -> List[DifferentialResult]:
    """Cross-decode: reference reads our bytes, we read the reference's."""
    reference = counterpart_for(name)
    if reference is None:
        return []
    codec = get_codec(name)
    ours = measure_callable(name, codec.compress, data)
    theirs = measure_callable(reference.label, reference.compress, data)
    assert ours.payload is not None and theirs.payload is not None
    results = []
    for direction, reader, decode, writer, encoded in (
        (f"ours->{reference.label}", reference.label, reference.decompress, "our", ours.payload),
        (f"{reference.label}->ours", "we", codec.decompress, reference.label, theirs.payload),
    ):
        try:
            decoded = decode(encoded)
            ok, detail = decoded == data, "" if decoded == data else (
                f"{reader} decoded {writer} bytes to {len(decoded)} bytes, want {len(data)}"
            )
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, f"{reader} rejected {writer} bytes: {exc!r}"
        results.append(
            DifferentialResult(
                kind="wire-counterpart",
                subject=name,
                case=f"{case}:{direction}",
                passed=ok,
                detail=detail,
                subject_seconds=ours.elapsed_seconds,
                reference_seconds=theirs.elapsed_seconds,
            )
        )
    return results


def _frequency_vectors(data: bytes) -> List[List[int]]:
    """The byte frequencies of ``data``, and a skew of them that no code
    of :data:`~repro.compression.huffman.MAX_CODE_LENGTH` bits fits:
    Fibonacci weights down the frequency ranking (the most lopsided tree
    there is), which sends construction through its clamp-and-repair tail."""
    frequencies = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256).tolist()
    ranking = sorted(range(256), key=lambda sym: -frequencies[sym])
    skewed = [0] * 256
    weight, following = 1, 1
    for sym in reversed(ranking[:40]):
        if frequencies[sym]:
            skewed[sym] = weight
            weight, following = following, weight + following
    return [frequencies, skewed]


def _exact_tables(tables_of: Callable, profiles: List[Tuple[int, ...]]) -> List[Tuple[str, bytes]]:
    """Both decode tables of every length profile, in a form ``==`` compares exactly."""
    return [
        (table.dtype.str, table.tobytes())
        for lengths in profiles
        for table in tables_of(lengths)
    ]


def _outcome(decode: Callable, *args: object) -> Tuple[str, object]:
    """``("ok", result)`` or ``("raised", exception class)`` — a decoder
    and its oracle must agree on either."""
    try:
        return "ok", decode(*args)
    except ACCEPTABLE_DECODE_ERRORS as exc:
        return "raised", type(exc)


def _huffman_stream(start_bit: int, divisor: int, data: bytes) -> Optional[tuple]:
    """``(code, its encoded stream, start_bit, len(data) // divisor)`` —
    ``reference_huffman_decode``'s arguments; decoders get no empty input."""
    if not data:
        return None
    frequencies = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    code = HuffmanCode.from_frequencies(frequencies.tolist())
    stream = _bitstring_to_bytes(code.encode_bitstring(data))
    return code, stream, start_bit, len(data) // divisor


def _column(width: int, data: bytes) -> Optional[List[int]]:
    """The 8-byte fields of ``data`` as a uint64 column (the view the
    columnar codec takes), masked to ``width`` bits, as Python ints; rows
    over it skip a buffer shorter than two fields."""
    usable = len(data) - len(data) % 8
    if usable < 16:
        return None
    column = np.frombuffer(data[:usable], dtype="<u8")
    return (column & np.uint64((1 << width) - 1)).tolist()


def _pack_round_trip(pack: Callable, unpack: Callable, width: int, values: List[int]) -> tuple:
    """``(packed bytes, the values unpacked from those bytes)``."""
    packed = pack(values, width)
    return packed, np.asarray(unpack(packed, len(values), width), dtype=np.uint64).tolist()


def _same(value: object) -> object:
    return value


class _Row(NamedTuple):
    """One scalar-vs-kernel comparison — a line of :data:`_ROWS`.

    ``prepare`` turns a corpus buffer into the one input both sides get
    (``None``: the row does not apply to that buffer).  ``kernel`` is the
    production array formulation, ``oracle`` the scalar one built on
    :mod:`repro.verify.references`; their outputs must be ``==``.  A row
    for an inverse transform runs the round trip on both sides and names
    in ``restored`` the part of the output that must also equal the
    input: the known answer two equally wrong inverses cannot agree on.
    """

    subject: str
    kernel: Callable
    oracle: Callable
    prepare: Callable = _same
    restored: Optional[Callable] = None


_LZ77 = Lz77Codec()

#: Bit widths the bitpack rows sweep: the packer's byte-aligned sweet
#: spots, the odd widths that straddle byte boundaries, and the
#: degenerate 1/64 extremes.
_BITPACK_WIDTHS = (1, 7, 12, 24, 33, 64)

_ROWS: Tuple[_Row, ...] = (
    # The shared decode kernel against the per-symbol loops.  Huffman from
    # the true start and from a guessed, unaligned one (the
    # self-synchronizing decode of §2.4): same symbols and same end bit,
    # or the same refusal.
    *(
        _Row(
            subject,
            lambda job: _outcome(job[0].decode_symbols, *job[1:]),
            lambda job: _outcome(reference_huffman_decode, *job),
            partial(_huffman_stream, start_bit, divisor),
        )
        for subject, start_bit, divisor in (
            ("huffman-decode", 0, 1),
            ("huffman-decode-resync", 13, 2),
        )
    ),
    _Row(
        "lz77-decode",
        partial(_outcome, _LZ77.decompress),
        partial(_outcome, reference_lz77_decode),
        lambda data: _LZ77.compress(data) if data else None,
    ),
    # Code construction, on the case's byte frequencies and a skew of them:
    # two-queue merge + per-length code assignment against the heap of
    # symbol lists and the sorted walk, then the np.repeat table layout
    # against one slice-assign per codeword.
    _Row(
        "huffman-lengths",
        lambda vectors: [(ls, HuffmanCode(ls).codes) for ls in map(huffman_code_lengths, vectors)],
        lambda vectors: [
            (ls, reference_canonical_codes(ls))
            for ls in map(reference_huffman_code_lengths, vectors)
        ],
        _frequency_vectors,
    ),
    _Row(
        "huffman-decode-tables",
        partial(_exact_tables, _decode_tables.__wrapped__),
        partial(_exact_tables, reference_decode_tables),
        lambda data: [tuple(huffman_code_lengths(v)) for v in _frequency_vectors(data)],
    ),
    _Row("mtf-encode", mtf_encode, reference_mtf_encode),
    _Row("rle-encode", rle_encode, reference_rle_encode),
    # The array match finder token for token, then parse + field packer
    # byte for byte against hash chains and one BitWriter call per field.
    _Row("lz77-tokenize", tokenize, reference_lz77_tokenize),
    _Row("lz77-encode", _LZ77.compress, reference_lz77_encode),
    # Decoders run on the (already cross-checked) encoded form.
    _Row("mtf-decode", mtf_decode, reference_mtf_decode, mtf_encode),
    _Row("rle-decode", rle_decode, reference_rle_decode, rle_encode),
    # The scalar suffix sort is O(n² log n): cap the input.
    _Row("bwt-transform", bwt_transform, reference_bwt_transform, lambda data: data[:2048]),
    _Row(
        "bwt-inverse",
        lambda sample: bwt_inverse(*bwt_transform(sample)),
        lambda sample: reference_bwt_inverse(*reference_bwt_transform(sample)),
        lambda data: data[:2048],
        restored=_same,
    ),
    # The structured codecs' column primitives, bit for bit.
    _Row(
        "delta-zigzag",
        lambda values: delta_zigzag(values).tolist(),
        reference_delta_zigzag,
        partial(_column, 64),
    ),
    _Row(
        "undelta-zigzag",
        lambda values: undelta_zigzag(values[0], delta_zigzag(values)).tolist(),
        lambda values: reference_undelta_zigzag(values[0], reference_delta_zigzag(values)),
        partial(_column, 64),
        restored=_same,
    ),
    *(
        _Row(
            f"bitpack-{width}",
            partial(_pack_round_trip, bitpack, bitunpack, width),
            partial(_pack_round_trip, reference_bitpack, reference_bitunpack, width),
            partial(_column, width),
            restored=itemgetter(1),
        )
        for width in _BITPACK_WIDTHS
    ),
)


def _compare(row: _Row, case: str, data: bytes) -> Optional[DifferentialResult]:
    """Run one row on one corpus buffer, both sides under the timer."""
    prepared = row.prepare(data)
    if prepared is None:
        return None
    fast = measure_callable(f"{row.subject}:numpy", row.kernel, prepared)
    slow = measure_callable(f"{row.subject}:scalar", row.oracle, prepared)
    detail = ""
    if fast.payload != slow.payload:
        detail = "kernel output diverged from the scalar oracle"
    elif row.restored is not None and row.restored(slow.payload) != prepared:
        detail = "kernel and oracle agree but do not restore the input"
    return DifferentialResult(
        kind="scalar-vectorized",
        subject=row.subject,
        case=case,
        passed=not detail,
        detail=detail,
        subject_seconds=fast.elapsed_seconds,
        reference_seconds=slow.elapsed_seconds,
    )


def diff_scalar_vectorized(case: str, data: bytes) -> List[DifferentialResult]:
    """Every row of :data:`_ROWS` that applies to ``data``: the array
    kernels against the scalar textbook loops."""
    results = (_compare(row, case, data) for row in _ROWS)
    return [result for result in results if result is not None]


def diff_serial_parallel(
    base_name: str, case: str, data: bytes, chunk_size: int = 4096
) -> List[DifferentialResult]:
    """A ParallelCodec's wire bytes must not depend on the pool strategy."""
    base = get_codec(base_name)
    serial = ParallelCodec(base, chunk_size=chunk_size, strategy="serial")
    threaded = ParallelCodec(base, chunk_size=chunk_size, workers=3, strategy="threads")
    serial_run = measure_callable("serial", serial.compress, data)
    threaded_run = measure_callable("threads", threaded.compress, data)
    ok = serial_run.payload == threaded_run.payload
    results = [
        DifferentialResult(
            kind="serial-parallel",
            subject=f"parallel:{base_name}",
            case=case,
            passed=ok,
            detail="" if ok else "pool strategy leaked into the wire bytes",
            subject_seconds=threaded_run.elapsed_seconds,
            reference_seconds=serial_run.elapsed_seconds,
        )
    ]
    assert serial_run.payload is not None
    restored = threaded.decompress(serial_run.payload)
    ok = restored == data
    results.append(
        DifferentialResult(
            kind="serial-parallel",
            subject=f"parallel:{base_name}",
            case=f"{case}:cross-decode",
            passed=ok,
            detail="" if ok else "threaded decode of serial container diverged",
        )
    )
    return results


def run_differential(corpus: Optional[Dict[str, bytes]] = None) -> List[DifferentialResult]:
    """The full differential sweep used by tests and the fuzz gate."""
    if corpus is None:
        corpus = CorpusGenerator(size=8192).as_dict()
    results: List[DifferentialResult] = []
    registered = set(available_codecs())
    for case in ("commercial", "lowentropy", "rle-adversarial", "zero-runs", "incompressible"):
        data = corpus.get(case)
        if data is None:
            continue
        for codec_name in sorted(registered & set(REFERENCE_COUNTERPARTS)):
            results.extend(diff_wire_counterpart(codec_name, case, data))
        results.extend(diff_scalar_vectorized(case, data))
    sample = corpus.get("commercial") or next(iter(corpus.values()))
    results.extend(diff_serial_parallel("lempel-ziv", "commercial", sample))
    results.extend(diff_serial_parallel("huffman", "commercial", sample))
    return results


def differential_failures(
    results: Iterable[DifferentialResult],
) -> List[DifferentialResult]:
    """The failed subset, for assertion messages and gate output."""
    return [result for result in results if not result.passed]

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
  :mod:`repro.verify.references`.
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

import numpy as np
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

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
    "diff_structured_primitives",
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
    results = []
    assert ours.payload is not None and theirs.payload is not None
    try:
        cross = reference.decompress(ours.payload)
        ok, detail = cross == data, "" if cross == data else (
            f"{reference.label} decoded our bytes to {len(cross)} bytes, "
            f"want {len(data)}"
        )
    except Exception as exc:  # noqa: BLE001
        ok, detail = False, f"{reference.label} rejected our bytes: {exc!r}"
    results.append(
        DifferentialResult(
            kind="wire-counterpart",
            subject=name,
            case=f"{case}:ours->{reference.label}",
            passed=ok,
            detail=detail,
            subject_seconds=ours.elapsed_seconds,
            reference_seconds=theirs.elapsed_seconds,
        )
    )
    try:
        back = codec.decompress(theirs.payload)
        ok, detail = back == data, "" if back == data else (
            f"we decoded {reference.label} bytes to {len(back)} bytes, "
            f"want {len(data)}"
        )
    except Exception as exc:  # noqa: BLE001
        ok, detail = False, f"we rejected {reference.label} bytes: {exc!r}"
    results.append(
        DifferentialResult(
            kind="wire-counterpart",
            subject=name,
            case=f"{case}:{reference.label}->ours",
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


def _huffman_codes(lengths_of: Callable, codes_of: Callable) -> Callable:
    """``data -> [(lengths, codes), ...]`` over :func:`_frequency_vectors`."""

    def build(data: bytes) -> List[Tuple[List[int], List[int]]]:
        profiles = [lengths_of(vector) for vector in _frequency_vectors(data)]
        return [(lengths, codes_of(lengths)) for lengths in profiles]

    return build


def _huffman_tables(tables_of: Callable) -> Callable:
    """``data -> [(dtype, bytes), ...]``: both decode tables of every code
    :func:`_huffman_codes` builds, in a form ``==`` compares exactly."""

    def build(data: bytes) -> List[Tuple[str, bytes]]:
        return [
            (table.dtype.str, table.tobytes())
            for vector in _frequency_vectors(data)
            for table in tables_of(tuple(huffman_code_lengths(vector)))
        ]

    return build


_SCALAR_PAIRS: Tuple[Tuple[str, Callable, Callable], ...] = (
    # Code construction: two-queue merge + per-length code assignment
    # against the heap of symbol lists and the sorted walk, then the
    # np.repeat table layout against one slice-assign per codeword.
    (
        "huffman-lengths",
        _huffman_codes(huffman_code_lengths, lambda lengths: HuffmanCode(lengths).codes),
        _huffman_codes(reference_huffman_code_lengths, reference_canonical_codes),
    ),
    (
        "huffman-decode-tables",
        _huffman_tables(_decode_tables.__wrapped__),
        _huffman_tables(reference_decode_tables),
    ),
    ("mtf-encode", mtf_encode, reference_mtf_encode),
    ("rle-encode", rle_encode, reference_rle_encode),
    # The array match finder token for token, then parse + field packer
    # byte for byte against hash chains and one BitWriter call per field.
    ("lz77-tokenize", tokenize, reference_lz77_tokenize),
    ("lz77-encode", Lz77Codec().compress, reference_lz77_encode),
)


def _outcome(decode: Callable, *args: object) -> Tuple[str, object]:
    """``("ok", result)`` or ``("raised", exception class)`` — a decoder
    and its oracle must agree on either."""
    try:
        return "ok", decode(*args)
    except ACCEPTABLE_DECODE_ERRORS as exc:
        return "raised", type(exc)


def _diff_decode_kernel(case: str, data: bytes) -> List[DifferentialResult]:
    """The Huffman / Lempel-Ziv decode kernel vs the per-symbol loops.

    Huffman is compared from the true start and from a guessed,
    unaligned one (the self-synchronizing decode of §2.4): same symbols
    and same end bit, or the same refusal.
    """
    frequencies = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    code = HuffmanCode.from_frequencies(frequencies.tolist())
    stream = _bitstring_to_bytes(code.encode_bitstring(data))
    lz = get_codec("lempel-ziv")

    def huffman_pair(start_bit: int, count: int) -> Tuple[Callable, Callable]:
        return (
            lambda bits: _outcome(code.decode_symbols, bits, start_bit, count),
            lambda bits: _outcome(reference_huffman_decode, code, bits, start_bit, count),
        )

    rows = (
        ("huffman-decode", stream, *huffman_pair(0, len(data))),
        ("huffman-decode-resync", stream, *huffman_pair(13, len(data) // 2)),
        (
            "lz77-decode",
            lz.compress(data),
            lambda payload: _outcome(lz.decompress, payload),
            lambda payload: _outcome(reference_lz77_decode, payload),
        ),
    )
    results = []
    for label, encoded, kernel, scalar in rows:
        fast = measure_callable(f"{label}:numpy", kernel, encoded)
        slow = measure_callable(f"{label}:scalar", scalar, encoded)
        ok = fast.payload == slow.payload
        results.append(
            DifferentialResult(
                kind="scalar-vectorized", subject=label, case=case, passed=ok,
                detail="" if ok else "decode kernel diverged from the per-symbol loop",
                subject_seconds=fast.elapsed_seconds,
                reference_seconds=slow.elapsed_seconds,
            )
        )
    return results


def diff_scalar_vectorized(case: str, data: bytes) -> List[DifferentialResult]:
    """The vectorized decode-kernel/lz77/mtf/rle/bwt paths vs the scalar textbook loops."""
    results = _diff_decode_kernel(case, data) if data else []
    for label, vectorized, scalar in _SCALAR_PAIRS:
        fast = measure_callable(f"{label}:numpy", vectorized, data)
        slow = measure_callable(f"{label}:scalar", scalar, data)
        ok = fast.payload == slow.payload
        results.append(
            DifferentialResult(
                kind="scalar-vectorized",
                subject=label,
                case=case,
                passed=ok,
                detail="" if ok else "vectorized output diverged from scalar",
                subject_seconds=fast.elapsed_seconds,
                reference_seconds=slow.elapsed_seconds,
            )
        )
    # Decoders: run on the (already cross-checked) encoded form.
    encoded_mtf = mtf_encode(data)
    ok = mtf_decode(encoded_mtf) == reference_mtf_decode(encoded_mtf)
    results.append(
        DifferentialResult(
            kind="scalar-vectorized", subject="mtf-decode", case=case, passed=ok,
            detail="" if ok else "vectorized mtf decode diverged from scalar",
        )
    )
    encoded_rle = rle_encode(data)
    ok = rle_decode(encoded_rle) == reference_rle_decode(encoded_rle)
    results.append(
        DifferentialResult(
            kind="scalar-vectorized", subject="rle-decode", case=case, passed=ok,
            detail="" if ok else "vectorized rle decode diverged from scalar",
        )
    )
    # BWT is O(n² log n) in the scalar reference; cap the input.
    sample = data[:2048]
    fast_column, fast_primary = bwt_transform(sample)
    slow_column, slow_primary = reference_bwt_transform(sample)
    ok = (fast_column, fast_primary) == (slow_column, slow_primary)
    results.append(
        DifferentialResult(
            kind="scalar-vectorized", subject="bwt-transform", case=case, passed=ok,
            detail="" if ok else "prefix-doubling BWT diverged from suffix sort",
        )
    )
    if ok:
        restored = bwt_inverse(fast_column, fast_primary)
        reference = reference_bwt_inverse(slow_column, slow_primary)
        ok = restored == reference == sample
        results.append(
            DifferentialResult(
                kind="scalar-vectorized", subject="bwt-inverse", case=case, passed=ok,
                detail="" if ok else "pointer-doubling inverse diverged from LF walk",
            )
        )
    return results


#: Bit widths the structured-primitive differential sweeps: the packer's
#: byte-aligned sweet spots, the odd widths that straddle byte boundaries,
#: and the degenerate 1/64 extremes.
_BITPACK_WIDTHS = (1, 7, 12, 24, 33, 64)


def diff_structured_primitives(case: str, data: bytes) -> List[DifferentialResult]:
    """The structured codecs' column primitives vs the scalar oracles.

    The corpus bytes are reinterpreted as a uint64 column (the same view
    the columnar codec takes of an 8-byte field), then the vectorized
    delta/zigzag/bitpack pipeline is cross-checked bit-for-bit against
    the per-value loops in :mod:`repro.verify.references`.
    """
    usable = len(data) - len(data) % 8
    if usable < 16:
        return []
    column = np.frombuffer(data[:usable], dtype="<u8")
    scalar_column = [int(v) for v in column]
    results = []

    fast = measure_callable("delta-zigzag:numpy", delta_zigzag, column)
    slow = measure_callable("delta-zigzag:scalar", reference_delta_zigzag, scalar_column)
    assert fast.payload is not None and slow.payload is not None
    ok = [int(v) for v in fast.payload] == slow.payload
    results.append(
        DifferentialResult(
            kind="scalar-vectorized",
            subject="delta-zigzag",
            case=case,
            passed=ok,
            detail="" if ok else "vectorized delta-zigzag diverged from scalar",
            subject_seconds=fast.elapsed_seconds,
            reference_seconds=slow.elapsed_seconds,
        )
    )

    encoded = delta_zigzag(column)
    restored = undelta_zigzag(scalar_column[0], encoded)
    reference = reference_undelta_zigzag(scalar_column[0], slow.payload)
    ok = [int(v) for v in restored] == reference == scalar_column
    results.append(
        DifferentialResult(
            kind="scalar-vectorized",
            subject="undelta-zigzag",
            case=case,
            passed=ok,
            detail="" if ok else "vectorized undelta-zigzag diverged from scalar",
        )
    )

    for width in _BITPACK_WIDTHS:
        narrowed = column & np.uint64((1 << width) - 1)
        scalar_narrowed = [int(v) for v in narrowed]
        packed = bitpack(narrowed, width)
        ok = packed == reference_bitpack(scalar_narrowed, width)
        detail = "" if ok else "vectorized bitpack diverged from scalar"
        if ok:
            unpacked = bitunpack(packed, len(narrowed), width)
            ok = (
                [int(v) for v in unpacked]
                == reference_bitunpack(packed, len(scalar_narrowed), width)
                == scalar_narrowed
            )
            detail = "" if ok else "vectorized bitunpack diverged from scalar"
        results.append(
            DifferentialResult(
                kind="scalar-vectorized",
                subject=f"bitpack-{width}",
                case=case,
                passed=ok,
                detail=detail,
            )
        )
    return results


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


def run_differential(
    corpus: Optional[Dict[str, bytes]] = None,
    cases: Optional[Iterable[str]] = None,
) -> List[DifferentialResult]:
    """The full differential sweep used by tests and the fuzz gate."""
    if corpus is None:
        corpus = CorpusGenerator(size=8192).as_dict()
    names = list(cases) if cases is not None else [
        "commercial", "lowentropy", "rle-adversarial", "zero-runs", "incompressible",
    ]
    results: List[DifferentialResult] = []
    registered = set(available_codecs())
    for case in names:
        data = corpus.get(case)
        if data is None:
            continue
        for codec_name in sorted(registered & set(REFERENCE_COUNTERPARTS)):
            results.extend(diff_wire_counterpart(codec_name, case, data))
        results.extend(diff_scalar_vectorized(case, data))
        results.extend(diff_structured_primitives(case, data))
    sample = corpus.get("commercial") or next(iter(corpus.values()))
    results.extend(diff_serial_parallel("lempel-ziv", "commercial", sample))
    results.extend(diff_serial_parallel("huffman", "commercial", sample))
    return results


def differential_failures(
    results: Iterable[DifferentialResult],
) -> List[DifferentialResult]:
    """The failed subset, for assertion messages and gate output."""
    return [result for result in results if not result.passed]

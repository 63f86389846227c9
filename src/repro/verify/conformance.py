"""The codec conformance kit: declarative invariants over the registry.

Paper §3.2 lets "a new compression method … be introduced at any time
during a system's operation".  That extensibility is only safe if every
registered codec honors the contracts the middleware builds on, so this
module states them **once**, declaratively, and runs them against every
entry :func:`~repro.compression.registry.available_codecs` returns — a
newly registered codec is conformance-checked with zero new test code.

The invariants (one check function each, all registered in
:data:`CONFORMANCE_CHECKS`):

* ``roundtrip-identity`` — ``decompress(compress(x)) == x`` over the
  seeded corpus (lossless codecs).
* ``deterministic-wire`` — compressing the same block twice yields the
  same bytes; stateless codecs have no business being nondeterministic
  (the serial-vs-pooled and differential oracles rely on this).
* ``edge-corpora`` — the degenerate shapes (empty, 1-byte, all-equal,
  incompressible) survive a round trip.
* ``streaming-wire-equality`` — a :class:`StreamingCompressor` stream
  equals the concatenation of per-block frames, and the streaming
  decoder recovers the input from arbitrary chunk splits.
* ``block-boundary-resume`` — codecs exposing ``decode_from`` (the BW
  pipeline's 255-marker resynchronization) recover a chunk-aligned
  suffix from any starting offset.
* ``expansion-guard`` — under :class:`~repro.core.engine.CodecExecutor`'s
  expansion fallback, an incompressible block ships as ``none`` with the
  original bytes, never larger than the input.
* ``corruption-discipline`` — mutated payloads either raise one of
  :data:`~repro.compression.base.ACCEPTABLE_DECODE_ERRORS` or return
  bytes; any other exception is a conformance failure.
* ``lossy-contract`` — lossy codecs preserve shape (length) on aligned
  float64 input, honor their declared error bound, and reject unaligned
  input with the contract exceptions.
* ``size`` — ``compressed_size(x) == len(compress(x))``, at the
  registered instance and at every parameter point the bicriteria grid
  builds for the codec (the modeled §2.5 probe reads the size alone, so a
  size that drifted from the bytes would move every decision).
* ``structured-fallback`` — structure-aware codecs (family
  ``structured``) fed non-conforming input (binary noise, empty, a
  single byte) must engage their whole-block raw fallback and still
  round-trip byte-exact; mining structure out of noise is a bug even
  when it happens to round-trip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..compression.base import ACCEPTABLE_DECODE_ERRORS, Codec
from ..compression.framing import encode_block_frame
from ..compression.registry import available_codecs, get_codec
from ..compression.streaming import StreamingCompressor, StreamingDecompressor
from ..core.bicriteria import codec_for, default_candidates
from ..core.engine import CodecExecutor
from .corpus import EDGE_CASES, CorpusGenerator
from .fuzz import mutated_copies

__all__ = [
    "CheckResult",
    "CONFORMANCE_CHECKS",
    "run_conformance",
    "conformance_failures",
]

#: Streaming check geometry: small enough that even the arithmetic coder
#: stays fast, large enough for several frames plus a partial tail.
_STREAM_BLOCK = 2048
_STREAM_LENGTH = 3 * _STREAM_BLOCK + 513


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one (check, codec, case) cell."""

    check: str
    codec: str
    case: str
    passed: bool
    detail: str = ""


CheckFn = Callable[[str, Codec, Dict[str, bytes]], Iterator[CheckResult]]

#: The declarative suite: check name -> generator of results.
CONFORMANCE_CHECKS: Dict[str, CheckFn] = {}


def _check(name: str) -> Callable[[CheckFn], CheckFn]:
    def register(fn: CheckFn) -> CheckFn:
        CONFORMANCE_CHECKS[name] = fn
        return fn

    return register


def _result(check: str, codec: str, case: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(check=check, codec=codec, case=case, passed=passed, detail=detail)


def _is_lossy(codec: Codec) -> bool:
    return codec.family == "lossy"


def _float_block(corpus: Dict[str, bytes]) -> bytes:
    source = corpus.get("molecular-coordinates")
    if source and len(source) >= 8:
        return source[: len(source) - len(source) % 8]
    return np.linspace(-4.0, 4.0, 1024).astype("<f8").tobytes()


@_check("roundtrip-identity")
def check_roundtrip(name: str, codec: Codec, corpus: Dict[str, bytes]) -> Iterator[CheckResult]:
    if _is_lossy(codec):
        return
    for case, data in corpus.items():
        try:
            restored = codec.decompress(codec.compress(data))
        except Exception as exc:  # noqa: BLE001 - the kit reports, never raises
            yield _result("roundtrip-identity", name, case, False, f"raised {exc!r}")
            continue
        yield _result(
            "roundtrip-identity", name, case, restored == data,
            "" if restored == data else
            f"round trip changed {len(data)} bytes into {len(restored)}",
        )


@_check("deterministic-wire")
def check_deterministic(name: str, codec: Codec, corpus: Dict[str, bytes]) -> Iterator[CheckResult]:
    for case in ("commercial", "lowentropy", "all-equal"):
        data = corpus.get(case)
        if data is None:
            continue
        if _is_lossy(codec):
            data = _float_block(corpus)
            case = "float64"
        try:
            first, second = codec.compress(data), codec.compress(data)
        except Exception as exc:  # noqa: BLE001
            yield _result("deterministic-wire", name, case, False, f"raised {exc!r}")
            continue
        yield _result(
            "deterministic-wire", name, case, first == second,
            "" if first == second else "same block compressed to different bytes",
        )
        if _is_lossy(codec):
            break


@_check("edge-corpora")
def check_edges(name: str, codec: Codec, corpus: Dict[str, bytes]) -> Iterator[CheckResult]:
    if _is_lossy(codec):
        return
    for case, data in EDGE_CASES.items():
        try:
            ok = codec.decompress(codec.compress(data)) == data
            detail = "" if ok else "edge round trip mismatched"
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, f"raised {exc!r}"
        yield _result("edge-corpora", name, case, ok, detail)


@_check("streaming-wire-equality")
def check_streaming(name: str, codec: Codec, corpus: Dict[str, bytes]) -> Iterator[CheckResult]:
    if _is_lossy(codec):
        return
    data = (corpus.get("commercial") or corpus.get("lowentropy") or b"")[:_STREAM_LENGTH]
    if len(data) < _STREAM_BLOCK + 1:
        return
    compressor = StreamingCompressor(method=name, block_size=_STREAM_BLOCK)
    stream = compressor.write(data) + compressor.flush()
    expected = bytearray()
    for start in range(0, len(data), _STREAM_BLOCK):
        block = data[start : start + _STREAM_BLOCK]
        expected += encode_block_frame(name, codec.compress(block))
    equal = stream == bytes(expected)
    yield _result(
        "streaming-wire-equality", name, "wire", equal,
        "" if equal else "streamed frames differ from per-block framing",
    )
    decompressor = StreamingDecompressor()
    out = bytearray()
    rng = random.Random(f"stream:{name}")
    position = 0
    while position < len(stream):
        step = rng.randrange(1, 700)
        out += decompressor.write(stream[position : position + step])
        position += step
    decompressor.close()
    ok = bytes(out) == data
    yield _result(
        "streaming-wire-equality", name, "chunked-decode", ok,
        "" if ok else "streaming decoder did not reproduce the input",
    )


@_check("block-boundary-resume")
def check_resume(name: str, codec: Codec, corpus: Dict[str, bytes]) -> Iterator[CheckResult]:
    if hasattr(codec, "decode_from"):
        chunk_size = getattr(codec, "chunk_size", 32768)
        base = corpus.get("lowentropy") or corpus.get("commercial") or b""
        while len(base) < 3 * chunk_size + chunk_size // 2:
            base += base or b"resume corpus "
        data = base[: 3 * chunk_size + chunk_size // 2]
        chunks = [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]
        suffixes = {b"".join(chunks[k:]) for k in range(len(chunks) + 1)}
        payload = codec.compress(data)
        rng = random.Random(f"resume:{name}")
        offsets = [0] + sorted(rng.randrange(1, len(payload) * 8) for _ in range(6))
        for start_bit in offsets:
            try:
                recovered, count = codec.decode_from(payload, start_bit)
            except ACCEPTABLE_DECODE_ERRORS:
                continue
            except Exception as exc:  # noqa: BLE001
                yield _result(
                    "block-boundary-resume", name, f"bit={start_bit}", False,
                    f"raised {exc!r}",
                )
                continue
            aligned = recovered in suffixes
            if start_bit == 0:
                aligned = aligned and recovered == data and count == len(chunks)
            yield _result(
                "block-boundary-resume", name, f"bit={start_bit}", aligned,
                "" if aligned else
                f"recovered {len(recovered)} bytes ({count} chunks) is not a "
                "chunk-aligned suffix",
            )


@_check("expansion-guard")
def check_expansion_guard(
    name: str, codec: Codec, corpus: Dict[str, bytes]
) -> Iterator[CheckResult]:
    if _is_lossy(codec):
        return
    block = corpus.get("incompressible")
    if not block:
        return
    executor = CodecExecutor(expansion_fallback=True)
    try:
        execution = executor.compress(name, block, codec=codec)
    except Exception as exc:  # noqa: BLE001
        yield _result("expansion-guard", name, "incompressible", False, f"raised {exc!r}")
        return
    if execution.fell_back:
        ok = execution.method == "none" and execution.payload == block
        detail = "" if ok else "fallback did not ship the original bytes as 'none'"
    else:
        ok = len(execution.payload) < len(block) or name == "none"
        detail = "" if ok else "expanded payload escaped the guard"
    yield _result("expansion-guard", name, "incompressible", ok, detail)


@_check("corruption-discipline")
def check_corruption(name: str, codec: Codec, corpus: Dict[str, bytes]) -> Iterator[CheckResult]:
    if _is_lossy(codec):
        data = _float_block(corpus)[:4096]
    else:
        data = (corpus.get("commercial") or corpus.get("lowentropy") or b"corpus ")[:4096]
        if name.startswith("arithmetic"):
            data = data[:2048]
    payload = codec.compress(data)
    rng = random.Random(f"corrupt:{name}")
    failures = 0
    detail = ""
    for mutated in mutated_copies(payload, rng, count=16):
        try:
            result = codec.decompress(mutated)
        except ACCEPTABLE_DECODE_ERRORS:
            continue
        except Exception as exc:  # noqa: BLE001
            failures += 1
            detail = f"raised {type(exc).__name__}: {exc}"
            continue
        if not isinstance(result, bytes):
            failures += 1
            detail = f"returned {type(result).__name__}, not bytes"
    yield _result(
        "corruption-discipline", name, "mutations", failures == 0,
        detail if failures else "",
    )


@_check("buffer-protocol-inputs")
def check_buffer_inputs(
    name: str, codec: Codec, corpus: Dict[str, bytes]
) -> Iterator[CheckResult]:
    """Codecs must accept any buffer-protocol input with identical wire bytes.

    The zero-copy pipeline hands codecs ``memoryview`` slices of larger
    buffers (engine blocks, cached payloads) and ``bytearray`` scratch
    space; the wire bytes must not depend on the container type, or the
    differential oracles and the bench's CRC gates would diverge based on
    which layer called compress.
    """
    if _is_lossy(codec):
        data = _float_block(corpus)[:4096]
    else:
        data = (corpus.get("commercial") or corpus.get("lowentropy") or b"corpus ")[:4096]
        if name.startswith("arithmetic"):
            data = data[:2048]
    try:
        baseline = codec.compress(data)
    except Exception as exc:  # noqa: BLE001
        yield _result("buffer-protocol-inputs", name, "bytes", False, f"raised {exc!r}")
        return
    variants = {
        "bytearray": bytearray(data),
        "memoryview": memoryview(data),
        "memoryview-slice": memoryview(b"\x00" + data + b"\x00")[1:-1],
    }
    for case, variant in variants.items():
        try:
            wire = codec.compress(variant)
        except Exception as exc:  # noqa: BLE001
            yield _result("buffer-protocol-inputs", name, case, False, f"raised {exc!r}")
            continue
        yield _result(
            "buffer-protocol-inputs", name, case, wire == baseline,
            "" if wire == baseline else
            f"{case} input compressed to different wire bytes than bytes input",
        )
    for case, payload in (
        ("decompress-bytearray", bytearray(baseline)),
        ("decompress-memoryview", memoryview(baseline)),
    ):
        try:
            restored = codec.decompress(payload)
        except Exception as exc:  # noqa: BLE001
            yield _result("buffer-protocol-inputs", name, case, False, f"raised {exc!r}")
            continue
        expected = codec.decompress(baseline)
        yield _result(
            "buffer-protocol-inputs", name, case, restored == expected,
            "" if restored == expected else
            f"{case} decoded differently than the bytes payload",
        )


@_check("size")
def check_size(name: str, codec: Codec, corpus: Dict[str, bytes]) -> Iterator[CheckResult]:
    if _is_lossy(codec):
        cases = {"float64": _float_block(corpus)[:4096]}
    else:
        limit = 2048 if name.startswith("arithmetic") else 4096
        cases = dict(EDGE_CASES)
        for case in ("commercial", "lowentropy", "incompressible"):
            if case in corpus:
                cases[case] = corpus[case][:limit]
    points = [("", codec)] + [
        (f"{spec.label}:", codec_for(name, spec.params))
        for spec in default_candidates(native=False)
        if spec.method == name and spec.params
    ]
    for point, instance in points:
        for case, data in cases.items():
            try:
                size, wire = instance.compressed_size(data), len(instance.compress(data))
            except Exception as exc:  # noqa: BLE001
                yield _result("size", name, point + case, False, f"raised {exc!r}")
                continue
            yield _result(
                "size", name, point + case, size == wire,
                "" if size == wire else f"compressed_size {size} but compress wrote {wire} bytes",
            )


@_check("lossy-contract")
def check_lossy(name: str, codec: Codec, corpus: Dict[str, bytes]) -> Iterator[CheckResult]:
    if not _is_lossy(codec):
        return
    data = _float_block(corpus)
    try:
        restored = codec.decompress(codec.compress(data))
    except Exception as exc:  # noqa: BLE001
        yield _result("lossy-contract", name, "float64", False, f"raised {exc!r}")
        return
    ok = len(restored) == len(data)
    detail = "" if ok else "lossy round trip changed the payload length"
    if ok and hasattr(codec, "max_error"):
        error = float(
            np.max(
                np.abs(
                    np.frombuffer(restored, dtype="<f8")
                    - np.frombuffer(data, dtype="<f8")
                )
            )
        ) if data else 0.0
        bound = codec.max_error()
        ok = error <= bound * (1 + 1e-9)
        detail = "" if ok else f"error {error:g} exceeds declared bound {bound:g}"
    yield _result("lossy-contract", name, "float64", ok, detail)
    try:
        codec.compress(b"\x01" * 7)
    except ACCEPTABLE_DECODE_ERRORS:
        yield _result("lossy-contract", name, "unaligned-reject", True)
    except Exception as exc:  # noqa: BLE001
        yield _result(
            "lossy-contract", name, "unaligned-reject", False,
            f"unaligned input raised {type(exc).__name__} instead of the contract set",
        )
    else:
        yield _result(
            "lossy-contract", name, "unaligned-reject", False,
            "unaligned input was accepted silently",
        )


@_check("structured-fallback")
def check_structured_fallback(
    name: str, codec: Codec, corpus: Dict[str, bytes]
) -> Iterator[CheckResult]:
    """Non-conforming input must take the raw fallback and round-trip."""
    if getattr(codec, "family", "") != "structured":
        return
    noise = corpus.get("incompressible") or bytes(range(256)) * 16
    cases = (
        ("binary-noise", noise),
        ("empty", b""),
        ("single-byte", b"\x5a"),
    )
    for case, data in cases:
        try:
            payload = codec.compress(data)
            fell_back = bool(codec.is_fallback(payload))
            restored = codec.decompress(payload)
        except Exception as exc:  # noqa: BLE001
            yield _result("structured-fallback", name, case, False, f"raised {exc!r}")
            continue
        if restored != data:
            ok, detail = False, "fallback round trip did not restore the input"
        elif not fell_back:
            ok, detail = False, "structured mode engaged on non-conforming input"
        else:
            ok, detail = True, ""
        yield _result("structured-fallback", name, case, ok, detail)


def run_conformance(
    names: Optional[Iterable[str]] = None,
    corpus: Optional[Dict[str, bytes]] = None,
    checks: Optional[Iterable[str]] = None,
) -> List[CheckResult]:
    """Run the kit over ``names`` (default: every registered codec).

    Never raises on codec misbehavior — every violation comes back as a
    failed :class:`CheckResult`, so one broken codec cannot mask another.
    """
    if corpus is None:
        corpus = CorpusGenerator().as_dict()
    selected = list(names) if names is not None else available_codecs()
    check_names = list(checks) if checks is not None else list(CONFORMANCE_CHECKS)
    results: List[CheckResult] = []
    for name in selected:
        codec = get_codec(name)
        for check_name in check_names:
            fn = CONFORMANCE_CHECKS[check_name]
            try:
                results.extend(fn(name, codec, corpus))
            except Exception as exc:  # noqa: BLE001 - a crashing check is a failure
                results.append(
                    _result(check_name, name, "harness", False, f"check crashed: {exc!r}")
                )
    return results


def conformance_failures(results: Iterable[CheckResult]) -> List[CheckResult]:
    """The failed subset, for assertion messages and gate output."""
    return [result for result in results if not result.passed]

"""The conformance kit: every registered codec, zero per-codec test code.

The kit's own guarantee is tested from both sides: the real registry must
pass every check, and a deliberately broken codec registered on the fly
must be flagged without writing a single codec-specific assertion.
"""

import pytest

from repro.compression.base import Codec, CorruptStreamError
from repro.compression.registry import (
    available_codecs,
    register_codec,
    unregister_codec,
)
from repro.verify.conformance import (
    CONFORMANCE_CHECKS,
    conformance_failures,
    run_conformance,
)
from repro.verify.corpus import CorpusGenerator


@pytest.fixture(scope="module")
def small_corpus():
    return CorpusGenerator(size=4096).as_dict()


@pytest.fixture(scope="module")
def full_results(small_corpus):
    """One kit run over the whole registry, shared by the module."""
    return run_conformance(corpus=small_corpus)


class TestRegistryConformance:
    def test_every_codec_passes(self, full_results):
        failures = conformance_failures(full_results)
        assert not failures, "\n".join(
            f"{f.check} {f.codec} {f.case}: {f.detail}" for f in failures
        )

    def test_every_codec_is_covered(self, full_results):
        covered = {result.codec for result in full_results}
        assert covered == set(available_codecs())

    def test_every_check_ran(self, full_results):
        ran = {result.check for result in full_results}
        # Lossy-only and lossless-only checks still emit skipped-as-passed
        # results, so the full registry exercises the complete kit.
        assert ran == set(CONFORMANCE_CHECKS)


class _TruncatingCodec(Codec):
    """Broken on purpose: drops the last byte of every round trip."""

    name = "broken-truncating"
    family = "test"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, payload: bytes) -> bytes:
        return payload[:-1]


class _CrashingCodec(Codec):
    """Broken on purpose: decode crashes outside the contract."""

    name = "broken-crashing"
    family = "test"

    def compress(self, data: bytes) -> bytes:
        return bytes(reversed(data))

    def decompress(self, payload: bytes) -> bytes:
        # Odd lengths are always present in the canonical mutation set
        # (payload and payload[:-1] differ in parity).
        if len(payload) % 2 == 1:
            raise IndexError("outside the corruption contract")
        return bytes(reversed(payload))


class TestBrokenCodecIsFlagged:
    """Registering a bad codec is all it takes — the kit finds it."""

    @pytest.mark.parametrize("codec_class", [_TruncatingCodec, _CrashingCodec])
    def test_flagged_with_zero_new_test_code(self, codec_class, small_corpus):
        register_codec(codec_class.name, codec_class)
        try:
            results = run_conformance(names=[codec_class.name], corpus=small_corpus)
        finally:
            unregister_codec(codec_class.name)
        failures = conformance_failures(results)
        assert failures, f"kit missed the deliberately broken {codec_class.name}"
        assert all(f.codec == codec_class.name for f in failures)

    def test_contract_exceptions_are_not_flagged(self, small_corpus):
        class _RejectingCodec(Codec):
            name = "broken-rejecting"
            family = "test"

            def compress(self, data: bytes) -> bytes:
                return data

            def decompress(self, payload: bytes) -> bytes:
                if payload and payload[0] & 1:
                    raise CorruptStreamError("contract rejection is allowed")
                return payload

        register_codec(_RejectingCodec.name, _RejectingCodec)
        try:
            results = run_conformance(
                names=[_RejectingCodec.name],
                corpus=small_corpus,
                checks=["corruption-discipline"],
            )
        finally:
            unregister_codec(_RejectingCodec.name)
        assert not conformance_failures(results)


class TestBufferProtocolCheck:
    """The buffer-protocol-inputs check: bytes/bytearray/memoryview parity."""

    def test_check_is_part_of_the_kit(self):
        assert "buffer-protocol-inputs" in CONFORMANCE_CHECKS

    def test_input_type_sensitive_codec_is_flagged(self, small_corpus):
        class _TypeSensitiveCodec(Codec):
            """Broken on purpose: views compress differently than bytes."""

            name = "broken-type-sensitive"
            family = "test"

            def compress(self, data: bytes) -> bytes:
                if isinstance(data, bytes):
                    return data
                return bytes(data) + b"\x00"  # views get a stray suffix

            def decompress(self, payload: bytes) -> bytes:
                return bytes(payload).rstrip(b"\x00")

        register_codec(_TypeSensitiveCodec.name, _TypeSensitiveCodec)
        try:
            results = run_conformance(
                names=[_TypeSensitiveCodec.name],
                corpus=small_corpus,
                checks=["buffer-protocol-inputs"],
            )
        finally:
            unregister_codec(_TypeSensitiveCodec.name)
        failures = conformance_failures(results)
        assert failures, "kit missed the input-type-sensitive codec"
        assert all(f.check == "buffer-protocol-inputs" for f in failures)


class TestSizeCheck:
    """The size check: ``compressed_size`` is the length ``compress`` writes."""

    def test_lempel_ziv_is_checked_at_every_grid_point(self, full_results):
        cases = {r.case for r in full_results if r.check == "size" and r.codec == "lempel-ziv"}
        assert {"commercial", "lempel-ziv[max_chain=32]:commercial",
                "lempel-ziv[max_chain=4,window=4096]:commercial"} <= cases

    def test_a_size_that_drifts_from_the_bytes_is_flagged(self, small_corpus):
        class _MiscountingCodec(Codec):
            """Broken on purpose: counts one byte fewer than it writes."""

            name = "broken-miscounting"
            family = "test"

            def compress(self, data: bytes) -> bytes:
                return bytes(data)

            def decompress(self, payload: bytes) -> bytes:
                return bytes(payload)

            def compressed_size(self, data: bytes) -> int:
                return max(len(data) - 1, 0)

        register_codec(_MiscountingCodec.name, _MiscountingCodec)
        try:
            results = run_conformance(
                names=[_MiscountingCodec.name], corpus=small_corpus, checks=["size"]
            )
        finally:
            unregister_codec(_MiscountingCodec.name)
        failures = conformance_failures(results)
        assert failures and all(f.check == "size" for f in failures)
        # Only the empty input is counted right.
        assert [r.case for r in results if r.passed] == ["empty"]

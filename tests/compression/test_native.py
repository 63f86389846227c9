"""The optional native codec tier: gating when absent, fidelity when present.

The zstd/lz4 codecs are optional by contract: without a binding the
classes stay importable, ``HAVE_ZSTD``/``HAVE_LZ4`` are False, and every
consumer (registry, candidate grids) either skips the tier or fails
eagerly with a clear error.  The always-run tests here
pin that contract on whichever side this environment happens to be; the
``skipif`` tests exercise the codecs themselves when a binding exists
(CI's native-codecs leg installs both).
"""

import pytest

from repro.compression.base import CodecError, CorruptStreamError
from repro.compression.native import (
    HAVE_LZ4,
    HAVE_ZSTD,
    NativeLz4Codec,
    NativeZstdCodec,
)
from repro.compression.registry import available_codecs, get_codec
from repro.core.bicriteria import default_candidates
from repro.verify.differential import REFERENCE_COUNTERPARTS


class TestRegistration:
    def test_registered_exactly_when_binding_present(self):
        codecs = set(available_codecs())
        assert ("zstd-native" in codecs) == HAVE_ZSTD
        assert ("lz4-native" in codecs) == HAVE_LZ4

    def test_differential_oracle_tracks_registration(self):
        assert ("zstd-native" in REFERENCE_COUNTERPARTS) == HAVE_ZSTD
        assert ("lz4-native" in REFERENCE_COUNTERPARTS) == HAVE_LZ4


class TestCandidateGrid:
    def test_native_false_pins_pure_python(self):
        methods = {spec.method for spec in default_candidates(native=False)}
        assert "zstd-native" not in methods
        assert "lz4-native" not in methods

    def test_native_none_follows_the_flags(self):
        methods = {spec.method for spec in default_candidates()}
        assert ("zstd-native" in methods) == HAVE_ZSTD
        assert ("lz4-native" in methods) == HAVE_LZ4

    @pytest.mark.skipif(HAVE_ZSTD and HAVE_LZ4, reason="both bindings present")
    def test_native_true_without_bindings_fails_eagerly(self):
        with pytest.raises(CodecError, match="not registered"):
            default_candidates(native=True)

    @pytest.mark.skipif(not (HAVE_ZSTD and HAVE_LZ4), reason="needs both bindings")
    def test_native_true_with_bindings_includes_the_tier(self):
        methods = {spec.method for spec in default_candidates(native=True)}
        assert {"zstd-native", "lz4-native"} <= methods


@pytest.mark.skipif(HAVE_ZSTD, reason="zstd binding present")
class TestZstdAbsent:
    def test_constructor_raises_runtime_error(self):
        with pytest.raises(RuntimeError, match="zstd"):
            NativeZstdCodec()

    def test_not_in_registry(self):
        with pytest.raises(CodecError):
            get_codec("zstd-native")


@pytest.mark.skipif(HAVE_LZ4, reason="lz4 binding present")
class TestLz4Absent:
    def test_constructor_raises_runtime_error(self):
        with pytest.raises(RuntimeError, match="lz4"):
            NativeLz4Codec()

    def test_not_in_registry(self):
        with pytest.raises(CodecError):
            get_codec("lz4-native")


@pytest.mark.skipif(not HAVE_ZSTD, reason="no zstd binding")
class TestZstdPresent:
    def test_round_trip(self, commercial_block):
        codec = get_codec("zstd-native")
        data = commercial_block[:32768]
        wire = codec.compress(data)
        assert len(wire) < len(data)
        assert codec.decompress(wire) == data

    def test_buffer_protocol_inputs_identical(self, commercial_block):
        codec = get_codec("zstd-native")
        data = commercial_block[:8192]
        baseline = codec.compress(data)
        assert codec.compress(bytearray(data)) == baseline
        assert codec.compress(memoryview(data)) == baseline

    def test_corruption_rejected_with_contract_error(self, commercial_block):
        codec = get_codec("zstd-native")
        wire = bytearray(codec.compress(commercial_block[:8192]))
        wire[len(wire) // 2] ^= 0xFF
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(wire))

    def test_level_validated(self):
        with pytest.raises(ValueError):
            NativeZstdCodec(level=0)
        with pytest.raises(ValueError):
            NativeZstdCodec(level=20)


@pytest.mark.skipif(not HAVE_LZ4, reason="no lz4 binding")
class TestLz4Present:
    def test_round_trip(self, commercial_block):
        codec = get_codec("lz4-native")
        data = commercial_block[:32768]
        wire = codec.compress(data)
        assert len(wire) < len(data)
        assert codec.decompress(wire) == data

    def test_buffer_protocol_inputs_identical(self, commercial_block):
        codec = get_codec("lz4-native")
        data = commercial_block[:8192]
        baseline = codec.compress(data)
        assert codec.compress(bytearray(data)) == baseline
        assert codec.compress(memoryview(data)) == baseline

    def test_corruption_rejected_with_contract_error(self, commercial_block):
        codec = get_codec("lz4-native")
        wire = bytearray(codec.compress(commercial_block[:8192]))
        wire[len(wire) // 2] ^= 0xFF
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(wire))

    def test_level_validated(self):
        with pytest.raises(ValueError):
            NativeLz4Codec(compression_level=-1)
        with pytest.raises(ValueError):
            NativeLz4Codec(compression_level=17)

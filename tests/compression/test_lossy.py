"""Unit tests for the application-specific lossy codecs (paper §5)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import CorruptStreamError
from repro.compression.lossy import QuantizedFloatCodec, TruncatedFloatCodec
from tests.strategies import examples


def floats_to_bytes(values):
    return np.asarray(values, dtype="<f8").tobytes()


def bytes_to_floats(payload):
    return np.frombuffer(payload, dtype="<f8")


class TestQuantizedFloatCodec:
    def test_error_bound_respected(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-100, 100, size=5000)
        codec = QuantizedFloatCodec(tolerance=1e-3)
        restored = bytes_to_floats(codec.decompress(codec.compress(values.tobytes())))
        assert np.abs(restored - values).max() <= codec.max_error() + 1e-12

    @pytest.mark.parametrize("tolerance", [1e-1, 1e-3, 1e-6])
    def test_tighter_tolerance_bigger_payload(self, tolerance):
        rng = np.random.default_rng(2)
        data = floats_to_bytes(rng.uniform(-10, 10, size=4000))
        codec = QuantizedFloatCodec(tolerance=tolerance)
        restored = bytes_to_floats(codec.decompress(codec.compress(data)))
        assert np.abs(restored - bytes_to_floats(data)).max() <= tolerance + 1e-12

    def test_payload_grows_as_tolerance_shrinks(self):
        rng = np.random.default_rng(3)
        data = floats_to_bytes(rng.uniform(-10, 10, size=4000))
        coarse = len(QuantizedFloatCodec(tolerance=1e-1).compress(data))
        fine = len(QuantizedFloatCodec(tolerance=1e-5).compress(data))
        assert coarse < fine

    def test_beats_lossless_on_random_coordinates(self):
        from repro.compression.lz77 import Lz77Codec
        from repro.data.molecular import MolecularDataGenerator

        coords = MolecularDataGenerator(4096, seed=5).coordinates_block()
        lossy = QuantizedFloatCodec(tolerance=1e-3).compress(coords)
        lossless = Lz77Codec().compress(coords)
        assert len(lossy) < len(lossless) * 0.5  # the §5 motivation

    def test_smooth_series_compress_extremely_well(self):
        values = np.linspace(0.0, 1.0, 8000)
        codec = QuantizedFloatCodec(tolerance=1e-4)
        payload = codec.compress(values.tobytes())
        assert len(payload) < len(values.tobytes()) * 0.05

    def test_empty(self):
        codec = QuantizedFloatCodec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_large_jump_escape_path(self):
        values = np.array([0.0, 1e9, -1e9, 0.5, 1e9])
        codec = QuantizedFloatCodec(tolerance=1e-3)
        restored = bytes_to_floats(codec.decompress(codec.compress(values.tobytes())))
        assert np.abs(restored - values).max() <= codec.max_error() + 1e-3

    def test_non_float_payload_rejected(self):
        with pytest.raises(CorruptStreamError):
            QuantizedFloatCodec().compress(b"abc")

    def test_nan_rejected(self):
        with pytest.raises(CorruptStreamError):
            QuantizedFloatCodec().compress(floats_to_bytes([1.0, float("nan")]))

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            QuantizedFloatCodec(tolerance=0.0)

    def test_bad_magic(self):
        with pytest.raises(CorruptStreamError):
            QuantizedFloatCodec().decompress(b"XXXX" + b"\x00" * 16)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            max_size=300,
        )
    )
    @examples(40)
    def test_error_bound_property(self, values):
        codec = QuantizedFloatCodec(tolerance=1e-2)
        data = floats_to_bytes(values)
        restored = bytes_to_floats(codec.decompress(codec.compress(data)))
        if values:
            assert np.abs(restored - np.asarray(values)).max() <= codec.max_error() + 1e-9


class TestTruncatedFloatCodec:
    def test_relative_error_bound(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(-1e6, 1e6, size=5000)
        codec = TruncatedFloatCodec(mantissa_bits=20)
        restored = bytes_to_floats(codec.decompress(codec.compress(values.tobytes())))
        relative = np.abs((restored - values) / values)
        assert relative.max() <= codec.max_relative_error()

    def test_full_mantissa_is_lossless(self):
        rng = np.random.default_rng(5)
        data = floats_to_bytes(rng.uniform(-1, 1, size=1000))
        codec = TruncatedFloatCodec(mantissa_bits=52)
        assert codec.decompress(codec.compress(data)) == data

    def test_fewer_bits_smaller_payload(self):
        rng = np.random.default_rng(6)
        data = floats_to_bytes(rng.uniform(-1, 1, size=4000))
        small = len(TruncatedFloatCodec(mantissa_bits=8).compress(data))
        large = len(TruncatedFloatCodec(mantissa_bits=44).compress(data))
        assert small < large

    def test_signs_and_zeros_preserved(self):
        values = np.array([0.0, -0.0, 1.5, -1.5, 1e-300, -1e-300])
        codec = TruncatedFloatCodec(mantissa_bits=12)
        restored = bytes_to_floats(codec.decompress(codec.compress(values.tobytes())))
        assert np.all(np.signbit(restored) == np.signbit(values))
        assert restored[0] == 0.0

    def test_empty(self):
        codec = TruncatedFloatCodec()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_non_float_payload_rejected(self):
        with pytest.raises(CorruptStreamError):
            TruncatedFloatCodec().compress(b"abcdefg")

    def test_invalid_mantissa_bits(self):
        with pytest.raises(ValueError):
            TruncatedFloatCodec(mantissa_bits=53)
        with pytest.raises(ValueError):
            TruncatedFloatCodec(mantissa_bits=-1)

    def test_bad_magic(self):
        with pytest.raises(CorruptStreamError):
            TruncatedFloatCodec().decompress(b"XXXX\x14\x00")

    @given(
        st.lists(
            st.floats(
                allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
            ).filter(lambda v: v == 0 or abs(v) > 1e-12),
            max_size=200,
        )
    )
    @examples(40)
    def test_relative_error_property(self, values):
        codec = TruncatedFloatCodec(mantissa_bits=24)
        data = floats_to_bytes(values)
        restored = bytes_to_floats(codec.decompress(codec.compress(data)))
        original = np.asarray(values, dtype=np.float64)
        nonzero = original != 0
        if nonzero.any():
            relative = np.abs(
                (restored[nonzero] - original[nonzero]) / original[nonzero]
            )
            assert relative.max() <= codec.max_relative_error()
        assert np.all(restored[~nonzero] == 0.0)

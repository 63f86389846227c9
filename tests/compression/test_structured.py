"""The structure-aware codec family: template mining and columnar packing.

Covers the contracts the conformance kit cannot express generically:
hypothesis round-trips over templated log lines and fixed-width record
arrays, deterministic mining, typed-channel packing specifics (zero
padding, IP canonicality, odd nibble counts), graceful fallback, the
mutated-header corpus (only :data:`ACCEPTABLE_DECODE_ERRORS`, never a
stray ``struct.error``/``IndexError``), the columnar-vs-zlib ratio claim
on monotonic series, and bit-for-bit equality between the vectorized
column primitives and their scalar references.
"""

import random
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.base import ACCEPTABLE_DECODE_ERRORS
from repro.compression.structured import (
    _VALUE_RE,
    ColumnarCodec,
    TemplateCodec,
    bitpack,
    bitunpack,
    delta_zigzag,
    undelta_zigzag,
    zigzag_decode,
    zigzag_encode,
)
from repro.data.logs import LogDataGenerator
from repro.data.timeseries import TimeSeriesGenerator
from repro.verify.fuzz import mutated_copies
from repro.verify.references import (
    reference_bitpack,
    reference_bitunpack,
    reference_delta_zigzag,
    reference_template_value_spans,
    reference_undelta_zigzag,
)
from tests.strategies import examples, log_line_payloads, record_payloads


def _records(*rows):
    return b"".join(v.to_bytes(8, "little") for row in rows for v in row)


class TestTemplateRoundTrip:
    @given(log_line_payloads())
    @examples(80)
    def test_hypothesis_log_lines_round_trip(self, data):
        codec = TemplateCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_seeded_log_block_engages_and_round_trips(self):
        data = next(iter(LogDataGenerator(seed=2004).stream(64 * 1024, 1)))
        codec = TemplateCodec()
        payload = codec.compress(data)
        assert not codec.is_fallback(payload)
        assert len(payload) < len(data)
        assert codec.decompress(payload) == data

    def test_mining_is_deterministic(self):
        data = next(iter(LogDataGenerator(seed=11).stream(16 * 1024, 1)))
        assert TemplateCodec().compress(data) == TemplateCodec().compress(data)

    @pytest.mark.parametrize(
        "data",
        [
            # Zero-padded fixed-width counters must restore their padding.
            b"seq=0001 ok\nseq=0002 ok\nseq=0003 ok\nseq=0004 ok\nseq=0005 ok\n",
            # A 30-digit value overflows the channel int cap -> raw slot.
            b"v=123456789012345678901234567890 x\n" * 6,
            # Non-canonical dotted quads (leading zeros, >255 octets).
            b"ip=010.1.1.1 up\nip=1.1.1.300 up\nip=9.9.9.9 up\nip=8.8.8.8 up\n",
            # Odd nibble counts in the hex channel.
            b"h=abcdef012 go\nh=abcdef013 go\nh=abcdef014 go\nh=abcdef015 go\n",
            # Last line unterminated (block boundary mid-line).
            b"a 1\na 2\na 3\na 4\na 5",
            # Mixed template population with empty lines.
            b"alpha 1\n\nbeta 2.2.2.2\nalpha 3\n\nbeta 4.4.4.4\nalpha 5\n",
        ],
    )
    def test_channel_edge_cases_round_trip(self, data):
        codec = TemplateCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestTemplateFallback:
    @pytest.mark.parametrize(
        "data",
        [b"", b"\x5a", b"\x00" * 512, random.Random(3).randbytes(2048), b"one line\n"],
    )
    def test_non_conforming_input_falls_back(self, data):
        codec = TemplateCodec()
        payload = codec.compress(data)
        assert codec.is_fallback(payload)
        assert codec.decompress(payload) == data


class TestColumnarRoundTrip:
    @given(record_payloads())
    @examples(80)
    def test_hypothesis_records_round_trip(self, data):
        codec = ColumnarCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_seeded_telemetry_engages_and_round_trips(self):
        data = next(iter(TimeSeriesGenerator(seed=2004).stream(64 * 1024, 1)))
        codec = ColumnarCodec()
        payload = codec.compress(data)
        assert not codec.is_fallback(payload)
        assert len(payload) < len(data)
        assert codec.decompress(payload) == data

    def test_wraparound_counters_round_trip(self):
        top = 2**64
        rows = [((top - 40 + i * 9) % top, i, 7, 2**63) for i in range(64)]
        data = _records(*rows)
        codec = ColumnarCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_encoding_is_deterministic(self):
        data = next(iter(TimeSeriesGenerator(seed=5).stream(16 * 1024, 1)))
        assert ColumnarCodec().compress(data) == ColumnarCodec().compress(data)

    def test_monotonic_series_beats_zlib_level6(self):
        """The differential ratio claim: delta+bitpack on a monotone
        integer series must be strictly smaller than zlib level-6."""
        rng = random.Random(2004)
        value, out = 10_000, []
        for _ in range(4096):
            value += rng.randrange(1, 1000)
            out.append(value)
        data = b"".join(v.to_bytes(8, "little") for v in out)
        payload = ColumnarCodec().compress(data)
        assert not ColumnarCodec().is_fallback(payload)
        assert len(payload) < len(zlib.compress(data, 6))

    @pytest.mark.parametrize(
        "data",
        [b"", b"\xff", random.Random(9).randbytes(4096)],
    )
    def test_non_conforming_input_falls_back(self, data):
        codec = ColumnarCodec()
        payload = codec.compress(data)
        assert codec.is_fallback(payload)
        assert codec.decompress(payload) == data


class TestMutatedHeaders:
    """Corrupted streams raise only ACCEPTABLE_DECODE_ERRORS.

    ``mutated_copies`` supplies the canonical fuzz mutations; on top of
    that, every single-byte overwrite of the header region is tried, so
    the magic/version/mode bytes and the leading varints all get hit.
    """

    @pytest.mark.parametrize("codec_cls", [TemplateCodec, ColumnarCodec])
    def test_mutations_never_crash(self, codec_cls):
        codec = codec_cls()
        if codec_cls is TemplateCodec:
            data = next(iter(LogDataGenerator(seed=8).stream(4096, 1)))
        else:
            data = next(iter(TimeSeriesGenerator(seed=8).stream(4096, 1)))
        payload = codec.compress(data)
        assert not codec.is_fallback(payload)
        rng = random.Random(2004)
        mutants = list(mutated_copies(payload, rng))
        for offset in range(min(len(payload), 48)):
            for value in (0x00, 0x01, 0x7F, 0x80, 0xFF):
                mutant = bytearray(payload)
                mutant[offset] = value
                mutants.append(bytes(mutant))
        for mutant in mutants:
            try:
                result = codec.decompress(mutant)
            except ACCEPTABLE_DECODE_ERRORS:
                continue
            assert isinstance(result, bytes)

    @given(st.binary(max_size=256))
    @examples(120)
    def test_arbitrary_blobs_never_crash(self, blob):
        for codec in (TemplateCodec(), ColumnarCodec()):
            try:
                result = codec.decompress(blob)
            except ACCEPTABLE_DECODE_ERRORS:
                continue
            assert isinstance(result, bytes)


class TestPrimitivesMatchReferences:
    """The vectorized column primitives vs the scalar oracles, bit for bit."""

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=200))
    @examples(80)
    def test_delta_zigzag_matches_scalar(self, values):
        column = np.array(values, dtype="<u8")
        encoded = delta_zigzag(column)
        assert [int(v) for v in encoded] == reference_delta_zigzag(values)
        restored = undelta_zigzag(values[0], encoded)
        assert [int(v) for v in restored] == values
        assert reference_undelta_zigzag(values[0], reference_delta_zigzag(values)) == values

    @given(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.integers(min_value=0, max_value=(1 << width) - 1), max_size=150
                ),
            )
        )
    )
    @examples(80)
    def test_bitpack_matches_scalar(self, width_and_values):
        width, values = width_and_values
        column = np.array(values, dtype="<u8")
        packed = bitpack(column, width)
        assert packed == reference_bitpack(values, width)
        unpacked = bitunpack(packed, len(values), width)
        assert [int(v) for v in unpacked] == values
        assert reference_bitunpack(packed, len(values), width) == values

    @given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=200))
    @examples(60)
    def test_zigzag_is_an_involution(self, values):
        signed = np.array(values, dtype="<i8")
        assert list(zigzag_decode(zigzag_encode(signed))) == values

    @given(st.text(alphabet="0123456789abcdefxyz.:-_/ \n", max_size=200).map(str.encode))
    @examples(150)
    def test_template_values_match_the_lookahead_pattern(self, line):
        """Without the hex lookahead the tokenizer finds the same values."""
        spans = [match.span() for match in _VALUE_RE.finditer(line)]
        assert spans == reference_template_value_spans(line)

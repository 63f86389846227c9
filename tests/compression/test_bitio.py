"""Unit tests for the bit-level I/O primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.bitio import MAX_FIELD_WIDTH, BitReader, BitWriter, pack_fields


class TestBitWriter:
    def test_empty_writer_produces_no_bytes(self):
        assert BitWriter().getvalue() == b""

    def test_single_bit_pads_to_one_byte(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.getvalue() == b"\x80"

    def test_eight_bits_msb_first(self):
        writer = BitWriter()
        for bit in [1, 0, 1, 0, 1, 0, 1, 0]:
            writer.write_bit(bit)
        assert writer.getvalue() == b"\xaa"

    def test_write_bits_crosses_byte_boundaries(self):
        writer = BitWriter()
        writer.write_bits(0xABC, 12)
        writer.write_bits(0xD, 4)
        assert writer.getvalue() == b"\xab\xcd"

    def test_write_bits_masks_extra_high_bits(self):
        writer = BitWriter()
        writer.write_bits(0xFFF, 4)  # only low 4 bits survive
        assert writer.getvalue() == b"\xf0"

    def test_zero_width_write_is_noop(self):
        writer = BitWriter()
        writer.write_bits(123, 0)
        assert writer.bit_length == 0

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(1, -1)

    def test_bit_length_tracks_writes(self):
        writer = BitWriter()
        writer.write_bits(1, 3)
        writer.write_bit(0)
        assert writer.bit_length == 4


class TestBitReader:
    def test_read_bits_matches_written(self):
        writer = BitWriter()
        writer.write_bits(0b1011001, 7)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(7) == 0b1011001

    def test_read_past_end_raises(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_read_bits_past_end_raises(self):
        with pytest.raises(EOFError):
            BitReader(b"\xff").read_bits(9)

    def test_zero_width_read(self):
        assert BitReader(b"").read_bits(0) == 0

    def test_start_bit_offset(self):
        reader = BitReader(b"\x0f", start_bit=4)
        assert reader.read_bits(4) == 0xF

    def test_seek(self):
        reader = BitReader(b"\xa5")
        reader.read_bits(8)
        reader.seek(0)
        assert reader.read_bits(8) == 0xA5

    def test_seek_out_of_range(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00").seek(9)

    def test_position_and_remaining(self):
        reader = BitReader(b"\x00\x00")
        reader.read_bits(5)
        assert reader.position == 5
        assert reader.remaining == 11


class TestRoundTrip:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**24 - 1),
                              st.integers(min_value=1, max_value=24))))
    def test_write_read_sequence(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write_bits(value & ((1 << width) - 1), width)
        reader = BitReader(writer.getvalue())
        for value, width in fields:
            assert reader.read_bits(width) == value & ((1 << width) - 1)

    @given(st.binary(max_size=256))
    def test_bytes_through_bits(self, data):
        writer = BitWriter()
        for byte in data:
            writer.write_bits(byte, 8)
        assert writer.getvalue() == data


def _written(fields):
    writer = BitWriter()
    for value, width in fields:
        writer.write_bits(value, width)
    return writer.getvalue()


def _packed(fields):
    values = np.array([value for value, _ in fields], dtype=np.int64)
    widths = np.array([width for _, width in fields], dtype=np.int64)
    return pack_fields(values, widths)


_FIELD = st.tuples(
    st.integers(min_value=0, max_value=2**20 - 1),  # wider than any width: masked
    st.integers(min_value=1, max_value=MAX_FIELD_WIDTH),
)


class TestPackFields:
    """``pack_fields`` is ``BitWriter.write_bits`` for every field at once."""

    def test_no_fields(self):
        assert _packed([]) == b""

    def test_single_field(self):
        assert _packed([(0b101, 3)]) == b"\xa0"

    def test_fields_cross_byte_boundaries(self):
        assert _packed([(0xABC, 12), (0xD, 4)]) == b"\xab\xcd"

    def test_values_are_masked_to_their_width(self):
        assert _packed([(0xFFF, 4)]) == b"\xf0"

    def test_zero_width_fields_write_nothing(self):
        fields = [(7, 0), (1, 1), (123, 0), (0x7F, 7), (9, 0)]
        assert _packed(fields) == _written(fields) == b"\xff"

    def test_only_zero_width_fields(self):
        assert _packed([(5, 0), (6, 0)]) == b""

    def test_widest_field_at_every_shift(self):
        for shift in range(8):
            fields = [(0, shift), (0xFFFF, MAX_FIELD_WIDTH), (1, 1)]
            assert _packed(fields) == _written(fields)

    @pytest.mark.parametrize("width", [-1, MAX_FIELD_WIDTH + 1])
    def test_width_out_of_range_rejected(self, width):
        with pytest.raises(ValueError):
            _packed([(1, 3), (1, width)])

    @pytest.mark.parametrize("residue", range(8))
    def test_every_total_bit_count_mod_8(self, residue):
        fields = [(0x155, 9), (0x2A, 7)] + [(1, 1)] * residue  # 16 + residue bits
        assert _packed(fields) == _written(fields)
        assert len(_packed(fields)) == 2 + (residue > 0)

    @given(st.lists(_FIELD, max_size=200))
    def test_matches_bitwriter_field_by_field(self, fields):
        assert _packed(fields) == _written(fields)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64))
    def test_one_bit_fields(self, bits):
        # Eight fields can share one output byte.
        assert _packed([(bit, 1) for bit in bits]) == _written([(bit, 1) for bit in bits])

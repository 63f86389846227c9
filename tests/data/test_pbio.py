"""Unit tests for the PBIO-like binary record format."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.pbio import (
    Field,
    FieldType,
    PbioError,
    RecordFormat,
    decode_records,
    encode_records,
)
from tests.strategies import examples

POINT = RecordFormat(
    "point",
    [("x", FieldType.FLOAT64), ("y", FieldType.FLOAT64), ("label", FieldType.STRING)],
)


class TestRecordFormat:
    def test_field_names(self):
        assert POINT.field_names() == ["x", "y", "label"]

    def test_equality(self):
        other = RecordFormat(
            "point",
            [("x", FieldType.FLOAT64), ("y", FieldType.FLOAT64), ("label", FieldType.STRING)],
        )
        assert POINT == other

    def test_inequality_on_field_types(self):
        other = RecordFormat("point", [("x", FieldType.FLOAT32)])
        assert POINT != other

    def test_empty_fields_rejected(self):
        with pytest.raises(PbioError):
            RecordFormat("empty", [])

    def test_duplicate_field_rejected(self):
        with pytest.raises(PbioError):
            RecordFormat("dup", [("a", FieldType.INT32), ("a", FieldType.INT64)])

    def test_empty_name_rejected(self):
        with pytest.raises(PbioError):
            RecordFormat("", [("a", FieldType.INT32)])

    def test_long_field_name_rejected(self):
        with pytest.raises(PbioError):
            Field("x" * 300, FieldType.INT32)

    def test_schema_roundtrip(self):
        blob = POINT.to_bytes()
        restored, offset = RecordFormat.from_bytes(blob, 0)
        assert restored == POINT
        assert offset == len(blob)


class TestScalars:
    def test_int_roundtrip(self):
        fmt = RecordFormat("ints", [("i32", FieldType.INT32), ("i64", FieldType.INT64)])
        records = [{"i32": -(2**31), "i64": 2**62}, {"i32": 2**31 - 1, "i64": -1}]
        _, decoded = decode_records(encode_records(fmt, records))
        assert decoded == records

    def test_int32_overflow_rejected(self):
        fmt = RecordFormat("ints", [("v", FieldType.INT32)])
        with pytest.raises(PbioError):
            encode_records(fmt, [{"v": 2**40}])

    def test_float_roundtrip(self):
        fmt = RecordFormat("f", [("v", FieldType.FLOAT64)])
        for value in (0.0, -1.5, math.pi, 1e300, float("inf")):
            _, decoded = decode_records(encode_records(fmt, [{"v": value}]))
            assert decoded[0]["v"] == value

    def test_float_nan(self):
        fmt = RecordFormat("f", [("v", FieldType.FLOAT64)])
        _, decoded = decode_records(encode_records(fmt, [{"v": float("nan")}]))
        assert math.isnan(decoded[0]["v"])

    def test_float32_precision(self):
        fmt = RecordFormat("f", [("v", FieldType.FLOAT32)])
        _, decoded = decode_records(encode_records(fmt, [{"v": 0.5}]))
        assert decoded[0]["v"] == 0.5


class TestStringsAndBytes:
    def test_string_roundtrip(self):
        fmt = RecordFormat("s", [("v", FieldType.STRING)])
        for value in ("", "hello", "ünïcødé ✓", "x" * 10000):
            _, decoded = decode_records(encode_records(fmt, [{"v": value}]))
            assert decoded[0]["v"] == value

    def test_bytes_roundtrip(self):
        fmt = RecordFormat("b", [("v", FieldType.BYTES)])
        payload = bytes(range(256))
        _, decoded = decode_records(encode_records(fmt, [{"v": payload}]))
        assert decoded[0]["v"] == payload


class TestArrays:
    def test_float64_array(self):
        fmt = RecordFormat("a", [("v", FieldType.FLOAT64_ARRAY)])
        values = [0.0, 1.25, -3.5, 1e10]
        _, decoded = decode_records(encode_records(fmt, [{"v": values}]))
        assert decoded[0]["v"] == values

    def test_int32_array_empty(self):
        fmt = RecordFormat("a", [("v", FieldType.INT32_ARRAY)])
        _, decoded = decode_records(encode_records(fmt, [{"v": []}]))
        assert decoded[0]["v"] == []

    def test_array_item_overflow_rejected(self):
        fmt = RecordFormat("a", [("v", FieldType.INT32_ARRAY)])
        with pytest.raises(PbioError):
            encode_records(fmt, [{"v": [2**40]}])


class TestBufferLevel:
    def test_zero_records(self):
        buffer = encode_records(POINT, [])
        fmt, decoded = decode_records(buffer)
        assert fmt == POINT
        assert decoded == []

    def test_missing_field_rejected(self):
        with pytest.raises(PbioError):
            encode_records(POINT, [{"x": 1.0, "y": 2.0}])

    def test_bad_magic_rejected(self):
        buffer = bytearray(encode_records(POINT, []))
        buffer[0] ^= 0xFF
        with pytest.raises(PbioError):
            decode_records(bytes(buffer))

    def test_trailing_bytes_rejected(self):
        buffer = encode_records(POINT, []) + b"\x00"
        with pytest.raises(PbioError):
            decode_records(buffer)

    def test_truncated_buffer_rejected(self):
        buffer = encode_records(POINT, [{"x": 1.0, "y": 2.0, "label": "p"}])
        with pytest.raises(PbioError):
            decode_records(buffer[:-3])

    def test_self_describing(self):
        # A receiver with no schema knowledge reconstructs everything.
        buffer = encode_records(POINT, [{"x": 1.0, "y": -2.0, "label": "origin"}])
        fmt, records = decode_records(buffer)
        assert fmt.name == "point"
        assert [f.type for f in fmt.fields] == [
            FieldType.FLOAT64,
            FieldType.FLOAT64,
            FieldType.STRING,
        ]
        assert records[0]["label"] == "origin"


@given(
    st.lists(
        st.fixed_dictionaries(
            {
                "id": st.integers(min_value=-(2**31), max_value=2**31 - 1),
                "name": st.text(max_size=40),
                "values": st.lists(
                    st.floats(allow_nan=False, width=64), max_size=12
                ),
            }
        ),
        max_size=20,
    )
)
@examples(50)
def test_roundtrip_property(records):
    fmt = RecordFormat(
        "prop",
        [
            ("id", FieldType.INT32),
            ("name", FieldType.STRING),
            ("values", FieldType.FLOAT64_ARRAY),
        ],
    )
    _, decoded = decode_records(encode_records(fmt, records))
    assert decoded == records

"""Tests for CDR marshalling, including property-based round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CdrError
from repro.orb import typecodes as tc
from repro.orb.cdr import (
    CdrInputStream,
    CdrOutputStream,
    GenericStruct,
    decode_any,
    encode_any,
    infer_typecode,
)
from repro.orb.ior import IOR


def roundtrip(typecode, value):
    out = CdrOutputStream()
    out.write_value(typecode, value)
    stream = CdrInputStream(out.getvalue())
    result = stream.read_value(typecode)
    assert stream.remaining() == 0
    return result


# -- primitives --------------------------------------------------------------


@pytest.mark.parametrize(
    "typecode,value",
    [
        (tc.TC_BOOLEAN, True),
        (tc.TC_BOOLEAN, False),
        (tc.TC_OCTET, 255),
        (tc.TC_SHORT, -32768),
        (tc.TC_USHORT, 65535),
        (tc.TC_LONG, -(2**31)),
        (tc.TC_ULONG, 2**32 - 1),
        (tc.TC_LONGLONG, -(2**63)),
        (tc.TC_ULONGLONG, 2**64 - 1),
        (tc.TC_DOUBLE, 3.141592653589793),
        (tc.TC_STRING, "héllo wörld"),
        (tc.TC_STRING, ""),
        (tc.TC_OCTETS, b"\x00\x01\xff"),
    ],
)
def test_primitive_roundtrip(typecode, value):
    assert roundtrip(typecode, value) == value


def test_float_roundtrip_is_single_precision():
    assert roundtrip(tc.TC_FLOAT, 1.5) == 1.5
    assert roundtrip(tc.TC_FLOAT, 0.1) == pytest.approx(0.1, rel=1e-6)


def test_integer_range_checked():
    out = CdrOutputStream()
    with pytest.raises(CdrError):
        out.write_value(tc.TC_OCTET, 256)
    with pytest.raises(CdrError):
        out.write_value(tc.TC_LONG, 2**31)
    with pytest.raises(CdrError):
        out.write_value(tc.TC_ULONG, -1)


def test_bool_is_not_an_integer():
    out = CdrOutputStream()
    with pytest.raises(CdrError):
        out.write_value(tc.TC_LONG, True)


def test_alignment_rules():
    out = CdrOutputStream()
    out.write_octet(1)  # offset 0
    out.write_double(2.0)  # should align to 8
    data = out.getvalue()
    assert len(data) == 16
    assert data[1:8] == b"\x00" * 7


def test_underrun_detected():
    stream = CdrInputStream(b"\x00\x01")
    with pytest.raises(CdrError, match="underrun"):
        stream.read_double()


def test_string_must_be_nul_terminated():
    out = CdrOutputStream()
    out.write_ulong(3)
    out.write_raw(b"abc")  # no NUL
    with pytest.raises(CdrError):
        CdrInputStream(out.getvalue()).read_string()


def test_invalid_utf8_on_the_wire_raises_cdr_error():
    data = bytearray(encode_any("ab"))
    data[data.index(b"ab")] = 0xFF
    with pytest.raises(CdrError, match="UTF-8"):
        decode_any(bytes(data))


def test_unencodable_string_raises_cdr_error():
    with pytest.raises(CdrError, match="UTF-8"):
        encode_any("\ud800")


# -- sequences -----------------------------------------------------------------


def test_double_sequence_roundtrips_as_ndarray():
    seq = tc.sequence(tc.TC_DOUBLE)
    result = roundtrip(seq, [1.0, 2.5, -3.0])
    assert isinstance(result, np.ndarray)
    assert result.dtype == np.float64
    np.testing.assert_array_equal(result, [1.0, 2.5, -3.0])


def test_numpy_input_fast_path_matches_list_input():
    seq = tc.sequence(tc.TC_DOUBLE)
    out1 = CdrOutputStream()
    out1.write_value(seq, [1.0, 2.0])
    out2 = CdrOutputStream()
    out2.write_value(seq, np.array([1.0, 2.0]))
    assert out1.getvalue() == out2.getvalue()


def test_sequence_of_strings():
    seq = tc.sequence(tc.TC_STRING)
    assert roundtrip(seq, ["a", "bb", ""]) == ["a", "bb", ""]


def test_sequence_of_octet_is_bytes():
    seq = tc.sequence(tc.TC_OCTET)
    assert seq is tc.TC_OCTETS
    assert roundtrip(seq, b"abc") == b"abc"


def test_nested_sequences():
    seq = tc.sequence(tc.sequence(tc.TC_LONG))
    result = roundtrip(seq, [[1, 2], [3]])
    assert [list(map(int, row)) for row in result] == [[1, 2], [3]]


def test_multidim_array_rejected_for_flat_sequence():
    seq = tc.sequence(tc.TC_DOUBLE)
    out = CdrOutputStream()
    with pytest.raises(CdrError, match="1-D"):
        out.write_value(seq, np.zeros((2, 2)))


def test_fixed_array_length_enforced():
    arr = tc.array(tc.TC_LONG, 3)
    assert roundtrip(arr, [1, 2, 3]) == [1, 2, 3]
    out = CdrOutputStream()
    with pytest.raises(CdrError):
        out.write_value(arr, [1, 2])


# -- structs / enums --------------------------------------------------------------


POINT_TC = tc.struct("test::Point", (("x", tc.TC_DOUBLE), ("y", tc.TC_DOUBLE)))


def test_struct_roundtrip_from_dict():
    result = roundtrip(POINT_TC, {"x": 1.0, "y": -2.0})
    assert isinstance(result, GenericStruct)
    assert result.x == 1.0 and result.y == -2.0


def test_struct_roundtrip_from_object():
    class Point:
        def __init__(self):
            self.x, self.y = 4.0, 5.0

    result = roundtrip(POINT_TC, Point())
    assert (result.x, result.y) == (4.0, 5.0)


def test_struct_missing_field_rejected():
    out = CdrOutputStream()
    with pytest.raises(CdrError, match="missing field"):
        out.write_value(POINT_TC, {"x": 1.0})


COLOR_TC = tc.enum_tc("test::Color", ("RED", "GREEN", "BLUE"))


def test_enum_roundtrip_by_name_and_index():
    assert roundtrip(COLOR_TC, "GREEN") == "GREEN"
    assert roundtrip(COLOR_TC, 2) == "BLUE"


def test_enum_bad_member_rejected():
    out = CdrOutputStream()
    with pytest.raises(CdrError):
        out.write_value(COLOR_TC, "PURPLE")
    with pytest.raises(CdrError):
        out.write_value(COLOR_TC, 3)


# -- object references ----------------------------------------------------------------


def test_objref_roundtrip():
    ior = IOR("IDL:X:1.0", "ws03", 21000, b"key", 7)
    assert roundtrip(tc.TC_OBJREF, ior) == ior


def test_ior_string_roundtrip():
    ior = IOR("IDL:Calc:1.0", "ws00", 20000, b"Calc:000001", 3)
    text = ior.to_string()
    assert text.startswith("IOR:")
    assert IOR.from_string(text) == ior


def test_bad_ior_strings_rejected():
    from repro.errors import INV_OBJREF

    with pytest.raises(INV_OBJREF):
        IOR.from_string("NOT-AN-IOR")
    with pytest.raises(INV_OBJREF):
        IOR.from_string("IOR:zz")


# -- any --------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -42,
        2**40,
        1.5,
        "text",
        b"bytes",
        [1, 2.0, "three", None],
        {"a": 1, "b": [True, "x"]},
        {"nested": {"deep": [1, [2, [3]]]}},
    ],
)
def test_any_roundtrip(value):
    assert decode_any(encode_any(value)) == value


def test_any_ndarray_roundtrip_preserves_shape():
    arr = np.arange(12.0).reshape(3, 4)
    result = decode_any(encode_any(arr))
    assert isinstance(result, np.ndarray)
    assert result.shape == (3, 4)
    np.testing.assert_array_equal(result, arr)


def test_any_ior_roundtrip():
    ior = IOR("IDL:X:1.0", "h", 1, b"k", 0)
    assert decode_any(encode_any(ior)) == ior


def test_any_unsupported_type_rejected():
    with pytest.raises(CdrError, match="cannot infer"):
        encode_any(object())


def test_infer_typecode_numpy_scalars():
    assert infer_typecode(np.int64(4))[0] is tc.TC_LONGLONG
    assert infer_typecode(np.float64(4.0))[0] is tc.TC_DOUBLE
    assert infer_typecode(np.bool_(True))[0] is tc.TC_BOOLEAN


# -- property-based round trips -------------------------------------------------------------

any_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(any_values)
def test_any_roundtrip_property(value):
    assert decode_any(encode_any(value)) == value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_double_sequence_roundtrip_property(values):
    result = roundtrip(tc.sequence(tc.TC_DOUBLE), values)
    np.testing.assert_array_equal(result, np.asarray(values, dtype=np.float64))


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_string_roundtrip_property(text):
    assert roundtrip(tc.TC_STRING, text) == text


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
def test_mixed_stream_alignment_property(i, f, s):
    out = CdrOutputStream()
    out.write_long(i)
    out.write_string(s)
    out.write_double(f)
    out.write_long(i)
    stream = CdrInputStream(out.getvalue())
    assert stream.read_long() == i
    assert stream.read_string() == s
    assert stream.read_double() == f
    assert stream.read_long() == i

"""Interpreted reference coder for CDR typed values (the parity oracle).

A direct kind-dispatch over the TypeCode tree that recurses into itself,
never back through ``write_value``/``read_value``, so it shares none of the
plan cache's compiled closures.  ``test_cdr_plan_cache.py`` checks that the
plan path writes the same bytes and reads back the same values.  Only leaf
helpers (primitives, strings, IORs, enums, typecodes) come from the stream
classes.
"""

from typing import Any

import numpy as np

from repro.errors import CdrError
from repro.orb.cdr import (
    _NUMPY_SEQ_DTYPES,
    _PRIMITIVE_FORMATS,
    _STRUCT_REGISTRY,
    _UNION_REGISTRY,
    CdrInputStream,
    CdrOutputStream,
    GenericStruct,
    GenericUnion,
    _postprocess_any,
    _union_case_index,
    infer_typecode,
)
from repro.orb.typecodes import TCKind, TypeCode


def write_value(stream: CdrOutputStream, tc: TypeCode, value: Any) -> None:
    kind = tc.kind
    if kind in (TCKind.NULL, TCKind.VOID):
        if value is not None:
            raise CdrError(f"{kind.name} carries no value, got {value!r}")
    elif kind is TCKind.BOOLEAN:
        stream.write_boolean(bool(value))
    elif kind in _PRIMITIVE_FORMATS:
        if tc.is_integer:
            stream._check_int(tc, value)
        stream.write_primitive(kind, value)
    elif kind is TCKind.STRING:
        stream.write_string(value)
    elif kind is TCKind.OCTETS:
        stream.write_octets(value)
    elif kind is TCKind.SEQUENCE:
        _write_sequence(stream, tc, value)
    elif kind is TCKind.ARRAY:
        items = list(value)
        if len(items) != tc.length:
            raise CdrError(f"array of length {tc.length} got {len(items)} elements")
        for item in items:
            write_value(stream, tc.content, item)
    elif kind in (TCKind.STRUCT, TCKind.EXCEPTION):
        _write_struct(stream, tc, value)
    elif kind is TCKind.ENUM:
        stream._write_enum(tc, value)
    elif kind is TCKind.UNION:
        case_index = _union_case_index(tc, value.discriminator)
        if case_index is None:
            raise CdrError(f"discriminator matches no case of union {tc.name}")
        write_value(stream, tc.content, value.discriminator)
        write_value(stream, tc.fields[case_index][1], value.value)
    elif kind is TCKind.OBJREF:
        stream.write_ior(value)
    elif kind is TCKind.ANY:
        write_any(stream, value)
    else:
        raise CdrError(f"cannot encode TypeCode kind {kind.name}")


def _write_sequence(stream: CdrOutputStream, tc: TypeCode, value: Any) -> None:
    dtype = _NUMPY_SEQ_DTYPES.get(tc.content.kind)
    if dtype is None:
        items = list(value)
        stream.write_ulong(len(items))
        for item in items:
            write_value(stream, tc.content, item)
        return
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise CdrError(f"sequence expects a 1-D value, got shape {arr.shape}")
    stream.write_ulong(arr.shape[0])
    stream.align(_PRIMITIVE_FORMATS[tc.content.kind][1])
    try:
        stream.write_raw(arr.astype(dtype, copy=False).tobytes())
    except (TypeError, ValueError) as exc:
        raise CdrError(f"bad element in sequence: {exc}") from exc


def _write_struct(stream: CdrOutputStream, tc: TypeCode, value: Any) -> None:
    for name, field_tc in tc.fields:
        if isinstance(value, dict):
            if name not in value:
                raise CdrError(f"struct {tc.name} value missing field {name!r}")
            field_value = value[name]
        else:
            try:
                field_value = getattr(value, name)
            except AttributeError:
                raise CdrError(f"struct {tc.name} missing field {name!r}") from None
        write_value(stream, field_tc, field_value)


def write_any(stream: CdrOutputStream, value: Any) -> None:
    tc, coerced = infer_typecode(value)
    stream.write_typecode(tc)
    write_value(stream, tc, coerced)


def read_value(stream: CdrInputStream, tc: TypeCode) -> Any:
    kind = tc.kind
    if kind in (TCKind.NULL, TCKind.VOID):
        return None
    if kind is TCKind.BOOLEAN:
        return stream.read_boolean()
    if kind in _PRIMITIVE_FORMATS:
        return stream.read_primitive(kind)
    if kind is TCKind.STRING:
        return stream.read_string()
    if kind is TCKind.OCTETS:
        return stream.read_octets()
    if kind is TCKind.SEQUENCE:
        length = stream.read_ulong()
        dtype = _NUMPY_SEQ_DTYPES.get(tc.content.kind)
        if dtype is None:
            return [read_value(stream, tc.content) for _ in range(length)]
        size = _PRIMITIVE_FORMATS[tc.content.kind][1]
        stream.align(size)
        raw = stream.read_raw(length * size)
        return np.frombuffer(raw, dtype=dtype).astype(dtype[1:], copy=True)
    if kind is TCKind.ARRAY:
        return [read_value(stream, tc.content) for _ in range(tc.length)]
    if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
        fields = {name: read_value(stream, ftc) for name, ftc in tc.fields}
        cls = _STRUCT_REGISTRY.get(tc.name)
        return cls(**fields) if cls is not None else GenericStruct(tc.name, **fields)
    if kind is TCKind.ENUM:
        return stream._read_enum(tc)
    if kind is TCKind.UNION:
        discriminator = read_value(stream, tc.content)
        case_index = _union_case_index(tc, discriminator)
        if case_index is None:
            raise CdrError(f"wire discriminator matches no case of union {tc.name}")
        value = read_value(stream, tc.fields[case_index][1])
        cls = _UNION_REGISTRY.get(tc.name)
        if cls is not None:
            return cls(discriminator, value)
        return GenericUnion(tc.name, discriminator, value)
    if kind is TCKind.OBJREF:
        return stream.read_ior()
    if kind is TCKind.ANY:
        return read_any(stream)
    raise CdrError(f"cannot decode TypeCode kind {kind.name}")


def read_any(stream: CdrInputStream) -> Any:
    tc = stream.read_typecode()
    return _postprocess_any(tc, read_value(stream, tc))


def encode(tc: TypeCode, value: Any) -> bytes:
    stream = CdrOutputStream()
    write_value(stream, tc, value)
    return stream.getvalue()


def decode(tc: TypeCode, data: bytes) -> Any:
    stream = CdrInputStream(data)
    value = read_value(stream, tc)
    assert stream.remaining() == 0
    return value


def encode_any(value: Any) -> bytes:
    stream = CdrOutputStream()
    write_any(stream, value)
    return stream.getvalue()


def decode_any(data: bytes) -> Any:
    stream = CdrInputStream(data)
    value = read_any(stream)
    assert stream.remaining() == 0
    return value

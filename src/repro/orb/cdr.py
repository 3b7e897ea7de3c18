"""Common Data Representation (CDR) marshalling.

Big-endian, aligned encoding of typed values, as GIOP messages carry them.
The byte counts produced here are *the* message sizes the simulated network
charges for, so marshalling is implemented for real rather than mocked.

Two layers:

* primitive streams (:class:`CdrOutputStream` / :class:`CdrInputStream`)
  with CDR alignment rules;
* typed value coding (:meth:`CdrOutputStream.write_value` /
  :meth:`CdrInputStream.read_value`) driven by
  :class:`~repro.orb.typecodes.TypeCode`, including a self-describing
  ``any`` (:func:`encode_any` / :func:`decode_any`).

Numeric sequences take a vectorized NumPy fast path: a ``sequence<double>``
is written as one buffer, not element-by-element — the optimization guides'
"vectorize the hot loop" rule applied to marshalling, which *is* the hot
loop of an ORB.

There is one marshal path and no switch to pick another:

* **encoder/decoder plans** — :class:`TypeCode` is a frozen (hashable)
  dataclass, so the kind-dispatch over a typecode tree is compiled once
  into nested closures and memoized per typecode (:func:`encoder_plan` /
  :func:`decoder_plan`).  ``write_value`` / ``read_value`` always run the
  plan.  Plans cover every typecode, including ``any`` and the dynamic
  typecodes :func:`infer_typecode` builds for checkpoint payloads; the
  cache and its counters are process-wide because a plan depends only on
  its typecode;
* **:class:`AnyEncodeMemo`** — callers that repeatedly encode the same
  logical value (the checkpoint path encodes the server state after
  every call, and most calls barely change it) get the previous bytes
  back after a structural equality check instead of a full re-encode.

Strings that are not valid UTF-8, on either side of the wire, raise
:class:`~repro.errors.CdrError` like any other malformed value, so the ORB
reports them as ``MARSHAL``.
"""

from __future__ import annotations

import struct as _struct
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import CdrError
from repro.orb.ior import IOR
from repro.orb.typecodes import (
    TCKind,
    TypeCode,
    TC_ANY,
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_LONGLONG,
    TC_NULL,
    TC_OCTETS,
    TC_STRING,
    sequence,
)

_PRIMITIVE_FORMATS: dict[TCKind, tuple[str, int]] = {
    TCKind.BOOLEAN: (">B", 1),
    TCKind.OCTET: (">B", 1),
    TCKind.SHORT: (">h", 2),
    TCKind.USHORT: (">H", 2),
    TCKind.LONG: (">i", 4),
    TCKind.ULONG: (">I", 4),
    TCKind.LONGLONG: (">q", 8),
    TCKind.ULONGLONG: (">Q", 8),
    TCKind.FLOAT: (">f", 4),
    TCKind.DOUBLE: (">d", 8),
}

_NUMPY_SEQ_DTYPES: dict[TCKind, str] = {
    TCKind.SHORT: ">i2",
    TCKind.USHORT: ">u2",
    TCKind.LONG: ">i4",
    TCKind.ULONG: ">u4",
    TCKind.LONGLONG: ">i8",
    TCKind.ULONGLONG: ">u8",
    TCKind.FLOAT: ">f4",
    TCKind.DOUBLE: ">f8",
}

#: struct/enum/union classes registered by generated IDL code, keyed by
#: type name, so decoding can rebuild the user-visible Python objects.
_STRUCT_REGISTRY: dict[str, type] = {}
_ENUM_REGISTRY: dict[str, type] = {}
_UNION_REGISTRY: dict[str, type] = {}


def register_struct_class(name: str, cls: type) -> None:
    _STRUCT_REGISTRY[name] = cls


def register_enum_class(name: str, cls: type) -> None:
    _ENUM_REGISTRY[name] = cls


def register_union_class(name: str, cls: type) -> None:
    _UNION_REGISTRY[name] = cls


class GenericUnion:
    """Decoded union whose Python class is not registered locally."""

    def __init__(self, __tc_name__: str, discriminator, value) -> None:
        self.__tc_name__ = __tc_name__
        self.discriminator = discriminator
        self.value = value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GenericUnion)
            and self.__tc_name__ == other.__tc_name__
            and self.discriminator == other.discriminator
            and self.value == other.value
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.__tc_name__}(discriminator={self.discriminator!r}, "
            f"value={self.value!r})"
        )


class GenericStruct:
    """Decoded struct whose Python class is not registered locally."""

    def __init__(self, __tc_name__: str, **fields: Any) -> None:
        self.__tc_name__ = __tc_name__
        self.__dict__.update(fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GenericStruct) and self.__dict__ == other.__dict__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(
            f"{k}={v!r}" for k, v in self.__dict__.items() if k != "__tc_name__"
        )
        return f"{self.__tc_name__}({body})"


class CdrOutputStream:
    """An aligned big-endian output buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    # -- primitives --------------------------------------------------------

    def align(self, boundary: int) -> None:
        pad = (-len(self._buffer)) % boundary
        if pad:
            self._buffer.extend(b"\x00" * pad)

    def write_raw(self, data: bytes) -> None:
        self._buffer.extend(data)

    def write_primitive(self, kind: TCKind, value: Any) -> None:
        fmt, size = _PRIMITIVE_FORMATS[kind]
        self.align(size)
        try:
            self._buffer.extend(_struct.pack(fmt, value))
        except (_struct.error, TypeError) as exc:
            raise CdrError(f"cannot encode {value!r} as {kind.name}: {exc}") from exc

    def write_boolean(self, value: bool) -> None:
        self.write_primitive(TCKind.BOOLEAN, 1 if value else 0)

    def write_octet(self, value: int) -> None:
        self.write_primitive(TCKind.OCTET, value)

    def write_short(self, value: int) -> None:
        self.write_primitive(TCKind.SHORT, value)

    def write_ushort(self, value: int) -> None:
        self.write_primitive(TCKind.USHORT, value)

    def write_long(self, value: int) -> None:
        self.write_primitive(TCKind.LONG, value)

    def write_ulong(self, value: int) -> None:
        self.write_primitive(TCKind.ULONG, value)

    def write_longlong(self, value: int) -> None:
        self.write_primitive(TCKind.LONGLONG, value)

    def write_ulonglong(self, value: int) -> None:
        self.write_primitive(TCKind.ULONGLONG, value)

    def write_float(self, value: float) -> None:
        self.write_primitive(TCKind.FLOAT, value)

    def write_double(self, value: float) -> None:
        self.write_primitive(TCKind.DOUBLE, value)

    def write_string(self, value: str) -> None:
        """CDR string: ulong byte length including NUL, bytes, NUL."""
        if not isinstance(value, str):
            raise CdrError(f"expected str, got {type(value).__name__}")
        try:
            data = value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CdrError(f"cannot encode string as UTF-8: {exc}") from exc
        self.write_ulong(len(data) + 1)
        self._buffer.extend(data)
        self._buffer.append(0)

    def write_octets(self, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise CdrError(f"expected bytes, got {type(value).__name__}")
        data = bytes(value)
        self.write_ulong(len(data))
        self._buffer.extend(data)

    def write_ior(self, ior: IOR) -> None:
        if not isinstance(ior, IOR):
            raise CdrError(f"expected IOR, got {type(ior).__name__}")
        self.write_string(ior.type_id)
        self.write_string(ior.host)
        self.write_ulong(ior.port)
        self.write_octets(ior.object_key)
        self.write_ulong(ior.incarnation)

    # -- typed values -----------------------------------------------------------

    def write_value(self, tc: TypeCode, value: Any) -> None:
        encoder_plan(tc)(self, value)

    def _check_int(self, tc: TypeCode, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise CdrError(f"expected integer for {tc!r}, got {value!r}")
        lo, hi = tc.integer_bounds()
        if not lo <= int(value) <= hi:
            raise CdrError(f"{value} out of range for {tc!r} [{lo}, {hi}]")

    def _write_enum(self, tc: TypeCode, value: Any) -> None:
        if isinstance(value, str):
            try:
                index = tc.members.index(value)
            except ValueError:
                raise CdrError(f"{value!r} is not a member of enum {tc.name}") from None
        elif hasattr(value, "value") and isinstance(getattr(value, "value"), int):
            index = value.value
        elif isinstance(value, (int, np.integer)):
            index = int(value)
        else:
            raise CdrError(f"cannot encode {value!r} as enum {tc.name}")
        if not 0 <= index < len(tc.members):
            raise CdrError(f"enum {tc.name} index {index} out of range")
        self.write_ulong(index)

    def _write_union(self, tc: TypeCode, value: Any) -> None:
        try:
            discriminator = value.discriminator
            member = value.value
        except AttributeError:
            raise CdrError(
                f"union {tc.name} value needs .discriminator/.value, "
                f"got {value!r}"
            ) from None
        case_index = _union_case_index(tc, discriminator)
        if case_index is None:
            raise CdrError(
                f"discriminator {discriminator!r} matches no case of union "
                f"{tc.name} and there is no default"
            )
        assert tc.content is not None
        self.write_value(tc.content, discriminator)
        self.write_value(tc.fields[case_index][1], member)

    # -- any -------------------------------------------------------------------

    def write_typecode(self, tc: TypeCode) -> None:
        self.write_octet(int(tc.kind))
        kind = tc.kind
        if kind is TCKind.SEQUENCE:
            assert tc.content is not None
            self.write_typecode(tc.content)
        elif kind is TCKind.ARRAY:
            assert tc.content is not None
            self.write_typecode(tc.content)
            self.write_ulong(tc.length)
        elif kind in (TCKind.STRUCT, TCKind.EXCEPTION):
            self.write_string(tc.name)
            self.write_ulong(len(tc.fields))
            for name, field_tc in tc.fields:
                self.write_string(name)
                self.write_typecode(field_tc)
        elif kind is TCKind.ENUM:
            self.write_string(tc.name)
            self.write_ulong(len(tc.members))
            for member in tc.members:
                self.write_string(member)
        elif kind is TCKind.OBJREF:
            self.write_string(tc.name)
        elif kind is TCKind.UNION:
            self.write_string(tc.name)
            assert tc.content is not None
            self.write_typecode(tc.content)
            self.write_long(tc.default_index)
            self.write_ulong(len(tc.fields))
            for (field_name, field_tc), label in zip(tc.fields, tc.labels):
                self.write_any(label)
                self.write_string(field_name)
                self.write_typecode(field_tc)

    def write_any(self, value: Any) -> None:
        tc, coerced = infer_typecode(value)
        self.write_typecode(tc)
        self.write_value(tc, coerced)


class CdrInputStream:
    """Aligned big-endian reader over a bytes buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def remaining(self) -> int:
        return len(self._data) - self._pos

    # -- primitives ---------------------------------------------------------

    def align(self, boundary: int) -> None:
        self._pos += (-self._pos) % boundary

    def read_raw(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise CdrError(
                f"buffer underrun: need {count} bytes at {self._pos}, "
                f"have {len(self._data)}"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def read_primitive(self, kind: TCKind) -> Any:
        fmt, size = _PRIMITIVE_FORMATS[kind]
        self.align(size)
        (value,) = _struct.unpack(fmt, self.read_raw(size))
        return value

    def read_boolean(self) -> bool:
        return bool(self.read_primitive(TCKind.BOOLEAN))

    def read_octet(self) -> int:
        return self.read_primitive(TCKind.OCTET)

    def read_short(self) -> int:
        return self.read_primitive(TCKind.SHORT)

    def read_ushort(self) -> int:
        return self.read_primitive(TCKind.USHORT)

    def read_long(self) -> int:
        return self.read_primitive(TCKind.LONG)

    def read_ulong(self) -> int:
        return self.read_primitive(TCKind.ULONG)

    def read_longlong(self) -> int:
        return self.read_primitive(TCKind.LONGLONG)

    def read_ulonglong(self) -> int:
        return self.read_primitive(TCKind.ULONGLONG)

    def read_float(self) -> float:
        return self.read_primitive(TCKind.FLOAT)

    def read_double(self) -> float:
        return self.read_primitive(TCKind.DOUBLE)

    def read_string(self) -> str:
        length = self.read_ulong()
        if length == 0:
            raise CdrError("string length 0 is invalid (must include NUL)")
        data = self.read_raw(length)
        if data[-1] != 0:
            raise CdrError("string is not NUL-terminated")
        try:
            return data[:-1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CdrError(f"string is not valid UTF-8: {exc}") from exc

    def read_octets(self) -> bytes:
        length = self.read_ulong()
        return self.read_raw(length)

    def read_ior(self) -> IOR:
        type_id = self.read_string()
        host = self.read_string()
        port = self.read_ulong()
        object_key = self.read_octets()
        incarnation = self.read_ulong()
        return IOR(type_id, host, port, object_key, incarnation)

    # -- typed values ------------------------------------------------------------

    def read_value(self, tc: TypeCode) -> Any:
        return decoder_plan(tc)(self)

    def _read_enum(self, tc: TypeCode) -> Any:
        index = self.read_ulong()
        if not 0 <= index < len(tc.members):
            raise CdrError(f"enum {tc.name} index {index} out of range")
        cls = _ENUM_REGISTRY.get(tc.name)
        if cls is not None:
            return cls(index)
        return tc.members[index]

    def _read_union(self, tc: TypeCode) -> Any:
        assert tc.content is not None
        discriminator = self.read_value(tc.content)
        case_index = _union_case_index(tc, discriminator)
        if case_index is None:
            raise CdrError(
                f"wire discriminator {discriminator!r} matches no case of "
                f"union {tc.name}"
            )
        value = self.read_value(tc.fields[case_index][1])
        cls = _UNION_REGISTRY.get(tc.name)
        if cls is not None:
            return cls(discriminator, value)
        return GenericUnion(tc.name, discriminator, value)

    # -- any ----------------------------------------------------------------------

    def read_typecode(self) -> TypeCode:
        try:
            kind = TCKind(self.read_octet())
        except ValueError as exc:
            raise CdrError(f"unknown TypeCode kind byte: {exc}") from exc
        if kind is TCKind.SEQUENCE:
            return TypeCode(kind, content=self.read_typecode())
        if kind is TCKind.ARRAY:
            content = self.read_typecode()
            return TypeCode(kind, content=content, length=self.read_ulong())
        if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
            name = self.read_string()
            count = self.read_ulong()
            fields = tuple(
                (self.read_string(), self.read_typecode()) for _ in range(count)
            )
            return TypeCode(kind, name=name, fields=fields)
        if kind is TCKind.ENUM:
            name = self.read_string()
            count = self.read_ulong()
            members = tuple(self.read_string() for _ in range(count))
            return TypeCode(kind, name=name, members=members)
        if kind is TCKind.OBJREF:
            return TypeCode(kind, name=self.read_string())
        if kind is TCKind.UNION:
            name = self.read_string()
            discriminator = self.read_typecode()
            default_index = self.read_long()
            count = self.read_ulong()
            labels = []
            fields = []
            for _ in range(count):
                labels.append(self.read_any())
                field_name = self.read_string()
                fields.append((field_name, self.read_typecode()))
            return TypeCode(
                kind,
                name=name,
                content=discriminator,
                fields=tuple(fields),
                labels=tuple(labels),
                default_index=default_index,
            )
        return TypeCode(kind)

    def read_any(self) -> Any:
        tc = self.read_typecode()
        value = self.read_value(tc)
        return _postprocess_any(tc, value)


def _union_case_index(tc: TypeCode, discriminator: Any) -> Optional[int]:
    """The case index a discriminator selects (explicit label before the
    default branch), or None."""
    for index, label in enumerate(tc.labels):
        if index == tc.default_index:
            continue
        if label == discriminator:
            return index
    if tc.default_index >= 0:
        return tc.default_index
    return None


# -- dynamic typing for any -------------------------------------------------------

_NDARRAY_TC = TypeCode(
    TCKind.STRUCT,
    name="__ndarray__",
    fields=(
        ("shape", sequence(TypeCode(TCKind.ULONGLONG))),
        ("data", sequence(TC_DOUBLE)),
    ),
)

_DICT_ITEM_TC = TypeCode(
    TCKind.STRUCT,
    name="__dict_item__",
    fields=(("key", TC_ANY), ("value", TC_ANY)),
)

_DICT_TC = TypeCode(
    TCKind.STRUCT,
    name="__dict__",
    fields=(("items", sequence(_DICT_ITEM_TC)),),
)


def infer_typecode(value: Any) -> tuple[TypeCode, Any]:
    """Choose a TypeCode for an arbitrary Python value.

    Returns ``(typecode, coerced_value)`` — e.g. an int-dtype ndarray is
    coerced to ``sequence<longlong>`` element values.
    """
    if value is None:
        return TC_NULL, None
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return TC_BOOLEAN, bool(value)
    if isinstance(value, (int, np.integer)):
        return TC_LONGLONG, int(value)
    if isinstance(value, (float, np.floating)):
        return TC_DOUBLE, float(value)
    if isinstance(value, str):
        return TC_STRING, value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return TC_OCTETS, bytes(value)
    if isinstance(value, IOR):
        return TypeCode(TCKind.OBJREF, name=value.type_id), value
    if isinstance(value, np.ndarray):
        flat = np.ascontiguousarray(value, dtype=np.float64).reshape(-1)
        return _NDARRAY_TC, {"shape": list(value.shape), "data": flat}
    if isinstance(value, dict):
        items = [{"key": k, "value": v} for k, v in value.items()]
        return _DICT_TC, {"items": items}
    if isinstance(value, (list, tuple)):
        return sequence(TC_ANY), list(value)
    raise CdrError(
        f"cannot infer a TypeCode for {type(value).__name__}; "
        "supported: None, bool, int, float, str, bytes, IOR, ndarray, "
        "dict, list, tuple"
    )


def _postprocess_any(tc: TypeCode, value: Any) -> Any:
    """Rebuild native Python objects for the reserved struct encodings."""
    if tc.name == "__ndarray__":
        shape = tuple(int(s) for s in np.asarray(value.shape).reshape(-1))
        return np.asarray(value.data, dtype=np.float64).reshape(shape)
    if tc.name == "__dict__":
        return {item.key: item.value for item in value.items}
    return value


def encode_any(value: Any) -> bytes:
    """Encode an arbitrary value self-describingly (used by the checkpoint
    storage service to hold "arbitrary values")."""
    stream = CdrOutputStream()
    stream.write_any(value)
    return stream.getvalue()


def decode_any(data: bytes) -> Any:
    stream = CdrInputStream(data)
    value = stream.read_any()
    if stream.remaining():
        raise CdrError(f"{stream.remaining()} trailing bytes after any value")
    return value


# -- encoder/decoder plan cache ---------------------------------------------------
#
# A plan is the kind-dispatch over one TypeCode tree compiled into nested
# closures: sub-typecode plans are resolved once at compile time, so writing
# a struct of sequences touches no dispatch table per element.  TypeCode is
# a frozen dataclass, hence hashable, hence a cache key.

_ENCODER_PLANS: dict[TypeCode, Callable] = {}
_DECODER_PLANS: dict[TypeCode, Callable] = {}
_PLAN_STATS = {
    "encoder_plans_compiled": 0,
    "decoder_plans_compiled": 0,
    "encoder_plan_hits": 0,
    "decoder_plan_hits": 0,
    "any_memo_hits": 0,
    "any_memo_misses": 0,
}


def clear_plan_cache() -> None:
    """Drop every compiled plan and zero the statistics."""
    _ENCODER_PLANS.clear()
    _DECODER_PLANS.clear()
    for key in _PLAN_STATS:
        _PLAN_STATS[key] = 0


def plan_cache_stats() -> dict:
    """A snapshot of plan-cache and any-memo counters."""
    return dict(_PLAN_STATS)


def encoder_plan(tc: TypeCode) -> Callable[[CdrOutputStream, Any], None]:
    plan = _ENCODER_PLANS.get(tc)
    if plan is None:
        plan = _compile_encoder(tc)
        _ENCODER_PLANS[tc] = plan
        _PLAN_STATS["encoder_plans_compiled"] += 1
    else:
        _PLAN_STATS["encoder_plan_hits"] += 1
    return plan


def decoder_plan(tc: TypeCode) -> Callable[[CdrInputStream], Any]:
    plan = _DECODER_PLANS.get(tc)
    if plan is None:
        plan = _compile_decoder(tc)
        _DECODER_PLANS[tc] = plan
        _PLAN_STATS["decoder_plans_compiled"] += 1
    else:
        _PLAN_STATS["decoder_plan_hits"] += 1
    return plan


def _compile_encoder(tc: TypeCode) -> Callable[[CdrOutputStream, Any], None]:
    kind = tc.kind
    if kind in (TCKind.NULL, TCKind.VOID):

        def write_null(stream, value, _kind=kind):
            if value is not None:
                raise CdrError(f"{_kind.name} carries no value, got {value!r}")

        return write_null
    if kind is TCKind.BOOLEAN:
        return lambda stream, value: stream.write_boolean(bool(value))
    if kind in _PRIMITIVE_FORMATS:
        if tc.is_integer:

            def write_int(stream, value, _tc=tc, _kind=kind):
                stream._check_int(_tc, value)
                stream.write_primitive(_kind, value)

            return write_int
        return lambda stream, value, _kind=kind: stream.write_primitive(
            _kind, value
        )
    if kind is TCKind.STRING:
        return lambda stream, value: stream.write_string(value)
    if kind is TCKind.OCTETS:
        return lambda stream, value: stream.write_octets(value)
    if kind is TCKind.SEQUENCE:
        assert tc.content is not None
        content = tc.content
        dtype = _NUMPY_SEQ_DTYPES.get(content.kind)
        if dtype is not None:
            _, size = _PRIMITIVE_FORMATS[content.kind]

            def write_numeric_seq(
                stream, value, _content=content, _dtype=dtype, _size=size
            ):
                arr = np.asarray(value)
                if arr.ndim != 1:
                    raise CdrError(
                        f"sequence<{_content!r}> expects a 1-D value, "
                        f"got shape {arr.shape}"
                    )
                stream.write_ulong(arr.shape[0])
                stream.align(_size)
                try:
                    stream._buffer.extend(arr.astype(_dtype, copy=False).tobytes())
                except (TypeError, ValueError) as exc:
                    raise CdrError(f"bad element in sequence: {exc}") from exc

            return write_numeric_seq
        item_plan = encoder_plan(content)

        def write_seq(stream, value, _item_plan=item_plan):
            items = list(value)
            stream.write_ulong(len(items))
            for item in items:
                _item_plan(stream, item)

        return write_seq
    if kind is TCKind.ARRAY:
        assert tc.content is not None
        item_plan = encoder_plan(tc.content)

        def write_array(stream, value, _item_plan=item_plan, _length=tc.length):
            items = list(value)
            if len(items) != _length:
                raise CdrError(
                    f"array of length {_length} got {len(items)} elements"
                )
            for item in items:
                _item_plan(stream, item)

        return write_array
    if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
        field_plans = tuple(
            (name, encoder_plan(field_tc)) for name, field_tc in tc.fields
        )

        def write_struct(stream, value, _plans=field_plans, _name=tc.name):
            if isinstance(value, dict):
                for field_name, field_plan in _plans:
                    if field_name not in value:
                        raise CdrError(
                            f"struct {_name} value missing field {field_name!r}"
                        )
                    field_plan(stream, value[field_name])
                return
            for field_name, field_plan in _plans:
                try:
                    field_value = getattr(value, field_name)
                except AttributeError:
                    raise CdrError(
                        f"struct {_name} value {value!r} missing field "
                        f"{field_name!r}"
                    ) from None
                field_plan(stream, field_value)

        return write_struct
    if kind is TCKind.ENUM:
        return lambda stream, value, _tc=tc: stream._write_enum(_tc, value)
    if kind is TCKind.UNION:
        # Case selection depends on the runtime discriminator; the member
        # write below re-enters write_value and hits the member's plan.
        return lambda stream, value, _tc=tc: stream._write_union(_tc, value)
    if kind is TCKind.OBJREF:
        return lambda stream, value: stream.write_ior(value)
    if kind is TCKind.ANY:
        return lambda stream, value: stream.write_any(value)

    def write_unsupported(stream, value, _kind=kind):
        raise CdrError(f"cannot encode TypeCode kind {_kind.name}")

    return write_unsupported


def _compile_decoder(tc: TypeCode) -> Callable[[CdrInputStream], Any]:
    kind = tc.kind
    if kind in (TCKind.NULL, TCKind.VOID):
        return lambda stream: None
    if kind is TCKind.BOOLEAN:
        return lambda stream: stream.read_boolean()
    if kind in _PRIMITIVE_FORMATS:
        return lambda stream, _kind=kind: stream.read_primitive(_kind)
    if kind is TCKind.STRING:
        return lambda stream: stream.read_string()
    if kind is TCKind.OCTETS:
        return lambda stream: stream.read_octets()
    if kind is TCKind.SEQUENCE:
        assert tc.content is not None
        content = tc.content
        dtype = _NUMPY_SEQ_DTYPES.get(content.kind)
        if dtype is not None:
            _, size = _PRIMITIVE_FORMATS[content.kind]

            def read_numeric_seq(stream, _dtype=dtype, _size=size):
                length = stream.read_ulong()
                stream.align(_size)
                raw = stream.read_raw(length * _size)
                return np.frombuffer(raw, dtype=_dtype).astype(
                    _dtype[1:], copy=True
                )

            return read_numeric_seq
        item_plan = decoder_plan(content)

        def read_seq(stream, _item_plan=item_plan):
            return [_item_plan(stream) for _ in range(stream.read_ulong())]

        return read_seq
    if kind is TCKind.ARRAY:
        assert tc.content is not None
        item_plan = decoder_plan(tc.content)

        def read_array(stream, _item_plan=item_plan, _length=tc.length):
            return [_item_plan(stream) for _ in range(_length)]

        return read_array
    if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
        field_plans = tuple(
            (name, decoder_plan(field_tc)) for name, field_tc in tc.fields
        )

        def read_struct(stream, _plans=field_plans, _name=tc.name):
            fields = {name: plan(stream) for name, plan in _plans}
            # Class lookup stays at decode time: registration may happen
            # after the plan was compiled.
            cls = _STRUCT_REGISTRY.get(_name)
            if cls is not None:
                return cls(**fields)
            return GenericStruct(_name, **fields)

        return read_struct
    if kind is TCKind.ENUM:
        return lambda stream, _tc=tc: stream._read_enum(_tc)
    if kind is TCKind.UNION:
        return lambda stream, _tc=tc: stream._read_union(_tc)
    if kind is TCKind.OBJREF:
        return lambda stream: stream.read_ior()
    if kind is TCKind.ANY:
        return lambda stream: stream.read_any()

    def read_unsupported(stream, _kind=kind):
        raise CdrError(f"cannot decode TypeCode kind {_kind.name}")

    return read_unsupported


# -- unchanged-payload fast path ---------------------------------------------------


def values_equal(a: Any, b: Any) -> bool:
    """Structural equality over the value domain ``any`` can carry.

    ndarray-aware (``==`` on arrays yields an array, so plain comparison
    is unusable), recursive over dicts and sequences; list/tuple compare
    equal element-wise because the wire format does not distinguish them.
    """
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, dict):
        if not isinstance(b, dict) or len(a) != len(b):
            return False
        for key, value in a.items():
            if key not in b or not values_equal(value, b[key]):
                return False
        return True
    if isinstance(a, (list, tuple)):
        if not isinstance(b, (list, tuple)) or len(a) != len(b):
            return False
        return all(values_equal(x, y) for x, y in zip(a, b))
    try:
        return bool(a == b)
    # analysis: ignore[EXC002]: exotic __eq__ is treated as unequal — forces a full store, which is always safe
    except Exception:  # noqa: BLE001 - exotic __eq__, treat as unequal
        return False


class AnyEncodeMemo:
    """Memoized :func:`encode_any` for a caller that repeatedly encodes
    the same logical value — the checkpoint path, where consecutive
    server states are often identical or nearly so.

    Holds the last ``(value, bytes)`` pair; a structural-equality hit
    returns the previous bytes without re-walking the value.  The caller
    must not mutate a value after encoding it (checkpoint states are
    fresh objects decoded off the wire, so the proxy path is safe).
    """

    def __init__(self) -> None:
        self._value: Any = None
        self._data: Optional[bytes] = None
        self.hits = 0
        self.misses = 0

    def encode(self, value: Any) -> bytes:
        if self._data is not None and values_equal(self._value, value):
            self.hits += 1
            _PLAN_STATS["any_memo_hits"] += 1
            return self._data
        self.misses += 1
        _PLAN_STATS["any_memo_misses"] += 1
        self._value = value
        self._data = encode_any(value)
        return self._data

"""Property-style tests for the CDR plan cache (seeded random typecodes).

The cache compiles a TypeCode tree into nested encoder/decoder closures and
is the only path ``write_value``/``read_value`` take.  The contract under
test: the plans write the same wire bytes and read back the same values as
the interpreted reference coder in :mod:`tests.orb.cdr_reference`, over
random typecodes, a rich IDL document (nested structs, unions on every
branch, a user exception, objrefs, ``any``), every live IDL document's
types, and ``any`` payloads including checkpoint deltas.
"""

import functools
import random

import numpy as np
import pytest

from repro.orb import cdr
from repro.orb import typecodes as tc
from repro.orb.cdr import (
    AnyEncodeMemo,
    CdrInputStream,
    CdrOutputStream,
    clear_plan_cache,
    decode_any,
    encode_any,
    plan_cache_stats,
    values_equal,
)
from repro.orb.idl import compile_idl
from repro.orb.ior import IOR
from tests.orb import cdr_reference as reference


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    """Each test starts and ends with an empty cache."""
    clear_plan_cache()
    yield
    clear_plan_cache()


# -- seeded typecode / value generator ----------------------------------------

_LEAVES = (
    tc.TC_BOOLEAN,
    tc.TC_OCTET,
    tc.TC_SHORT,
    tc.TC_USHORT,
    tc.TC_LONG,
    tc.TC_ULONG,
    tc.TC_LONGLONG,
    tc.TC_ULONGLONG,
    tc.TC_FLOAT,
    tc.TC_DOUBLE,
    tc.TC_STRING,
    tc.TC_OCTETS,
)

_INT_RANGES = {
    tc.TCKind.OCTET: (0, 255),
    tc.TCKind.SHORT: (-(2**15), 2**15 - 1),
    tc.TCKind.USHORT: (0, 2**16 - 1),
    tc.TCKind.LONG: (-(2**31), 2**31 - 1),
    tc.TCKind.ULONG: (0, 2**32 - 1),
    tc.TCKind.LONGLONG: (-(2**63), 2**63 - 1),
    tc.TCKind.ULONGLONG: (0, 2**64 - 1),
}


def random_typecode(rng: random.Random, depth: int = 0) -> tc.TypeCode:
    if depth >= 3 or rng.random() < 0.4:
        return rng.choice(_LEAVES)
    shape = rng.choice(("sequence", "array", "struct"))
    if shape == "sequence":
        return tc.sequence(random_typecode(rng, depth + 1))
    if shape == "array":
        return tc.array(random_typecode(rng, depth + 1), rng.randint(1, 4))
    fields = [
        (f"f{i}", random_typecode(rng, depth + 1))
        for i in range(rng.randint(1, 4))
    ]
    return tc.struct(f"S{rng.randrange(10_000)}", fields)


def random_value(rng: random.Random, typecode: tc.TypeCode):
    """A random value for ``typecode``; structs, enums and unions use the
    registered IDL classes when there are any."""
    kind = typecode.kind
    if kind in (tc.TCKind.NULL, tc.TCKind.VOID):
        return None
    if kind is tc.TCKind.BOOLEAN:
        return rng.random() < 0.5
    if kind in _INT_RANGES:
        return rng.randint(*_INT_RANGES[kind])
    if kind is tc.TCKind.FLOAT:
        # single precision: pick values that survive the narrowing
        return float(np.float32(rng.uniform(-1e6, 1e6)))
    if kind is tc.TCKind.DOUBLE:
        return rng.uniform(-1e12, 1e12)
    if kind is tc.TCKind.STRING:
        length = rng.randint(0, 12)
        return "".join(rng.choice("abcXYZ äöü 0189") for _ in range(length))
    if kind is tc.TCKind.OCTETS:
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 16)))
    if kind is tc.TCKind.SEQUENCE:
        return [
            random_value(rng, typecode.content)
            for _ in range(rng.randint(0, 5))
        ]
    if kind is tc.TCKind.ARRAY:
        return [
            random_value(rng, typecode.content)
            for _ in range(typecode.length)
        ]
    if kind in (tc.TCKind.STRUCT, tc.TCKind.EXCEPTION):
        cls = cdr._STRUCT_REGISTRY.get(typecode.name)
        fields = {name: random_value(rng, ftc) for name, ftc in typecode.fields}
        return cls(**fields) if cls is not None else fields
    if kind is tc.TCKind.ENUM:
        cls = cdr._ENUM_REGISTRY.get(typecode.name)
        index = rng.randrange(len(typecode.members))
        return cls(index) if cls is not None else index
    if kind is tc.TCKind.UNION:
        return random_union(rng, typecode)
    if kind is tc.TCKind.ANY:
        return random_any_value(rng)
    if kind is tc.TCKind.OBJREF:
        return IOR(
            type_id="IDL:CgParity/Ref:1.0",
            host=f"ws{rng.randrange(10):02d}",
            port=rng.randrange(1, 2**16),
            object_key=bytes(rng.randrange(256) for _ in range(8)),
            incarnation=rng.randrange(4),
        )
    raise AssertionError(f"generator does not cover {kind}")


def random_union(rng: random.Random, typecode: tc.TypeCode):
    index = rng.randrange(len(typecode.fields))
    label = typecode.labels[index]
    _, case_tc = typecode.fields[index]
    discriminator_tc = typecode.content
    if label is None:
        # The default arm travels under a discriminator that matches no
        # explicit label; when an enum has every value claimed, reuse one.
        claimed = [lab for lab in typecode.labels if lab is not None]
        is_enum = discriminator_tc.kind is tc.TCKind.ENUM
        if is_enum and len(claimed) >= len(discriminator_tc.members):
            label = claimed[0]
            _, case_tc = typecode.fields[typecode.labels.index(label)]
        else:
            candidates = (
                range(len(discriminator_tc.members)) if is_enum else range(1000)
            )
            label = next(v for v in candidates if v not in claimed)
    discriminator = label
    if discriminator_tc.kind is tc.TCKind.ENUM:
        enum_cls = cdr._ENUM_REGISTRY.get(discriminator_tc.name)
        if enum_cls is not None:
            discriminator = enum_cls(label)
    value = random_value(rng, case_tc)
    cls = cdr._UNION_REGISTRY.get(typecode.name)
    if cls is not None:
        return cls(discriminator, value)
    return cdr.GenericUnion(typecode.name, discriminator, value)


def random_any_value(rng: random.Random, depth: int = 0):
    """Natural Python values for the self-describing ``any`` path, where
    ``infer_typecode`` picks the wire type (ints must fit longlong)."""
    if depth >= 3 or rng.random() < 0.45:
        return rng.choice(
            (
                rng.random() < 0.5,
                rng.randint(-(2**62), 2**62),
                rng.uniform(-1e9, 1e9),
                "s" * rng.randint(0, 8),
                bytes(rng.randrange(256) for _ in range(rng.randint(0, 8))),
            )
        )
    if rng.random() < 0.5:
        return [random_any_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        f"k{i}": random_any_value(rng, depth + 1)
        for i in range(rng.randint(0, 4))
    }


def encode(typecode: tc.TypeCode, value) -> bytes:
    out = CdrOutputStream()
    out.write_value(typecode, value)
    return out.getvalue()


def decode(typecode: tc.TypeCode, data: bytes):
    stream = CdrInputStream(data)
    value = stream.read_value(typecode)
    assert stream.remaining() == 0
    return value


# -- typed-value cases: (typecode, value) pairs per parameter -----------------

# Unique Cg* names so this module never displaces a live IDL document's
# classes in the name-keyed registries.
NS = compile_idl(
    """
    enum CgColor { CG_RED, CG_GREEN, CG_BLUE };
    struct CgInner { string label; double weight; octet flag; };
    typedef sequence<double> CgDoubles;
    typedef sequence<string> CgStrings;
    struct CgOuter {
        CgInner inner;
        sequence<CgInner> items;
        CgDoubles weights;
        CgStrings names;
        CgColor color;
        boolean on;
        long long big;
        any payload;
        double matrix[3];
        sequence<octet> blob;
        Object target;
    };
    union CgChoice switch (CgColor) {
        case CG_RED: long count;
        case CG_GREEN: CgInner inner;
        default: string label;
    };
    exception CgBroken { string why; long code; };
    """,
    name="cg-parity",
)


def random_case(seed):
    rng = random.Random(1000 + seed)
    typecode = random_typecode(rng)
    return [(typecode, random_value(rng, typecode))]


def cg_outer_case(seed):
    rng = random.Random(4000 + seed)
    return [(NS.CgOuter.__tc__, random_value(rng, NS.CgOuter.__tc__))]


def cg_union_case(seed):
    """One value per union branch, the default arm included."""
    rng = random.Random(5000 + seed)
    members = {
        NS.CgColor.CG_RED: rng.randint(-(2**31), 2**31 - 1),
        NS.CgColor.CG_GREEN: random_value(rng, NS.CgInner.__tc__),
        NS.CgColor.CG_BLUE: "default-" + "x" * rng.randint(0, 5),
    }
    return [
        (NS.CgChoice.__tc__, NS.CgChoice(color, member))
        for color, member in members.items()
    ]


def cg_exception_case(seed):
    rng = random.Random(6000 + seed)
    value = NS.CgBroken(why="w" * rng.randint(0, 9), code=rng.randint(-99, 99))
    return [(NS.CgBroken.__tc__, value)]


def live_typecodes():
    """Every TypeCode a live IDL document declares or uses in a signature:
    naming, checkpoint deltas, trader, events, Winner, worker, factory and
    checkpointable."""
    from repro.ft import checkpointable, factory
    from repro.opt import worker
    from repro.services import checkpoint, events, trader
    from repro.services.naming import idl as naming_idl
    from repro.winner import service

    namespaces = (
        checkpointable.ns,
        factory.ns,
        worker.worker_idl,
        checkpoint.ns,
        events.ns,
        trader.ns,
        naming_idl.ns,
        service.idl,
    )
    found = set()
    for namespace in namespaces:
        for value in vars(namespace).values():
            typecode = getattr(value, "__tc__", None)
            if isinstance(typecode, tc.TypeCode):
                found.add(typecode)
            for info in getattr(value, "__operations__", {}).values():
                found.add(info.result)
                found.update(param_tc for _, param_tc in info.params)
    return sorted(found, key=repr)


def live_documents_case(seed):
    typecodes = live_typecodes()
    names = {typecode.name for typecode in typecodes}
    assert "Checkpointing::BadDeltaBase" in names, names
    rng = random.Random(8000 + seed)
    return [(typecode, random_value(rng, typecode)) for typecode in typecodes]


def _cases(prefix, make, seeds):
    return [
        pytest.param(functools.partial(make, seed), id=f"{prefix}{seed}")
        for seed in seeds
    ]


TYPED_CASES = (
    _cases("", random_case, range(25))
    + _cases("cg-outer-", cg_outer_case, range(20))
    + _cases("cg-union-", cg_union_case, range(12))
    + _cases("cg-exception-", cg_exception_case, range(8))
    + _cases("live-", live_documents_case, range(5))
)


# -- plan / reference parity --------------------------------------------------


@pytest.mark.parametrize("make_case", TYPED_CASES)
def test_random_roundtrip_cache_parity(make_case):
    for typecode, value in make_case():
        plan_bytes = encode(typecode, value)
        assert plan_bytes == reference.encode(typecode, value), typecode

        plan_value = decode(typecode, plan_bytes)
        reference_value = reference.decode(typecode, plan_bytes)
        # Decoded values may hold ndarrays (numeric sequences),
        # GenericStructs and exceptions, so compare through their
        # canonical re-encoding.
        assert (
            reference.encode(typecode, plan_value)
            == reference.encode(typecode, reference_value)
            == plan_bytes
        ), typecode


def any_case(seed):
    rng = random.Random(2000 + seed)
    return [{"state": random_any_value(rng), "round": seed}]


def checkpoint_delta_case(seed):
    """The delta nodes ``services/checkpoint.py`` ships inside ``any``."""
    from repro.services.checkpoint import compute_delta

    rng = random.Random(7000 + seed)
    base = {"weights": [rng.uniform(-1, 1) for _ in range(5)], "round": seed}
    new = dict(base, round=seed + 1, extra=random_any_value(rng))
    return [random_any_value(rng), base, compute_delta(base, new)]


ANY_CASES = _cases("", any_case, range(10)) + _cases(
    "delta-", checkpoint_delta_case, range(8)
)


@pytest.mark.parametrize("make_values", ANY_CASES)
def test_any_roundtrip_cache_parity(make_values):
    for value in make_values():
        plan_bytes = encode_any(value)
        assert plan_bytes == reference.encode_any(value)

        plan_value = decode_any(plan_bytes)
        reference_value = reference.decode_any(plan_bytes)
        assert values_equal(plan_value, reference_value)
        # Re-encoding what either side decoded reproduces the same wire bytes.
        assert encode_any(plan_value) == reference.encode_any(reference_value)


# -- cache mechanics ----------------------------------------------------------


def test_plans_compile_once_then_hit():
    typecode = tc.struct("Pt", [("x", tc.TC_DOUBLE), ("y", tc.TC_DOUBLE)])
    for _ in range(5):
        decode(typecode, encode(typecode, {"x": 1.0, "y": 2.0}))
    stats = plan_cache_stats()
    # one compile per distinct typecode tree (Pt and its double leaf),
    # every later use a hit
    assert stats["encoder_plans_compiled"] == stats["decoder_plans_compiled"]
    assert stats["encoder_plan_hits"] >= 4
    assert stats["decoder_plan_hits"] >= 4


def test_clear_plan_cache_resets_stats():
    encode(tc.TC_DOUBLE_SEQ, [1.0])
    assert plan_cache_stats()["encoder_plans_compiled"] > 0
    clear_plan_cache()
    assert all(v == 0 for v in plan_cache_stats().values())


# -- AnyEncodeMemo ------------------------------------------------------------


def test_any_memo_hits_on_structurally_equal_value():
    memo = AnyEncodeMemo()
    state = {"total": 7.0, "weights": [1.0, 2.0, 3.0]}
    first = memo.encode(state)
    # fresh but equal object (the checkpoint path decodes a new dict per call)
    second = memo.encode({"total": 7.0, "weights": [1.0, 2.0, 3.0]})
    assert first is second
    assert memo.hits == 1 and memo.misses == 1
    assert first == encode_any(state)


def test_any_memo_misses_on_change_and_recovers():
    memo = AnyEncodeMemo()
    memo.encode({"total": 1.0})
    changed = memo.encode({"total": 2.0})
    assert memo.misses == 2 and memo.hits == 0
    assert changed == encode_any({"total": 2.0})
    assert memo.encode({"total": 2.0}) is changed


def test_any_memo_is_ndarray_aware():
    memo = AnyEncodeMemo()
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    first = memo.encode({"w": a})
    assert memo.encode({"w": a.copy()}) is first
    bumped = a.copy()
    bumped[1, 2] += 1.0
    assert memo.encode({"w": bumped}) is not first
    assert memo.hits == 1 and memo.misses == 2


def test_values_equal_edge_cases():
    assert values_equal([1, 2], (1, 2))  # wire format can't tell them apart
    assert not values_equal([1, 2], [1, 2, 3])
    assert not values_equal(np.array([1.0]), [1.0])
    assert values_equal({"a": np.array([1.0, 2.0])}, {"a": np.array([1.0, 2.0])})
    assert not values_equal({"a": 1}, {"b": 1})

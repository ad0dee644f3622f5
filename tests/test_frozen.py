import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError, MISSING

import pytest

from polyqtt import compiler, frontend, machine, potentials, syntax
from polyqtt.frozen import frozen
from polyqtt.potentials import Poly

MODULES = (syntax, machine, compiler, frontend, potentials)

# every class the modules build with @frozen
CLASSES = [
    cls
    for module in MODULES
    for cls in vars(module).values()
    if isinstance(cls, type)
    and cls.__module__ == module.__name__
    and "__dataclass_fields__" in vars(cls)
]


def _generated(value) -> bool:
    # a method @frozen compiled, as opposed to one the class body wrote
    return getattr(getattr(value, "__code__", None), "co_filename", None) == "<string>"


def _twin(cls):
    """The class as a stock @dataclass(frozen=True), from the same fields
    and the methods its body wrote."""
    own = {
        k: v
        for k, v in vars(cls).items()
        if not _generated(v)
        and k not in cls.__dataclass_fields__
        and k not in ("__slots__", "__dataclass_fields__", "__match_args__", "__annotations__")
    }
    for f in dataclasses.fields(cls):
        kw = {"compare": f.compare, "repr": f.repr}
        if f.default is not MISSING:
            kw["default"] = f.default
        if f.default_factory is not MISSING:
            kw["default_factory"] = f.default_factory
        own[f.name] = dataclasses.field(**kw)
    own["__annotations__"] = {f.name: f.type for f in dataclasses.fields(cls)}
    twin = type(cls.__name__, cls.__bases__, own)
    return dataclasses.dataclass(frozen=True, eq="__eq__" in vars(cls))(twin)


def _samples(cls) -> list[tuple]:
    """Field values: every field at a first value, and each field in turn
    at a second one."""
    names = [f.name for f in dataclasses.fields(cls)]
    values = {"poly": (Poly((1,)), Poly((2, 3)))}
    first = [values.get(n, ((1,), (2,)))[0] for n in names]
    out = [tuple(first)]
    for i, n in enumerate(names):
        out.append(tuple(first[:i]) + (values.get(n, ((1,), (2,)))[1],) + tuple(first[i + 1:]))
    return out


def test_every_node_class_is_built_by_frozen():
    assert len(CLASSES) == 73
    for cls in CLASSES:
        x = cls(*_samples(cls)[0])
        assert not hasattr(x, "__dict__"), cls
        assert set(cls.__slots__) == set(cls.__dataclass_fields__), cls
        assert dataclasses.is_dataclass(x), cls


def test_assignment_and_deletion_raise():
    for cls in CLASSES:
        x = cls(*_samples(cls)[0])
        for name in (*cls.__dataclass_fields__, "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(x, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(x, name)


def test_repr_eq_and_hash_match_a_stock_dataclass():
    for cls in CLASSES:
        twin = _twin(cls)
        assert [
            (f.name, f.type, f.compare, f.repr, f.default, f.default_factory)
            for f in dataclasses.fields(cls)
        ] == [
            (f.name, f.type, f.compare, f.repr, f.default, f.default_factory)
            for f in dataclasses.fields(twin)
        ], cls
        samples = _samples(cls)
        ours, theirs = [cls(*s) for s in samples], [twin(*s) for s in samples]
        for x, y in zip(ours, theirs):
            assert repr(x) == repr(y), cls
        if "__eq__" not in vars(cls):
            # @frozen(eq=False): the base class's equality, on both
            assert cls.__eq__ is twin.__eq__ and cls.__hash__ is twin.__hash__, cls
            continue
        for x, y in zip(ours, theirs):
            assert hash(x) == hash(y), cls
        for i in range(len(samples)):
            for j in range(len(samples)):
                assert (ours[i] == ours[j]) == (theirs[i] == theirs[j]), (cls, i, j)
                assert (ours[i] != ours[j]) == (theirs[i] != theirs[j]), (cls, i, j)
        assert ours[0] != object()
        if all(
            f.default is not MISSING or f.default_factory is not MISSING
            for f in dataclasses.fields(cls)
        ):
            assert repr(cls()) == repr(twin()), cls


def test_replace_copy_and_pickle_roundtrip():
    for cls in CLASSES:
        first, *others = _samples(cls)
        x = cls(*first)
        for y, values in zip(
            [dataclasses.replace(x, **{f.name: getattr(cls(*s), f.name)})
             for f, s in zip(dataclasses.fields(cls), others)],
            others,
        ):
            assert y.__class__ is cls
            assert [getattr(y, f.name) for f in dataclasses.fields(cls)] == list(values)
        for c in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert c.__class__ is cls and c == x, cls
            # the records outside equality are copied too
            assert [getattr(c, f.name) for f in dataclasses.fields(cls)] == list(first), cls


def test_a_copied_machine_node_carries_no_block():
    # a node with sub-nodes keeps its block in its _block slot (a leaf's
    # block is in machine._LEAF_BLOCKS)
    nodes = [
        cls(*_samples(cls)[0])
        for cls in CLASSES
        if issubclass(cls, machine.MachineExpr) and cls not in machine._LEAVES
    ]
    assert len(nodes) == 4
    for node in nodes:
        assert machine._block_of(node) is node._block
        for c in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert getattr(c, "_block", None) is None


def test_frozen_keeps_what_the_body_defines():
    @frozen
    class Point:
        x: int
        y: int = 0

        def __repr__(self):
            return f"<{self.x}, {self.y}>"

    assert repr(Point(1)) == "<1, 0>"
    assert Point(1, 2) == Point(1, 2) != Point(2, 1)
    with pytest.raises(TypeError, match="non-default argument 'y'"):

        @frozen
        class Bad:
            x: int = 0
            y: int

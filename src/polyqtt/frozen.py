"""Frozen dataclasses with slots, each built with one `exec`.

`@frozen` takes a class body of annotated fields, written as for
`@dataclass(frozen=True)`, and returns that class as a frozen dataclass:
the same fields, `repr`, `==` and `hash`, `FrozenInstanceError` on
assignment and deletion, and `__dataclass_fields__`, so that
`dataclasses.fields` and `replace` work.  The class also gets
`__slots__` for its fields, and its `__init__` stores each field through
the field's slot descriptor.  All of a class's methods are compiled in
one `exec`, where `dataclass` compiles one per method.

The state that copy, deep copy and pickle take is the tuple of the
fields, written back through the slot descriptors, so a slot that a base
class declares outside the fields (a machine node's block) is not copied.

A method the class body defines itself, such as a validating `__init__`
or its own `__repr__`, is kept.  `@frozen(eq=False)` keeps the base
class's `__eq__` and `__hash__`.  Fields come from the class's own
annotations; a base class contributes none.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, Field, FrozenInstanceError


def frozen(cls=None, /, *, eq: bool = True):
    """The frozen slotted dataclass of cls (see the module docstring)."""
    if cls is None:
        return lambda c: frozen(c, eq=eq)
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    fields, defaulted = {}, False
    for name, ann in ns.get("__annotations__", {}).items():
        f = ns.pop(name, MISSING)
        if f.__class__ is not Field:
            f = dataclasses.field(default=f)
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        if defaulted and not has_default:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        defaulted = defaulted or has_default
        f.name, f.type, f._field_type, f.kw_only = name, ann, dataclasses._FIELD, False
        fields[name] = f
    names = tuple(fields)
    ns.update(
        __slots__=names,
        __qualname__=cls.__qualname__,
        __dataclass_fields__=fields,
        __match_args__=names,
    )
    new = type(cls)(cls.__name__, cls.__bases__, ns)

    scope = {
        "__name__": cls.__module__,
        "FrozenInstanceError": FrozenInstanceError,
        "MISSING": MISSING,
    }
    params, stores = ["self"], []
    for k, f in enumerate(fields.values()):
        scope[f"_set{k}"] = getattr(new, f.name).__set__
        value = f.name
        if f.default_factory is not MISSING:
            scope[f"_factory{k}"] = f.default_factory
            params.append(f"{f.name}=MISSING")
            value = f"_factory{k}() if {f.name} is MISSING else {f.name}"
        elif f.default is not MISSING:
            scope[f"_default{k}"] = f.default
            params.append(f"{f.name}=_default{k}")
        else:
            params.append(f.name)
        stores.append(f"_set{k}(self, {value})")

    def tuple_of(who: str, fs) -> str:
        return "(" + "".join(f"{who}.{f.name}, " for f in fs) + ")"

    def block(lines) -> str:
        return "".join(f"    {line}\n" for line in lines or ["pass"])

    compared = [f for f in fields.values() if f.compare]
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields.values() if f.repr)
    methods = {
        "__init__": f"def __init__({', '.join(params)}):\n{block(stores)}",
        "__repr__": "def __repr__(self):\n"
        f'    return f"{{self.__class__.__qualname__}}({shown})"\n',
        "__setattr__": "def __setattr__(self, name, value):\n"
        "    raise FrozenInstanceError(f'cannot assign to field {name!r}')\n",
        "__delattr__": "def __delattr__(self, name):\n"
        "    raise FrozenInstanceError(f'cannot delete field {name!r}')\n",
        "__getstate__": f"def __getstate__(self):\n    return {tuple_of('self', fields.values())}\n",
        "__setstate__": "def __setstate__(self, state):\n"
        + block([f"_set{k}(self, state[{k}])" for k in range(len(fields))]),
    }
    if eq:
        methods["__eq__"] = (
            "def __eq__(self, other):\n"
            "    if self is other:\n"
            "        return True\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return {tuple_of('self', compared)} == {tuple_of('other', compared)}\n"
            "    return NotImplemented\n"
        )
        methods["__hash__"] = f"def __hash__(self):\n    return hash({tuple_of('self', compared)})\n"
    methods = {name: src for name, src in methods.items() if name not in cls.__dict__}
    exec("".join(methods.values()), scope)
    for name in methods:
        fn = scope[name]
        fn.__qualname__ = f"{new.__qualname__}.{name}"
        setattr(new, name, fn)
    return new

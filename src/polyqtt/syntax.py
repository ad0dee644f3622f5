"""Abstract syntax for the quantitative calculus.

Terms and types use de Bruijn indices; index 0 is the innermost binder.
Contexts record a usage annotation per entry (a natural number from the
usage semiring).  Declared usages admit any smaller inferred usage, so
usage 0 marks erased entries and every entry may be dropped.

Two regimes share the syntax.  The cons-free regime has erased-only
natural number constructors, duplication of naturals, and a recursor
whose branches close over nothing.  The payment regime ("lfpl") pays for
every constructor with a diamond and releases diamonds during recursion.

Nothing here rewrites syntax under binders.  Substitution is evaluation:
the kernel's evaluator binds indices to values and reads the result back
(`kernel.normalize_type(ty, args)`).  `has_free_var` is the one
binder-aware query on syntax.

Every node class is built by `frozen.frozen`: a frozen dataclass with
slots, whose `__init__` stores each field through its slot descriptor.
Its fields are its layout's one source: the traversal schema `_SCHEMA`
is derived from them as each class is built.
"""

from __future__ import annotations

from dataclasses import field, fields
from enum import Enum
from operator import add

from .frozen import frozen


class Regime(Enum):
    CONS_FREE = "consfree"
    LFPL = "lfpl"

    # members compare by identity; Enum's hash rehashes the name per lookup
    __hash__ = object.__hash__


# --------------------------------------------------------------------------
# Generic traversal.  Each node class is described by its dataclass
# fields: _SCHEMA maps it to (name, kind, binder count) per field, in
# field order.  A field's kind ("term" | "type" | "motive" | "plain")
# comes from its annotation, a "motive" being an optional type that binds
# one variable; its binder count comes from `_binds`.

_KINDS = {
    "Term": "term",
    "TypeExpr": "type",
    "TypeExpr | None": "motive",
    **dict.fromkeys(("int", "int | None", "str", "object"), "plain"),
}

_SCHEMA: dict[type, tuple[tuple[str, str, int], ...]] = {}


def _binds(k: int, **kw):
    """A field whose subterm binds k variables."""
    return field(metadata={"binds": k}, **kw)


def _node(cls):
    """The frozen node class of cls, entered in _SCHEMA.  An annotation
    without a kind in _KINDS is a TypeError, so no field a traversal
    should enter is silently skipped as plain."""
    cls = frozen(cls)
    row = []
    for f in fields(cls):
        kind = _KINDS.get(f.type)
        if kind is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no traversal kind for {f.type!r}")
        row.append((f.name, kind, f.metadata.get("binds", 0)))
    _SCHEMA[cls] = tuple(row)
    return cls


# --------------------------------------------------------------------------
# Types

class TypeExpr:
    __slots__ = ()


class Term:
    # a check record (kernel.check_record), outside the fields, so no
    # copy carries it and equality ignores it
    __slots__ = ("_checked",)


@_node
class Pi(TypeExpr):
    usage: int
    dom: TypeExpr
    cod: TypeExpr = _binds(1)


@_node
class Tensor(TypeExpr):
    usage: int
    fst: TypeExpr
    snd: TypeExpr = _binds(1)


@_node
class UnitTy(TypeExpr):
    pass


@_node
class BoolTy(TypeExpr):
    pass


@_node
class NatTy(TypeExpr):
    pass


@_node
class DiamondTy(TypeExpr):
    pass


@_node
class ListTy(TypeExpr):
    elem: TypeExpr


@_node
class IdTy(TypeExpr):
    ty: TypeExpr
    lhs: Term
    rhs: Term


@_node
class Universe(TypeExpr):
    pass


@_node
class El(TypeExpr):
    code: Term


@_node
class Reflect(TypeExpr):
    inner: TypeExpr


UNIT_TY = UnitTy()
BOOL_TY = BoolTy()
NAT_TY = NatTy()
DIAMOND_TY = DiamondTy()
UNIVERSE = Universe()


# --------------------------------------------------------------------------
# Terms

@_node
class Var(Term):
    index: int


@_node
class Lam(Term):
    body: Term = _binds(1)


@_node
class App(Term):
    fn: Term
    arg: Term
    # usage of the function type: None until the checker stores it in the
    # core term (kernel.elaborate); it takes no part in equality
    usage: int | None = field(default=None, compare=False, repr=False)


@_node
class Pair(Term):
    fst: Term
    snd: Term
    # usage of the tensor type, stored like App.usage
    usage: int | None = field(default=None, compare=False, repr=False)


@_node
class LetPair(Term):
    scrut: Term
    body: Term = _binds(2)  # components, second innermost
    motive: TypeExpr | None = _binds(1, default=None)  # the scrutinee


@_node
class Star(Term):
    pass


@_node
class LetUnit(Term):
    scrut: Term
    body: Term
    motive: TypeExpr | None = _binds(1, default=None)


@_node
class TrueC(Term):
    pass


@_node
class FalseC(Term):
    pass


@_node
class If(Term):
    scrut: Term
    then_branch: Term
    else_branch: Term
    motive: TypeExpr | None = _binds(1, default=None)


@_node
class Nil(Term):
    pass


@_node
class Cons(Term):
    head: Term
    tail: Term


@_node
class MatchList(Term):
    scrut: Term
    nil_branch: Term
    cons_branch: Term = _binds(2)  # head, tail
    motive: TypeExpr | None = _binds(1, default=None)


@_node
class RecList(Term):
    # erased fragment only
    scrut: Term
    nil_branch: Term
    cons_branch: Term = _binds(3)  # head, tail, previous result
    motive: TypeExpr | None = _binds(1, default=None)


@_node
class ZeroCF(Term):
    pass


@_node
class SuccCF(Term):
    pred: Term


@_node
class DupNat(Term):
    arg: Term


@_node
class RecNatCF(Term):
    scrut: Term
    zero_branch: Term
    succ_branch: Term = _binds(2)  # erased predecessor, previous result
    motive: TypeExpr | None = _binds(1, default=None)


@_node
class DiamondStar(Term):
    pass


@_node
class ZeroL(Term):
    pay: Term


@_node
class SuccL(Term):
    pay: Term
    pred: Term


@_node
class RecNatL(Term):
    scrut: Term
    zero_branch: Term = _binds(1)  # diamond
    succ_branch: Term = _binds(3)  # diamond, erased predecessor, previous result
    motive: TypeExpr | None = _binds(1, default=None)


@_node
class Refl(Term):
    body: Term


@_node
class ReflectIntro(Term):
    body: Term


@_node
class ReflectElim(Term):
    body: Term


@_node
class Fst(Term):
    # erased fragment only
    pair: Term


@_node
class Snd(Term):
    # erased fragment only
    pair: Term


@_node
class CodeTy(Term):
    """A universe code, carried as the type it denotes."""

    ty: TypeExpr


@_node
class Ann(Term):
    term: Term
    ty: TypeExpr


@frozen
class Global(Term):
    """A closed top-level definition.  The resolver hands out this one
    node at every reference, so later stages do their work on it once:
    the body keeps its check record (kernel.check_record: the declared
    type's value, the core term per regime and fragment, and the
    compiler's costed code per regime), or this node does when the body
    is a shared constant or another definition node; and the node keeps
    the evaluator's one closure value of a lambda body in `value`.  No
    record takes part in equality, hashing or repr."""

    name: str
    ty: TypeExpr = field(repr=False)
    body: Term = field(repr=False)
    value: object = field(default=None, compare=False, repr=False)


# closed, so traversals treat it as a leaf
_SCHEMA[Global] = tuple((f.name, "plain", 0) for f in fields(Global))


# --------------------------------------------------------------------------
# Contexts

@frozen
class CtxEntry:
    name: str
    usage: int
    ty: TypeExpr


UsageVector = tuple  # tuple[int, ...]


def usage_add(u1: UsageVector, u2: UsageVector) -> UsageVector:
    if len(u1) != len(u2):
        raise ValueError("usage vector length mismatch")
    return tuple(map(add, u1, u2))


def usage_scale(k: int, u: UsageVector) -> UsageVector:
    return u if k == 1 else tuple(map(k.__mul__, u))


def zero_usage(n: int) -> UsageVector:
    return (0,) * n


def nat_literal(regime: Regime, n: int) -> Term:
    """The numeral n: successors of zero, each constructor paid for with
    a diamond under LFPL."""
    if regime is Regime.CONS_FREE:
        t: Term = ZeroCF()
        for _ in range(n):
            t = SuccCF(t)
        return t
    t = ZeroL(DiamondStar())
    for _ in range(n):
        t = SuccL(DiamondStar(), t)
    return t


def has_free_var(node, index: int) -> bool:
    """Whether a term or type mentions the free index `index`.  It walks
    the fields _SCHEMA lists with an explicit stack, so deep nesting does
    not grow the host stack."""
    todo = [(node, index)]
    while todo:
        x, i = todo.pop()
        if x.__class__ is Var:
            if x.index == i:
                return True
            continue
        for name, kind, binders in _SCHEMA[x.__class__]:
            val = getattr(x, name)
            if kind != "plain" and val is not None:
                todo.append((val, i + binders))
    return False

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
"""

from __future__ import annotations

from dataclasses import field, fields
from enum import Enum
from operator import add

from .frozen import frozen


class Regime(Enum):
    CONS_FREE = "consfree"
    LFPL = "lfpl"


# --------------------------------------------------------------------------
# Types

class TypeExpr:
    __slots__ = ()


class Term:
    # a check record (kernel.check_record), outside the fields, so no
    # copy carries it and equality ignores it
    __slots__ = ("_checked",)


@frozen
class Pi(TypeExpr):
    usage: int
    dom: TypeExpr
    cod: TypeExpr  # binds 1


@frozen
class Tensor(TypeExpr):
    usage: int
    fst: TypeExpr
    snd: TypeExpr  # binds 1


@frozen
class UnitTy(TypeExpr):
    pass


@frozen
class BoolTy(TypeExpr):
    pass


@frozen
class NatTy(TypeExpr):
    pass


@frozen
class DiamondTy(TypeExpr):
    pass


@frozen
class ListTy(TypeExpr):
    elem: TypeExpr


@frozen
class IdTy(TypeExpr):
    ty: TypeExpr
    lhs: "Term"
    rhs: "Term"


@frozen
class Universe(TypeExpr):
    pass


@frozen
class El(TypeExpr):
    code: "Term"


@frozen
class Reflect(TypeExpr):
    inner: TypeExpr


UNIT_TY = UnitTy()
BOOL_TY = BoolTy()
NAT_TY = NatTy()
DIAMOND_TY = DiamondTy()
UNIVERSE = Universe()


# --------------------------------------------------------------------------
# Terms

@frozen
class Var(Term):
    index: int


@frozen
class Lam(Term):
    body: Term  # binds 1


@frozen
class App(Term):
    fn: Term
    arg: Term
    # usage of the function type: None until the checker stores it in the
    # core term (kernel.elaborate); it takes no part in equality
    usage: int | None = field(default=None, compare=False, repr=False)


@frozen
class Pair(Term):
    fst: Term
    snd: Term
    # usage of the tensor type, stored like App.usage
    usage: int | None = field(default=None, compare=False, repr=False)


@frozen
class LetPair(Term):
    scrut: Term
    body: Term  # binds 2 (components, second innermost)
    motive: TypeExpr | None = None  # binds 1 (the scrutinee)


@frozen
class Star(Term):
    pass


@frozen
class LetUnit(Term):
    scrut: Term
    body: Term
    motive: TypeExpr | None = None  # binds 1


@frozen
class TrueC(Term):
    pass


@frozen
class FalseC(Term):
    pass


@frozen
class If(Term):
    scrut: Term
    then_branch: Term
    else_branch: Term
    motive: TypeExpr | None = None  # binds 1


@frozen
class Nil(Term):
    pass


@frozen
class Cons(Term):
    head: Term
    tail: Term


@frozen
class MatchList(Term):
    scrut: Term
    nil_branch: Term
    cons_branch: Term  # binds 2 (head, tail)
    motive: TypeExpr | None = None  # binds 1


@frozen
class RecList(Term):
    # erased fragment only
    scrut: Term
    nil_branch: Term
    cons_branch: Term  # binds 3 (head, tail, previous result)
    motive: TypeExpr | None = None  # binds 1


@frozen
class ZeroCF(Term):
    pass


@frozen
class SuccCF(Term):
    pred: Term


@frozen
class DupNat(Term):
    arg: Term


@frozen
class RecNatCF(Term):
    scrut: Term
    zero_branch: Term
    succ_branch: Term  # binds 2 (erased predecessor, previous result)
    motive: TypeExpr | None = None  # binds 1


@frozen
class DiamondStar(Term):
    pass


@frozen
class ZeroL(Term):
    pay: Term


@frozen
class SuccL(Term):
    pay: Term
    pred: Term


@frozen
class RecNatL(Term):
    scrut: Term
    zero_branch: Term  # binds 1 (diamond)
    succ_branch: Term  # binds 3 (diamond, erased predecessor, previous result)
    motive: TypeExpr | None = None  # binds 1


@frozen
class Refl(Term):
    body: Term


@frozen
class ReflectIntro(Term):
    body: Term


@frozen
class ReflectElim(Term):
    body: Term


@frozen
class Fst(Term):
    # erased fragment only
    pair: Term


@frozen
class Snd(Term):
    # erased fragment only
    pair: Term


@frozen
class CodeTy(Term):
    """A universe code, carried as the type it denotes."""

    ty: TypeExpr


@frozen
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


# --------------------------------------------------------------------------
# Generic traversal.  Each AST class is described by its dataclass fields:
# ("term" | "type" | "motive" | "plain", binder count).  "motive" is an
# optional type binding one variable.

_T = "term"
_Y = "type"
_M = "motive"
_P = "plain"

_SCHEMA: dict[type, tuple[tuple[str, str, int], ...]] = {
    Pi: (("usage", _P, 0), ("dom", _Y, 0), ("cod", _Y, 1)),
    Tensor: (("usage", _P, 0), ("fst", _Y, 0), ("snd", _Y, 1)),
    UnitTy: (),
    BoolTy: (),
    NatTy: (),
    DiamondTy: (),
    ListTy: (("elem", _Y, 0),),
    IdTy: (("ty", _Y, 0), ("lhs", _T, 0), ("rhs", _T, 0)),
    Universe: (),
    El: (("code", _T, 0),),
    Reflect: (("inner", _Y, 0),),
    Var: (("index", _P, 0),),
    Lam: (("body", _T, 1),),
    App: (("fn", _T, 0), ("arg", _T, 0), ("usage", _P, 0)),
    Pair: (("fst", _T, 0), ("snd", _T, 0), ("usage", _P, 0)),
    LetPair: (("scrut", _T, 0), ("body", _T, 2), ("motive", _M, 1)),
    Star: (),
    LetUnit: (("scrut", _T, 0), ("body", _T, 0), ("motive", _M, 1)),
    TrueC: (),
    FalseC: (),
    If: (
        ("scrut", _T, 0),
        ("then_branch", _T, 0),
        ("else_branch", _T, 0),
        ("motive", _M, 1),
    ),
    Nil: (),
    Cons: (("head", _T, 0), ("tail", _T, 0)),
    MatchList: (
        ("scrut", _T, 0),
        ("nil_branch", _T, 0),
        ("cons_branch", _T, 2),
        ("motive", _M, 1),
    ),
    RecList: (
        ("scrut", _T, 0),
        ("nil_branch", _T, 0),
        ("cons_branch", _T, 3),
        ("motive", _M, 1),
    ),
    ZeroCF: (),
    SuccCF: (("pred", _T, 0),),
    DupNat: (("arg", _T, 0),),
    RecNatCF: (
        ("scrut", _T, 0),
        ("zero_branch", _T, 0),
        ("succ_branch", _T, 2),
        ("motive", _M, 1),
    ),
    DiamondStar: (),
    ZeroL: (("pay", _T, 0),),
    SuccL: (("pay", _T, 0), ("pred", _T, 0)),
    RecNatL: (
        ("scrut", _T, 0),
        ("zero_branch", _T, 1),
        ("succ_branch", _T, 3),
        ("motive", _M, 1),
    ),
    Refl: (("body", _T, 0),),
    ReflectIntro: (("body", _T, 0),),
    ReflectElim: (("body", _T, 0),),
    Fst: (("pair", _T, 0),),
    Snd: (("pair", _T, 0),),
    CodeTy: (("ty", _Y, 0),),
    Ann: (("term", _T, 0), ("ty", _Y, 0)),
    # closed, so traversals treat it as a leaf
    Global: tuple((name, _P, 0) for name in ("name", "ty", "body", "value")),
}


def _check_schema() -> None:
    for cls, spec in _SCHEMA.items():
        declared = tuple(f.name for f in fields(cls))
        assert declared == tuple(name for name, _, _ in spec), cls


_check_schema()


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
            if kind != _P and val is not None:
                todo.append((val, i + binders))
    return False

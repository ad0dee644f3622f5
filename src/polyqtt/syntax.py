"""Abstract syntax for the quantitative calculus.

Terms and types use de Bruijn indices; index 0 is the innermost binder.
Contexts record a usage annotation per entry (a natural number from the
usage semiring).  Declared usages admit any smaller inferred usage, so
usage 0 marks erased entries and every entry may be dropped.

Two regimes share the syntax.  The cons-free regime has erased-only
natural number constructors, duplication of naturals, and a recursor
whose branches close over nothing.  The payment regime ("lfpl") pays for
every constructor with a diamond and releases diamonds during recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum


class Regime(Enum):
    CONS_FREE = "consfree"
    LFPL = "lfpl"


# --------------------------------------------------------------------------
# Types

class TypeExpr:
    __slots__ = ()


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Pi(TypeExpr):
    usage: int
    dom: TypeExpr
    cod: TypeExpr  # binds 1


@dataclass(frozen=True)
class Tensor(TypeExpr):
    usage: int
    fst: TypeExpr
    snd: TypeExpr  # binds 1


@dataclass(frozen=True)
class UnitTy(TypeExpr):
    pass


@dataclass(frozen=True)
class BoolTy(TypeExpr):
    pass


@dataclass(frozen=True)
class NatTy(TypeExpr):
    pass


@dataclass(frozen=True)
class DiamondTy(TypeExpr):
    pass


@dataclass(frozen=True)
class ListTy(TypeExpr):
    elem: TypeExpr


@dataclass(frozen=True)
class IdTy(TypeExpr):
    ty: TypeExpr
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Universe(TypeExpr):
    pass


@dataclass(frozen=True)
class El(TypeExpr):
    code: "Term"


@dataclass(frozen=True)
class Reflect(TypeExpr):
    inner: TypeExpr


UNIT_TY = UnitTy()
BOOL_TY = BoolTy()
NAT_TY = NatTy()
DIAMOND_TY = DiamondTy()
UNIVERSE = Universe()


# --------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class Lam(Term):
    body: Term  # binds 1


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term
    # usage of the function type: None until the checker stores it in the
    # core term (kernel.elaborate); it takes no part in equality
    usage: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term
    # usage of the tensor type, stored like App.usage
    usage: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LetPair(Term):
    scrut: Term
    body: Term  # binds 2 (components, second innermost)
    motive: TypeExpr | None = None  # binds 1 (the scrutinee)


@dataclass(frozen=True)
class Star(Term):
    pass


@dataclass(frozen=True)
class LetUnit(Term):
    scrut: Term
    body: Term
    motive: TypeExpr | None = None  # binds 1


@dataclass(frozen=True)
class TrueC(Term):
    pass


@dataclass(frozen=True)
class FalseC(Term):
    pass


@dataclass(frozen=True)
class If(Term):
    scrut: Term
    then_branch: Term
    else_branch: Term
    motive: TypeExpr | None = None  # binds 1


@dataclass(frozen=True)
class Nil(Term):
    pass


@dataclass(frozen=True)
class Cons(Term):
    head: Term
    tail: Term


@dataclass(frozen=True)
class MatchList(Term):
    scrut: Term
    nil_branch: Term
    cons_branch: Term  # binds 2 (head, tail)
    motive: TypeExpr | None = None  # binds 1


@dataclass(frozen=True)
class RecList(Term):
    # erased fragment only
    scrut: Term
    nil_branch: Term
    cons_branch: Term  # binds 3 (head, tail, previous result)
    motive: TypeExpr | None = None  # binds 1


@dataclass(frozen=True)
class ZeroCF(Term):
    pass


@dataclass(frozen=True)
class SuccCF(Term):
    pred: Term


@dataclass(frozen=True)
class DupNat(Term):
    arg: Term


@dataclass(frozen=True)
class RecNatCF(Term):
    scrut: Term
    zero_branch: Term
    succ_branch: Term  # binds 2 (erased predecessor, previous result)
    motive: TypeExpr | None = None  # binds 1


@dataclass(frozen=True)
class DiamondStar(Term):
    pass


@dataclass(frozen=True)
class ZeroL(Term):
    pay: Term


@dataclass(frozen=True)
class SuccL(Term):
    pay: Term
    pred: Term


@dataclass(frozen=True)
class RecNatL(Term):
    scrut: Term
    zero_branch: Term  # binds 1 (diamond)
    succ_branch: Term  # binds 3 (diamond, erased predecessor, previous result)
    motive: TypeExpr | None = None  # binds 1


@dataclass(frozen=True)
class Refl(Term):
    body: Term


@dataclass(frozen=True)
class ReflectIntro(Term):
    body: Term


@dataclass(frozen=True)
class ReflectElim(Term):
    body: Term


@dataclass(frozen=True)
class Fst(Term):
    # erased fragment only
    pair: Term


@dataclass(frozen=True)
class Snd(Term):
    # erased fragment only
    pair: Term


@dataclass(frozen=True)
class CodeTy(Term):
    """A universe code, carried as the type it denotes."""

    ty: TypeExpr


@dataclass(frozen=True)
class Ann(Term):
    term: Term
    ty: TypeExpr


# --------------------------------------------------------------------------
# Contexts

@dataclass(frozen=True)
class CtxEntry:
    name: str
    usage: int
    ty: TypeExpr


Context = tuple  # tuple[CtxEntry, ...]
UsageVector = tuple  # tuple[int, ...]


def ctx_zero(ctx: Context) -> Context:
    return tuple(CtxEntry(e.name, 0, e.ty) for e in ctx)


def usage_add(u1: UsageVector, u2: UsageVector) -> UsageVector:
    if len(u1) != len(u2):
        raise ValueError("usage vector length mismatch")
    return tuple(a + b for a, b in zip(u1, u2))


def usage_scale(k: int, u: UsageVector) -> UsageVector:
    return tuple(k * a for a in u)


def zero_usage(n: int) -> UsageVector:
    return (0,) * n


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
}


def _check_schema() -> None:
    for cls, spec in _SCHEMA.items():
        declared = tuple(f.name for f in fields(cls))
        assert declared == tuple(name for name, _, _ in spec), cls


_check_schema()


def _map_vars(node, depth: int, on_var):
    """Rebuild a term or type, applying on_var(var_node, depth) at
    variables; unchanged subtrees are shared with the input."""
    cls = node.__class__
    if cls is Var:
        return on_var(node, depth)
    spec = _SCHEMA[cls]
    changed = False
    new_vals = []
    for name, kind, binders in spec:
        val = getattr(node, name)
        if kind == _P or val is None:
            new_vals.append(val)
            continue
        new_val = _map_vars(val, depth + binders, on_var)
        changed = changed or new_val is not val
        new_vals.append(new_val)
    if not changed:
        return node
    return cls(*new_vals)


def shift_term(t: Term, amount: int, cutoff: int = 0) -> Term:
    if amount == 0:
        return t

    def on_var(v, depth):
        if v.index - depth >= cutoff:
            return Var(v.index + amount)
        return v

    return _map_vars(t, 0, on_var)


def shift_type(t: TypeExpr, amount: int, cutoff: int = 0) -> TypeExpr:
    if amount == 0:
        return t

    def on_var(v, depth):
        if v.index - depth >= cutoff:
            return Var(v.index + amount)
        return v

    return _map_vars(t, 0, on_var)


def instantiate(body, subs: tuple) -> Term:
    """Substitute the innermost len(subs) binders of body.

    subs[0] replaces index 0 (the innermost binder), subs[1] index 1, and
    so on; remaining free indices drop by len(subs).  Works on terms and
    types alike.
    """
    k = len(subs)
    if k == 0:
        return body

    def on_var(v, depth):
        j = v.index - depth
        if j < 0:
            return v
        if j < k:
            return shift_term(subs[j], depth)
        return Var(v.index - k)

    return _map_vars(body, 0, on_var)


def instantiate_type(body: TypeExpr, subs: tuple) -> TypeExpr:
    return instantiate(body, subs)


def has_free_var(node, index: int) -> bool:
    found = False

    def on_var(v, depth):
        nonlocal found
        if v.index - depth == index:
            found = True
        return v

    _map_vars(node, 0, on_var)
    return found


def strengthen(node, index: int = 0):
    """Remove an unused binder: shift references above `index` down by one.

    The caller must ensure has_free_var(node, index) is false.
    """

    def on_var(v, depth):
        if v.index - depth > index:
            return Var(v.index - 1)
        return v

    return _map_vars(node, 0, on_var)

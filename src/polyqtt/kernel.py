"""Bidirectional type and usage checking for both regimes, with
definitional equality decided by normalisation over the erased-fragment
equations.

Usage handling is algorithmic: checking a term synthesises the minimal
usage vector for the free variables, and declared annotations admit any
inferred vector they dominate pointwise.  Binder annotations are
enforced when a binder is popped; premises that demand a fully erased
context (recursor branches, reflection introduction) require an all-zero
inferred vector.

Checking also returns the core term: the input term with the usage of
each application's function type and each pair's tensor type stored in
the `usage` field of the App or Pair node.  That is the one typing fact
the compiler needs, so the compiler reads it from the core term and
carries no types of its own.
"""

from __future__ import annotations

from .syntax import (
    Ann,
    App,
    BOOL_TY,
    BoolTy,
    CodeTy,
    Cons,
    Context,
    CtxEntry,
    DIAMOND_TY,
    DiamondStar,
    DiamondTy,
    DupNat,
    El,
    FalseC,
    Fst,
    IdTy,
    If,
    Lam,
    LetPair,
    LetUnit,
    ListTy,
    MatchList,
    NAT_TY,
    NatTy,
    Nil,
    Pair,
    Pi,
    RecList,
    RecNatCF,
    RecNatL,
    Refl,
    Reflect,
    ReflectElim,
    ReflectIntro,
    Regime,
    Snd,
    Star,
    SuccCF,
    SuccL,
    Tensor,
    Term,
    TrueC,
    TypeExpr,
    UNIT_TY,
    UNIVERSE,
    UnitTy,
    Universe,
    UsageVector,
    Var,
    ZeroCF,
    ZeroL,
    ctx_zero,
    has_free_var,
    instantiate,
    instantiate_type,
    shift_type,
    strengthen,
    usage_add,
    usage_scale,
    zero_usage,
)


class CheckError(Exception):
    """A rejected judgement, labelled with the violated rule."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule
        self.message = message


DEFAULT_NORM_BUDGET = 5_000_000

_MIN_STACK = 30_000


def _ensure_stack() -> None:
    # structural recursion over deeply nested normal forms needs headroom
    import sys

    if sys.getrecursionlimit() < _MIN_STACK:
        sys.setrecursionlimit(_MIN_STACK)


# ---------------------------------------------------------------------------
# Normalisation (erased-fragment equations)

class _NormSession:
    __slots__ = ("budget", "memo", "pins")

    def __init__(self, budget: int):
        self.budget = budget
        self.memo: dict[int, object] = {}
        self.pins: list = []  # keeps memo keys alive

    def spend(self) -> None:
        self.budget -= 1
        if self.budget < 0:
            raise CheckError("Normalize", "normalisation step budget exhausted")


def _eta_contract(t: Term) -> Term:
    # \x. f x  ~~>  f   when x is not free in f
    if isinstance(t, Lam) and isinstance(t.body, App):
        arg = t.body.arg
        if isinstance(arg, Var) and arg.index == 0 and not has_free_var(t.body.fn, 0):
            return strengthen(t.body.fn)
    # (fst m, snd m)  ~~>  m
    if isinstance(t, Pair) and isinstance(t.fst, Fst) and isinstance(t.snd, Snd):
        if t.fst.pair == t.snd.pair:
            return t.fst.pair
    return t


def _norm(t: Term, s: _NormSession) -> Term:
    key = id(t)
    hit = s.memo.get(key)
    if hit is not None:
        return hit
    out = _norm_uncached(t, s)
    s.memo[key] = out
    s.pins.append(t)
    return out


def _norm_uncached(t: Term, s: _NormSession) -> Term:
    # Head reductions iterate in place so long redex chains cannot
    # overflow the host stack; subterms recurse structurally.
    while True:
        cls = t.__class__
        if cls in (Var, Star, TrueC, FalseC, Nil, ZeroCF, DiamondStar):
            return t
        if cls is Ann:
            t = t.term
            continue
        if cls is Lam:
            return _eta_contract(Lam(_norm(t.body, s)))
        if cls is App:
            fn = _norm(t.fn, s)
            if isinstance(fn, Lam):
                s.spend()
                t = instantiate(fn.body, (t.arg,))
                continue
            return App(fn, _norm(t.arg, s))
        if cls is Pair:
            return _eta_contract(Pair(_norm(t.fst, s), _norm(t.snd, s)))
        if cls is LetPair:
            scrut = _norm(t.scrut, s)
            if isinstance(scrut, Pair):
                s.spend()
                t = instantiate(t.body, (scrut.snd, scrut.fst))
                continue
            return LetPair(scrut, _norm(t.body, s), _norm_motive(t.motive, s))
        if cls is LetUnit:
            scrut = _norm(t.scrut, s)
            if isinstance(scrut, Star):
                s.spend()
                t = t.body
                continue
            return LetUnit(scrut, _norm(t.body, s), _norm_motive(t.motive, s))
        if cls is If:
            scrut = _norm(t.scrut, s)
            if isinstance(scrut, TrueC):
                s.spend()
                t = t.then_branch
                continue
            if isinstance(scrut, FalseC):
                s.spend()
                t = t.else_branch
                continue
            return If(
                scrut,
                _norm(t.then_branch, s),
                _norm(t.else_branch, s),
                _norm_motive(t.motive, s),
            )
        if cls is Cons:
            return Cons(_norm(t.head, s), _norm(t.tail, s))
        if cls is MatchList:
            scrut = _norm(t.scrut, s)
            if isinstance(scrut, Nil):
                s.spend()
                t = t.nil_branch
                continue
            if isinstance(scrut, Cons):
                s.spend()
                t = instantiate(t.cons_branch, (scrut.tail, scrut.head))
                continue
            return MatchList(
                scrut,
                _norm(t.nil_branch, s),
                _norm(t.cons_branch, s),
                _norm_motive(t.motive, s),
            )
        if cls is RecList:
            scrut = _norm(t.scrut, s)
            if isinstance(scrut, Nil):
                s.spend()
                t = t.nil_branch
                continue
            if isinstance(scrut, Cons):
                s.spend()
                rest = RecList(scrut.tail, t.nil_branch, t.cons_branch, t.motive)
                t = instantiate(t.cons_branch, (rest, scrut.tail, scrut.head))
                continue
            return RecList(
                scrut,
                _norm(t.nil_branch, s),
                _norm(t.cons_branch, s),
                _norm_motive(t.motive, s),
            )
        if cls is SuccCF:
            return SuccCF(_norm(t.pred, s))
        if cls is DupNat:
            s.spend()
            inner = _norm(t.arg, s)
            return _eta_contract(Pair(inner, inner))
        if cls is RecNatCF:
            scrut = _norm(t.scrut, s)
            if isinstance(scrut, ZeroCF):
                s.spend()
                t = t.zero_branch
                continue
            if isinstance(scrut, SuccCF):
                s.spend()
                rest = RecNatCF(scrut.pred, t.zero_branch, t.succ_branch, t.motive)
                t = instantiate(t.succ_branch, (rest, scrut.pred))
                continue
            return RecNatCF(
                scrut,
                _norm(t.zero_branch, s),
                _norm(t.succ_branch, s),
                _norm_motive(t.motive, s),
            )
        if cls is ZeroL:
            # every diamond is definitionally the dummy diamond
            return ZeroL(DiamondStar())
        if cls is SuccL:
            return SuccL(DiamondStar(), _norm(t.pred, s))
        if cls is RecNatL:
            scrut = _norm(t.scrut, s)
            if isinstance(scrut, ZeroL):
                s.spend()
                t = instantiate(t.zero_branch, (scrut.pay,))
                continue
            if isinstance(scrut, SuccL):
                s.spend()
                rest = RecNatL(scrut.pred, t.zero_branch, t.succ_branch, t.motive)
                t = instantiate(t.succ_branch, (rest, scrut.pred, scrut.pay))
                continue
            return RecNatL(
                scrut,
                _norm(t.zero_branch, s),
                _norm(t.succ_branch, s),
                _norm_motive(t.motive, s),
            )
        if cls is Refl:
            return Refl(_norm(t.body, s))
        if cls is ReflectIntro:
            body = _norm(t.body, s)
            if isinstance(body, ReflectElim):
                s.spend()
                return body.body
            return ReflectIntro(body)
        if cls is ReflectElim:
            body = _norm(t.body, s)
            if isinstance(body, ReflectIntro):
                s.spend()
                return body.body
            return ReflectElim(body)
        if cls is Fst:
            scrut = _norm(t.pair, s)
            if isinstance(scrut, Pair):
                s.spend()
                return scrut.fst
            return Fst(scrut)
        if cls is Snd:
            scrut = _norm(t.pair, s)
            if isinstance(scrut, Pair):
                s.spend()
                return scrut.snd
            return Snd(scrut)
        if cls is CodeTy:
            return CodeTy(_norm_type(t.ty, s))
        raise CheckError("Normalize", f"unknown term form {cls.__name__}")


def _norm_motive(m: TypeExpr | None, s: _NormSession) -> TypeExpr | None:
    return None if m is None else _norm_type(m, s)


def _norm_type(ty: TypeExpr, s: _NormSession) -> TypeExpr:
    cls = ty.__class__
    if cls in (UnitTy, BoolTy, NatTy, DiamondTy, Universe):
        return ty
    if cls is Pi:
        return Pi(ty.usage, _norm_type(ty.dom, s), _norm_type(ty.cod, s))
    if cls is Tensor:
        return Tensor(ty.usage, _norm_type(ty.fst, s), _norm_type(ty.snd, s))
    if cls is ListTy:
        return ListTy(_norm_type(ty.elem, s))
    if cls is IdTy:
        return IdTy(_norm_type(ty.ty, s), _norm(ty.lhs, s), _norm(ty.rhs, s))
    if cls is El:
        code = _norm(ty.code, s)
        if isinstance(code, CodeTy):
            s.spend()
            return code.ty  # already normalised by _norm
        return El(code)
    if cls is Reflect:
        return Reflect(_norm_type(ty.inner, s))
    raise CheckError("Normalize", f"unknown type form {cls.__name__}")


def normalize_sigma0(
    regime: Regime,
    ctx: Context,
    term: Term,
    ty: TypeExpr | None = None,
    budget: int = DEFAULT_NORM_BUDGET,
) -> Term:
    """Normal form of a checked erased-fragment term.

    When the term's type is supplied and is the unit or diamond type,
    the eta laws collapse the term to the canonical inhabitant.
    """
    _ensure_stack()
    s = _NormSession(budget)
    if ty is not None:
        ty_n = _norm_type(ty, s)
        if isinstance(ty_n, UnitTy):
            return Star()
        if isinstance(ty_n, DiamondTy):
            return DiamondStar()
    return _norm(term, s)


def normalize_type(
    regime: Regime, ctx: Context, ty: TypeExpr, budget: int = DEFAULT_NORM_BUDGET
) -> TypeExpr:
    _ensure_stack()
    return _norm_type(ty, _NormSession(budget))


# ---------------------------------------------------------------------------
# Definitional equality

def _terms_equal_at(ty_n: TypeExpr | None, a: Term, b: Term) -> bool:
    if isinstance(ty_n, (UnitTy, DiamondTy)):
        return True
    return a == b


def _types_equal(a: TypeExpr, b: TypeExpr) -> bool:
    # both arguments normalised
    if a.__class__ is not b.__class__:
        return False
    cls = a.__class__
    if cls in (UnitTy, BoolTy, NatTy, DiamondTy, Universe):
        return True
    if cls is Pi or cls is Tensor:
        lhs = (a.usage, a.dom if cls is Pi else a.fst)
        rhs = (b.usage, b.dom if cls is Pi else b.fst)
        if lhs[0] != rhs[0] or not _types_equal(lhs[1], rhs[1]):
            return False
        return _types_equal(
            a.cod if cls is Pi else a.snd, b.cod if cls is Pi else b.snd
        )
    if cls is ListTy:
        return _types_equal(a.elem, b.elem)
    if cls is Reflect:
        return _types_equal(a.inner, b.inner)
    if cls is IdTy:
        if not _types_equal(a.ty, b.ty):
            return False
        return _terms_equal_at(a.ty, a.lhs, b.lhs) and _terms_equal_at(
            a.ty, a.rhs, b.rhs
        )
    if cls is El:
        return a.code == b.code
    return False


def types_equal(
    regime: Regime,
    ctx: Context,
    a: TypeExpr,
    b: TypeExpr,
    budget: int = DEFAULT_NORM_BUDGET,
) -> bool:
    _ensure_stack()
    s = _NormSession(budget)
    return _types_equal(_norm_type(a, s), _norm_type(b, s))


def conv_type(regime: Regime, ctx: Context, a: TypeExpr, b: TypeExpr) -> None:
    s = _NormSession(DEFAULT_NORM_BUDGET)
    an, bn = _norm_type(a, s), _norm_type(b, s)
    if not _types_equal(an, bn):
        raise CheckError("Conv", f"type mismatch: {an!r} /= {bn!r}")


# ---------------------------------------------------------------------------
# Type formation

def _mentions_universe(ty: TypeExpr) -> bool:
    cls = ty.__class__
    if cls is Universe:
        return True
    if cls is Pi:
        return _mentions_universe(ty.dom) or _mentions_universe(ty.cod)
    if cls is Tensor:
        return _mentions_universe(ty.fst) or _mentions_universe(ty.snd)
    if cls is ListTy:
        return _mentions_universe(ty.elem)
    if cls is Reflect:
        return _mentions_universe(ty.inner)
    if cls is IdTy:
        return _mentions_universe(ty.ty)
    return False


def check_type(regime: Regime, ctx: Context, ty: TypeExpr) -> None:
    """Type formation in an all-zero context (the caller zeroes)."""
    cls = ty.__class__
    if cls in (UnitTy, BoolTy, NatTy, Universe):
        return
    if cls is DiamondTy:
        if regime is not Regime.LFPL:
            raise CheckError(
                "Ty-Diamond", "the diamond type belongs to the payment regime"
            )
        return
    if cls is Pi or cls is Tensor:
        dom = ty.dom if cls is Pi else ty.fst
        cod = ty.cod if cls is Pi else ty.snd
        if ty.usage < 0:
            raise CheckError("Ty-Pi", "usage annotations are naturals")
        check_type(regime, ctx, dom)
        check_type(regime, ctx + (CtxEntry("_", 0, dom),), cod)
        return
    if cls is ListTy:
        check_type(regime, ctx, ty.elem)
        return
    if cls is IdTy:
        check_type(regime, ctx, ty.ty)
        check(regime, ctx, 0, ty.lhs, ty.ty)
        check(regime, ctx, 0, ty.rhs, ty.ty)
        return
    if cls is El:
        check(regime, ctx, 0, ty.code, UNIVERSE)
        return
    if cls is Reflect:
        check_type(regime, ctx, ty.inner)
        return
    raise CheckError("Ty", f"unknown type form {cls.__name__}")


# ---------------------------------------------------------------------------
# Term checking with usage inference

def _var_position(ctx: Context, index: int) -> int:
    if index < 0 or index >= len(ctx):
        raise CheckError("Tm-Var", f"unbound index {index} in context of {len(ctx)}")
    return len(ctx) - 1 - index


def _join_usage(u1: UsageVector, u2: UsageVector) -> UsageVector:
    return tuple(max(a, b) for a, b in zip(u1, u2))


def _pop_binders(u: UsageVector, caps: tuple[int, ...], rule: str) -> UsageVector:
    k = len(caps)
    inner = u[len(u) - k :]
    for got, cap in zip(inner, caps):
        if got > cap:
            raise CheckError(
                rule,
                f"usage overflow on a binder: inferred {got}, annotation admits {cap}",
            )
    return u[: len(u) - k]


def _require_erased_ambient(u: UsageVector, rule: str) -> None:
    if any(x != 0 for x in u):
        raise CheckError(
            rule,
            "premise requires a fully erased context but ambient usage was inferred",
        )


def _whnf_ty(regime, ctx, ty: TypeExpr) -> TypeExpr:
    return normalize_type(regime, ctx, ty)


def synth(regime: Regime, ctx: Context, sigma: int, t: Term):
    """Synthesise (usage vector, type, core term) for t in the given fragment."""
    zeros = zero_usage(len(ctx))
    cls = t.__class__

    if cls is Var:
        pos = _var_position(ctx, t.index)
        entry = ctx[pos]
        u = list(zeros)
        u[pos] = sigma
        return tuple(u), shift_type(entry.ty, t.index + 1), t

    if cls is Ann:
        check_type(regime, ctx_zero(ctx), t.ty)
        u, term = check(regime, ctx, sigma, t.term, t.ty)
        return u, t.ty, Ann(term, t.ty)

    if cls is App:
        u_fn, fn_ty, fn = synth(regime, ctx, sigma, t.fn)
        fn_ty = _whnf_ty(regime, ctx, fn_ty)
        if not isinstance(fn_ty, Pi):
            raise CheckError("Tm-App", f"applied a non-function of type {fn_ty!r}")
        pi = fn_ty.usage
        sigma_arg = 0 if (pi == 0 or sigma == 0) else 1
        u_arg, arg = check(regime, ctx, sigma_arg, t.arg, fn_ty.dom)
        u = usage_add(u_fn, usage_scale(pi, u_arg))
        return u, instantiate_type(fn_ty.cod, (t.arg,)), App(fn, arg, pi)

    if cls is Star:
        return zeros, UNIT_TY, t

    if cls is TrueC or cls is FalseC:
        return zeros, BOOL_TY, t

    if cls is Cons:
        u_h, elem_ty, head = synth(regime, ctx, sigma, t.head)
        u_t, tail = check(regime, ctx, sigma, t.tail, ListTy(elem_ty))
        return usage_add(u_h, u_t), ListTy(elem_ty), Cons(head, tail)

    if cls is DupNat:
        if regime is not Regime.CONS_FREE:
            raise CheckError(
                "Tm-CF-DupNat", "duplication of naturals belongs to the cons-free regime"
            )
        u, arg = check(regime, ctx, sigma, t.arg, NAT_TY)
        return u, Tensor(1, NAT_TY, NAT_TY), DupNat(arg)

    if cls is ZeroCF:
        if regime is not Regime.CONS_FREE:
            raise CheckError("Tm-CF-Zero", "bare zero belongs to the cons-free regime")
        if sigma != 0:
            raise CheckError(
                "Tm-CF-Zero", "cons-free constructors live in the erased fragment only"
            )
        return zeros, NAT_TY, t

    if cls is SuccCF:
        if regime is not Regime.CONS_FREE:
            raise CheckError("Tm-CF-Succ", "bare successor belongs to the cons-free regime")
        if sigma != 0:
            raise CheckError(
                "Tm-CF-Succ", "cons-free constructors live in the erased fragment only"
            )
        u, pred = check(regime, ctx, 0, t.pred, NAT_TY)
        return u, NAT_TY, SuccCF(pred)

    if cls is DiamondStar:
        if regime is not Regime.LFPL:
            raise CheckError("Tm-LFPL-Star", "diamonds belong to the payment regime")
        if sigma != 0:
            raise CheckError(
                "Tm-LFPL-Star", "the dummy diamond lives in the erased fragment only"
            )
        return zeros, DIAMOND_TY, t

    if cls is ZeroL:
        if regime is not Regime.LFPL:
            raise CheckError("Tm-LFPL-Zero", "paid zero belongs to the payment regime")
        u, pay = check(regime, ctx, sigma, t.pay, DIAMOND_TY)
        return u, NAT_TY, ZeroL(pay)

    if cls is SuccL:
        if regime is not Regime.LFPL:
            raise CheckError("Tm-LFPL-Succ", "paid successor belongs to the payment regime")
        u_d, pay = check(regime, ctx, sigma, t.pay, DIAMOND_TY)
        u_n, pred = check(regime, ctx, sigma, t.pred, NAT_TY)
        return usage_add(u_d, u_n), NAT_TY, SuccL(pay, pred)

    if cls is Fst or cls is Snd:
        if sigma != 0:
            raise CheckError(
                "Tm-Fst" if cls is Fst else "Tm-Snd",
                "projections live in the erased fragment only",
            )
        u, pair_ty, pair = synth(regime, ctx, 0, t.pair)
        pair_ty = _whnf_ty(regime, ctx, pair_ty)
        if not isinstance(pair_ty, Tensor):
            raise CheckError(
                "Tm-Fst" if cls is Fst else "Tm-Snd",
                f"projection from a non-pair of type {pair_ty!r}",
            )
        if cls is Fst:
            return u, pair_ty.fst, Fst(pair)
        return u, instantiate_type(pair_ty.snd, (Fst(t.pair),)), Snd(pair)

    if cls is Refl:
        u, ty, body = synth(regime, ctx, sigma, t.body)
        return u, IdTy(ty, t.body, t.body), Refl(body)

    if cls is ReflectIntro:
        u, ty, body = synth(regime, ctx, 1, t.body)
        _require_erased_ambient(u, "Tm-R")
        return zeros, Reflect(ty), ReflectIntro(body)

    if cls is ReflectElim:
        u, ty, body = synth(regime, ctx, sigma, t.body)
        ty = _whnf_ty(regime, ctx, ty)
        if not isinstance(ty, Reflect):
            raise CheckError("Tm-R-Inv", f"unreflecting a non-reflected type {ty!r}")
        return u, ty.inner, ReflectElim(body)

    if cls is CodeTy:
        if _mentions_universe(t.ty):
            raise CheckError("Tm-U-Code", "the universe has no code for itself")
        check_type(regime, ctx_zero(ctx), t.ty)
        return zeros, UNIVERSE, t

    elim = _ELIMINATORS.get(cls)
    if elim is not None:
        rule, check_elim = elim
        if t.motive is None:
            raise CheckError(rule, "motive required to synthesise")
        return check_elim(regime, ctx, sigma, t, None)

    if cls is Lam:
        raise CheckError("Tm-Lam", "cannot synthesise a bare function; annotate it")
    if cls is Pair:
        raise CheckError("Tm-Pair", "cannot synthesise a bare pair; annotate it")
    if cls is Nil:
        raise CheckError("Tm-List-Nil", "cannot synthesise nil; annotate it")

    raise CheckError("Tm", f"unknown term form {cls.__name__}")


def check(
    regime: Regime, ctx: Context, sigma: int, t: Term, ty: TypeExpr
) -> tuple[UsageVector, Term]:
    """Check t against ty, returning (minimal usage vector, core term)."""
    cls = t.__class__
    ty_n = _whnf_ty(regime, ctx, ty)

    if cls is Lam:
        if not isinstance(ty_n, Pi):
            raise CheckError("Tm-Lam", f"function against non-function type {ty_n!r}")
        cap = sigma * ty_n.usage
        inner = ctx + (CtxEntry("_", cap, ty_n.dom),)
        u, body = check(regime, inner, sigma, t.body, ty_n.cod)
        return _pop_binders(u, (cap,), "Tm-Lam"), Lam(body)

    if cls is Pair:
        if not isinstance(ty_n, Tensor):
            raise CheckError("Tm-Pair", f"pair against non-pair type {ty_n!r}")
        pi = ty_n.usage
        sigma_fst = 0 if (pi == 0 or sigma == 0) else 1
        u_fst, fst = check(regime, ctx, sigma_fst, t.fst, ty_n.fst)
        u_snd, snd = check(
            regime, ctx, sigma, t.snd, instantiate_type(ty_n.snd, (t.fst,))
        )
        u = usage_add(usage_scale(pi, u_fst), u_snd)
        return u, Pair(fst, snd, pi)

    if cls is Nil:
        if not isinstance(ty_n, ListTy):
            raise CheckError("Tm-List-Nil", f"nil against non-list type {ty_n!r}")
        return zero_usage(len(ctx)), t

    if cls is Star and isinstance(ty_n, DiamondTy):
        # the surface star doubles as the dummy diamond
        if regime is not Regime.LFPL:
            raise CheckError("Tm-LFPL-Star", "diamonds belong to the payment regime")
        if sigma != 0:
            raise CheckError(
                "Tm-LFPL-Star", "the dummy diamond lives in the erased fragment only"
            )
        return zero_usage(len(ctx)), t

    if cls is Refl and isinstance(ty_n, IdTy):
        u, body = check(regime, ctx, sigma, t.body, ty_n.ty)
        s = _NormSession(DEFAULT_NORM_BUDGET)
        body_n = _norm(t.body, s)
        if not (
            _terms_equal_at(ty_n.ty, body_n, _norm(ty_n.lhs, s))
            and _terms_equal_at(ty_n.ty, body_n, _norm(ty_n.rhs, s))
        ):
            raise CheckError("Id-Refl", "refl does not prove this equation")
        return u, Refl(body)

    if cls is ReflectIntro and isinstance(ty_n, Reflect):
        u, body = check(regime, ctx, 1, t.body, ty_n.inner)
        _require_erased_ambient(u, "Tm-R")
        return zero_usage(len(ctx)), ReflectIntro(body)

    elim = _ELIMINATORS.get(cls)
    if elim is not None and t.motive is None:
        u, _, core = elim[1](regime, ctx, sigma, t, ty_n)
        return u, core

    u, got, core = synth(regime, ctx, sigma, t)
    if not types_equal(regime, ctx, got, ty):
        s = _NormSession(DEFAULT_NORM_BUDGET)
        raise CheckError(
            "Conv",
            f"expected {_norm_type(ty, s)!r} but synthesised {_norm_type(got, s)!r}",
        )
    return u, core


# --- dependent eliminators -------------------------------------------------
#
# Each _check_* takes either an explicit motive on the term or a target
# type (for the non-dependent reading) and returns (usage, result type,
# core term).

def branch_target(motive, target, binders: int, inst_with):
    """Target type for a branch under `binders` pushed entries.

    With a motive (one binder over the ambient context), free variables
    shift under the pushed binders and the motive variable is replaced
    by inst_with; without one, the non-dependent target shifts.
    """
    if motive is None:
        return shift_type(target, binders)
    shifted = shift_type(motive, binders, cutoff=1)
    return instantiate_type(shifted, (inst_with,))


def _check_motive(regime, ctx, motive, scrut_ty: TypeExpr) -> None:
    if motive is not None:
        check_type(regime, ctx_zero(ctx) + (CtxEntry("_", 0, scrut_ty),), motive)


def _result_type(t: Term, target):
    return target if t.motive is None else instantiate_type(t.motive, (t.scrut,))


def _check_if(regime, ctx, sigma, t: If, target):
    motive = t.motive
    _check_motive(regime, ctx, motive, BOOL_TY)
    u_s, scrut = check(regime, ctx, sigma, t.scrut, BOOL_TY)
    tgt_true = branch_target(motive, target, 0, TrueC())
    tgt_false = branch_target(motive, target, 0, FalseC())
    u_t, then_branch = check(regime, ctx, sigma, t.then_branch, tgt_true)
    u_f, else_branch = check(regime, ctx, sigma, t.else_branch, tgt_false)
    u = usage_add(u_s, _join_usage(u_t, u_f))
    core = If(scrut, then_branch, else_branch, motive)
    return u, _result_type(t, target), core


def _check_let_pair(regime, ctx, sigma, t: LetPair, target):
    motive = t.motive
    u_s, scrut_ty, scrut = synth(regime, ctx, sigma, t.scrut)
    scrut_ty = _whnf_ty(regime, ctx, scrut_ty)
    if not isinstance(scrut_ty, Tensor):
        raise CheckError("Tm-Let-Pair", f"splitting a non-pair of type {scrut_ty!r}")
    _check_motive(regime, ctx, motive, scrut_ty)
    pi = scrut_ty.usage
    inner = ctx + (
        CtxEntry("_", sigma * pi, scrut_ty.fst),
        CtxEntry("_", sigma, scrut_ty.snd),
    )
    tgt = branch_target(motive, target, 2, Pair(Var(1), Var(0)))
    u_b, body = check(regime, inner, sigma, t.body, tgt)
    u_b = _pop_binders(u_b, (sigma * pi, sigma), "Tm-Let-Pair")
    u = usage_add(u_s, u_b)
    return u, _result_type(t, target), LetPair(scrut, body, motive)


def _check_let_unit(regime, ctx, sigma, t: LetUnit, target):
    motive = t.motive
    _check_motive(regime, ctx, motive, UNIT_TY)
    u_s, scrut = check(regime, ctx, sigma, t.scrut, UNIT_TY)
    tgt = branch_target(motive, target, 0, Star())
    u_b, body = check(regime, ctx, sigma, t.body, tgt)
    u = usage_add(u_s, u_b)
    return u, _result_type(t, target), LetUnit(scrut, body, motive)


def _check_match_list(regime, ctx, sigma, t: MatchList, target):
    motive = t.motive
    u_s, scrut_ty, scrut = synth(regime, ctx, sigma, t.scrut)
    scrut_ty = _whnf_ty(regime, ctx, scrut_ty)
    if not isinstance(scrut_ty, ListTy):
        raise CheckError("Tm-List-Match", f"matching a non-list of type {scrut_ty!r}")
    _check_motive(regime, ctx, motive, scrut_ty)
    elem = scrut_ty.elem
    u_nil, nil_branch = check(
        regime, ctx, sigma, t.nil_branch, branch_target(motive, target, 0, Nil())
    )
    inner = ctx + (
        CtxEntry("_", sigma, elem),
        CtxEntry("_", sigma, ListTy(shift_type(elem, 1))),
    )
    tgt = branch_target(motive, target, 2, Cons(Var(1), Var(0)))
    u_cons, cons_branch = check(regime, inner, sigma, t.cons_branch, tgt)
    u_cons = _pop_binders(u_cons, (sigma, sigma), "Tm-List-Match")
    u = usage_add(u_s, _join_usage(u_nil, u_cons))
    core = MatchList(scrut, nil_branch, cons_branch, motive)
    return u, _result_type(t, target), core


def _check_rec_list(regime, ctx, sigma, t: RecList, target):
    if sigma != 0:
        raise CheckError(
            "Tm-List-Rec", "list recursion lives in the erased fragment only"
        )
    motive = t.motive
    _, scrut_ty, scrut = synth(regime, ctx, 0, t.scrut)
    scrut_ty = _whnf_ty(regime, ctx, scrut_ty)
    if not isinstance(scrut_ty, ListTy):
        raise CheckError("Tm-List-Rec", f"recursing on a non-list of type {scrut_ty!r}")
    _check_motive(regime, ctx, motive, scrut_ty)
    elem = scrut_ty.elem
    tgt_nil = branch_target(motive, target, 0, Nil())
    _, nil_branch = check(regime, ctx, 0, t.nil_branch, tgt_nil)
    p_ty = branch_target(motive, target, 2, Var(0))
    inner = ctx + (
        CtxEntry("_", 0, elem),
        CtxEntry("_", 0, ListTy(shift_type(elem, 1))),
        CtxEntry("_", 0, p_ty),
    )
    tgt = branch_target(motive, target, 3, Cons(Var(2), Var(1)))
    _, cons_branch = check(regime, inner, 0, t.cons_branch, tgt)
    core = RecList(scrut, nil_branch, cons_branch, motive)
    return zero_usage(len(ctx)), _result_type(t, target), core


def _check_rec_cf(regime, ctx, sigma, t: RecNatCF, target):
    if regime is not Regime.CONS_FREE:
        raise CheckError(
            "Tm-CF-Rec", "this recursor shape belongs to the cons-free regime"
        )
    motive = t.motive
    _check_motive(regime, ctx, motive, NAT_TY)
    u_s, scrut = check(regime, ctx, sigma, t.scrut, NAT_TY)
    tgt_z = branch_target(motive, target, 0, ZeroCF())
    u_z, zero_branch = check(regime, ctx, sigma, t.zero_branch, tgt_z)
    _require_erased_ambient(u_z, "Tm-CF-Rec")
    p_ty = branch_target(motive, target, 1, Var(0))
    inner = ctx + (CtxEntry("_", 0, NAT_TY), CtxEntry("_", sigma, p_ty))
    tgt = branch_target(motive, target, 2, SuccCF(Var(1)))
    u_sb, succ_branch = check(regime, inner, sigma, t.succ_branch, tgt)
    u_sb = _pop_binders(u_sb, (0, sigma), "Tm-CF-Rec")
    _require_erased_ambient(u_sb, "Tm-CF-Rec")
    core = RecNatCF(scrut, zero_branch, succ_branch, motive)
    return u_s, _result_type(t, target), core


def _check_rec_lfpl(regime, ctx, sigma, t: RecNatL, target):
    if regime is not Regime.LFPL:
        raise CheckError(
            "Tm-LFPL-Rec", "this recursor shape belongs to the payment regime"
        )
    motive = t.motive
    _check_motive(regime, ctx, motive, NAT_TY)
    u_s, scrut = check(regime, ctx, sigma, t.scrut, NAT_TY)
    inner_z = ctx + (CtxEntry("_", sigma, DIAMOND_TY),)
    tgt_z = branch_target(motive, target, 1, ZeroL(DiamondStar()))
    u_z, zero_branch = check(regime, inner_z, sigma, t.zero_branch, tgt_z)
    u_z = _pop_binders(u_z, (sigma,), "Tm-LFPL-Rec")
    _require_erased_ambient(u_z, "Tm-LFPL-Rec")
    p_ty = branch_target(motive, target, 2, Var(0))
    inner_s = ctx + (
        CtxEntry("_", sigma, DIAMOND_TY),
        CtxEntry("_", 0, NAT_TY),
        CtxEntry("_", sigma, p_ty),
    )
    tgt_s = branch_target(motive, target, 3, SuccL(DiamondStar(), Var(1)))
    u_sb, succ_branch = check(regime, inner_s, sigma, t.succ_branch, tgt_s)
    u_sb = _pop_binders(u_sb, (sigma, 0, sigma), "Tm-LFPL-Rec")
    _require_erased_ambient(u_sb, "Tm-LFPL-Rec")
    core = RecNatL(scrut, zero_branch, succ_branch, motive)
    return u_s, _result_type(t, target), core


# The eliminators with an optional motive: the rule label that reports a
# missing motive in synthesis mode, and the checker shared by both modes.
_ELIMINATORS = {
    If: ("Tm-If", _check_if),
    LetPair: ("Tm-Let-Pair", _check_let_pair),
    LetUnit: ("Tm-Let-Unit", _check_let_unit),
    MatchList: ("Tm-List-Match", _check_match_list),
    RecList: ("Tm-List-Rec", _check_rec_list),
    RecNatCF: ("Tm-CF-Rec", _check_rec_cf),
    RecNatL: ("Tm-LFPL-Rec", _check_rec_lfpl),
}


# ---------------------------------------------------------------------------
# Public entry points

def elaborate(
    regime: Regime, ctx: Context, sigma: int, term: Term, ty: TypeExpr
) -> tuple[UsageVector, Term]:
    """Check term against ty; return the minimal usage vector and the
    core term.

    The core term is term with the usage of each application's function
    type and each pair's tensor type stored on the node.  The declared
    annotations in ctx must dominate the inferred vector pointwise; in
    the erased fragment the vector is all zeros.
    """
    if sigma not in (0, 1):
        raise CheckError("Tm", "fragment marker must be 0 or 1")
    _ensure_stack()
    check_type(regime, ctx_zero(ctx), ty)
    u, core = check(regime, ctx, sigma, term, ty)
    for entry, got in zip(ctx, u):
        if got > entry.usage:
            raise CheckError(
                "Sub",
                f"usage overflow for {entry.name}: inferred {got}, "
                f"declared {entry.usage}",
            )
    return u, core


def infer_usage_check(
    regime: Regime, ctx: Context, sigma: int, term: Term, ty: TypeExpr
) -> UsageVector:
    """Check term against ty and return the minimal usage vector."""
    return elaborate(regime, ctx, sigma, term, ty)[0]

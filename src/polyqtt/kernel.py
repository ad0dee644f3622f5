"""Bidirectional type and usage checking for both regimes, with
definitional equality decided by normalisation over the erased-fragment
equations.

Normal forms come from normalisation by evaluation (Berger and
Schwichtenberg, LICS 1991; Coquand, 1996): a term or type is evaluated
in an environment, so a beta-step extends the environment instead of
substituting into the body, and the value is read back on fresh de
Bruijn levels, where the eta laws for functions and pairs apply.
Checking puts a target type into weak-head form only; conversion
compares full normal forms unless the two types are syntactically equal.

Usage handling is algorithmic: checking a term synthesises the minimal
usage vector for the free variables, and declared annotations admit any
inferred vector they dominate pointwise.  Binder annotations are
enforced when a binder is popped; premises that demand a fully erased
context (recursor branches, reflection introduction) require an all-zero
inferred vector.

A reference to a top-level definition is the definition's one shared
`Global` node.  Its body is checked once per regime and fragment, and a
reference synthesises the declared type with a zero usage vector, since
the body is closed; evaluation unfolds it to that body.

Checking also returns the core term: the input term with the usage of
each application's function type and each pair's tensor type stored in
the `usage` field of the App or Pair node.  That is the one typing fact
the compiler needs, so the compiler reads it from the core term and
carries no types of its own.
"""

from __future__ import annotations

from dataclasses import fields

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
    Global,
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
    _SCHEMA,
    ctx_zero,
    has_free_var,
    instantiate,
    shift,
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
# Normalisation by evaluation (erased-fragment equations)
#
# A value is a syntax node.  Its eager fields hold values; its binder
# fields, and the branches and motive of an eliminator, hold closures
# (env, body) that are evaluated when the eliminator fires or when the
# value is read back.  An environment is a tuple of values, innermost
# binder last; arguments are evaluated before a beta-step.  Variables in
# values are de Bruijn levels: the k-th binder that read-back enters has
# level k, and a free index j of the term being normalised has level
# -1 - j, so indices past the environment read back unchanged.

class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise CheckError("Normalize", "normalisation step budget exhausted")


def _eta_contract(t: Term) -> Term:
    # \x. f x  ~~>  f   when x is not free in f
    if isinstance(t, Lam) and isinstance(t.body, App):
        arg = t.body.arg
        if isinstance(arg, Var) and arg.index == 0 and not has_free_var(t.body.fn, 0):
            return strengthen(t.body.fn)
    # (fst m, snd m)  ~~>  m
    if isinstance(t, Pair) and isinstance(t.fst, Fst) and isinstance(t.snd, Snd):
        if _same(t.fst.pair, t.snd.pair):
            return t.fst.pair
    return t


_PLAIN, _EAGER, _SCRUT, _CLOSURE = range(4)


def _value_fields(spec) -> tuple:
    # an eliminator (a node with a motive) evaluates only its scrutinee
    elim = any(kind == "motive" for _, kind, _ in spec)
    out = []
    for name, kind, binders in spec:
        if kind == "plain":
            mode = _PLAIN
        elif elim and name == "scrut":
            mode = _SCRUT
        elif elim or binders:
            mode = _CLOSURE
        else:
            mode = _EAGER
        out.append((name, mode, binders))
    return tuple(out)


_FIELDS = {cls: _value_fields(spec) for cls, spec in _SCHEMA.items()}

# case analysis: {scrutinee form: (branch, scrutinee fields it binds)}
_CASES = {
    If: {TrueC: ("then_branch", ()), FalseC: ("else_branch", ())},
    LetUnit: {Star: ("body", ())},
    LetPair: {Pair: ("body", ("fst", "snd"))},
    MatchList: {Nil: ("nil_branch", ()), Cons: ("cons_branch", ("head", "tail"))},
}

# recursion: (base form, branch, fields it binds), (step form, branch,
# fields it binds before the previous result; the last is recursed on)
_RECURSORS = {
    RecList: ((Nil, "nil_branch", ()), (Cons, "cons_branch", ("head", "tail"))),
    RecNatCF: ((ZeroCF, "zero_branch", ()), (SuccCF, "succ_branch", ("pred",))),
    RecNatL: (
        (ZeroL, "zero_branch", ("pay",)),
        (SuccL, "succ_branch", ("pay", "pred")),
    ),
}

# one-field eliminators: (field, the form it cancels, the field returned)
_PROJECTIONS = {
    Fst: ("pair", Pair, "fst"),
    Snd: ("pair", Pair, "snd"),
    ReflectElim: ("body", ReflectIntro, "body"),
    ReflectIntro: ("body", ReflectElim, "body"),
    El: ("code", CodeTy, "ty"),
}

# every diamond is definitionally the dummy diamond
_DIAMOND = DiamondStar()
_ZERO_L = ZeroL(_DIAMOND)

# eta for the unit and diamond types: their one canonical inhabitant
_CANONICAL = {UnitTy: Star(), DiamondTy: _DIAMOND}


def _eval(t, env: tuple, b: _Budget):
    """The value of a term or type whose innermost len(env) indices are
    bound to the values in env."""
    # a redex whose result is the value of another term continues the
    # loop, so chains of beta- and iota-steps do not grow the host stack
    while True:
        cls = t.__class__
        if cls is Var:
            i, n = t.index, len(env)
            return env[n - 1 - i] if i < n else Var(n - 1 - i)
        if cls is Ann:
            t = t.term
            continue
        if cls is Global:
            # a definition unfolds to its closed body
            t, env = t.body, ()
            continue
        if cls is App:
            fn = _eval(t.fn, env, b)
            arg = _eval(t.arg, env, b)
            if fn.__class__ is not Lam:
                return App(fn, arg)
            b.spend()
            env, t = fn.body
            env += (arg,)
            continue
        cases = _CASES.get(cls)
        if cases is not None:
            scrut = _eval(t.scrut, env, b)
            hit = cases.get(scrut.__class__)
            if hit is None:
                return _node(t, env, b, scrut)
            b.spend()
            branch, binds = hit
            env += tuple(getattr(scrut, f) for f in binds)
            t = getattr(t, branch)
            continue
        if cls in _RECURSORS:
            return _fold(t, env, b, _eval(t.scrut, env, b))
        proj = _PROJECTIONS.get(cls)
        if proj is not None:
            field, form, out = proj
            v = _eval(getattr(t, field), env, b)
            if v.__class__ is not form:
                return cls(v)
            b.spend()
            return getattr(v, out)
        if cls is DupNat:
            b.spend()
            v = _eval(t.arg, env, b)
            return Pair(v, v)
        if cls is ZeroL:
            return _ZERO_L
        if cls is SuccCF or cls is SuccL:
            # a literal's successor chain is walked in a loop
            chain = []
            while t.__class__ is SuccCF or t.__class__ is SuccL:
                chain.append(t.__class__)
                t = t.pred
            v = _eval(t, env, b)
            for succ in reversed(chain):
                v = SuccCF(v) if succ is SuccCF else SuccL(_DIAMOND, v)
            return v
        return _node(t, env, b)


def _node(t, env: tuple, b: _Budget, scrut=None):
    """The value of a node that does not reduce at the head."""
    fields = _FIELDS[t.__class__]
    if not fields:
        return t
    vals = []
    for name, mode, _ in fields:
        val = getattr(t, name)
        if mode == _EAGER:
            val = _eval(val, env, b)
        elif mode == _SCRUT:
            val = scrut
        elif mode == _CLOSURE and val is not None:
            val = (env, val)
        vals.append(val)
    return t.__class__(*vals)


def _fold(t, env: tuple, b: _Budget, scrut):
    """A recursor on a scrutinee value.  The step branch fires once per
    step form, innermost first, in a loop."""
    (base_form, base, base_binds), (step_form, step, step_binds) = _RECURSORS[
        t.__class__
    ]
    steps = []
    while scrut.__class__ is step_form:
        bound = tuple(getattr(scrut, f) for f in step_binds)
        steps.append(bound)
        scrut = bound[-1]
    if scrut.__class__ is base_form:
        b.spend()
        bound = tuple(getattr(scrut, f) for f in base_binds)
        acc = _eval(getattr(t, base), env + bound, b)
    else:
        acc = _node(t, env, b, scrut)
    body = getattr(t, step)
    for bound in reversed(steps):
        b.spend()
        acc = _eval(body, env + bound + (acc,), b)
    return acc


def _quote(v, depth: int, b: _Budget):
    """Read a value back as a normal term or type under depth binders."""
    cls = v.__class__
    if cls is Var:
        return Var(depth - 1 - v.index)
    if cls is SuccCF or cls is SuccL:
        # a successor chain is read back in a loop, as _eval builds it
        chain = []
        while v.__class__ is SuccCF or v.__class__ is SuccL:
            chain.append(v)
            v = v.pred
        out = _quote(v, depth, b)
        for succ in reversed(chain):
            if succ.__class__ is SuccCF:
                out = SuccCF(out)
            else:
                out = SuccL(_quote(succ.pay, depth, b), out)
        return out
    if cls is IdTy and v.ty.__class__ in _CANONICAL:
        side = _CANONICAL[v.ty.__class__]
        return IdTy(_quote(v.ty, depth, b), side, side)
    fields = _FIELDS[cls]
    if not fields:
        return v
    vals = []
    for name, mode, binders in fields:
        val = getattr(v, name)
        if mode == _CLOSURE:
            if val is not None:
                env, body = val
                fresh = tuple(Var(depth + k) for k in range(binders))
                val = _quote(_eval(body, env + fresh, b), depth + binders, b)
        elif mode != _PLAIN:
            val = _quote(val, depth, b)
        vals.append(val)
    return _eta_contract(cls(*vals))


def _nf(t, b: _Budget):
    return _quote(_eval(t, (), b), 0, b)


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
    b = _Budget(budget)
    if ty is not None:
        canonical = _CANONICAL.get(_eval(ty, (), b).__class__)
        if canonical is not None:
            return canonical
    return _nf(term, b)


def normalize_type(ty: TypeExpr, budget: int = DEFAULT_NORM_BUDGET) -> TypeExpr:
    _ensure_stack()
    return _nf(ty, _Budget(budget))


# ---------------------------------------------------------------------------
# Definitional equality

# the fields that take part in a node's equality (App.usage and
# Pair.usage do not)
_COMPARED = {
    cls: tuple(f.name for f in fields(cls) if f.compare) for cls in _SCHEMA
}


def _same(a, b) -> bool:
    """Structural equality of terms and types, as the dataclass == but
    in a loop, so long constructor chains do not grow the host stack."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        names = _COMPARED.get(x.__class__)
        if x.__class__ is not y.__class__ or (names is None and x != y):
            return False
        if names is not None:
            todo.extend((getattr(x, n), getattr(y, n)) for n in names)
    return True


def types_equal(a: TypeExpr, b: TypeExpr, budget: int = DEFAULT_NORM_BUDGET) -> bool:
    _ensure_stack()
    if _same(a, b):
        return True
    s = _Budget(budget)
    return _same(_nf(a, s), _nf(b, s))


def conv_type(a: TypeExpr, b: TypeExpr) -> None:
    if not types_equal(a, b):
        an, bn = normalize_type(a), normalize_type(b)
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


def _whnf_ty(ty: TypeExpr) -> TypeExpr:
    """Weak-head form of a type: only El of a code reduces at the head."""
    if ty.__class__ is not El:
        return ty
    b = _Budget(DEFAULT_NORM_BUDGET)
    v = _eval(ty, (), b)
    return ty if v.__class__ is El else _quote(v, 0, b)


def synth(regime: Regime, ctx: Context, sigma: int, t: Term):
    """Synthesise (usage vector, type, core term) for t in the given fragment."""
    zeros = zero_usage(len(ctx))
    cls = t.__class__

    if cls is Var:
        pos = _var_position(ctx, t.index)
        entry = ctx[pos]
        u = list(zeros)
        u[pos] = sigma
        return tuple(u), shift(entry.ty, t.index + 1), t

    if cls is Ann:
        check_type(regime, ctx_zero(ctx), t.ty)
        u, term = check(regime, ctx, sigma, t.term, t.ty)
        return u, t.ty, Ann(term, t.ty)

    if cls is Global:
        # the body is checked once per regime and fragment and its core
        # term kept on the definition; being closed, it uses nothing of ctx
        key = (regime, sigma)
        if key not in t.core:
            check_type(regime, (), t.ty)
            t.core[key] = check(regime, (), sigma, t.body, t.ty)[1]
        return zeros, t.ty, t

    if cls is App:
        u_fn, fn_ty, fn = synth(regime, ctx, sigma, t.fn)
        fn_ty = _whnf_ty(fn_ty)
        if not isinstance(fn_ty, Pi):
            raise CheckError("Tm-App", f"applied a non-function of type {fn_ty!r}")
        pi = fn_ty.usage
        sigma_arg = 0 if (pi == 0 or sigma == 0) else 1
        u_arg, arg = check(regime, ctx, sigma_arg, t.arg, fn_ty.dom)
        u = usage_add(u_fn, usage_scale(pi, u_arg))
        return u, instantiate(fn_ty.cod, (t.arg,)), App(fn, arg, pi)

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
        # a literal's successor chain is walked in a loop, not on the host
        # stack; the inner successors pass the same two tests
        length = 0
        while t.__class__ is SuccCF:
            t, length = t.pred, length + 1
        u, core = check(regime, ctx, 0, t, NAT_TY)
        for _ in range(length):
            core = SuccCF(core)
        return u, NAT_TY, core

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
        # walked in a loop like SuccCF, checking the payments outermost first
        u, pays = zeros, []
        while t.__class__ is SuccL:
            u_d, pay = check(regime, ctx, sigma, t.pay, DIAMOND_TY)
            u, t = usage_add(u, u_d), t.pred
            pays.append(pay)
        u_n, core = check(regime, ctx, sigma, t, NAT_TY)
        for pay in reversed(pays):
            core = SuccL(pay, core)
        return usage_add(u, u_n), NAT_TY, core

    if cls is Fst or cls is Snd:
        if sigma != 0:
            raise CheckError(
                "Tm-Fst" if cls is Fst else "Tm-Snd",
                "projections live in the erased fragment only",
            )
        u, pair_ty, pair = synth(regime, ctx, 0, t.pair)
        pair_ty = _whnf_ty(pair_ty)
        if not isinstance(pair_ty, Tensor):
            raise CheckError(
                "Tm-Fst" if cls is Fst else "Tm-Snd",
                f"projection from a non-pair of type {pair_ty!r}",
            )
        if cls is Fst:
            return u, pair_ty.fst, Fst(pair)
        return u, instantiate(pair_ty.snd, (Fst(t.pair),)), Snd(pair)

    if cls is Refl:
        u, ty, body = synth(regime, ctx, sigma, t.body)
        return u, IdTy(ty, t.body, t.body), Refl(body)

    if cls is ReflectIntro:
        u, ty, body = synth(regime, ctx, 1, t.body)
        _require_erased_ambient(u, "Tm-R")
        return zeros, Reflect(ty), ReflectIntro(body)

    if cls is ReflectElim:
        u, ty, body = synth(regime, ctx, sigma, t.body)
        ty = _whnf_ty(ty)
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
    ty_n = _whnf_ty(ty)

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
            regime, ctx, sigma, t.snd, instantiate(ty_n.snd, (t.fst,))
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
        if _whnf_ty(ty_n.ty).__class__ not in _CANONICAL:
            s = _Budget(DEFAULT_NORM_BUDGET)
            body_n = _nf(t.body, s)
            same = _same(body_n, _nf(ty_n.lhs, s))
            if not (same and _same(body_n, _nf(ty_n.rhs, s))):
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
    if not types_equal(got, ty):
        want, have = normalize_type(ty), normalize_type(got)
        raise CheckError("Conv", f"expected {want!r} but synthesised {have!r}")
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
        return shift(target, binders)
    shifted = shift(motive, binders, cutoff=1)
    return instantiate(shifted, (inst_with,))


def _check_motive(regime, ctx, motive, scrut_ty: TypeExpr) -> None:
    if motive is not None:
        check_type(regime, ctx_zero(ctx) + (CtxEntry("_", 0, scrut_ty),), motive)


def _result_type(t: Term, target):
    return target if t.motive is None else instantiate(t.motive, (t.scrut,))


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
    scrut_ty = _whnf_ty(scrut_ty)
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
    scrut_ty = _whnf_ty(scrut_ty)
    if not isinstance(scrut_ty, ListTy):
        raise CheckError("Tm-List-Match", f"matching a non-list of type {scrut_ty!r}")
    _check_motive(regime, ctx, motive, scrut_ty)
    elem = scrut_ty.elem
    u_nil, nil_branch = check(
        regime, ctx, sigma, t.nil_branch, branch_target(motive, target, 0, Nil())
    )
    inner = ctx + (
        CtxEntry("_", sigma, elem),
        CtxEntry("_", sigma, ListTy(shift(elem, 1))),
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
    scrut_ty = _whnf_ty(scrut_ty)
    if not isinstance(scrut_ty, ListTy):
        raise CheckError("Tm-List-Rec", f"recursing on a non-list of type {scrut_ty!r}")
    _check_motive(regime, ctx, motive, scrut_ty)
    elem = scrut_ty.elem
    tgt_nil = branch_target(motive, target, 0, Nil())
    _, nil_branch = check(regime, ctx, 0, t.nil_branch, tgt_nil)
    p_ty = branch_target(motive, target, 2, Var(0))
    inner = ctx + (
        CtxEntry("_", 0, elem),
        CtxEntry("_", 0, ListTy(shift(elem, 1))),
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

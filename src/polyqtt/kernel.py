"""Bidirectional type and usage checking for both regimes, on semantic
types (Coquand, "An algorithm for type-checking dependent types", 1996).

One evaluator serves the checker and the normaliser.  A value is a
syntax node whose eager fields hold values; a binder field, and the
branches and motive of an eliminator, hold a closure (env, body),
applied by evaluating body in env extended with the argument's value.
Variables in values are de Bruijn levels, so a value stays valid under
further binders.  The evaluator is one loop that dispatches a node once
on its class, to a rule built at import from `syntax._SCHEMA` and the
tables of eliminators and projections; its budget counts redexes, one
step per beta-, case, projection, duplication or recursion step.
The context holds each entry's type as a value, `check` takes its target
as a value and `synth` returns one, and an argument is evaluated only
when a type reads it.  Conversion compares values, with the eta laws for
functions and pairs applied on the fly.  Values are read back to normal
forms only for diagnostics, which print them through
`frontend.pretty_type`, and for the public normalize_*, types_equal and
conv_type.  Substitution is evaluation: `normalize_type(ty, args)` binds
ty's innermost indices to closed terms, and read-back's eta rule reads a
function back outside the binder it does not use, so nothing in the
package rewrites syntax under binders.

Checking synthesises the minimal usage vector of the free variables,
which a declared annotation admits when it dominates it pointwise.
Binder annotations are enforced when a binder is popped; recursor
branches and reflection introduction require an all-zero vector.  One
rule checks every eliminator, with the branch shapes the evaluator
reads: the constructor each branch stands for and the fields it binds.

A definition is one shared `Global` node, checked once per regime and
fragment; a reference synthesises its declared type, evaluated once and
kept on the node, with zero usage, and evaluates to its body, or, for a
lambda, to one closure shared by every reference, so conversion finds it
equal by identity.  Checking returns
the core term: the input with the usage of each function and tensor type
stored on its App or Pair node, the one typing fact the compiler needs.

The checker recurses on the host stack, so a public entry point reports
input nested deeper than that stack as a `[Check]` diagnostic, as the
parser and the resolver do.
"""

from __future__ import annotations

import functools
from dataclasses import fields
from operator import attrgetter

from .frontend import pretty_type
from .syntax import (
    Ann,
    App,
    BOOL_TY,
    BoolTy,
    CodeTy,
    Cons,
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
    has_free_var,
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


def _entry(fn):
    # a public entry point: nesting past the host stack is a diagnostic
    @functools.wraps(fn)
    def entry(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise CheckError("Check", "term nested too deeply to check") from None

    return entry


# ---------------------------------------------------------------------------
# Evaluation and read-back (erased-fragment equations)
#
# An environment is a tuple of values, innermost binder last.  The k-th
# entry of a checking context has level k, and read-back enters binders
# on the next free levels.  A free index j of a term evaluated outside a
# context has level -1 - j, so indices past the environment read back
# unchanged.

class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int = DEFAULT_NORM_BUDGET):
        self.left = steps


_EXHAUSTED = ("Normalize", "normalisation step budget exhausted")


class _Lazy:
    # an argument a dependent type is applied to, or the type of a
    # binder in type formation: evaluated when first read
    __slots__ = ("term", "env", "value")

    def __init__(self, term, env: tuple):
        self.term, self.env, self.value = term, env, None


def _read(env: tuple, i: int, b: _Budget):
    # the value of index i: its entry in env, forced if lazy, or its level
    # if it is free
    n = len(env)
    if i >= n:
        return Var(n - 1 - i)
    v = env[-1 - i]
    if v.__class__ is not _Lazy:
        return v
    if v.value is None:
        v.value = _eval(v.term, v.env, b)
    return v.value


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

# Every eliminator, for the evaluator and the checker alike: its rule
# label, its scrutinee's type (fixed, or a required form and the text
# that rejects another) and its branches in field order, each (the
# constructor it stands for, the branch, the constructor's fields it
# binds).  A branch whose _SCHEMA binder count exceeds its fields also
# binds the previous result, the value at its last field; its
# eliminator is a recursor.
_ELIMINATORS = {
    If: ("Tm-If", BOOL_TY, ((TrueC, "then_branch", ()), (FalseC, "else_branch", ()))),
    LetUnit: ("Tm-Let-Unit", UNIT_TY, ((Star, "body", ()),)),
    LetPair: ("Tm-Let-Pair", (Tensor, "splitting a non-pair of type"),
              ((Pair, "body", ("fst", "snd")),)),
    MatchList: ("Tm-List-Match", (ListTy, "matching a non-list of type"),
                ((Nil, "nil_branch", ()), (Cons, "cons_branch", ("head", "tail")))),
    RecList: ("Tm-List-Rec", (ListTy, "recursing on a non-list of type"),
              ((Nil, "nil_branch", ()), (Cons, "cons_branch", ("head", "tail")))),
    RecNatCF: ("Tm-CF-Rec", NAT_TY,
               ((ZeroCF, "zero_branch", ()), (SuccCF, "succ_branch", ("pred",)))),
    RecNatL: ("Tm-LFPL-Rec", NAT_TY,
              ((ZeroL, "zero_branch", ("pay",)), (SuccL, "succ_branch", ("pay", "pred")))),
}


def _binds_previous(cls, branch) -> bool:
    _, name, binds = branch
    return next(k for field, _, k in _SCHEMA[cls] if field == name) > len(binds)


_RECURSORS = {cls for cls, elim in _ELIMINATORS.items() if _binds_previous(cls, elim[2][-1])}

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
    # loop, so chains of beta- and iota-steps do not grow the host stack;
    # a variable operand is read without a recursive call
    while True:
        cls = t.__class__
        if cls is Var:
            return _read(env, t.index, b)
        if cls is App:
            fn, arg = t.fn, t.arg
            if fn.__class__ is Global and fn.value is not None:
                fn = fn.value
            else:
                fn = _read(env, fn.index, b) if fn.__class__ is Var else _eval(fn, env, b)
            arg = _read(env, arg.index, b) if arg.__class__ is Var else _eval(arg, env, b)
            if fn.__class__ is not Lam:
                return App(fn, arg)
            b.left -= 1
            if b.left < 0:
                raise CheckError(*_EXHAUSTED)
            env, t = fn.body
            env += (arg,)
        elif cls is Global:
            # a definition unfolds to its closed body, a lambda to its one
            # shared closure, kept on the node
            if t.body.__class__ is not Lam:
                t, env = t.body, ()
                continue
            if t.value is None:
                object.__setattr__(t, "value", Lam(((), t.body.body)))
            return t.value
        elif cls is Ann:
            t = t.term
        elif cls is SuccCF or cls is SuccL:
            # a literal's successor chain is walked in a loop
            chain = []
            while t.__class__ is SuccCF or t.__class__ is SuccL:
                chain.append(t.__class__)
                t = t.pred
            v = _eval(t, env, b)
            for succ in reversed(chain):
                v = SuccCF(v) if succ is SuccCF else SuccL(_DIAMOND, v)
            return v
        else:
            operand, hits, miss = _RULES[cls]
            if operand is None:
                return miss(t, env, b) if miss else t
            # an eliminator's operand is evaluated here, so that a nesting
            # level costs one host frame, as an application's does
            v = operand(t)
            v = _read(env, v.index, b) if v.__class__ is Var else _eval(v, env, b)
            hit = hits.get(v.__class__)
            if hit is None:
                return miss(t, env, b, v)
            b.left -= 1
            if b.left < 0:
                raise CheckError(*_EXHAUSTED)
            branch, bind = hit
            if branch is None:
                return bind(v)
            t = branch(t)
            if bind is not None:
                env += bind(v)


# the classes that _eval's loop handles itself
_LOOP = (Var, App, Global, Ann, SuccCF, SuccL)

# The rule of every other class, built at import: (operand, hits, miss).
# A node without an operand is built by miss(t, env, b), or is its own
# value when miss is None.  An eliminator's operand(t) has the value v.
# A redex hits[v's class] = (branch, bind) continues with the term
# branch(t) in env extended by bind(v), or without a branch returns
# bind(v); else miss(t, env, b, v) returns the neutral value.

def _fields(names):
    # a getter of the named fields of a value, as a tuple
    if len(names) != 1:
        return attrgetter(*names) if names else lambda v: ()
    get = attrgetter(*names)
    return lambda v: (get(v),)


def _builder(cls):
    """A node's value: eager fields evaluated, binder fields and an
    eliminator's branches and motive closed over env, and an eliminator's
    scrutinee given as its value."""
    if not _FIELDS[cls]:
        return None
    args = ", ".join(
        "scrut" if mode == _SCRUT
        else f"t.{name}" if mode == _PLAIN
        else f"_eval(t.{name}, env, b)" if mode == _EAGER
        else f"(env, t.{name})" if name != "motive"
        else "None if t.motive is None else (env, t.motive)"
        for name, mode, _ in _FIELDS[cls]
    )
    scope = {"cls": cls, "_eval": _eval}
    exec(f"def rule(t, env, b, scrut=None):\n    return cls({args})", scope)
    return scope["rule"]


def _fold(cls):
    """A recursor's miss.  The step branch fires once per step form,
    innermost first, in a loop."""
    (base_form, base, base_binds), (step_form, step, step_binds) = _ELIMINATORS[cls][2]
    base, step = attrgetter(base), attrgetter(step)
    base_binds, step_binds = _fields(base_binds), _fields(step_binds)
    neutral = _builder(cls)

    def fold(t, env, b, scrut):
        steps = []
        while scrut.__class__ is step_form:
            steps.append(step_binds(scrut))
            scrut = steps[-1][-1]
        if scrut.__class__ is base_form:
            b.left -= 1
            if b.left < 0:
                raise CheckError(*_EXHAUSTED)
            acc = _eval(base(t), env + base_binds(scrut), b)
        else:
            acc = neutral(t, env, b, scrut)
        body = step(t)
        for bound in reversed(steps):
            b.left -= 1
            if b.left < 0:
                raise CheckError(*_EXHAUSTED)
            acc = _eval(body, env + bound + (acc,), b)
        return acc

    return fold


_RULES = {
    **{cls: (None, {}, _builder(cls)) for cls in _SCHEMA if cls not in _LOOP},
    **{
        cls: (attrgetter("scrut"), {
            form: (attrgetter(branch), _fields(binds) if binds else None)
            for form, branch, binds in branches
        }, _builder(cls))
        for cls, (_, _, branches) in _ELIMINATORS.items() if cls not in _RECURSORS
    },
    **{cls: (attrgetter("scrut"), {}, _fold(cls)) for cls in _RECURSORS},
    **{
        cls: (attrgetter(field), {form: (None, attrgetter(out))},
              lambda t, env, b, v, cls=cls: cls(v))
        for cls, (field, form, out) in _PROJECTIONS.items()
    },
    # dup fires on every value, each a node of a _SCHEMA class
    DupNat: (attrgetter("arg"), dict.fromkeys(_SCHEMA, (None, lambda v: Pair(v, v))), None),
    ZeroL: (None, {}, lambda t, env, b: _ZERO_L),
}


def _inst(closure, *args, b: _Budget | None = None):
    """Apply a closure to the values of the binders it abstracts."""
    env, body = closure
    return _eval(body, env + args, b or _Budget())


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
                fresh = tuple(Var(depth + k) for k in range(binders))
                val = _quote(_inst(val, *fresh, b=b), depth + binders, b)
        elif mode != _PLAIN:
            val = _quote(val, depth, b)
        vals.append(val)
    out = cls(*vals)
    # eta: \x. f x  ~~>  f  when x is not free in f;  (fst m, snd m)  ~~>  m
    if cls is Lam and out.body.__class__ is App and out.body.arg == Var(0):
        fn = out.body.fn
        if not has_free_var(fn, 0):
            # f's value, read back outside the binder it does not use
            return _quote(_eval(fn, _env(range(depth + 1)), b), depth, b)
    if cls is Pair and out.fst.__class__ is Fst and out.snd.__class__ is Snd:
        env = _env(range(depth))
        if _conv(_eval(out.fst.pair, env, b), _eval(out.snd.pair, env, b), depth, b):
            return out.fst.pair
    return out


@_entry
def normalize_sigma0(
    regime: Regime,
    ctx,
    term: Term,
    ty: TypeExpr | None = None,
    budget: int = DEFAULT_NORM_BUDGET,
) -> Term:
    """Normal form of a checked erased-fragment term.

    When the term's type is supplied and is the unit or diamond type,
    the eta laws collapse the term to the canonical inhabitant.
    """
    b = _Budget(budget)
    if ty is not None:
        canonical = _CANONICAL.get(_eval(ty, (), b).__class__)
        if canonical is not None:
            return canonical
    return _quote(_eval(term, (), b), 0, b)


@_entry
def normalize_type(
    ty: TypeExpr, args: tuple = (), budget: int = DEFAULT_NORM_BUDGET
) -> TypeExpr:
    """Normal form of ty with its innermost len(args) indices bound to the
    values of the closed terms args: args[0] for index 0, args[1] for
    index 1, and so on.  Its other free indices drop by len(args), so
    this is substitution done by the evaluator."""
    b = _Budget(budget)
    env = tuple(_Lazy(a, ()) for a in reversed(args))
    return _quote(_eval(ty, env, b), 0, b)


# ---------------------------------------------------------------------------
# Definitional equality

# the plain fields that take part in a node's equality (App.usage and
# Pair.usage do not)
_COMPARED = {
    cls: tuple(f.name for f in fields(cls) if f.compare) for cls in _SCHEMA
}


def _conv(a, b, depth: int, bud: _Budget) -> bool:
    """Whether two values under depth binders are definitionally equal.
    Closures compare at fresh levels, a function or a pair against
    another form by its eta law, and the sides of an equation at the
    unit or diamond type trivially.  It loops, so long constructor
    chains do not grow the host stack."""
    todo = [(a, b, depth)]
    while todo:
        x, y, d = todo.pop()
        if x is y:
            continue
        cx, cy = x.__class__, y.__class__
        if cx is Lam or cy is Lam:
            v = Var(d)
            x = _inst(x.body, v, b=bud) if cx is Lam else App(x, v)
            y = _inst(y.body, v, b=bud) if cy is Lam else App(y, v)
            todo.append((x, y, d + 1))
        elif (cx is Pair) != (cy is Pair):
            fx, sx = (x.fst, x.snd) if cx is Pair else (Fst(x), Snd(x))
            fy, sy = (y.fst, y.snd) if cy is Pair else (Fst(y), Snd(y))
            todo += ((fx, fy, d), (sx, sy, d))
        elif cx is not cy:
            return False
        elif cx is IdTy and x.ty.__class__ in _CANONICAL:
            todo.append((x.ty, y.ty, d))
        else:
            for name, mode, binders in _FIELDS[cx]:
                f, g = getattr(x, name), getattr(y, name)
                if mode == _PLAIN:
                    if f != g and name in _COMPARED[cx]:
                        return False
                elif mode != _CLOSURE:
                    todo.append((f, g, d))
                elif f is None or g is None:
                    if f is not g:
                        return False
                elif f[1] is not g[1] or f[0] is not g[0]:
                    # the same body in the same environment needs no look
                    fresh = tuple(Var(d + k) for k in range(binders))
                    todo.append(
                        (_inst(f, *fresh, b=bud), _inst(g, *fresh, b=bud), d + binders)
                    )
    return True


@_entry
def types_equal(a: TypeExpr, b: TypeExpr, budget: int = DEFAULT_NORM_BUDGET) -> bool:
    s = _Budget(budget)
    return _conv(_eval(a, (), s), _eval(b, (), s), 0, s)


def conv_type(a: TypeExpr, b: TypeExpr) -> None:
    if not types_equal(a, b):
        an, bn = pretty_type(normalize_type(a)), pretty_type(normalize_type(b))
        raise CheckError("Conv", f"type mismatch: {an} /= {bn}")


# ---------------------------------------------------------------------------
# Checking contexts: a tuple of type values, outermost first.  Type
# formation binds a domain as a _Lazy, forced when a variable reads it.

_LEVELS = tuple(map(Var, range(256)))


def _env(ctx) -> tuple:
    # the environment that binds each of the len(ctx) entries to its level
    n = len(ctx)
    return _LEVELS[:n] if n <= len(_LEVELS) else tuple(map(Var, range(n)))


def _value(ctx: tuple, t):
    """The value of a term or type in a context of type values."""
    return _eval(t, _env(ctx), _Budget())


def _show(ctx: tuple, v) -> str:
    # a type value in ctx as its normal form in source syntax, for a
    # diagnostic
    return pretty_type(_quote(v, len(ctx), _Budget()), len(ctx))


def _expect(ctx: tuple, ty, form, rule: str, what: str) -> None:
    # reject `what` unless the type value ty has the given form
    if ty.__class__ is not form:
        raise CheckError(rule, f"{what} {_show(ctx, ty)}")


def _context(ctx) -> tuple:
    """The type values of a context of CtxEntry records."""
    out = ()
    for entry in ctx:
        out += (_value(out, entry.ty),)
    return out


# ---------------------------------------------------------------------------
# Type formation

def _mentions_universe(ty: TypeExpr) -> bool:
    if ty.__class__ is Universe:
        return True
    spec = _SCHEMA[ty.__class__]
    return any(_mentions_universe(getattr(ty, f)) for f, kind, _ in spec if kind == "type")


def _check_type(regime: Regime, ctx: tuple, ty: TypeExpr) -> None:
    """Type formation; every entry of ctx counts as erased."""
    cls = ty.__class__
    if cls in _GATED:
        _gate(regime, 0, cls)
    if cls in (UnitTy, BoolTy, NatTy, Universe, DiamondTy):
        return
    if cls is Pi or cls is Tensor:
        dom = ty.dom if cls is Pi else ty.fst
        cod = ty.cod if cls is Pi else ty.snd
        if ty.usage < 0:
            raise CheckError("Ty-Pi", "usage annotations are naturals")
        _check_type(regime, ctx, dom)
        _check_type(regime, ctx + (_Lazy(dom, _env(ctx)),), cod)
        return
    if cls is ListTy or cls is Reflect:
        _check_type(regime, ctx, ty.elem if cls is ListTy else ty.inner)
        return
    if cls is IdTy:
        _check_type(regime, ctx, ty.ty)
        eq_ty = _value(ctx, ty.ty)
        check(regime, ctx, 0, ty.lhs, eq_ty)
        check(regime, ctx, 0, ty.rhs, eq_ty)
        return
    if cls is El:
        check(regime, ctx, 0, ty.code, UNIVERSE)
        return
    raise CheckError("Ty", f"unknown type form {cls.__name__}")


@_entry
def check_type(regime: Regime, ctx, ty: TypeExpr) -> None:
    """Type formation in a context of CtxEntry records."""
    _check_type(regime, _context(ctx), ty)


# ---------------------------------------------------------------------------
# Term checking with usage inference

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


# the forms of one regime: (regime, rule, what belongs to it)
_REGIME_FORMS = {
    DupNat: (Regime.CONS_FREE, "Tm-CF-DupNat", "duplication of naturals belongs"),
    ZeroCF: (Regime.CONS_FREE, "Tm-CF-Zero", "bare zero belongs"),
    SuccCF: (Regime.CONS_FREE, "Tm-CF-Succ", "bare successor belongs"),
    RecNatCF: (Regime.CONS_FREE, "Tm-CF-Rec", "this recursor shape belongs"),
    DiamondStar: (Regime.LFPL, "Tm-LFPL-Star", "diamonds belong"),
    ZeroL: (Regime.LFPL, "Tm-LFPL-Zero", "paid zero belongs"),
    SuccL: (Regime.LFPL, "Tm-LFPL-Succ", "paid successor belongs"),
    RecNatL: (Regime.LFPL, "Tm-LFPL-Rec", "this recursor shape belongs"),
    DiamondTy: (Regime.LFPL, "Ty-Diamond", "the diamond type belongs"),
}

# the forms of the erased fragment only: (rule, what lives there)
_ERASED_FORMS = {
    ZeroCF: ("Tm-CF-Zero", "cons-free constructors live"),
    SuccCF: ("Tm-CF-Succ", "cons-free constructors live"),
    DiamondStar: ("Tm-LFPL-Star", "the dummy diamond lives"),
    Fst: ("Tm-Fst", "projections live"),
    Snd: ("Tm-Snd", "projections live"),
    RecList: ("Tm-List-Rec", "list recursion lives"),
}


# the forms _gate rejects somewhere
_GATED = frozenset((*_REGIME_FORMS, *_ERASED_FORMS))

# the constants and the type each synthesises
_CONSTANT_TYPES = {
    Star: UNIT_TY, TrueC: BOOL_TY, FalseC: BOOL_TY, ZeroCF: NAT_TY, DiamondStar: DIAMOND_TY
}


def _gate(regime: Regime, sigma: int, cls) -> None:
    """Reject a form outside its regime, or outside the erased fragment
    when it lives there only."""
    form = _REGIME_FORMS.get(cls)
    if form is not None and form[0] is not regime:
        name = "cons-free" if form[0] is Regime.CONS_FREE else "payment"
        raise CheckError(form[1], f"{form[2]} to the {name} regime")
    erased = _ERASED_FORMS.get(cls)
    if erased is not None and sigma != 0:
        raise CheckError(erased[0], f"{erased[1]} in the erased fragment only")


def synth(regime: Regime, ctx: tuple, sigma: int, t: Term):
    """Synthesise (usage vector, type value, core term) for t in the
    given fragment."""
    cls = t.__class__
    if cls in _GATED:
        _gate(regime, sigma, cls)
    plan = _PLANS.get(cls)
    if plan is not None:
        if t.motive is None:
            raise CheckError(plan[0], "motive required to synthesise")
        return _eliminate(regime, ctx, sigma, t, None, plan)

    if cls is Var:
        i = t.index
        if not 0 <= i < len(ctx):
            raise CheckError("Tm-Var", f"unbound index {i} in context of {len(ctx)}")
        return (0,) * (len(ctx) - 1 - i) + (sigma,) + (0,) * i, _read(ctx, i, _Budget()), t

    if cls is Ann:
        _check_type(regime, ctx, t.ty)
        ty = _value(ctx, t.ty)
        u, term = check(regime, ctx, sigma, t.term, ty)
        return u, ty, Ann(term, t.ty)

    if cls is Global:
        # the body is checked once per regime and fragment and its core
        # term kept on the definition, and the declared type evaluated
        # once it first checks; being closed, it uses nothing of ctx
        key = (regime, sigma)
        if key not in t.core:
            _check_type(regime, (), t.ty)
            if t.ty_value is None:
                object.__setattr__(t, "ty_value", _value((), t.ty))
            t.core[key] = check(regime, (), sigma, t.body, t.ty_value)[1]
        return zero_usage(len(ctx)), t.ty_value, t

    if cls is App:
        u_fn, fn_ty, fn = synth(regime, ctx, sigma, t.fn)
        _expect(ctx, fn_ty, Pi, "Tm-App", "applied a non-function of type")
        pi = fn_ty.usage
        sigma_arg = 0 if (pi == 0 or sigma == 0) else 1
        u_arg, arg = check(regime, ctx, sigma_arg, t.arg, fn_ty.dom)
        u = usage_add(u_fn, usage_scale(pi, u_arg))
        return u, _inst(fn_ty.cod, _Lazy(t.arg, _env(ctx))), App(fn, arg, pi)

    ty = _CONSTANT_TYPES.get(cls)
    if ty is not None:
        return zero_usage(len(ctx)), ty, t

    if cls is Cons:
        u_h, elem_ty, head = synth(regime, ctx, sigma, t.head)
        u_t, tail = check(regime, ctx, sigma, t.tail, ListTy(elem_ty))
        return usage_add(u_h, u_t), ListTy(elem_ty), Cons(head, tail)

    if cls is DupNat:
        u, arg = check(regime, ctx, sigma, t.arg, NAT_TY)
        return u, Tensor(1, NAT_TY, ((), NAT_TY)), DupNat(arg)

    if cls is SuccCF:
        # a literal's successor chain is walked in a loop, not on the host
        # stack; the inner successors pass the same gate
        length = 0
        while t.__class__ is SuccCF:
            t, length = t.pred, length + 1
        u, core = check(regime, ctx, 0, t, NAT_TY)
        for _ in range(length):
            core = SuccCF(core)
        return u, NAT_TY, core

    if cls is ZeroL:
        u, pay = check(regime, ctx, sigma, t.pay, DIAMOND_TY)
        return u, NAT_TY, ZeroL(pay)

    if cls is SuccL:
        # walked in a loop like SuccCF, checking the payments outermost first
        u, pays = zero_usage(len(ctx)), []
        while t.__class__ is SuccL:
            u_d, pay = check(regime, ctx, sigma, t.pay, DIAMOND_TY)
            u, t = usage_add(u, u_d), t.pred
            pays.append(pay)
        u_n, core = check(regime, ctx, sigma, t, NAT_TY)
        for pay in reversed(pays):
            core = SuccL(pay, core)
        return usage_add(u, u_n), NAT_TY, core

    if cls is Fst or cls is Snd:
        u, pair_ty, pair = synth(regime, ctx, 0, t.pair)
        rule = "Tm-Fst" if cls is Fst else "Tm-Snd"
        _expect(ctx, pair_ty, Tensor, rule, "projection from a non-pair of type")
        if cls is Fst:
            return u, pair_ty.fst, Fst(pair)
        return u, _inst(pair_ty.snd, _Lazy(Fst(t.pair), _env(ctx))), Snd(pair)

    if cls is Refl:
        u, ty, body = synth(regime, ctx, sigma, t.body)
        v = _value(ctx, t.body)
        return u, IdTy(ty, v, v), Refl(body)

    if cls is ReflectIntro:
        u, ty, body = synth(regime, ctx, 1, t.body)
        _require_erased_ambient(u, "Tm-R")
        return zero_usage(len(ctx)), Reflect(ty), ReflectIntro(body)

    if cls is ReflectElim:
        u, ty, body = synth(regime, ctx, sigma, t.body)
        _expect(ctx, ty, Reflect, "Tm-R-Inv", "unreflecting a non-reflected type")
        return u, ty.inner, ReflectElim(body)

    if cls is CodeTy:
        if _mentions_universe(t.ty):
            raise CheckError("Tm-U-Code", "the universe has no code for itself")
        _check_type(regime, ctx, t.ty)
        return zero_usage(len(ctx)), UNIVERSE, t

    if cls is Lam:
        raise CheckError("Tm-Lam", "cannot synthesise a bare function; annotate it")
    if cls is Pair:
        raise CheckError("Tm-Pair", "cannot synthesise a bare pair; annotate it")
    if cls is Nil:
        raise CheckError("Tm-List-Nil", "cannot synthesise nil; annotate it")

    raise CheckError("Tm", f"unknown term form {cls.__name__}")


def check(
    regime: Regime, ctx: tuple, sigma: int, t: Term, ty
) -> tuple[UsageVector, Term]:
    """Check t against the type value ty, returning (minimal usage
    vector, core term)."""
    cls = t.__class__
    ty_cls = ty.__class__

    if cls is Lam:
        _expect(ctx, ty, Pi, "Tm-Lam", "function against non-function type")
        cap = sigma * ty.usage
        cod = _inst(ty.cod, Var(len(ctx)))
        u, body = check(regime, ctx + (ty.dom,), sigma, t.body, cod)
        return _pop_binders(u, (cap,), "Tm-Lam"), Lam(body)

    if cls is Pair:
        _expect(ctx, ty, Tensor, "Tm-Pair", "pair against non-pair type")
        pi = ty.usage
        sigma_fst = 0 if (pi == 0 or sigma == 0) else 1
        u_fst, fst = check(regime, ctx, sigma_fst, t.fst, ty.fst)
        snd_ty = _inst(ty.snd, _Lazy(t.fst, _env(ctx)))
        u_snd, snd = check(regime, ctx, sigma, t.snd, snd_ty)
        u = usage_add(usage_scale(pi, u_fst), u_snd)
        return u, Pair(fst, snd, pi)

    if cls is Nil:
        _expect(ctx, ty, ListTy, "Tm-List-Nil", "nil against non-list type")
        return zero_usage(len(ctx)), t

    if cls is Star and ty_cls is DiamondTy:
        # the surface star doubles as the dummy diamond
        _gate(regime, sigma, DiamondStar)
        return zero_usage(len(ctx)), t

    if cls is Refl and ty_cls is IdTy:
        u, body = check(regime, ctx, sigma, t.body, ty.ty)
        if ty.ty.__class__ not in _CANONICAL:
            v, b = _value(ctx, t.body), _Budget()
            if not (_conv(v, ty.lhs, len(ctx), b) and _conv(v, ty.rhs, len(ctx), b)):
                raise CheckError("Id-Refl", "refl does not prove this equation")
        return u, Refl(body)

    if cls is ReflectIntro and ty_cls is Reflect:
        u, body = check(regime, ctx, 1, t.body, ty.inner)
        _require_erased_ambient(u, "Tm-R")
        return zero_usage(len(ctx)), ReflectIntro(body)

    plan = _PLANS.get(cls)
    if plan is not None and t.motive is None:
        if cls in _GATED:
            _gate(regime, sigma, cls)
        u, _, core = _eliminate(regime, ctx, sigma, t, ty, plan)
        return u, core

    u, got, core = synth(regime, ctx, sigma, t)
    if got is not ty and not _conv(got, ty, len(ctx), _Budget()):
        raise CheckError(
            "Conv", f"expected {_show(ctx, ty)} but synthesised {_show(ctx, got)}"
        )
    return u, core


# --- eliminators -----------------------------------------------------------
#
# One rule checks every eliminator (Atkey, "Syntax and semantics of
# quantitative type theory", 2018).  A branch binds its constructor's
# fields, typed and capped by _FIELD_TYPES from the scrutinee's type
# value s, the level n of the first field and the fragment sigma (a cap
# is the field's usage scaled by sigma), and a recursor's step also the
# previous result at sigma; it is checked against the motive at its
# constructor applied to the levels of those fields.
_FIELD_TYPES = {
    Pair: lambda s, n, sigma: ((s.fst, _inst(s.snd, Var(n))), (sigma * s.usage, sigma)),
    Cons: lambda s, n, sigma: ((s.elem, s), (sigma, sigma)),
    SuccCF: lambda s, n, sigma: ((NAT_TY,), (0,)),
    ZeroL: lambda s, n, sigma: ((DIAMOND_TY,), (sigma,)),
    SuccL: lambda s, n, sigma: ((DIAMOND_TY, NAT_TY), (sigma, 0)),
}


def _plan(cls):
    """(label, scrutinee, branches, recursor), each branch (getter, its
    constructor applied to its fields' indices, their types or None,
    whether it binds the previous result)."""
    label, scrut, branches = _ELIMINATORS[cls]

    def step(branch):
        form, field, binds = branch
        pattern = form(*map(Var, range(len(binds) - 1, -1, -1)))
        return attrgetter(field), pattern, _FIELD_TYPES.get(form), _binds_previous(cls, branch)

    return label, scrut, tuple(map(step, branches)), cls in _RECURSORS


_PLANS = {cls: _plan(cls) for cls in _ELIMINATORS}


def _eliminate(regime, ctx: tuple, sigma: int, t, target, plan):
    """Check an eliminator against the type value target, or with its
    motive and no target; return (usage, type value, core term).  The
    usage is the scrutinee's and the pointwise maximum of the branches'.
    A recursor's branches use nothing of ctx.  An ill-formed motive's
    diagnostic keeps its rule and names the motive and this rule."""
    label, scrut_ty, branches, recursor = plan
    motive = t.motive
    required = scrut_ty.__class__ is tuple
    if required:
        u, got, scrut = synth(regime, ctx, sigma, t.scrut)
        _expect(ctx, got, scrut_ty[0], label, scrut_ty[1])
        scrut_ty = got
    if motive is not None:
        try:
            _check_type(regime, ctx + (scrut_ty,), motive)
        except CheckError as e:
            raise CheckError(e.rule, f"ill-formed motive of {label}: {e.message}") from None
        env = _env(ctx)
        at = lambda v: _eval(motive, env + (v,), _Budget())  # the motive at v
    if not required:
        u, scrut = check(regime, ctx, sigma, t.scrut, scrut_ty)
    n = len(ctx)
    joined, cores = None, [scrut]
    for branch, pattern, fields, previous in branches:
        inner, caps = ctx, ()
        if fields is not None:
            types, caps = fields(scrut_ty, n, sigma)
            inner = ctx + types
        tgt = target if motive is None else at(_Lazy(pattern, _env(inner)))
        if previous:
            p_ty = target if motive is None else at(Var(len(inner) - 1))
            inner, caps = inner + (p_ty,), caps + (sigma,)
        u_b, core = check(regime, inner, sigma, branch(t), tgt)
        u_b = _pop_binders(u_b, caps, label)
        if recursor:
            _require_erased_ambient(u_b, label)
        joined = u_b if joined is None else tuple(map(max, joined, u_b))
        cores.append(core)
    if motive is not None:
        target = at(_Lazy(t.scrut, env))
    return usage_add(u, joined), target, t.__class__(*cores, motive)


# ---------------------------------------------------------------------------
# Public entry points

@_entry
def elaborate(
    regime: Regime, ctx, sigma: int, term: Term, ty: TypeExpr
) -> tuple[UsageVector, Term]:
    """Check term against ty in a context of CtxEntry records; return the
    minimal usage vector and the core term.

    The core term is term with the usage of each application's function
    type and each pair's tensor type stored on the node.  The declared
    annotations in ctx must dominate the inferred vector pointwise; in
    the erased fragment the vector is all zeros.
    """
    if sigma not in (0, 1):
        raise CheckError("Tm", "fragment marker must be 0 or 1")
    inner = _context(ctx)
    _check_type(regime, inner, ty)
    u, core = check(regime, inner, sigma, term, _value(inner, ty))
    for entry, got in zip(ctx, u):
        if got > entry.usage:
            raise CheckError(
                "Sub",
                f"usage overflow for {entry.name}: inferred {got}, "
                f"declared {entry.usage}",
            )
    return u, core


def infer_usage_check(
    regime: Regime, ctx, sigma: int, term: Term, ty: TypeExpr
) -> UsageVector:
    """Check term against ty and return the minimal usage vector."""
    return elaborate(regime, ctx, sigma, term, ty)[0]

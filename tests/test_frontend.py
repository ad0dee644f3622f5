"""Parsing, name resolution and pretty printing, and the printed form of
every corpus and fixture module and of generated terms.

Pinned in tests/golden/printed/: to re-pin, copy in the actual file a failure names."""

import copy
import random
import re

import pytest

from polyqtt.frontend import (
    FrontendError,
    parse_module,
    parse_term,
    parse_type,
    pretty_term,
    pretty_type,
    resolve_module,
    resolve_term,
    resolve_type,
)
from polyqtt.kernel import infer_usage_check
from polyqtt.syntax import (
    Ann,
    App,
    BOOL_TY,
    CodeTy,
    Cons,
    DIAMOND_TY,
    DiamondTy,
    DiamondStar,
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
    TrueC,
    UNIT_TY,
    UNIVERSE,
    Var,
    ZeroCF,
    ZeroL,
)

from conftest import CORPUS, FIXTURES

CF = Regime.CONS_FREE
LF = Regime.LFPL


# ---------------------------------------------------------------------------
# Parsing and resolution basics

def test_minimal_module():
    mod = parse_module("regime consfree\ndef id ^1 : (x ^1 : Bool) -> Bool = \\x. x")
    rm = resolve_module(mod)
    assert rm.regime is CF
    (d,) = rm.decls
    assert d.name == "id" and d.sigma == 1
    assert d.ty == Pi(1, BOOL_TY, BOOL_TY)
    assert d.body == Lam(Var(0))


def test_sigma0_constructor_module():
    mod = parse_module("regime consfree\ndef two ^0 : Nat = succ (succ zero)")
    rm = resolve_module(mod)
    assert rm.decls[0].body == SuccCF(SuccCF(ZeroCF()))


def test_lambda_binders():
    assert resolve_term("\\x. x", CF) == Lam(Var(0))
    assert resolve_term("\\x. \\y. x", CF) == Lam(Lam(Var(1)))
    assert resolve_term("\\x y. x", CF) == Lam(Lam(Var(1)))


def test_shadowing_resolves_innermost():
    assert resolve_term("\\x. \\x. x", CF) == Lam(Lam(Var(0)))


def test_pair_pattern_lambda_sugar():
    t = resolve_term("\\(a, b). a", CF)
    assert t == Lam(LetPair(Var(0), Var(1), None))


def test_unbalanced_parenthesis_has_span():
    with pytest.raises(FrontendError) as e:
        parse_module("regime consfree\ndef f ^1 : Bool = (true")
    assert e.value.diagnostic.span.line == 2


def test_forward_reference_rejected():
    src = """regime consfree
def f ^1 : Bool -> Bool = \\x. g x
def g ^1 : Bool -> Bool = \\x. x
"""
    with pytest.raises(FrontendError) as e:
        resolve_module(parse_module(src))
    assert "unbound" in e.value.diagnostic.message


def test_duplicate_names_rejected():
    src = "regime consfree\ndef f ^1 : Bool = true\ndef f ^1 : Bool = false"
    with pytest.raises(FrontendError):
        resolve_module(parse_module(src))


def test_definitions_resolve_to_one_global():
    src = """regime consfree
def not ^1 : Bool -> Bool = \\b. if b then false else true
def f ^1 : Bool -> Bool = \\b. not (not b)
"""
    rm = resolve_module(parse_module(src))
    body = rm.decls[1].body
    # both `not` occurrences are the one definition node, with its type
    outer, inner = body.body.fn, body.body.arg.fn
    assert outer is inner is rm.decls[0].defn
    assert isinstance(inner, Global) and inner.name == "not"
    assert inner.ty == Pi(1, BOOL_TY, BOOL_TY)
    # what the checker keeps on the body takes no part in equality; a
    # copy of the body carries no record
    fresh = Global(inner.name, inner.ty, copy.copy(inner.body))
    infer_usage_check(CF, (), 1, body, rm.decls[1].ty)
    assert inner.body._checked and inner == fresh and hash(inner) == hash(fresh)


def test_regime_override():
    mod = parse_module("regime consfree\ndef f ^0 : Nat = zero")
    assert resolve_module(mod, regime_override=LF).regime is LF


def test_types_parse():
    assert resolve_type("Bool -> Bool", CF) == Pi(1, BOOL_TY, BOOL_TY)
    assert resolve_type("(x ^2 : Bool) -> Bool", CF) == Pi(2, BOOL_TY, BOOL_TY)
    assert resolve_type("Bool * Nat", CF) == Tensor(1, BOOL_TY, NAT_TY)
    assert resolve_type("Bool * Nat -> I", CF) == Pi(
        1, Tensor(1, BOOL_TY, NAT_TY), UNIT_TY
    )
    assert resolve_type("List Bool", CF) == ListTy(BOOL_TY)
    assert resolve_type("<>", LF) == DIAMOND_TY
    assert resolve_type("R (Bool -> Bool)", CF) == Reflect(Pi(1, BOOL_TY, BOOL_TY))
    assert resolve_type("Id Bool true false", CF) == IdTy(BOOL_TY, TrueC(), FalseC())


def test_dependent_types_parse():
    ty = resolve_type("(n ^1 : Nat) * El (f n)", CF, scope=("f",))
    assert ty == Tensor(1, NAT_TY, El(App(Var(1), Var(0))))


def test_term_position_type_formers_become_codes():
    assert resolve_term("Bool", CF) == CodeTy(BOOL_TY)
    assert resolve_term("Bool -> Bool", CF) == CodeTy(Pi(1, BOOL_TY, BOOL_TY))
    t = resolve_term("Bool * p", CF, scope=("p",))
    # the second component sits under the tensor binder, so p shifts
    assert t == CodeTy(Tensor(1, BOOL_TY, El(Var(1))))


def test_type_position_terms_become_el():
    ty = resolve_type("p", CF, scope=("p",))
    assert ty == El(Var(0))


def test_rec_shapes():
    t = resolve_term(
        "rec n at (x. Bool) { zero => true | succ(m, p) => p }", CF, scope=("n",)
    )
    assert t == RecNatCF(Var(0), TrueC(), Var(0), BOOL_TY)
    t = resolve_term(
        "rec n at (x. Nat) { zero(d) => zero d | succ(d, m, p) => succ d p }",
        LF,
        scope=("n",),
    )
    assert t == RecNatL(Var(0), ZeroL(Var(0)), SuccL(Var(2), Var(0)), NAT_TY)


def test_zero_succ_arity_dispatch():
    assert resolve_term("zero", CF) == ZeroCF()
    assert resolve_term("succ zero", CF) == SuccCF(ZeroCF())
    assert resolve_term("zero d", LF, scope=("d",)) == ZeroL(Var(0))
    assert resolve_term("succ d n", LF, scope=("d", "n")) == SuccL(Var(1), Var(0))
    # two-argument successor parses under either pragma; checking gates it
    assert resolve_term("succ d n", CF, scope=("d", "n")) == SuccL(Var(1), Var(0))


def test_builtins_in_argument_position_take_no_args():
    t = resolve_term("f zero x", CF, scope=("f", "x"))
    assert t == App(App(Var(1), ZeroCF()), Var(0))


def test_literals():
    assert resolve_term("3", CF) == SuccCF(SuccCF(SuccCF(ZeroCF())))
    assert resolve_term("1", LF) == SuccL(DiamondStar(), ZeroL(DiamondStar()))


def test_let_forms():
    t = resolve_term("let (a, b) = p in a", CF, scope=("p",))
    assert t == LetPair(Var(0), Var(1), None)
    t = resolve_term("let * = u in true", CF, scope=("u",))
    assert t == LetUnit(Var(0), TrueC(), None)


def test_annotation_and_application():
    t = resolve_term("(\\x. x : Bool -> Bool) true", CF)
    assert t == App(Ann(Lam(Var(0)), Pi(1, BOOL_TY, BOOL_TY)), TrueC())


def test_reflection_terms():
    assert resolve_term("R (\\x. x)", CF) == ReflectIntro(Lam(Var(0)))
    assert resolve_term("R^-1 r", CF, scope=("r",)) == ReflectElim(Var(0))
    assert resolve_term("refl true", CF) == Refl(TrueC())


def test_comments_and_whitespace():
    src = """regime consfree  -- the iteration-free regime
-- a constant

def t ^1
  : Bool
  = true
"""
    rm = resolve_module(parse_module(src))
    assert rm.decls[0].body == TrueC()


# ---------------------------------------------------------------------------
# Diagnostics: the full text, position included, of every front-end error

_H = "regime consfree\n"

DIAGNOSTICS = [
    # lexer: identifiers start with str.isalpha() or _, digits are ASCII,
    # whitespace is space, tab, CR and LF, and -- starts a comment
    (_H + "def ²x ^1 : Bool = true", "2:5: [Parse] unexpected character '²'"),
    (_H + "def ٣ ^1 : Bool = true", "2:5: [Parse] unexpected character '٣'"),
    (_H + "def f ^1 : Bool = Ⅷ", "2:19: [Parse] unexpected character 'Ⅷ'"),
    (_H + "def f ^1 : Bool =\ftrue", "2:18: [Parse] unexpected character '\\x0c'"),
    (_H + "def f ^1 : Bool = tr-ue", "2:21: [Parse] unexpected character '-'"),
    (
        _H + "def f ^1 : Bool -> Bool = \\x. R^-1 x\n   def g ^1 : Bool = -x",
        "3:22: [Parse] unexpected character '-'",
    ),
    # parser: expect, and the end of input after tabs, spaces and comments
    (_H + "\tdef f ^1 : Bool = (true", "2:25: [Parse] expected ), found end of input"),
    (_H + "def f ^1 : Bool = (true   ", "2:27: [Parse] expected ), found end of input"),
    (_H + "def f ^1 : Bool = (true\n", "3:1: [Parse] expected ), found end of input"),
    (
        _H + "def f ^1 : Bool = (true -- a comment",
        "2:37: [Parse] expected ), found end of input",
    ),
    (_H + "-- a comment\n  )", "3:3: [Parse] expected def, found )"),
    (
        _H + "def f ^1 : Bool = true --> comment\ndef g ^1 : Bool = f ^-1",
        "3:21: [Parse] expected def, found ^-1",
    ),
    (_H + "def 3 ^1 : Bool = true", "2:5: [Parse] expected definition name, found 3"),
    (
        _H + "def f ^1 : Bool = true\n\n\n\n     def",
        "6:9: [Parse] expected definition name, found end of input",
    ),
    (_H + "def f : Bool = true", "2:7: [Parse] expected fragment marker ^0 or ^1, found :"),
    (_H + "def f ^x : Bool = true", "2:8: [Parse] expected fragment 0 or 1, found x"),
    (_H + "def f ^1 : Bool = let (a b) = x in a", "2:26: [Parse] expected ,, found b"),
    (
        _H + "def f ^1 : Bool = if true then false",
        "2:37: [Parse] expected else, found end of input",
    ),
    # parser: its other errors
    ("regime foo\ndef f ^1 : Bool = true", "1:8: [Parse] regime must be consfree or lfpl"),
    (_H + "def f ^2 : Bool = true", "2:8: [Parse] fragment marker must be 0 or 1"),
    (
        _H + "def f ^1 : (x ^1 : Bool) Bool = true",
        "2:26: [Parse] expected -> or * after a binder",
    ),
    (
        _H + "def f ^1 : List (x ^1 : Bool) Bool = nil",
        "2:31: [Parse] expected -> or * after a binder",
    ),
    (
        _H + "def f ^1 : Bool -> Bool = \\. true",
        "2:27: [Parse] lambda needs at least one binder",
    ),
    (_H + "def f ^1 : Bool = )", "2:19: [Parse] expected a term, found ')'"),
    (_H + "def f ^1 : Bool =", "2:18: [Parse] expected a term, found 'end of input'"),
    # resolver: columns count characters, and CR is one of them
    (_H + "def f ^1 : Bool = y", "2:19: [Resolve] unbound name 'y'"),
    (_H + "def é ^1 : Bool = é", "2:19: [Resolve] unbound name 'é'"),
    (_H + "def f ^1 : Bool = λ", "2:19: [Resolve] unbound name 'λ'"),
    (_H + "def f ^1 : Bool\r\n  = y", "3:5: [Resolve] unbound name 'y'"),
    (
        _H + "def f ^1 : Bool = true\ndef f ^1 : Bool = false",
        "3:1: [Resolve] duplicate definition 'f'",
    ),
    ("def f ^1 : Bool = true", "1:1: [Resolve] no regime pragma in the module and none supplied"),
    (
        # one binder list parses in a loop but resolves one frame per binder
        _H + "def f ^1 : Bool = \\" + " ".join(f"x{i}" for i in range(10_000)) + ". true",
        "2:1: [Resolve] 'f' is nested too deeply to resolve",
    ),
    (
        _H + "".join(f"def g{i} ^1 : Bool = true\n" for i in range(5000))
        + "def last ^1 : Bool = nope",
        "5002:22: [Resolve] unbound name 'nope'",
    ),
    # parser: the keyword-led forms, by their templates
    (
        _H + "def f ^1 : Nat -> Bool = \\n. rec n { zero => true | succ(m) => m }",
        "2:59: [Parse] expected ,, found )",
    ),
    (
        _H + "def f ^1 : Nat -> Bool = \\n. rec n { zero(d, e) => true | succ(d, m, p) => p }",
        "2:44: [Parse] expected ), found ,",
    ),
    (
        _H + "def f ^1 : Nat -> Bool = \\n. rec n { zero(3) => true | succ(d, m, p) => p }",
        "2:43: [Parse] expected diamond binder, found 3",
    ),
    (
        _H + "def f ^1 : Nat -> Bool = \\n. rec n { zero true | succ(m, p) => p }",
        "2:43: [Parse] expected =>, found true",
    ),
    (
        _H + "def f ^1 : List Bool -> Bool = \\xs. match xs { nil => true | cons(h, t, p) => h }",
        "2:71: [Parse] expected ), found ,",
    ),
    (
        _H + "def f ^1 : List Bool -> Bool = \\xs. reclist xs { nil => true | cons(h, t) => h }",
        "2:73: [Parse] expected ,, found )",
    ),
    (
        _H + "def f ^1 : Bool -> Bool = \\b. if b at x. Bool then b else b",
        "2:39: [Parse] expected (, found x",
    ),
    (
        _H + "def f ^1 : Bool -> Bool = \\b. if b at (3. Bool) then b else b",
        "2:40: [Parse] expected motive binder, found 3",
    ),
    (
        _H + "def f ^1 : Bool -> Bool = \\b. if b at (x Bool) then b else b",
        "2:42: [Parse] expected ., found Bool",
    ),
    (
        _H + "def f ^1 : List Bool -> Bool = \\xs. match xs { nil => true }",
        "2:60: [Parse] expected |, found }",
    ),
    (
        _H + "def f ^1 : List Bool -> Bool = \\xs. match xs { nil => true | cons(h, t) => h",
        "2:77: [Parse] expected }, found end of input",
    ),
    (_H + "def f ^0 : Id Bool true = refl true", "2:25: [Parse] expected a term, found '='"),
    (
        _H + "def f ^1 : Bool -> Bool = \\b. if b else false",
        "2:36: [Parse] expected then, found else",
    ),
    (
        _H + "def f ^1 : Bool * Bool -> Bool = \\p. let (a, b) = p a",
        "2:54: [Parse] expected in, found end of input",
    ),
    (_H + "def f ^1 : I -> Bool = \\u. let * u in true", "2:34: [Parse] expected =, found u"),
    (
        _H + "def f ^1 : Bool -> Bool = \\b. R^-1",
        "2:35: [Parse] expected a term, found 'end of input'",
    ),
]


@pytest.mark.parametrize("src, expected", DIAGNOSTICS, ids=range(len(DIAGNOSTICS)))
def test_diagnostic_text(src, expected):
    with pytest.raises(FrontendError) as e:
        resolve_module(parse_module(src))
    assert str(e.value) == "error at " + expected


def test_diagnostic_text_of_terms_and_nesting():
    for parse, text, expected in (
        (parse_term, "x )", "1:3: [Parse] trailing input at ')'"),
        (parse_term, "true false )", "1:12: [Parse] trailing input at ')'"),
        (parse_type, "Bool ->", "1:8: [Parse] expected a term, found 'end of input'"),
    ):
        with pytest.raises(FrontendError) as e:
            parse(text)
        assert str(e.value) == "error at " + expected
    # where the stack runs out depends on the caller's depth, not the input
    with pytest.raises(FrontendError) as e:
        parse_module(_H + "def f ^1 : Bool = " + "(" * 5000 + "true" + ")" * 5000)
    assert re.fullmatch(
        r"error at 2:\d+: \[Parse\] expression nested too deeply to parse", str(e.value)
    )


def test_declaration_spans():
    src = _H + "-- λ\ndef f ^1 : Bool = true  -- é\n\n  def g ^1 : Bool = f\r\n"
    src += "\tdef h ^1 : Bool = g"
    mod = parse_module(src)
    assert [str(d.span) for d in mod.decls] == ["3:1", "5:3", "6:2"]
    assert [str(d.span) for d in resolve_module(mod).decls] == ["3:1", "5:3", "6:2"]


def test_unicode_identifiers_are_accepted():
    for name in ("é", "x²", "x٣", "_'", "λ'"):
        (d,) = resolve_module(parse_module(f"{_H}def {name} ^1 : Bool = true")).decls
        assert d.name == name


# ---------------------------------------------------------------------------
# Pretty printing round trips

def _roundtrip(term, regime=CF, n_scope=0):
    # free variables print as positional names, so resolve under them
    scope = tuple(f"x{i}" for i in range(n_scope))
    text = pretty_term(term, depth=n_scope)
    back = resolve_term(text, regime, scope=scope)
    assert back == term, f"{text!r} resolved to {back!r}, wanted {term!r}"


def test_pretty_examples():
    assert pretty_term(Lam(Var(0))) == "\\x0. x0"
    assert pretty_type(Pi(1, BOOL_TY, BOOL_TY)) == "Bool -> Bool"
    ty = Pi(2, BOOL_TY, Tensor(1, BOOL_TY, BOOL_TY))
    assert resolve_type(pretty_type(ty), CF) == ty


def test_pretty_roundtrip_handpicked():
    n_scope = 3
    cases = [
        Lam(Var(0)),
        Lam(Lam(App(Var(1), Var(0)))),
        Pair(TrueC(), Pair(FalseC(), Star())),
        If(TrueC(), Nil(), Cons(TrueC(), Nil()), None),
        LetPair(DupNat(Var(1)), App(App(Var(4), Var(1)), Var(0)), None),
        RecNatCF(Var(1), TrueC(), If(Var(0), FalseC(), TrueC(), None), BOOL_TY),
        Ann(Lam(Var(0)), Pi(1, BOOL_TY, BOOL_TY)),
        ReflectIntro(Lam(Var(0))),
        ReflectElim(Var(0)),
        Refl(TrueC()),
        Fst(Pair(TrueC(), FalseC())),
        Snd(Var(2)),
        CodeTy(Tensor(1, NAT_TY, El(Var(0)))),
        SuccCF(SuccCF(ZeroCF())),
        MatchList(Nil(), TrueC(), Var(1), BOOL_TY),
    ]
    for t in cases:
        _roundtrip(t, CF, n_scope)


def test_pretty_roundtrip_lfpl():
    n_scope = 1
    cases = [
        RecNatL(Var(0), ZeroL(Var(0)), SuccL(Var(2), Var(0)), NAT_TY),
        SuccL(DiamondStar(), ZeroL(DiamondStar())),
        ZeroL(Star()),
    ]
    for t in cases:
        _roundtrip(t, LF, n_scope)


def _random_term(rng, depth, n_scope):
    opts = ["true", "false", "star", "nil"]
    if n_scope:
        opts += ["var"] * 3
    if depth > 0:
        opts += ["lam", "app", "pair", "if", "letpair", "letunit", "cons",
                 "dup", "succ", "match", "rec", "fst", "snd", "refl",
                 "rintro", "relim", "ann"]
    kind = rng.choice(opts)
    sub = lambda extra=0: _random_term(rng, depth - 1, n_scope + extra)
    if kind == "true":
        return TrueC()
    if kind == "false":
        return FalseC()
    if kind == "star":
        return Star()
    if kind == "nil":
        return Nil()
    if kind == "var":
        return Var(rng.randrange(n_scope))
    if kind == "lam":
        return Lam(sub(1))
    if kind == "app":
        return App(sub(), sub())
    if kind == "pair":
        return Pair(sub(), sub())
    if kind == "if":
        return If(sub(), sub(), sub(), None)
    if kind == "letpair":
        return LetPair(sub(), sub(2), None)
    if kind == "letunit":
        return LetUnit(sub(), sub(), None)
    if kind == "cons":
        return Cons(sub(), sub())
    if kind == "dup":
        return DupNat(sub())
    if kind == "succ":
        return SuccCF(sub())
    if kind == "match":
        return MatchList(sub(), sub(), sub(2), None)
    if kind == "rec":
        return RecNatCF(sub(), sub(), sub(2), BOOL_TY)
    if kind == "fst":
        return Fst(sub())
    if kind == "snd":
        return Snd(sub())
    if kind == "refl":
        return Refl(sub())
    if kind == "rintro":
        return ReflectIntro(sub())
    if kind == "relim":
        return ReflectElim(sub())
    return Ann(sub(), Pi(1, BOOL_TY, BOOL_TY))


def test_pretty_roundtrip_generated_terms():
    rng = random.Random(20230905)
    for i in range(1000):
        n_scope = rng.randrange(0, 3)
        t = _random_term(rng, 4, n_scope)
        _roundtrip(t, CF, n_scope)


def test_pretty_is_deterministic():
    t = Lam(Lam(App(Var(1), Var(0))))
    assert pretty_term(t) == pretty_term(t)


def test_printed_type_codes_read_back():
    # a scrutinee and a function are read at application level, so a code
    # there that is a tensor, and any code in function position, prints in
    # parentheses
    for text in (
        "if (Bool * Bool) then true else false",
        "rec (Bool * Nat) { zero => true | succ(m, p) => p }",
        "match (Nat * Bool) { nil => true | cons(h, t) => false }",
        "reclist (Nat * Bool) { nil => true | cons(h, t, p) => p }",
        "(Nat) true",
    ):
        t = resolve_term(text, CF)
        printed = pretty_term(t)
        assert resolve_term(printed, CF) == t, printed


# Every form of the syntax table, under both regimes.  The printer writes
# numerals without regard to the regime (ZeroCF and ZeroL(dia) both print
# as 0), so the consfree generator never pays a zero with dia and the lfpl
# one builds no ZeroCF; and a code that begins with a reflected type has no
# term-position spelling (R there is ReflectIntro), so none is generated.

def _random_type(rng, depth, n_scope, regime):
    opts = ["bool", "nat", "unit", "universe", "diamond"]
    if depth > 0:
        opts += ["pi", "dpi", "tensor", "dtensor", "list", "id", "el", "reflect"]
    kind = rng.choice(opts)
    ty = lambda extra=0: _random_type(rng, depth - 1, n_scope + extra, regime)
    tm = lambda: _random_form(rng, depth - 1, n_scope, regime)
    if kind in ("pi", "dpi", "tensor", "dtensor"):
        former = Pi if kind.endswith("pi") else Tensor
        usage = rng.randrange(3) if kind[0] == "d" else 1
        return former(usage, ty(), ty(1))
    if kind == "list":
        return ListTy(ty())
    if kind == "id":
        return IdTy(ty(), tm(), tm())
    if kind == "el":
        return El(tm())
    if kind == "reflect":
        return Reflect(ty())
    return {
        "bool": BOOL_TY, "nat": NAT_TY, "unit": UNIT_TY, "universe": UNIVERSE,
        "diamond": DIAMOND_TY,
    }[kind]


def _random_form(rng, depth, n_scope, regime):
    opts = ["true", "false", "star", "nil", "dia", "zero"]
    if n_scope:
        opts += ["var"] * 3
    if depth > 0:
        opts += ["lam", "app", "pair", "ann", "if", "letpair", "letunit", "rec",
                 "recl", "match", "reclist", "cons", "dup", "fst", "snd", "refl",
                 "rintro", "relim", "succ", "zerol", "succl", "code"]
    kind = rng.choice(opts)
    sub = lambda extra=0: _random_form(rng, depth - 1, n_scope + extra, regime)
    motive = lambda: _random_type(rng, depth - 1, n_scope + 1, regime) if rng.random() < 0.5 else None

    def pay():
        d = sub()
        return Star() if regime is CF and d == DiamondStar() else d

    if kind == "var":
        return Var(rng.randrange(n_scope))
    if kind == "zero":
        return ZeroCF() if regime is CF else ZeroL(DiamondStar())
    if kind == "code":
        ty = _random_type(rng, depth - 1, n_scope, regime)
        if pretty_type(ty, n_scope).lstrip("(").startswith("R"):
            return TrueC()
        return CodeTy(ty)
    make = {
        "true": TrueC, "false": FalseC, "star": Star, "nil": Nil, "dia": DiamondStar,
        "lam": lambda: Lam(sub(1)),
        "app": lambda: App(sub(), sub()),
        "pair": lambda: Pair(sub(), sub()),
        "ann": lambda: Ann(sub(), _random_type(rng, depth - 1, n_scope, regime)),
        "if": lambda: If(sub(), sub(), sub(), motive()),
        "letpair": lambda: LetPair(sub(), sub(2), motive()),
        "letunit": lambda: LetUnit(sub(), sub(), motive()),
        "rec": lambda: RecNatCF(sub(), sub(), sub(2), motive()),
        "recl": lambda: RecNatL(sub(), sub(1), sub(3), motive()),
        "match": lambda: MatchList(sub(), sub(), sub(2), motive()),
        "reclist": lambda: RecList(sub(), sub(), sub(3), motive()),
        "cons": lambda: Cons(sub(), sub()),
        "dup": lambda: DupNat(sub()),
        "fst": lambda: Fst(sub()),
        "snd": lambda: Snd(sub()),
        "refl": lambda: Refl(sub()),
        "rintro": lambda: ReflectIntro(sub()),
        "relim": lambda: ReflectElim(sub()),
        "succ": lambda: SuccCF(sub()),
        "zerol": lambda: ZeroL(pay()),
        "succl": lambda: SuccL(pay(), sub()),
    }
    return make[kind]()


def test_pretty_roundtrip_every_form():
    rng = random.Random(20261019)
    for regime in (CF, LF):
        for _ in range(600):
            n_scope = rng.randrange(0, 3)
            scope = tuple(f"x{i}" for i in range(n_scope))
            t = _random_form(rng, 4, n_scope, regime)
            _roundtrip(t, regime, n_scope)
            ty = _random_type(rng, 3, n_scope, regime)
            text = pretty_type(ty, n_scope)
            back = resolve_type(text, regime, scope=scope)
            assert back == ty, f"{text!r} resolved to {back!r}, wanted {ty!r}"


# ---------------------------------------------------------------------------
# Pinned printer output: each corpus and fixture module printed under its
# own pragma, and the 1,000 generated terms above, in tests/golden/printed/.


def _printed_module(mod) -> str:
    lines = [f"regime {mod.regime.value}"]
    for d in mod.decls:
        lines.append(f"def {d.name} ^{d.sigma} : {pretty_type(d.ty)} = {pretty_term(d.body)}")
    return "\n".join(lines) + "\n"


def test_printed_output_is_pinned(golden):
    paths = sorted(CORPUS.glob("*.qtt")) + sorted(FIXTURES.glob("*.qtt"))
    printed = []
    for path in paths:
        mod = resolve_module(parse_module(path.read_text()))
        text = _printed_module(mod)
        back = resolve_module(parse_module(text))
        assert [(d.name, d.sigma, d.ty, d.body) for d in back.decls] == [
            (d.name, d.sigma, d.ty, d.body) for d in mod.decls
        ], path.name
        printed.append(f"-- {path.name}\n{text}")
    rng = random.Random(20230905)
    terms = []
    for _ in range(1000):
        n_scope = rng.randrange(0, 3)
        terms.append(pretty_term(_random_term(rng, 4, n_scope), depth=n_scope))
    golden("printed", {"modules.txt": "".join(printed), "terms.txt": "\n".join(terms)})

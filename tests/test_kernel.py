import random

import pytest

from polyqtt.kernel import (
    CheckError,
    check_type,
    conv_type,
    elaborate,
    infer_usage_check,
    normalize_sigma0,
    normalize_type,
    _value,
    types_equal,
)
from polyqtt.syntax import (
    Ann,
    App,
    BOOL_TY,
    CodeTy,
    Cons,
    CtxEntry,
    DIAMOND_TY,
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
    has_free_var,
    nat_literal,
)

from conftest import fresh_python

CF = Regime.CONS_FREE
LF = Regime.LFPL


def entry(name, usage, ty):
    return CtxEntry(name, usage, ty)


# ---------------------------------------------------------------------------
# de Bruijn machinery: substitution is evaluation

def test_normalize_type_binds_the_innermost_indices():
    # args[0] is index 0, args[1] index 1; other free indices drop by the
    # number of arguments, also under binders
    two, three = nat_literal(CF, 2), nat_literal(CF, 3)
    eq = IdTy(NAT_TY, Var(0), Var(1))
    assert normalize_type(eq, (two, three)) == IdTy(NAT_TY, two, three)
    assert normalize_type(eq, (two,)) == IdTy(NAT_TY, two, Var(0))
    pi = Pi(1, NAT_TY, IdTy(NAT_TY, Var(0), Var(2)))
    assert normalize_type(pi, (two,)) == Pi(1, NAT_TY, IdTy(NAT_TY, Var(0), Var(1)))
    # a dependent result type computes at the argument, as run decodes it
    vec = El(RecNatCF(Var(0), CodeTy(UNIT_TY), CodeTy(Tensor(1, BOOL_TY, El(Var(1)))), UNIVERSE))
    want = Tensor(1, BOOL_TY, Tensor(1, BOOL_TY, UNIT_TY))
    assert normalize_type(vec, (two,)) == want
    # an argument the type does not read is not evaluated
    loop = App(Ann(Lam(Var(0)), Pi(1, BOOL_TY, BOOL_TY)), TrueC())
    assert normalize_type(BOOL_TY, (loop,), budget=0) == BOOL_TY
    with pytest.raises(CheckError) as e:
        normalize_type(IdTy(BOOL_TY, Var(0), Var(0)), (loop,), budget=0)
    assert e.value.rule == "Normalize"


def test_has_free_var_on_a_deep_chain():
    t = Lam(App(Var(0), Var(1)))
    assert has_free_var(t, 0) and not has_free_var(t, 1)
    # a motive binds one more index
    motive = If(Var(0), TrueC(), FalseC(), IdTy(BOOL_TY, Var(0), Var(1)))
    assert has_free_var(motive, 0) and not has_free_var(motive, 1)
    # 100,000 nested lambdas, in a fresh interpreter at the default
    # recursion limit: the walk keeps its own stack
    out = fresh_python(
        "-c",
        "import sys\n"
        "from polyqtt.syntax import Lam, Var, has_free_var\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "t = Var(100_000)\n"
        "for _ in range(100_000):\n"
        "    t = Lam(t)\n"
        "print(has_free_var(t, 0), has_free_var(t, 1))\n",
    )
    assert out.stdout.split() == ["True", "False"]


def test_deep_redex_chains_loop():
    # 100,000 nested if-redexes on the then-spine and 100,000 nested
    # annotations, normalised in a fresh interpreter at the default
    # recursion limit: each step continues the evaluator's loop
    out = fresh_python(
        "-c",
        "import sys\n"
        "from polyqtt.kernel import normalize_sigma0\n"
        "from polyqtt.syntax import BOOL_TY, Ann, FalseC, If, Regime, TrueC\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "t = a = FalseC()\n"
        "for _ in range(100_000):\n"
        "    t = If(TrueC(), t, TrueC())\n"
        "    a = Ann(a, BOOL_TY)\n"
        "print(normalize_sigma0(Regime.CONS_FREE, (), t))\n"
        "print(normalize_sigma0(Regime.CONS_FREE, (), a))\n",
    )
    assert out.stdout.split() == ["FalseC()", "FalseC()"]


def test_references_to_a_lambda_definition_share_one_value():
    ident = Global("ident", Pi(1, BOOL_TY, BOOL_TY), Lam(Var(0)))
    pair = _value((), Pair(ident, ident))
    assert pair.fst is pair.snd is _value((), ident)
    assert pair.fst == Lam(((), Var(0)))
    # the shared value takes no part in the definition's equality or repr
    assert ident == Global("ident", Pi(1, BOOL_TY, BOOL_TY), Lam(Var(0)))
    assert repr(ident) == "Global(name='ident')"
    # a definition of another form unfolds at each reference
    true = Global("true", BOOL_TY, TrueC())
    assert _value((), true) == TrueC() and true.value is None


# ---------------------------------------------------------------------------
# Simple checking

def test_identity_function_checks_linearly():
    t = Lam(Var(0))
    u = infer_usage_check(CF, (), 1, t, Pi(1, BOOL_TY, BOOL_TY))
    assert u == ()


def test_pair_of_same_variable_needs_usage_two():
    t = Lam(Pair(Var(0), Var(0)))
    ty = Pi(1, BOOL_TY, Tensor(1, BOOL_TY, BOOL_TY))
    with pytest.raises(CheckError) as e:
        infer_usage_check(CF, (), 1, t, ty)
    assert e.value.rule == "Tm-Lam"
    # a usage-2 annotation admits it
    infer_usage_check(CF, (), 1, t, Pi(2, BOOL_TY, Tensor(1, BOOL_TY, BOOL_TY)))
    # and in the erased fragment usage is unrestricted
    assert infer_usage_check(CF, (), 0, t, ty) == ()


def test_sigma0_inference_returns_zero_vector():
    ctx = (entry("x", 1, BOOL_TY), entry("y", 3, BOOL_TY))
    u = infer_usage_check(CF, ctx, 0, Pair(Var(0), Var(1)), Tensor(1, BOOL_TY, BOOL_TY))
    assert u == (0, 0)


def test_free_variable_usage_inferred_and_dominated():
    ctx = (entry("x", 1, BOOL_TY),)
    u = infer_usage_check(CF, ctx, 1, Var(0), BOOL_TY)
    assert u == (1,)
    with pytest.raises(CheckError) as e:
        infer_usage_check(CF, (entry("x", 0, BOOL_TY),), 1, Var(0), BOOL_TY)
    assert e.value.rule == "Sub"


def test_sub_usaging_allows_dropping():
    # a declared usage-1 binder may go unused (reverse ordering)
    t = Lam(TrueC())
    assert infer_usage_check(CF, (), 1, t, Pi(1, BOOL_TY, BOOL_TY)) == ()


def test_if_branches_share_resources():
    ctx = (entry("c", 1, BOOL_TY), entry("x", 1, BOOL_TY))
    t = If(Var(1), Var(0), Var(0), None)
    u = infer_usage_check(CF, ctx, 1, t, BOOL_TY)
    assert u == (1, 1)


def test_app_scales_argument_usage():
    # applying a usage-2 function to a variable consumes it twice
    ctx = (entry("f", 1, Pi(2, BOOL_TY, BOOL_TY)), entry("x", 2, BOOL_TY))
    u = infer_usage_check(CF, ctx, 1, App(Var(1), Var(0)), BOOL_TY)
    assert u == (1, 2)
    ctx_bad = (entry("f", 1, Pi(2, BOOL_TY, BOOL_TY)), entry("x", 1, BOOL_TY))
    with pytest.raises(CheckError):
        infer_usage_check(CF, ctx_bad, 1, App(Var(1), Var(0)), BOOL_TY)


def test_function_duplication_rejected():
    # \f. (f true, f true) needs two uses of f
    t = Lam(Pair(App(Var(0), TrueC()), App(Var(0), TrueC())))
    ty = Pi(1, Pi(1, BOOL_TY, BOOL_TY), Tensor(1, BOOL_TY, BOOL_TY))
    with pytest.raises(CheckError) as e:
        infer_usage_check(CF, (), 1, t, ty)
    assert e.value.rule == "Tm-Lam"


def test_erased_argument_component():
    # pair with usage-0 first component erases it
    ty = Tensor(0, BOOL_TY, BOOL_TY)
    ctx = (entry("x", 1, BOOL_TY),)
    u = infer_usage_check(CF, ctx, 1, Pair(Var(0), Var(0)), ty)
    assert u == (1,)  # the first component counts 0, the second 1


# ---------------------------------------------------------------------------
# Regime and fragment gating

def test_cons_free_constructors_sigma0_only():
    assert infer_usage_check(CF, (), 0, SuccCF(ZeroCF()), NAT_TY) == ()
    with pytest.raises(CheckError) as e:
        infer_usage_check(CF, (), 1, SuccCF(ZeroCF()), NAT_TY)
    assert e.value.rule == "Tm-CF-Succ"


def test_dupnat_both_fragments_cons_free_only():
    ctx = (entry("n", 1, NAT_TY),)
    ty = Tensor(1, NAT_TY, NAT_TY)
    assert infer_usage_check(CF, ctx, 1, DupNat(Var(0)), ty) == (1,)
    assert infer_usage_check(CF, ctx, 0, DupNat(Var(0)), ty) == (0,)
    with pytest.raises(CheckError) as e:
        infer_usage_check(LF, ctx, 1, DupNat(Var(0)), ty)
    assert e.value.rule == "Tm-CF-DupNat"


def test_diamond_gating():
    with pytest.raises(CheckError) as e:
        check_type(CF, (), DIAMOND_TY)
    assert e.value.rule == "Ty-Diamond"
    with pytest.raises(CheckError) as e:
        infer_usage_check(LF, (), 1, DiamondStar(), DIAMOND_TY)
    assert e.value.rule == "Tm-LFPL-Star"
    assert infer_usage_check(LF, (), 0, DiamondStar(), DIAMOND_TY) == ()


def test_lfpl_constructors_both_fragments():
    ctx = (entry("d", 1, DIAMOND_TY), entry("n", 1, NAT_TY))
    t = SuccL(Var(1), Var(0))
    assert infer_usage_check(LF, ctx, 1, t, NAT_TY) == (1, 1)
    assert infer_usage_check(LF, ctx, 0, t, NAT_TY) == (0, 0)
    with pytest.raises(CheckError) as e:
        infer_usage_check(CF, ctx, 1, t, NAT_TY)
    assert e.value.rule == "Tm-LFPL-Succ"


def test_rec_list_sigma0_only():
    t = RecList(Nil(), TrueC(), Var(0), BOOL_TY)
    assert (
        elaborate(CF, (entry("l", 0, ListTy(BOOL_TY)),), 0,
                  RecList(Var(0), TrueC(), Var(0), BOOL_TY), BOOL_TY)[0]
        == (0,)
    )
    with pytest.raises(CheckError) as e:
        elaborate(CF, (entry("l", 1, ListTy(BOOL_TY)),), 1,
                  RecList(Var(0), TrueC(), Var(0), BOOL_TY), BOOL_TY)
    assert e.value.rule == "Tm-List-Rec"


def test_rec_regime_mismatch():
    t = RecNatL(Var(0), ZeroL(Var(0)), Var(0), NAT_TY)
    with pytest.raises(CheckError) as e:
        elaborate(CF, (entry("n", 1, NAT_TY),), 1, t, NAT_TY)
    assert e.value.rule == "Tm-LFPL-Rec"
    t2 = RecNatCF(Var(0), TrueC(), Var(0), BOOL_TY)
    with pytest.raises(CheckError) as e:
        elaborate(LF, (entry("n", 1, NAT_TY),), 1, t2, BOOL_TY)
    assert e.value.rule == "Tm-CF-Rec"


def test_rec_branches_must_not_consume_ambient_resources():
    # succ branch consuming an ambient linear boolean is rejected
    ctx = (entry("n", 1, NAT_TY), entry("b", 1, BOOL_TY))
    t = RecNatCF(Var(1), TrueC(), Var(2), BOOL_TY)  # succ branch returns b
    with pytest.raises(CheckError) as e:
        elaborate(CF, ctx, 1, t, BOOL_TY)
    assert e.value.rule == "Tm-CF-Rec"
    # but referencing it at usage 0 (erased fragment) is fine
    assert elaborate(CF, ctx, 0, t, BOOL_TY)[0] == (0, 0)


def test_cons_free_rec_sigma1_checks():
    # rec n { zero => true | succ(m, p) => if p then false else true }
    ctx = (entry("n", 1, NAT_TY),)
    t = RecNatCF(Var(0), TrueC(), If(Var(0), FalseC(), TrueC(), None), BOOL_TY)
    assert elaborate(CF, ctx, 1, t, BOOL_TY)[0] == (1,)


def test_lfpl_rec_sigma1_checks():
    # rec n { zero(d) => zero(d) | succ(d, m, p) => succ(d, p) }  (rebuild)
    ctx = (entry("n", 1, NAT_TY),)
    t = RecNatL(Var(0), ZeroL(Var(0)), SuccL(Var(2), Var(0)), NAT_TY)
    assert elaborate(LF, ctx, 1, t, NAT_TY)[0] == (1,)


# ---------------------------------------------------------------------------
# Reflection

def test_reflect_intro_requires_realisable_premise():
    t = ReflectIntro(Lam(Var(0)))
    ty = Reflect(Pi(1, BOOL_TY, BOOL_TY))
    assert infer_usage_check(CF, (), 0, t, ty) == ()
    assert infer_usage_check(CF, (), 1, t, ty) == ()
    # a sigma-0-only body cannot be reflected
    bad = ReflectIntro(Ann(SuccCF(ZeroCF()), NAT_TY))
    with pytest.raises(CheckError):
        infer_usage_check(CF, (), 0, bad, Reflect(NAT_TY))


def test_reflect_elim_round_trip():
    ctx = (entry("r", 1, Reflect(BOOL_TY)),)
    # the unreflected type is Bool: it checks against Bool and nothing else
    u, _ = elaborate(CF, ctx, 1, ReflectElim(Var(0)), BOOL_TY)
    assert u == (1,)
    with pytest.raises(CheckError) as e:
        elaborate(CF, ctx, 1, ReflectElim(Var(0)), NAT_TY)
    assert e.value.rule == "Conv"


def test_reflect_inverse_equations():
    t = ReflectElim(ReflectIntro(TrueC()))
    assert normalize_sigma0(CF, (), t) == TrueC()
    t2 = ReflectIntro(ReflectElim(Var(0)))
    assert normalize_sigma0(CF, (), t2) == Var(0)


# ---------------------------------------------------------------------------
# Universe codes

def test_universe_code_and_el():
    code = CodeTy(BOOL_TY)
    assert infer_usage_check(CF, (), 0, code, UNIVERSE) == ()
    assert types_equal(El(code), BOOL_TY)


def test_no_code_for_universe():
    with pytest.raises(CheckError) as e:
        infer_usage_check(CF, (), 0, CodeTy(UNIVERSE), UNIVERSE)
    assert e.value.rule == "Tm-U-Code"


def test_computed_code_via_if():
    # \b. if b then Bool else Nat : Bool -> U, applied to true, equals Bool
    fn = Lam(If(Var(0), CodeTy(BOOL_TY), CodeTy(NAT_TY), UNIVERSE))
    ty = Pi(1, BOOL_TY, UNIVERSE)
    infer_usage_check(CF, (), 1, fn, ty)
    applied = El(App(Ann(fn, ty), TrueC()))
    assert types_equal(applied, BOOL_TY)


# ---------------------------------------------------------------------------
# Conversion and normalisation

def test_refl_at_a_computed_unit_type():
    # the equation's type is a code for the unit type: eta makes x = *
    ctx = (entry("x", 0, UNIT_TY),)
    for eq_ty in (UNIT_TY, El(CodeTy(UNIT_TY))):
        ty = IdTy(eq_ty, Var(0), Star())
        assert infer_usage_check(CF, ctx, 0, Refl(Var(0)), ty) == (0,)
        assert types_equal(ty, IdTy(UNIT_TY, Star(), Star()))


def test_dupnat_converts_to_pair_in_types():
    s = IdTy(NAT_TY, Fst(DupNat(Var(0))), ZeroCF())
    t = IdTy(NAT_TY, Var(0), ZeroCF())
    assert types_equal(s, t)


def test_if_beta():
    assert normalize_sigma0(CF, (), If(TrueC(), TrueC(), FalseC(), None)) == TrueC()
    assert normalize_sigma0(CF, (), If(FalseC(), TrueC(), FalseC(), None)) == FalseC()


def test_rec_cf_beta_addition():
    # addition via recursion: 2 + 3 = 5
    add = RecNatCF(nat_literal(CF, 2), nat_literal(CF, 3), SuccCF(Var(0)), NAT_TY)
    assert normalize_sigma0(CF, (), add) == nat_literal(CF, 5)
    # the outermost step sees the outermost predecessor
    pred = RecNatCF(nat_literal(CF, 3), ZeroCF(), Var(1), NAT_TY)
    assert normalize_sigma0(CF, (), pred) == nat_literal(CF, 2)


def test_rec_lfpl_beta():
    # rebuilding recursor applied to a literal gives the literal back
    t = RecNatL(nat_literal(LF, 3), ZeroL(Var(0)), SuccL(Var(2), Var(0)), NAT_TY)
    assert normalize_sigma0(LF, (), t) == nat_literal(LF, 3)
    pred = RecNatL(nat_literal(LF, 3), ZeroL(Var(0)), Var(1), NAT_TY)
    assert normalize_sigma0(LF, (), pred) == nat_literal(LF, 2)


def test_rec_lfpl_succ_branch_instance():
    t = RecNatL(
        SuccL(DiamondStar(), ZeroL(DiamondStar())),
        ZeroL(Var(0)),
        SuccL(Var(2), Var(0)),
        NAT_TY,
    )
    assert normalize_sigma0(LF, (), t) == nat_literal(LF, 1)


def test_diamond_collapse_in_constructors():
    # any diamond payment is definitionally the dummy diamond
    ctx = (entry("d", 0, DIAMOND_TY),)
    a = ZeroL(Var(0))
    assert normalize_sigma0(LF, ctx, a) == ZeroL(DiamondStar())


def test_type_directed_unit_and_diamond_eta():
    ctx = (entry("x", 0, UNIT_TY), entry("d", 0, DIAMOND_TY))
    assert normalize_sigma0(CF, ctx, Var(1), UNIT_TY) == Star()
    assert normalize_sigma0(LF, ctx, Var(0), DIAMOND_TY) == DiamondStar()


def test_pi_eta_contraction():
    ctx = (entry("f", 0, Pi(1, BOOL_TY, BOOL_TY)),)
    t = Lam(App(Var(1), Var(0)))
    assert normalize_sigma0(CF, ctx, t) == Var(0)


def test_pair_eta_surjective_pairing():
    ctx = (entry("p", 0, Tensor(1, BOOL_TY, BOOL_TY)),)
    t = Pair(Fst(Var(0)), Snd(Var(0)))
    assert normalize_sigma0(CF, ctx, t) == Var(0)


def test_match_and_rec_list_beta():
    l = Cons(TrueC(), Cons(FalseC(), Nil()))
    m = MatchList(l, FalseC(), Var(1), BOOL_TY)
    assert normalize_sigma0(CF, (), m) == TrueC()
    # or-fold over the list
    r = RecList(l, FalseC(), If(Var(2), TrueC(), Var(0), None), BOOL_TY)
    assert normalize_sigma0(CF, (), r) == TrueC()
    # a fold that rebuilds the list keeps its order
    copy = RecList(l, Nil(), Cons(Var(2), Var(0)), ListTy(BOOL_TY))
    assert normalize_sigma0(CF, (), copy) == l


def test_let_beta():
    t = LetPair(Pair(TrueC(), FalseC()), Var(0), None)
    assert normalize_sigma0(CF, (), t) == FalseC()
    t2 = LetPair(Pair(TrueC(), FalseC()), Var(1), None)
    assert normalize_sigma0(CF, (), t2) == TrueC()
    t3 = LetUnit(Star(), TrueC(), None)
    assert normalize_sigma0(CF, (), t3) == TrueC()


def test_normalization_budget():
    # an unbounded erased-fragment loop trips the budget
    omega_body = RecNatCF(Var(0), ZeroCF(), Var(0), NAT_TY)
    # self-application needs no recursor: (\x. x x) (\x. x x)
    w = Lam(App(Var(0), Var(0)))
    t = App(w, w)
    with pytest.raises(CheckError) as e:
        normalize_sigma0(CF, (), t, budget=1000)
    assert e.value.rule == "Normalize"


def test_conv_is_equivalence_on_corpus_like_types():
    tys = [
        BOOL_TY,
        Pi(1, BOOL_TY, BOOL_TY),
        Tensor(1, NAT_TY, BOOL_TY),
        ListTy(BOOL_TY),
        El(CodeTy(Pi(1, BOOL_TY, BOOL_TY))),
        Reflect(Pi(1, BOOL_TY, BOOL_TY)),
    ]
    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.choice(tys), rng.choice(tys)
        ab = types_equal(a, b)
        ba = types_equal(b, a)
        assert ab == ba  # symmetry
        assert types_equal(a, a)  # reflexivity
        for c in tys:  # transitivity
            if ab and types_equal(b, c):
                assert types_equal(a, c)


def test_conv_type_diagnostic():
    with pytest.raises(CheckError) as e:
        conv_type(BOOL_TY, NAT_TY)
    assert e.value.rule == "Conv"


# ---------------------------------------------------------------------------
# Zeroing admissibility and substitution stability (module-level samples;
# corpus-wide versions live in the acceptance suite)

def test_zeroing_admissibility_samples():
    samples = [
        (CF, (entry("n", 1, NAT_TY),), DupNat(Var(0)), Tensor(1, NAT_TY, NAT_TY)),
        (CF, (), Lam(Var(0)), Pi(1, BOOL_TY, BOOL_TY)),
        (
            LF,
            (entry("n", 1, NAT_TY),),
            RecNatL(Var(0), ZeroL(Var(0)), SuccL(Var(2), Var(0)), NAT_TY),
            NAT_TY,
        ),
    ]
    for regime, ctx, t, ty in samples:
        infer_usage_check(regime, ctx, 1, t, ty)
        zeroed = tuple(entry(e.name, 0, e.ty) for e in ctx)
        assert infer_usage_check(regime, zeroed, 0, t, ty) == (0,) * len(ctx)


def test_substitution_stability_sample():
    # the redex (\b. body) N checks and normalises as body[N/b] written
    # out does, and both normalise to the branch the conditional takes
    body = If(Var(0), FalseC(), TrueC(), None)
    ctx = (entry("b", 1, BOOL_TY),)
    elaborate(CF, ctx, 1, body, BOOL_TY)
    for n, branch in ((TrueC(), FalseC()), (FalseC(), TrueC())):
        redex = App(Ann(Lam(body), Pi(1, BOOL_TY, BOOL_TY)), n)
        written = If(n, FalseC(), TrueC(), None)
        assert elaborate(CF, (), 1, redex, BOOL_TY)[0] == ()
        assert elaborate(CF, (), 1, written, BOOL_TY)[0] == ()
        assert normalize_sigma0(CF, (), redex) == branch
        assert normalize_sigma0(CF, (), written) == branch


def test_usage_minimality_perturbation():
    # inferred vector is minimal: any strictly smaller declaration fails
    ctx = (entry("x", 2, BOOL_TY), entry("y", 1, BOOL_TY))
    t = Pair(Pair(Var(1), Var(1)), Var(0))
    ty = Tensor(1, Tensor(1, BOOL_TY, BOOL_TY), BOOL_TY)
    u = infer_usage_check(CF, ctx, 1, t, ty)
    assert u == (2, 1)
    for i in range(len(ctx)):
        if u[i] == 0:
            continue
        lowered = list(ctx)
        lowered[i] = entry(ctx[i].name, u[i] - 1, ctx[i].ty)
        with pytest.raises(CheckError):
            infer_usage_check(CF, tuple(lowered), 1, t, ty)


# ---------------------------------------------------------------------------
# Independent evaluator for closed erased-fragment terms over naturals
# and booleans, used as an oracle for the normaliser.

def _oracle_eval0(t, env=()):
    cls = t.__class__
    if cls is Ann:
        return _oracle_eval0(t.term, env)
    if cls is Var:
        return env[-1 - t.index]
    if cls is Lam:
        return ("clo", t.body, env)
    if cls is App:
        fn = _oracle_eval0(t.fn, env)
        arg = _oracle_eval0(t.arg, env)
        assert fn[0] == "clo"
        return _oracle_eval0(fn[1], fn[2] + (arg,))
    if cls is TrueC:
        return True
    if cls is FalseC:
        return False
    if cls is ZeroCF:
        return 0
    if cls is SuccCF:
        return _oracle_eval0(t.pred, env) + 1
    if cls is If:
        return _oracle_eval0(
            t.then_branch if _oracle_eval0(t.scrut, env) else t.else_branch, env
        )
    if cls is Pair:
        return ("pair", _oracle_eval0(t.fst, env), _oracle_eval0(t.snd, env))
    if cls is LetPair:
        p = _oracle_eval0(t.scrut, env)
        assert p[0] == "pair"
        return _oracle_eval0(t.body, env + (p[1], p[2]))
    if cls is DupNat:
        v = _oracle_eval0(t.arg, env)
        return ("pair", v, v)
    if cls is Fst:
        return _oracle_eval0(t.pair, env)[1]
    if cls is Snd:
        return _oracle_eval0(t.pair, env)[2]
    if cls is RecNatCF:
        n = _oracle_eval0(t.scrut, env)
        acc = _oracle_eval0(t.zero_branch, env)
        for _ in range(n):
            acc = _oracle_eval0(t.succ_branch, env + (None, acc))
        return acc
    raise AssertionError(f"oracle cannot evaluate {cls.__name__}")


def _reify_nat(t):
    n = 0
    while isinstance(t, SuccCF):
        n += 1
        t = t.pred
    assert isinstance(t, ZeroCF)
    return n


def test_normaliser_matches_independent_evaluator():
    # closed arithmetic programs evaluated two ways
    def lit(n):
        t = ZeroCF()
        for _ in range(n):
            t = SuccCF(t)
        return t

    add = Lam(Lam(RecNatCF(Var(1), Var(0), SuccCF(Var(0)), NAT_TY)))
    add_ty = Pi(0, NAT_TY, Pi(0, NAT_TY, NAT_TY))
    double = Lam(App(App(Ann(add, add_ty), Var(0)), Var(0)))
    rng = random.Random(27)
    for _ in range(60):
        a, b = rng.randrange(0, 12), rng.randrange(0, 12)
        prog = App(App(Ann(add, add_ty), lit(a)), lit(b))
        nf = normalize_sigma0(CF, (), prog)
        assert _reify_nat(nf) == _oracle_eval0(prog) == a + b
        prog2 = App(Ann(double, Pi(0, NAT_TY, NAT_TY)), lit(a))
        assert _reify_nat(normalize_sigma0(CF, (), prog2)) == _oracle_eval0(prog2) == 2 * a
        # a conditional over a recursion
        prog3 = If(
            RecNatCF(lit(a), TrueC(), If(Var(0), FalseC(), TrueC(), None), BOOL_TY),
            lit(b),
            SuccCF(lit(b)),
            None,
        )
        assert _reify_nat(normalize_sigma0(CF, (), prog3)) == _oracle_eval0(prog3)


def test_context_helpers():
    from polyqtt.syntax import usage_add, usage_scale

    assert usage_add((1, 0), (0, 2)) == (1, 2)
    assert usage_scale(0, (3, 1)) == (0, 0)
    assert usage_scale(2, (1, 1)) == (2, 2)
    with pytest.raises(ValueError):
        usage_add((1,), (1, 2))


def test_rec_lfpl_beta_at_universe_motive():
    # a type-level recursion over a literal reduces to its successor
    # branch instance
    from polyqtt.syntax import CodeTy, El, Tensor, UNIVERSE

    # inside the tensor's second component the previous-result binder
    # sits under the component binder, hence index 1
    branch = CodeTy(Tensor(1, BOOL_TY, El(Var(1))))
    vec = RecNatL(
        SuccL(DiamondStar(), ZeroL(DiamondStar())),
        CodeTy(UNIT_TY),
        branch,
        UNIVERSE,
    )
    nf = normalize_sigma0(LF, (), vec)
    assert nf == CodeTy(Tensor(1, BOOL_TY, UNIT_TY))
    assert types_equal(El(vec), Tensor(1, BOOL_TY, UNIT_TY))


def test_normalisation_idempotent_on_random_terms():
    import sys
    sys.path.insert(0, "tests")
    from test_frontend import _random_term

    rng = random.Random(424242)
    done = 0
    for _ in range(300):
        t = _random_term(rng, 4, 2)
        ctx = (entry("a", 0, BOOL_TY), entry("b", 0, BOOL_TY))
        try:
            once = normalize_sigma0(CF, ctx, t, budget=20_000)
        except CheckError:
            continue  # budget trip on a divergent untyped shape
        assert normalize_sigma0(CF, ctx, once, budget=20_000) == once
        done += 1
    assert done > 200


def test_definition_bodies_checked_once_per_fragment(monkeypatch):
    # a reference is the definition's one node: in a depth-12 fan-out
    # chain g0 is used 4096 times, but its body is checked once per fragment
    import polyqtt.kernel as kernel_mod
    from polyqtt.frontend import parse_module, resolve_module

    from conftest import fanout_chain

    mod = resolve_module(parse_module(fanout_chain(12)))
    names = {id(d.body): d.name for d in mod.decls}
    counts = {}
    real = kernel_mod.check

    def counting(regime, ctx, sigma, t, ty):
        if id(t) in names:
            key = (names[id(t)], sigma)
            counts[key] = counts.get(key, 0) + 1
        return real(regime, ctx, sigma, t, ty)

    monkeypatch.setattr(kernel_mod, "check", counting)
    drive = mod.decls[-1]
    for sigma in (1, 0):
        kernel_mod.elaborate(mod.regime, (), sigma, drive.body, drive.ty)
    assert counts == {(d.name, s): 1 for d in mod.decls for s in (0, 1)}


def test_declared_types_evaluated_once(monkeypatch):
    # in a depth-12 fan-out chain each g_i is referenced twice per
    # fragment, but its declared type is evaluated once, into its body's
    # record; drive, referenced by nothing, is evaluated as elaborate's
    # target once, for both fragments
    import polyqtt.kernel as kernel_mod
    from polyqtt.frontend import parse_module, resolve_module

    from conftest import fanout_chain

    mod = resolve_module(parse_module(fanout_chain(12)))
    names = {id(d.ty): d.name for d in mod.decls}
    assert len(names) == len(mod.decls)
    counts = {}
    real = kernel_mod._value

    def counting(ctx, t):
        if id(t) in names:
            counts[names[id(t)]] = counts.get(names[id(t)], 0) + 1
        return real(ctx, t)

    monkeypatch.setattr(kernel_mod, "_value", counting)
    drive = mod.decls[-1]
    for sigma in (1, 0):
        kernel_mod.elaborate(mod.regime, (), sigma, drive.body, drive.ty)
    assert counts == {d.name: 1 for d in mod.decls}


def test_library_path_checks_each_body_once(monkeypatch):
    # the library path checks every declaration at its fragment and then
    # compiles every runtime one; references and compile_declaration reach
    # each body's one record, so each (name, fragment) is checked once
    import polyqtt.kernel as kernel_mod
    from polyqtt.compiler import compile_declaration
    from polyqtt.frontend import parse_module, resolve_module

    from conftest import CORPUS

    for name in ("consfree_iter.qtt", "lfpl_iter.qtt", "lfpl_sort.qtt"):
        mod = resolve_module(parse_module((CORPUS / name).read_text()))
        names = {id(d.body): d.name for d in mod.decls}
        counts = {}
        real = kernel_mod.check

        def counting(regime, ctx, sigma, t, ty, real=real):
            if id(t) in names:
                key = (names[id(t)], sigma)
                counts[key] = counts.get(key, 0) + 1
            return real(regime, ctx, sigma, t, ty)

        monkeypatch.setattr(kernel_mod, "check", counting)
        for d in mod.decls:
            infer_usage_check(mod.regime, (), d.sigma, d.body, d.ty)
        for d in mod.decls:
            if d.sigma == 1:
                compile_declaration(mod.regime, d.ty, d.body)
        monkeypatch.undo()
        assert counts == {(d.name, d.sigma): 1 for d in mod.decls}, name


def test_library_path_evaluates_each_declared_type_once(monkeypatch):
    # the library path checks every declaration and then compiles every
    # runtime one: elaborate, every reference and the compiler's input
    # arity read the one value the body's record keeps
    import polyqtt.kernel as kernel_mod
    from polyqtt.compiler import compile_declaration
    from polyqtt.frontend import parse_module, resolve_module

    from conftest import CORPUS

    for name, count in (("consfree_iter.qtt", 13), ("lfpl_sort.qtt", 6)):
        mod = resolve_module(parse_module((CORPUS / name).read_text()))
        declared = {id(d.ty) for d in mod.decls}
        evaluated = []
        real = kernel_mod._value

        def counting(ctx, t, real=real):
            if id(t) in declared:
                evaluated.append(t)
            return real(ctx, t)

        monkeypatch.setattr(kernel_mod, "_value", counting)
        for d in mod.decls:
            infer_usage_check(mod.regime, (), d.sigma, d.body, d.ty)
        for d in mod.decls:
            if d.sigma == 1:
                compile_declaration(mod.regime, d.ty, d.body)
        monkeypatch.undo()
        assert len(mod.decls) == len(evaluated) == count, name


def test_references_to_a_constant_body_reuse_its_definition_record(monkeypatch):
    # a constant body is one node every parse shares, so its definition
    # node keeps its record: however often it is referenced, its type is
    # evaluated and the constant checked a fixed number of times
    import polyqtt.kernel as kernel_mod
    from polyqtt.compiler import compile_declaration
    from polyqtt.frontend import parse_module, resolve_module

    def counts(k):
        text = "regime consfree\ndef xs ^1 : List Bool = nil\n" + "".join(
            f"def u{i} ^1 : Bool -> List Bool = \\b. if b then xs else cons true xs\n"
            for i in range(k)
        )
        mod = resolve_module(parse_module(text))
        xs = mod.decls[0]
        names = {id(d.ty): d.name for d in mod.decls}
        seen = {}
        real_value, real_check = kernel_mod._value, kernel_mod.check

        def value(ctx, t):
            if id(t) in names:
                seen[names[id(t)]] = seen.get(names[id(t)], 0) + 1
            return real_value(ctx, t)

        def check(regime, ctx, sigma, t, ty):
            if t is xs.body:
                seen["nil checks"] = seen.get("nil checks", 0) + 1
            return real_check(regime, ctx, sigma, t, ty)

        monkeypatch.setattr(kernel_mod, "_value", value)
        monkeypatch.setattr(kernel_mod, "check", check)
        for d in mod.decls:
            infer_usage_check(mod.regime, (), d.sigma, d.body, d.ty)
        for d in mod.decls:
            compile_declaration(mod.regime, d.ty, d.body)
        monkeypatch.undo()
        assert all(seen[d.name] == 1 for d in mod.decls[1:])
        return seen["xs"], seen["nil checks"]

    assert counts(2) == counts(40)


def test_check_record_is_keyed_by_type_regime_and_fragment():
    # one node checked against two types: the record of one type is no
    # verdict on the other, in either order and however often it is asked
    linear, erased = Pi(1, BOOL_TY, BOOL_TY), Pi(0, BOOL_TY, BOOL_TY)
    for order in ((linear, erased), (erased, linear)):
        ident = Lam(Var(0))
        for _ in range(2):
            for ty in order:
                if ty is linear:
                    assert elaborate(CF, (), 1, ident, ty) == ((), ident)
                else:
                    with pytest.raises(CheckError) as e:
                        elaborate(CF, (), 1, ident, ty)
                    assert e.value.rule == "Tm-Lam"
        ty, _, entries = ident._checked
        assert ty is linear and entries == {(CF, 1): ident}
    # one constant body checks under both regimes and both fragments, and
    # keeps no record: every parse shares its node
    from polyqtt.frontend import resolve_term

    const = resolve_term("true", CF)
    for regime in (CF, LF):
        for sigma in (0, 1):
            assert elaborate(regime, (), sigma, const, BOOL_TY) == ((), const)
    assert resolve_term("true", LF) is const and not hasattr(const, "_checked")


def test_erased_definition_used_at_runtime():
    # a ^0 definition may be used in runtime code exactly when its body
    # also checks in the runtime fragment, however often it is checked
    from polyqtt.frontend import parse_module, resolve_module

    src = """regime consfree
def keep ^0 : Bool -> Bool = \\b. b
def twice ^0 : Bool -> Bool * Bool = \\b. (b, b)
def first ^0 : Bool * Bool -> Bool = \\p. fst p
def f ^1 : Bool -> Bool = \\b. keep b
def g ^1 : Bool -> Bool * Bool = \\b. twice b
def h ^1 : Bool * Bool -> Bool = \\p. first p
"""
    *_, f, g, h = resolve_module(parse_module(src)).decls
    for _ in range(2):
        assert infer_usage_check(CF, (), 1, f.body, f.ty) == ()
        # a failed check is kept, so it fails again with the same rule
        for d, rule in ((g, "Tm-Lam"), (h, "Tm-Fst")):
            assert infer_usage_check(CF, (), 0, d.body, d.ty) == ()
            with pytest.raises(CheckError) as e:
                infer_usage_check(CF, (), 1, d.body, d.ty)
            assert e.value.rule == rule

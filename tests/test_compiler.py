import pytest

from polyqtt import machine as m
from polyqtt import potentials as pot
from polyqtt.compiler import (
    BoundReport,
    EnvLayout,
    compile_declaration,
    compile_rec_consfree,
    compile_term,
    extract_bound,
    run_and_verify,
    sabotage,
)
from polyqtt.kernel import CheckError, elaborate, normalize_sigma0
from polyqtt.potentials import ExtNat, MonoidKind, Poly
from polyqtt.syntax import (
    App,
    BOOL_TY,
    Ann,
    Cons,
    DupNat,
    FalseC,
    If,
    Lam,
    ListTy,
    NAT_TY,
    Nil,
    Pi,
    RecNatCF,
    RecNatL,
    Regime,
    SuccCF,
    SuccL,
    TrueC,
    Var,
    ZeroCF,
    ZeroL,
)

CF = Regime.CONS_FREE
LF = Regime.LFPL


def core(regime, term, ty):
    """The core term of a closed runtime-fragment term."""
    return elaborate(regime, (), 1, term, ty)[1]


def checked_program(regime, ty, body):
    # compile_declaration checks the body before compiling it
    return compile_declaration(regime, ty, body)


# negate-accumulator parity program: rec n { zero => true | succ => not p }
PARITY_BODY = Lam(
    RecNatCF(Var(0), TrueC(), If(Var(0), FalseC(), TrueC(), None), BOOL_TY)
)
PARITY_TY = Pi(1, NAT_TY, BOOL_TY)

# payment-regime rebuild: rec n { zero(d) => zero(d) | succ(d, m, p) => succ(d, p) }
REBUILD_BODY = Lam(
    RecNatL(Var(0), ZeroL(Var(0)), SuccL(Var(2), Var(0)), NAT_TY)
)
REBUILD_TY = Pi(1, NAT_TY, NAT_TY)


def test_identity_function_compiles_and_runs_within_potential():
    body = Lam(Var(0))
    ty = Pi(1, BOOL_TY, BOOL_TY)
    env = EnvLayout((), 0)
    code, gamma = compile_term(CF, env, core(CF, body, ty))
    assert pot.in_submonoid(gamma)
    # the bare program evaluates to a closure within its own potential
    out = m.eval_expr(code, (), 1000)
    assert isinstance(out, m.Done)
    avail = pot.diff(MonoidKind.MAX_POLY, gamma, pot.EMPTY)
    assert ExtNat.fin(out.steps) <= avail
    # applied to true through a four-instruction harness
    harness = m.Seq(code, m.Seq(m.MkTrue(), m.App(1, 0)))
    out = m.eval_expr(harness, (), 1000)
    assert out.value == m.TRUE
    assert ExtNat.fin(out.steps) <= avail + ExtNat.fin(4)


def test_identity_on_naturals_decodes_input():
    p = checked_program(CF, Pi(1, NAT_TY, NAT_TY), Lam(Var(0)))
    r = run_and_verify(p, 7)
    assert r.ok and m.decode_nat(r.value) == 7


def test_dup_costs_exactly_one_step():
    env = EnvLayout((0,), 1)
    code, gamma = compile_term(CF, env, DupNat(Var(0)))
    assert code == m.MkPair(0, 0)
    out = m.eval_expr(code, (m.nat_value(5),), 10)
    assert out == m.Done(m.VPair(m.nat_value(5), m.nat_value(5)), 1)
    assert gamma == pot.acct(MonoidKind.MAX_POLY, 1)


def test_nil_builds_tagged_pair():
    env = EnvLayout((), 0)
    code, gamma = compile_term(CF, env, core(CF, Nil(), ListTy(BOOL_TY)))
    out = m.eval_expr(code, (), 100)
    assert out.value == m.VPair(m.FALSE, m.UNIT)
    assert out.steps == 5 and gamma == pot.acct(MonoidKind.MAX_POLY, 5)


def test_cons_encoding_and_exact_admin_cost():
    env = EnvLayout((), 0)
    term = Ann(Cons(TrueC(), Nil()), ListTy(BOOL_TY))
    code, gamma = compile_term(CF, env, core(CF, term, ListTy(BOOL_TY)))
    out = m.eval_expr(code, (), 100)
    assert out.value == m.encode_list([m.TRUE])
    # head 1 + nil 5 + seven administrative steps
    assert out.steps == 13


def test_parity_program_exact_steps_and_bound():
    p = checked_program(CF, PARITY_TY, PARITY_BODY)
    report = extract_bound(p)
    # derived by instruction counting of the emitted shape
    for n in (0, 1, 3, 10):
        r = run_and_verify(p, n)
        assert r.outcome == "done"
        assert r.steps == 10 * n + 11
        assert r.ok
        assert m.decode_bool(r.value) == (n % 2 == 0)
    # input 3 evaluates to false (three negations of true)
    assert m.decode_bool(run_and_verify(p, 3).value) is False


def test_rec_consfree_zero_case_within_base_cost():
    p = checked_program(CF, PARITY_TY, PARITY_BODY)
    r = run_and_verify(p, 0)
    q = extract_bound(p)
    assert r.ok and r.steps <= q.poly(1)


def test_rec_assembly_direct():
    # zero branch: constant true; succ branch: negate the accumulated value.
    # The branches run at fixed offsets documented in the assembler; build
    # them directly to pin the potential recipe.
    zero_code = m.MkTrue()
    succ_code = m.Seq(m.Var(0), m.If(0, m.MkFalse(), m.MkTrue()))
    kind = MonoidKind.MAX_POLY
    code, potential = compile_rec_consfree(
        m.Var(0),
        pot.acct(kind, 1),
        zero_code,
        pot.acct(kind, 1),
        succ_code,
        pot.acct(kind, 4),
    )
    for n in (0, 1, 4):
        out = m.eval_expr(code, (m.nat_value(n),), 100000)
        assert isinstance(out, m.Done)
        assert m.decode_bool(out.value) == (n % 2 == 0)
        fuel = pot.diff(kind, pot.plus(kind, potential, pot.size(n + 1)), pot.EMPTY)
        assert ExtNat.fin(out.steps) <= fuel


def test_lfpl_rebuild_decodes_and_verifies():
    p = checked_program(LF, REBUILD_TY, REBUILD_BODY)
    for n in (0, 1, 5, 12):
        r = run_and_verify(p, n)
        assert r.ok and m.decode_nat(r.value) == n


def test_lfpl_zero_only_program():
    # rec n { zero(d) => zero(d) | succ(d, m, p) => zero(d) }  (result 0)
    body = Lam(RecNatL(Var(0), ZeroL(Var(0)), ZeroL(Var(2)), NAT_TY))
    p = checked_program(LF, Pi(1, NAT_TY, NAT_TY), body)
    for n in (0, 3, 9):
        r = run_and_verify(p, n)
        assert r.ok and m.decode_nat(r.value) == 0


def test_bound_report_examples():
    assert BoundReport(Poly([2]), CF, 1).bound_at(10) == 2
    assert BoundReport(Poly([0, 3]), CF, 1).bound_at(4) == 15  # 3 * (n + 1)
    assert BoundReport(Poly([7]), CF, 0).bound_at(99) == 7


def test_sabotaged_potential_fails_verification():
    p = checked_program(CF, PARITY_TY, PARITY_BODY)
    bad = sabotage(p)
    assert not run_and_verify(bad, 10).ok
    assert run_and_verify(p, 10).ok


def test_program_potential_in_submonoid():
    for regime, ty, body in (
        (CF, PARITY_TY, PARITY_BODY),
        (LF, REBUILD_TY, REBUILD_BODY),
    ):
        p = checked_program(regime, ty, body)
        assert pot.in_submonoid(p.potential)


def test_agreement_with_erased_normalisation():
    # machine output equals the erased-fragment normal form of the
    # applied term (parity program, cons-free literals)
    p = checked_program(CF, PARITY_TY, PARITY_BODY)
    for n in range(8):
        lit = ZeroCF()
        for _ in range(n):
            lit = SuccCF(lit)
        applied = App(Ann(PARITY_BODY, PARITY_TY), lit)
        nf = normalize_sigma0(CF, (), applied)
        want = TrueC() if n % 2 == 0 else FalseC()
        assert nf == want
        got = m.decode_bool(run_and_verify(p, n).value)
        assert got == (n % 2 == 0)


def test_erased_subterms_compile_to_dummies():
    # a usage-0 argument is replaced by a unit dummy
    fn = Lam(TrueC())
    ty = Pi(0, NAT_TY, BOOL_TY)
    body = App(Ann(fn, ty), ZeroCF())
    env = EnvLayout((), 0)
    code, gamma = compile_term(CF, env, core(CF, body, BOOL_TY))
    out = m.eval_expr(code, (), 100)
    assert out.value == m.TRUE
    # the argument contributes exactly one dummy step
    assert out.steps == 1 + 1 + 1 + 1 + 1 + 1  # lam, seq, unit, seq, app, body


def test_usage_two_argument_potential_scaled():
    # applying a usage-2 function deposits the argument potential twice
    flip = Ann(
        Lam(If(Var(0), FalseC(), TrueC(), None)), Pi(1, BOOL_TY, BOOL_TY)
    )
    fn_ty = Pi(2, Pi(1, BOOL_TY, BOOL_TY), Pi(1, BOOL_TY, BOOL_TY))
    twice = Ann(Lam(Lam(App(Var(1), App(Var(1), Var(0))))), fn_ty)
    applied = core(CF, App(twice, flip), Pi(1, BOOL_TY, BOOL_TY))
    env = EnvLayout((), 0)
    _, gamma_flip = compile_term(CF, env, applied.arg)
    _, gamma_twice = compile_term(CF, env, applied.fn)
    _, gamma_app = compile_term(CF, env, applied)
    kind = MonoidKind.MAX_POLY
    want = pot.plus(
        kind,
        pot.plus(kind, gamma_twice, pot.n_action(kind, 2, gamma_flip)),
        pot.acct(kind, 3),
    )
    assert gamma_app == want
    # and the double application runs within the potential end to end
    code, gamma = compile_term(CF, env, applied)
    harness = m.Seq(code, m.Seq(m.MkTrue(), m.App(1, 0)))
    out = m.eval_expr(harness, (), 10_000)
    assert out.value == m.TRUE  # two flips cancel
    avail = pot.diff(kind, gamma, pot.EMPTY)
    assert ExtNat.fin(out.steps) <= avail + ExtNat.fin(4)


def test_erased_pair_component_compiles_to_dummy():
    from polyqtt.syntax import LetPair, Pair, Tensor, ZeroCF

    # the erased first component occupies a unit dummy slot
    pair = Ann(Pair(ZeroCF(), TrueC()), Tensor(0, NAT_TY, BOOL_TY))
    term = LetPair(pair, Var(0), None)
    env = EnvLayout((), 0)
    code, gamma = compile_term(CF, env, core(CF, term, BOOL_TY))
    out = m.eval_expr(code, (), 100)
    assert out.value == m.TRUE
    assert ExtNat.fin(out.steps) <= pot.diff(MonoidKind.MAX_POLY, gamma, pot.EMPTY)


def test_equation_witness_compiles_to_dummy():
    from polyqtt.syntax import IdTy, Refl

    term = Refl(TrueC())
    ty = IdTy(BOOL_TY, TrueC(), TrueC())
    env = EnvLayout((), 0)
    code, gamma = compile_term(CF, env, core(CF, term, ty))
    assert m.eval_expr(code, (), 10) == m.Done(m.UNIT, 1)


def test_compile_declaration_checks_its_input():
    # f is used twice under a usage-1 binder: the checker's Tm-Lam
    # rejection, not a program with a potential
    ty = Pi(1, Pi(1, BOOL_TY, BOOL_TY), BOOL_TY)
    body = Lam(App(Var(0), App(Var(0), TrueC())))
    with pytest.raises(CheckError) as e:
        compile_declaration(CF, ty, body)
    assert e.value.rule == "Tm-Lam"

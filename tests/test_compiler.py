import random

import pytest

from polyqtt import machine as m
from polyqtt.compiler import (
    BoundReport,
    EnvLayout,
    assemble_rec,
    compile_declaration,
    compile_term,
    extract_bound,
    run_and_verify,
    sabotage,
)
from polyqtt.kernel import CheckError, elaborate, normalize_sigma0
from polyqtt.potentials import Poly
from polyqtt.syntax import (
    App,
    BOOL_TY,
    Ann,
    CodeTy,
    Cons,
    CtxEntry,
    DIAMOND_TY,
    DupNat,
    FalseC,
    IdTy,
    If,
    Lam,
    LetPair,
    LetUnit,
    ListTy,
    NAT_TY,
    Nil,
    Pair,
    Pi,
    RecNatCF,
    RecNatL,
    Refl,
    Regime,
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

import monoids as pot
from monoids import ExtNat, MonoidKind, Potential

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
    code, q = compile_term(CF, env, core(CF, body, ty))
    gamma = Potential(0, q)
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
    assert gamma == Poly((1,))


def test_nil_builds_tagged_pair():
    env = EnvLayout((), 0)
    code, gamma = compile_term(CF, env, core(CF, Nil(), ListTy(BOOL_TY)))
    out = m.eval_expr(code, (), 100)
    assert out.value == m.VPair(m.FALSE, m.UNIT)
    assert out.steps == 5 and gamma == Poly((5,))


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
    code, q = assemble_rec(
        CF,
        (m.Var(0), Poly((1,))),
        (zero_code, Poly((1,))),
        (succ_code, Poly((4,))),
    )
    potential = Potential(0, q)
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


def test_bound_is_the_monoid_reading():
    # read as the monoid element (0, q), with an input of size n + 1, the
    # program potential makes exactly the reported bound available
    from conftest import CORPUS, compiled, load_corpus

    checked = 0
    for path in sorted(CORPUS.glob("*.qtt")):
        for d in load_corpus(path.name).decls:
            if d.sigma != 1:
                continue
            p = compiled(path.name, d.name)
            if p.input_arity != 1:
                continue
            report = extract_bound(p)
            for kind in (MonoidKind.MAX_POLY, MonoidKind.PLUS_POLY):
                for n in range(11):
                    fuel = pot.plus(kind, pot.size(n + 1), Potential(0, p.potential))
                    want = ExtNat.fin(report.bound_at(n))
                    assert pot.diff(kind, fuel, pot.EMPTY) == want, (d.name, kind, n)
            checked += 1
    assert checked == 14


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
    gamma_flip = Potential(0, compile_term(CF, env, applied.arg)[1])
    gamma_twice = Potential(0, compile_term(CF, env, applied.fn)[1])
    gamma_app = Potential(0, compile_term(CF, env, applied)[1])
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
    avail = pot.diff(kind, Potential(0, gamma), pot.EMPTY)
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
    assert ExtNat.fin(out.steps) <= pot.diff(MonoidKind.MAX_POLY, Potential(0, gamma), pot.EMPTY)


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


def test_compile_declaration_reports_deep_nesting():
    # an unchecked body nested past the host stack is the checker's
    # [Check] diagnostic, not a RecursionError
    body = TrueC()
    for _ in range(5000):
        body = If(TrueC(), body, FalseC())
    with pytest.raises(CheckError) as e:
        compile_declaration(CF, BOOL_TY, body)
    assert e.value.rule == "Check"


# --- exact potentials on branch-free code ----------------------------------
#
# Without a conditional, a list match or a recursor, every emitted
# instruction runs exactly once, so the potential the compiler sums from
# its code must equal the measured step count, not merely bound it.

_ID_BOOL = IdTy(BOOL_TY, TrueC(), TrueC())
_LIST_BOOL = ListTy(BOOL_TY)
_NAT_FREE = [UNIT_TY, BOOL_TY, _LIST_BOOL]


def _exact_term(rng, ty, depth, scope, pool):
    """A runtime term of type ty without branching code.

    `scope` counts the variables in scope and `pool` holds the levels of
    the context's diamonds not spent yet.  Every natural spends a diamond,
    so a term of type Nat asks for at most one subterm of type Nat.
    """

    def sub(t, binders=0, p=pool):
        return _exact_term(rng, t, depth - 1, scope + binders, p)

    nat = ty == NAT_TY
    r = rng.random() if depth > 0 else 1.0
    if r < 0.2:
        # a usage-1 function applied once: the identity, or a body that
        # ignores its argument
        arg_ty = ty if nat else rng.choice([ty] + _NAT_FREE)
        if arg_ty == ty and (nat or rng.random() < 0.5):
            body = Var(0)
        else:
            body = sub(ty, 1)
        return App(Ann(Lam(body), Pi(1, arg_ty, ty)), sub(arg_ty))
    if r < 0.27:
        # an erased argument
        return App(Ann(Lam(sub(ty, 1)), Pi(0, BOOL_TY, ty)), TrueC())
    if r < 0.42:
        usage = rng.choice([0, 1])
        fst_ty = rng.choice(_NAT_FREE + ([] if nat else [ty]))
        snd_ty = ty if nat else rng.choice([ty, UNIT_TY])
        pair_ty = Tensor(usage, fst_ty, snd_ty)
        scrut = Ann(sub(pair_ty), pair_ty)
        if snd_ty == ty and (nat or rng.random() < 0.5):
            body = Var(0)
        elif usage == 1 and fst_ty == ty and rng.random() < 0.5:
            body = Var(1)
        else:
            body = sub(ty, 2)
        return LetPair(scrut, body, None)
    if r < 0.52:
        return LetUnit(sub(UNIT_TY), sub(ty), None)
    # introduction forms of ty
    if ty == UNIT_TY:
        return Star()
    if ty == BOOL_TY:
        return rng.choice([TrueC(), FalseC()])
    if ty == _LIST_BOOL:
        if depth <= 0 or rng.random() < 0.3:
            return Nil()
        return Cons(Ann(sub(BOOL_TY), BOOL_TY), sub(_LIST_BOOL))
    if ty == _ID_BOOL:
        return Refl(TrueC())
    if ty == UNIVERSE:
        return CodeTy(rng.choice([BOOL_TY, _LIST_BOOL, NAT_TY]))
    if nat:
        pay = Var(scope - 1 - pool.pop())
        if pool and depth > 0:
            return SuccL(pay, sub(NAT_TY))
        return ZeroL(pay)
    # a tensor; an erased first component spends no diamond
    return Pair(sub(ty.fst, p=pool if ty.usage else []), sub(ty.snd))


def test_branch_free_potentials_are_exact():
    rng = random.Random(20261018)
    types = [UNIT_TY, BOOL_TY, _LIST_BOOL, _ID_BOOL, UNIVERSE]
    # the last case runs in a context of four diamonds that pay for naturals
    for regime, diamonds in ((CF, 0), (LF, 0), (LF, 4)):
        ctx = (CtxEntry("d", 1, DIAMOND_TY),) * diamonds
        env = EnvLayout(tuple(range(diamonds)), diamonds)
        for _ in range(150):
            ty = rng.choice(types + [NAT_TY] * (diamonds > 0) * 3)
            pool = list(range(diamonds))
            rng.shuffle(pool)
            term = _exact_term(rng, ty, rng.randint(0, 4), diamonds, pool)
            _, core_term = elaborate(regime, ctx, 1, term, ty)
            code, gamma = compile_term(regime, env, core_term)
            out = m.eval_expr(code, (m.UNIT,) * diamonds, 100_000)
            assert isinstance(out, m.Done), term
            assert gamma == Poly((out.steps,)), term


def _reachable(code, stop=frozenset()) -> list:
    """The machine nodes reachable from code, each once; a node whose id
    is in stop is listed but not entered."""
    seen, out, todo = set(), [], [code]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        out.append(x)
        if id(x) in stop and x is not code:
            continue
        for f in x.__dataclass_fields__:
            v = getattr(x, f)
            if isinstance(v, m.MachineExpr):
                todo.append(v)
    return out


def test_shared_definitions_compile_to_linear_code():
    # each definition is compiled once and its code shared at every use,
    # so the code of a fan-out chain is a DAG whose distinct nodes grow
    # linearly with the depth, while the tree it denotes doubles per level
    from polyqtt.frontend import parse_module, resolve_module

    from conftest import fanout_chain

    def distinct_nodes(k):
        mod = resolve_module(parse_module(fanout_chain(k)))
        drive = mod.decls[-1]
        prog = compile_declaration(mod.regime, drive.ty, drive.body)
        return len(_reachable(prog.code))

    # depth 10 first: unshared code of depth 20 would take gigabytes
    n5, n10 = distinct_nodes(5), distinct_nodes(10)
    assert 0 < n10 - n5 and n10 < 40 * 10
    assert distinct_nodes(20) - n10 == 2 * (n10 - n5)


def test_library_path_compiles_each_body_once(monkeypatch):
    # the library path checks every declaration and then compiles every
    # runtime one: compile_declaration and every reference read the code
    # the body's record keeps, so each core term is compiled once
    import polyqtt.compiler as compiler_mod
    from polyqtt.frontend import parse_module, resolve_module
    from polyqtt.kernel import infer_usage_check

    from conftest import CORPUS

    for name, count in (("consfree_iter.qtt", 13), ("lfpl_sort.qtt", 4), ("lfpl_iter.qtt", 5)):
        mod = resolve_module(parse_module((CORPUS / name).read_text()))
        runtime = [d for d in mod.decls if d.sigma == 1]
        compiled = []
        real = compiler_mod.compile_term

        def counting(regime, env, t, real=real):
            compiled.append(t)
            return real(regime, env, t)

        monkeypatch.setattr(compiler_mod, "compile_term", counting)
        for d in mod.decls:
            infer_usage_check(mod.regime, (), d.sigma, d.body, d.ty)
        for d in runtime:
            compile_declaration(mod.regime, d.ty, d.body)
        monkeypatch.undo()
        cores = {id(core(mod.regime, d.body, d.ty)) for d in runtime}
        assert len(runtime) == count
        assert sum(id(t) in cores for t in compiled) == count, name


def test_a_declaration_and_its_references_share_one_code_object():
    # compile_declaration called again returns the same code object, and
    # it is the object every reference embeds, on either path
    from polyqtt.compiler import Module
    from polyqtt.frontend import parse_module, resolve_module

    from conftest import fanout_chain

    mod = resolve_module(parse_module(fanout_chain(3)))
    *chain, drive = mod.decls
    progs = [compile_declaration(mod.regime, d.ty, d.body) for d in chain]
    for d, prog in zip(chain, progs):
        assert compile_declaration(mod.regime, d.ty, d.body).code is prog.code
        assert Module(mod).compile(d.name).code is prog.code
    shared = {id(p.code) for p in progs}
    users = [*progs[1:], compile_declaration(mod.regime, drive.ty, drive.body)]
    for prog, user in zip(progs, users):
        assert any(x is prog.code for x in _reachable(user.code, shared))


EL_MODULE = """regime consfree
def T ^0 : U = (n ^1 : Nat) -> Bool
def f ^1 : El T = \\n. rec n at (x. Bool) { zero => true | succ(m, p) => if p then false else true }
"""


def test_cli_and_library_paths_agree():
    # for every runtime declaration, the CLI path (Module.compile on the
    # module checked through its definition nodes) and the library path
    # (each declaration checked, then compile_declaration) give the same
    # code, potential and input arity, or the same rejection, whichever
    # path runs first; in one module both give the one closure code object
    from polyqtt.compiler import Module
    from polyqtt.frontend import parse_module, resolve_module
    from polyqtt.kernel import infer_usage_check

    from conftest import CORPUS, FIXTURES

    def library(mod, d):
        for e in mod.decls:
            infer_usage_check(mod.regime, (), e.sigma, e.body, e.ty)
        return compile_declaration(mod.regime, d.ty, d.body)

    def cli(mod, d):
        return Module(mod).compile(d.name)

    def outcome(path, mod, d):
        try:
            p = path(mod, d)
        except CheckError as e:
            return e.rule, None
        # an input is applied to the shared closure code
        return (m.expr_to_sexp(p.code), p.potential, p.input_arity), (
            p.code.first if p.input_arity else p.code
        )

    sources = [p.read_text() for p in sorted([*CORPUS.glob("*.qtt"), *FIXTURES.glob("*.qtt")])]
    compiled = rejected = 0
    for text in [*sources, EL_MODULE]:
        seen = None
        for first, second in ((cli, library), (library, cli)):
            mod = resolve_module(parse_module(text))
            got = []
            for d in mod.decls:
                if d.sigma == 1:
                    (a, code_a), (b, code_b) = outcome(first, mod, d), outcome(second, mod, d)
                    assert a == b and code_a is code_b, d.name
                    got.append(a)
            assert seen is None or got == seen
            seen = got
        compiled += sum(isinstance(x, tuple) for x in seen)
        rejected += sum(isinstance(x, str) for x in seen)
    # 23 in the corpus and f; two fixtures declare only erased definitions
    assert (compiled, rejected) == (24, len(list(FIXTURES.glob("*.qtt"))) - 2)
    # a declaration typed El T, with T a code for a function from
    # naturals, still takes its input
    mod = resolve_module(parse_module(EL_MODULE))
    f = mod.decls[-1]
    prog = compile_declaration(mod.regime, f.ty, f.body)
    assert prog.input_arity == 1 and run_and_verify(prog, 5).steps == 61


def test_compile_after_load_checks_nothing(monkeypatch):
    # load checks each declaration through its definition node, so
    # Module.compile reads the records its checks left: no body check and
    # no evaluation of a declared type, also for a constant body (nil is
    # one node every parse shares), whose record its definition node keeps
    import polyqtt.kernel as kernel_mod
    from polyqtt.compiler import load

    from conftest import fanout_chain

    consts = load("regime consfree\ndef xs ^1 : List Bool = nil\n")
    chain = load(fanout_chain(12))
    calls = []
    for name in ("check", "_check_type", "_value"):
        real = getattr(kernel_mod, name)
        monkeypatch.setattr(
            kernel_mod, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    xs = [consts.compile("xs") for _ in range(3)]
    progs = [chain.compile(d.name) for d in chain.decls]
    assert calls == []
    assert xs[0].code is xs[1].code is xs[2].code
    assert progs[-1].input_arity == 1 and run_and_verify(progs[-1], 3).ok


def test_load_records_an_outcome_per_declaration():
    # a failure does not stop the declarations after it, a reference to a
    # failed declaration fails with its diagnostic, and Module.compile
    # raises the first failure before it looks its name up
    from polyqtt.compiler import load

    mod = load(
        "regime consfree\n"
        "def ok ^1 : Bool -> Bool = \\b. b\n"
        "def bad ^1 : Bool -> Bool = \\b. if b then b else b\n"
        "def fine ^1 : Bool = true\n"
        "def user ^1 : Bool -> Bool = \\b. bad b\n"
    )
    ok, bad, fine, user = mod.outcomes
    assert ok is None and fine is None
    assert bad.rule == user.rule == "Tm-Lam" and str(bad) == str(user)
    for name in ("ok", "fine", "nope"):
        with pytest.raises(CheckError) as e:
            mod.compile(name)
        assert str(e.value) == str(bad)
    with pytest.raises(CheckError) as e:
        load("regime consfree\ndef t ^1 : Bool = true\n").compile("nope")
    assert str(e.value) == "[Resolve] no definition named 'nope'"


def test_an_erased_declaration_has_no_runtime_code():
    # the library refuses it as `polyqtt bound` does: no program of arity
    # 0 for a function that lives in the erased fragment
    from polyqtt.compiler import load

    mod = load("regime consfree\ndef idB ^0 : Bool -> Bool = \\b. b\n")
    assert mod.outcomes == (None,)
    with pytest.raises(CheckError) as e:
        mod.compile("idB")
    assert str(e.value) == "[Tm] 'idB' lives in the erased fragment and has no runtime code"


def failing_chain(k: int) -> str:
    """A cons-free module of k definitions: g0 uses its usage-1 argument
    twice, and g_i passes its argument to g_(i-1)."""
    lines = ["regime consfree", r"def g0 ^1 : Bool -> Bool = \b. if b then b else b"]
    lines += [rf"def g{i} ^1 : Bool -> Bool = \b. g{i - 1} b" for i in range(1, k)]
    return "\n".join(lines) + "\n"


def test_a_failing_root_is_checked_once(monkeypatch):
    # a failed check is kept, so each later definition fails at its
    # reference to the previous one, with the root's rule, at once: one
    # body check per declaration, and no declaration deep enough to
    # exhaust the host stack
    import polyqtt.kernel as kernel_mod
    from polyqtt.compiler import load

    bodies = []
    real = kernel_mod.check

    def counting(regime, ctx, sigma, t, ty):
        if not ctx:
            bodies.append(t)
        return real(regime, ctx, sigma, t, ty)

    monkeypatch.setattr(kernel_mod, "check", counting)
    mod = load(failing_chain(1000))
    assert len(mod.outcomes) == len(bodies) == 1000
    assert {e.rule for e in mod.outcomes} == {"Tm-Lam"}

"""The corpus programs check, compile, run, and round-trip."""

import copy

import pytest

from polyqtt import machine as m
from polyqtt.compiler import VERIFY_FUEL_SLACK, extract_bound, run_and_verify
from polyqtt.frontend import parse_module, pretty_term, pretty_type, resolve_module
from polyqtt.kernel import CheckError, infer_usage_check, normalize_sigma0
from polyqtt.machine import _eval_compiled, _eval_reference
from polyqtt.syntax import Regime, Var, _SCHEMA

from conftest import CORPUS_FILES, FIXTURES, compiled, decode_ilist_bools, load_corpus

EXPECTED_REJECTIONS = {
    "bad_double_use.qtt": "Tm-Lam",
    "consfree_succ_sigma1.qtt": "Tm-CF-Succ",
    "dupnat_under_lfpl.qtt": "Tm-CF-DupNat",
    "diamondstar_sigma1.qtt": "Tm-LFPL-Star",
    "reclist_sigma1.qtt": "Tm-List-Rec",
    "usage_undershoot.qtt": "Tm-Lam",
    "regime_mismatch_type.qtt": "Ty-Diamond",
    "lfpl_zero_under_consfree.qtt": "Tm-LFPL-Zero",
    "lfpl_succ_under_consfree.qtt": "Tm-LFPL-Succ",
    "lfpl_rec_under_consfree.qtt": "Tm-LFPL-Rec",
    "cf_rec_under_lfpl.qtt": "Tm-CF-Rec",
    "function_dup.qtt": "Tm-Lam",
    "conversion_mismatch.qtt": "Conv",
    "rec_branch_ambient.qtt": "Tm-CF-Rec",
}


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_checks(name):
    load_corpus(name)


@pytest.mark.parametrize("name,rule", sorted(EXPECTED_REJECTIONS.items()))
def test_fixture_rejections(name, rule):
    mod = resolve_module(parse_module((FIXTURES / name).read_text()))
    with pytest.raises(CheckError) as e:
        for d in mod.decls:
            infer_usage_check(mod.regime, (), d.sigma, d.body, d.ty)
    assert e.value.rule == rule


def test_parity_runs():
    p = compiled("consfree_iter.qtt", "parity1")
    for n in (0, 1, 2, 7):
        r = run_and_verify(p, n)
        assert r.ok and m.decode_bool(r.value) == (n % 2 == 0)


def test_nested2_runs_quadratically():
    p = compiled("consfree_iter.qtt", "nested2")
    for n in (2, 5, 10):
        r = run_and_verify(p, n)
        assert r.ok
        assert r.steps >= n * n


def test_degree_growth():
    for decl, degree in (("parity1", 1), ("nested2", 2), ("nested3", 3)):
        p = compiled("consfree_iter.qtt", decl)
        assert len(extract_bound(p).poly.coeffs) - 1 == degree


def test_rebuild_decodes_input():
    p = compiled("lfpl_iter.qtt", "rebuild1")
    for n in (0, 1, 5, 9):
        r = run_and_verify(p, n)
        assert r.ok and m.decode_nat(r.value) == n


def test_nested_rebuild_decodes_input():
    p = compiled("lfpl_iter.qtt", "nested2L")
    for n in (0, 1, 5, 9):
        r = run_and_verify(p, n)
        assert r.ok and m.decode_nat(r.value) == n


def test_zero_out():
    p = compiled("lfpl_iter.qtt", "zeroOut")
    for n in (0, 4, 11):
        r = run_and_verify(p, n)
        assert r.ok and m.decode_nat(r.value) == 0


def test_build_alt_and_sort():
    build = compiled("lfpl_sort.qtt", "buildAlt")
    sort = compiled("lfpl_sort.qtt", "sortDriver")
    for n in (0, 1, 2, 5, 8):
        rb = run_and_verify(build, n)
        assert rb.ok
        items = decode_ilist_bools(rb.value)
        assert len(items) == n
        rs = run_and_verify(sort, n)
        assert rs.ok
        assert decode_ilist_bools(rs.value) == sorted(items)


def test_use_reflected_function():
    mod = load_corpus("reflection.qtt")
    use = compiled("reflection.qtt", "useR")
    # boolean-input program: apply the compiled closure manually
    code = m.Seq(use.code, m.Seq(m.MkTrue(), m.App(1, 0)))
    out = m.eval_expr(code, (), 10_000)
    assert out.value == m.FALSE


def test_corpus_zeroing_admissibility():
    for name in CORPUS_FILES:
        mod = load_corpus(name)
        for d in mod.decls:
            if d.sigma == 1:
                u = infer_usage_check(mod.regime, (), 0, d.body, d.ty)
                assert u == ()


# a definition named like a binder: binders must not capture references
BINDER_NAMED_DEFINITION = r"""regime consfree
def x0 ^1 : Bool -> Bool = \b. if b then false else true
def f ^1 : Bool -> Bool = \b. x0 b
"""


def test_corpus_pretty_roundtrip():
    # every declaration printed back as source; references print as names
    # and resolve to the definitions read back before them
    modules = [(name, load_corpus(name)) for name in CORPUS_FILES]
    modules.append(("x0", resolve_module(parse_module(BINDER_NAMED_DEFINITION))))
    for name, mod in modules:
        text = f"regime {mod.regime.value}\n" + "".join(
            f"def {d.name} ^{d.sigma} : {pretty_type(d.ty)} = {pretty_term(d.body)}\n"
            for d in mod.decls
        )
        again = resolve_module(parse_module(text))
        assert [(d.name, d.sigma) for d in again.decls] == [
            (d.name, d.sigma) for d in mod.decls
        ]
        for d, e in zip(mod.decls, again.decls):
            assert e.ty == d.ty, (name, d.name)
            assert e.body == d.body, (name, d.name)


def test_erased_arithmetic_normalises():
    mod = load_corpus("consfree_zero.qtt")
    defs = {d.name: d for d in mod.decls}
    from polyqtt.syntax import Ann, App, SuccCF, TrueC, ZeroCF

    def lit(n):
        t = ZeroCF()
        for _ in range(n):
            t = SuccCF(t)
        return t

    add = Ann(defs["add"].body, defs["add"].ty)
    out = normalize_sigma0(Regime.CONS_FREE, (), App(App(add, lit(2)), lit(3)))
    assert out == lit(5)
    mul = Ann(defs["mul"].body, defs["mul"].ty)
    out = normalize_sigma0(Regime.CONS_FREE, (), App(App(mul, lit(3)), lit(4)))
    assert out == lit(12)
    # and a runtime one: nested3 at 14 takes thousands of beta- and
    # iota-steps through shared definitions
    nested3 = load_corpus("consfree_iter.qtt").decl("nested3")
    out = normalize_sigma0(Regime.CONS_FREE, (), App(Ann(nested3.body, nested3.ty), lit(14)))
    assert out == TrueC()


def _substitute(t, arg, index=0):
    """t with the closed term arg for the free index `index` and the free
    indices above it lowered by one: substitution on syntax, the reference
    that the kernel's evaluator is checked against."""
    if t.__class__ is Var:
        if t.index == index:
            return arg
        return Var(t.index - 1) if t.index > index else t
    vals = []
    for name, kind, binders in _SCHEMA[t.__class__]:
        val = getattr(t, name)
        if kind != "plain" and val is not None:
            val = _substitute(val, arg, index + binders)
        vals.append(val)
    return t.__class__(*vals)


def test_corpus_substitution_stability():
    # checking a body applied to a closed argument agrees with checking
    # under a binder and substituting, up to normalisation of the result
    from polyqtt.syntax import Ann, App, Lam

    mod = load_corpus("consfree_iter.qtt")
    defs = {d.name: d for d in mod.decls}
    from polyqtt.syntax import SuccCF, ZeroCF

    lit = SuccCF(SuccCF(ZeroCF()))
    for name in ("parity1", "negAcc", "idNat"):
        d = defs[name]
        assert isinstance(d.body, Lam)
        applied = App(Ann(d.body, d.ty), lit)
        substituted = _substitute(d.body.body, lit)
        infer_usage_check(mod.regime, (), 0, applied, d.ty.cod)
        lhs = normalize_sigma0(mod.regime, (), applied)
        rhs = normalize_sigma0(mod.regime, (), substituted)
        assert lhs == rhs


def test_head_or_matches_list():
    p = compiled("consfree_iter.qtt", "headOr")
    r0 = run_and_verify(p, 0)
    assert r0.ok and not m.decode_bool(r0.value)  # empty list
    for n in (1, 2, 4, 9):
        r = run_and_verify(p, n)
        # the head is the phase consed last, which alternates with n
        assert r.ok and m.decode_bool(r.value) == (n % 2 == 1)


def test_compiled_path_matches_reference_on_corpus():
    # every runtime declaration with an input, both paths, n <= 12: the
    # same value and steps, and out of fuel one step short; for n <= 3 the
    # same outcome at every fuel up to one past the steps
    checked = 0
    for name in CORPUS_FILES:
        for d in load_corpus(name).decls:
            if d.sigma != 1 or compiled(name, d.name).input_arity != 1:
                continue
            code = compiled(name, d.name).code
            for n in range(13):
                env = (m.nat_value(n),)
                want = _eval_reference(code, env, 10_000_000)
                assert isinstance(want, m.Done), (d.name, n)
                assert _eval_compiled(code, env, 10_000_000) == want, (d.name, n)
                short = want.steps - 1
                assert _eval_reference(code, env, short) == m.OutOfFuel()
                assert _eval_compiled(code, env, short) == m.OutOfFuel()
                for fuel in range(want.steps + 2) if n <= 3 else ():
                    out = want if fuel >= want.steps else m.OutOfFuel()
                    assert _eval_reference(code, env, fuel) == out, (d.name, n, fuel)
                    assert _eval_compiled(code, env, fuel) == out, (d.name, n, fuel)
            checked += 1
    assert checked == 14


def test_compiled_path_never_falls_back_on_corpus(monkeypatch):
    # checked code never gets stuck, so the compiled path decides every
    # outcome of its runs itself, out of fuel included, without calling the
    # reference loop: for n <= 3 at every fuel up to one past the steps,
    # and for n <= 12 one step short and at the steps
    calls = []
    monkeypatch.setattr(m, "_eval_reference", lambda *a: calls.append(a) or _eval_reference(*a))
    checked = 0
    for name in CORPUS_FILES:
        for d in load_corpus(name).decls:
            if d.sigma != 1 or compiled(name, d.name).input_arity != 1:
                continue
            code = compiled(name, d.name).code
            for n in range(13):
                env = (m.nat_value(n),)
                steps = _eval_reference(code, env, 10_000_000).steps
                for fuel in range(steps + 2) if n <= 3 else (steps - 1, steps):
                    assert _eval_compiled(code, env, fuel) == _eval_reference(code, env, fuel)
                    assert not calls, (d.name, n, fuel)
            checked += 1
    assert checked == 14


def test_eval_nat_matches_reference_on_corpus():
    # the one entry point that encodes a natural input gives the reference
    # loop's outcome on nat_value(n): with no fuel, one step short, at the
    # steps and at run_and_verify's fuel, on fresh code (a short run takes
    # the reference loop, a long one prepares blocks) and on code that
    # already ran compiled (every run takes the compiled path)
    checked = 0
    for name in CORPUS_FILES:
        for d in load_corpus(name).decls:
            if d.sigma != 1 or compiled(name, d.name).input_arity != 1:
                continue
            p = compiled(name, d.name)
            warm = copy.deepcopy(p.code)
            for n in (0, 1, 2, 7, 12):
                env = (m.nat_value(n),)
                done = _eval_reference(p.code, env, 10_000_000)
                assert _eval_compiled(warm, env, 10_000_000) == done
                top = extract_bound(p).bound_at(n) + VERIFY_FUEL_SLACK
                for fuel in (0, done.steps - 1, done.steps, top):
                    want = _eval_reference(p.code, env, fuel)
                    assert m.eval_nat(copy.deepcopy(p.code), n, fuel) == want, (d.name, n, fuel)
                    assert m.eval_nat(warm, n, fuel) == want, (d.name, n, fuel)
            checked += 1
    assert checked == 14


def test_sweep_bound_is_the_extracted_bound():
    # run_and_verify reads q(n + 1) without extract_bound's probes
    for name in CORPUS_FILES:
        for d in load_corpus(name).decls:
            if d.sigma != 1 or compiled(name, d.name).input_arity != 1:
                continue
            p = compiled(name, d.name)
            for n in (0, 1, 7):
                assert run_and_verify(p, n).bound_at_n == extract_bound(p).bound_at(n)

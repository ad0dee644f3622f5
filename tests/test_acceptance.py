"""Acceptance criteria, one test per criterion.

Each test prints a single pass line on success (visible under ``pytest
-s``); a failed assertion is the fail line.  Timing budgets are asserted
where the criterion carries one.
"""

import json
import random
import time

import pytest

from polyqtt import machine as m
from polyqtt import potentials as pot
from polyqtt.cli import main as cli_main
from polyqtt.compiler import extract_bound, run_and_verify
from polyqtt.frontend import parse_module, resolve_module
from polyqtt.kernel import CheckError, infer_usage_check, normalize_sigma0
from polyqtt.potentials import EMPTY, ExtNat, MonoidKind, Poly, Potential
from polyqtt.syntax import (
    Ann,
    App,
    DiamondStar,
    FalseC,
    Regime,
    SuccCF,
    SuccL,
    TrueC,
    ZeroCF,
    ZeroL,
)

from conftest import CORPUS, FIXTURES, compiled, load_corpus

ALL_KINDS = (MonoidKind.NAT, MonoidKind.MAX_POLY, MonoidKind.PLUS_POLY)
POLY_KINDS = (MonoidKind.MAX_POLY, MonoidKind.PLUS_POLY)


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1. Exact machine step counts, one check per evaluation rule.

def test_criterion_1_machine_cost_exactness():
    t0 = time.monotonic()
    clo = m.Clo(m.Var(0), ())
    checks = [
        (m.Lam(m.Var(0)), (), m.Done(clo, 1)),  # closure creation
        (m.MkUnit(), (), m.Done(m.UNIT, 1)),
        (m.MkPair(0, 1), (m.UNIT, m.TRUE), m.Done(m.VPair(m.TRUE, m.UNIT), 1)),
        (m.MkTrue(), (), m.Done(m.TRUE, 1)),
        (m.MkFalse(), (), m.Done(m.FALSE, 1)),
        (m.Var(0), (m.TRUE,), m.Done(m.TRUE, 1)),  # access
        (m.Seq(m.MkTrue(), m.Var(0)), (), m.Done(m.TRUE, 3)),  # k1 + 1 + k2
        (m.App(0, 1), (m.UNIT, clo), m.Done(m.UNIT, 2)),  # 1 + body
        (m.LetPair(0, m.Var(0)), (m.VPair(m.TRUE, m.FALSE),), m.Done(m.FALSE, 2)),
        (m.If(0, m.MkTrue(), m.MkFalse()), (m.TRUE,), m.Done(m.TRUE, 2)),
        (m.If(0, m.MkTrue(), m.MkFalse()), (m.FALSE,), m.Done(m.FALSE, 2)),
    ]
    for expr, env, want in checks:
        assert m.eval_expr(expr, env, 100) == want
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"per-rule exact costs hold ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 2. Resource monoid laws, 1000 randomized cases per law per monoid.

def _random_potential(rng, kind):
    if kind is MonoidKind.NAT:
        return Potential(rng.randrange(0, 64), Poly())
    coeffs = [rng.randrange(0, 17) for _ in range(rng.randrange(0, 5))]
    return Potential(rng.randrange(0, 13), Poly(coeffs))


def test_criterion_2_resource_monoid_laws():
    t0 = time.monotonic()
    rng = random.Random(0xC0FFEE)
    cases = 1000
    for kind in ALL_KINDS:
        for _ in range(cases):
            a = _random_potential(rng, kind)
            b = _random_potential(rng, kind)
            c = _random_potential(rng, kind)
            k = rng.randrange(0, 1001)
            # identity
            assert pot.diff(kind, a, a) == ExtNat.fin(0)
            # reverse triangle
            lhs = pot.diff(kind, a, b) + pot.diff(kind, b, c)
            assert lhs <= pot.diff(kind, a, c)
            # compatibility with the monoid operation
            assert pot.diff(kind, a, b) <= pot.diff(
                kind, pot.plus(kind, a, c), pot.plus(kind, b, c)
            )
            # difference with the unit is non-negative
            assert ExtNat.fin(0) <= pot.diff(kind, a, EMPTY)
            # accounting law
            assert ExtNat.fin(k) <= pot.diff(kind, pot.acct(kind, k), EMPTY)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, f"5 laws x 3 monoids x {cases} cases ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. Iteration structure laws for both polynomial monoids.

def test_criterion_3_iteration_monoid_laws():
    t0 = time.monotonic()
    rng = random.Random(0xBEEF)
    cases = 1000
    for kind in POLY_KINDS:
        for _ in range(cases):
            coeffs = [rng.randrange(0, 17) for _ in range(rng.randrange(0, 5))]
            alpha = Potential(rng.randrange(0, 13), Poly(coeffs))
            n = rng.randrange(0, 33)
            # the zero-size sub-monoid is closed under degree raising
            zero_sized = Potential(0, alpha.poly)
            assert pot.in_submonoid(pot.raise_(zero_sized))
            # raised potential dominates any scale up to the present size
            lhs = pot.plus(kind, pot.raise_(alpha), pot.size(n))
            rhs = pot.plus(kind, pot.scale(n, alpha), pot.size(n))
            assert ExtNat.fin(0) <= pot.diff(kind, lhs, rhs)
            # scaling decomposes on size-free potentials
            l3 = pot.scale(1 + n, zero_sized)
            r3 = pot.plus(kind, zero_sized, pot.scale(n, zero_sized))
            assert ExtNat.fin(0) <= pot.diff(kind, l3, r3)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(3, f"3 iteration laws x 2 monoids x {cases} cases ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. Cons-free soundness sweep over the iterator corpus.

def _cli_verify(file, decl, max_n, tmp_path):
    out = tmp_path / f"{decl}.json"
    rc = cli_main(
        ["verify", str(CORPUS / file), decl, "--max-n", str(max_n),
         "--json", str(out)]
    )
    return rc, json.loads(out.read_text())


def test_criterion_4_cons_free_soundness_sweep(tmp_path):
    t0 = time.monotonic()
    for decl in (
        "parity1", "nested2", "nested3", "comboDup", "negAcc", "idNat",
        "altList", "dupUse", "headOr",
    ):
        rc, payload = _cli_verify("consfree_iter.qtt", decl, 50, tmp_path)
        assert rc == 0 and payload["ok"] is True, decl
    # quadratic lower bound: the doubly nested iterator really iterates
    p = compiled("consfree_iter.qtt", "nested2")
    for n in range(2, 21):
        assert run_and_verify(p, n).steps >= n * n
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"verified n in [0,50], nested2 steps >= n^2 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. LFPL soundness sweep and insertion sort.

def _decode_ilist_bools(v):
    size = m.decode_nat(v.fst)
    out, elems = [], v.snd
    for _ in range(size):
        out.append(m.decode_bool(elems.fst))
        elems = elems.snd
    if not isinstance(elems, m.VUnit):
        raise m.DecodeError("overlong element tuple")
    return out


def test_criterion_5_lfpl_soundness_sweep(tmp_path):
    t0 = time.monotonic()
    for decl in ("rebuild1", "nested2L", "zeroOut"):
        rc, payload = _cli_verify("lfpl_iter.qtt", decl, 50, tmp_path)
        assert rc == 0 and payload["ok"] is True, decl
    # the rebuilt value decodes back to the input
    p = compiled("lfpl_iter.qtt", "rebuild1")
    for n in (0, 5, 50):
        assert m.decode_nat(run_and_verify(p, n).value) == n
    # insertion sort: sorted permutation within bound, lengths up to 20
    build = compiled("lfpl_sort.qtt", "buildAlt")
    sort = compiled("lfpl_sort.qtt", "sortDriver")
    for n in range(21):
        rb = run_and_verify(build, n)
        rs = run_and_verify(sort, n)
        assert rb.ok and rs.ok, n
        inputs = _decode_ilist_bools(rb.value)
        outputs = _decode_ilist_bools(rs.value)
        assert len(inputs) == n
        assert outputs == sorted(inputs)  # the independent oracle
        assert sorted(outputs) == sorted(inputs)  # permutation
    rc, payload = _cli_verify("lfpl_sort.qtt", "sortDriver", 20, tmp_path)
    assert rc == 0 and payload["ok"] is True
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(5, f"rebuild iterators n in [0,50]; sort lengths <= 20 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. Rejection fixtures, each violating exactly one rule.

REJECTIONS = {
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


def test_criterion_6_rejection_suite():
    t0 = time.monotonic()
    assert len(REJECTIONS) >= 10
    for name, rule in REJECTIONS.items():
        mod = resolve_module(parse_module((FIXTURES / name).read_text()))
        with pytest.raises(CheckError) as e:
            for d in mod.decls:
                infer_usage_check(mod.regime, (), d.sigma, d.body, d.ty)
        assert e.value.rule == rule, name
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(6, f"{len(REJECTIONS)} single-violation fixtures rejected ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 7. Zeroing admissibility over the whole corpus.

def test_criterion_7_zeroing_admissibility(corpus):
    count = 0
    for name, mod in corpus.items():
        for d in mod.decls:
            if d.sigma == 1:
                u = infer_usage_check(mod.regime, (), 0, d.body, d.ty)
                assert u == ()
                count += 1
    _report(7, f"{count} runtime definitions re-check in the erased fragment")


# ---------------------------------------------------------------------------
# 8. Machine evaluation agrees with erased-fragment normalisation.

def _nat_literal(regime, n):
    if regime is Regime.CONS_FREE:
        t = ZeroCF()
        for _ in range(n):
            t = SuccCF(t)
        return t
    t = ZeroL(DiamondStar())
    for _ in range(n):
        t = SuccL(DiamondStar(), t)
    return t


def _decode_normal_form(t):
    from polyqtt.syntax import Cons, Nil

    if isinstance(t, TrueC):
        return True
    if isinstance(t, FalseC):
        return False
    if isinstance(t, (Nil, Cons)):
        out = []
        while isinstance(t, Cons):
            out.append(_decode_normal_form(t.head))
            t = t.tail
        assert isinstance(t, Nil)
        return out
    n = 0
    while isinstance(t, (SuccCF, SuccL)):
        t = t.pred
        n += 1
    if isinstance(t, (ZeroCF, ZeroL)):
        return n
    raise AssertionError(f"non-observable normal form {t!r}")


FIRST_ORDER = {
    "consfree_iter.qtt": [
        "parity1", "nested2", "nested3", "comboDup", "negAcc", "idNat",
        "altList", "dupUse", "headOr",
    ],
    "lfpl_iter.qtt": ["rebuild1", "nested2L", "zeroOut"],
}


def test_criterion_8_agreement_with_normalisation():
    t0 = time.monotonic()
    checked = 0
    for file, decls in FIRST_ORDER.items():
        mod = load_corpus(file)
        by_name = {d.name: d for d in mod.decls}
        for decl in decls:
            d = by_name[decl]
            prog = compiled(file, decl)
            for n in range(31):
                applied = App(Ann(d.body, d.ty), _nat_literal(mod.regime, n))
                nf = normalize_sigma0(mod.regime, (), applied)
                want = _decode_normal_form(nf)
                r = run_and_verify(prog, n)
                assert r.outcome == "done", (decl, n)
                if isinstance(want, bool):
                    got = m.decode_bool(r.value)
                elif isinstance(want, list):
                    got = [m.decode_bool(x) for x in m.decode_list(r.value)]
                else:
                    got = m.decode_nat(r.value)
                assert got == want, (decl, n)
                checked += 1
    elapsed = time.monotonic() - t0
    _report(8, f"{checked} program/input agreements ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 9. Duplication of a natural costs exactly one measured step.

def test_criterion_9_dup_costs_one_step():
    from polyqtt.compiler import EnvLayout, compile_term
    from polyqtt.syntax import DupNat, Var

    env = EnvLayout((0,), 1)
    code, _ = compile_term(Regime.CONS_FREE, env, DupNat(Var(0)))
    out = m.eval_expr(code, (m.nat_value(9),), 10)
    assert out == m.Done(m.VPair(m.nat_value(9), m.nat_value(9)), 1)
    _report(9, "compiled duplication runs in exactly one step")


# ---------------------------------------------------------------------------
# 10. Bound degrees match the recursion nesting depth exactly.

def test_criterion_10_degree_growth():
    degrees = {}
    for decl, want in (("parity1", 1), ("nested2", 2), ("nested3", 3)):
        report = extract_bound(compiled("consfree_iter.qtt", decl))
        degrees[decl] = report.poly.degree
        assert report.poly.degree == want, decl
    _report(10, f"bound degrees {degrees}")

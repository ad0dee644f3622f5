import pytest
from hypothesis import given, settings, strategies as st

from polyqtt.compiler import _branch_join
from polyqtt.potentials import Poly

from monoids import (
    EMPTY,
    ExtNat,
    MonoidKind,
    NEG_INF,
    Potential,
    acct,
    diff,
    dominates_from,
    in_submonoid,
    n_action,
    plus,
    raise_,
    scale,
    size,
)

POLY_KINDS = [MonoidKind.MAX_POLY, MonoidKind.PLUS_POLY]
ALL_KINDS = [MonoidKind.NAT, MonoidKind.MAX_POLY, MonoidKind.PLUS_POLY]

polys = st.lists(st.integers(0, 16), max_size=5).map(Poly)


def potentials_for(kind):
    if kind is MonoidKind.NAT:
        return st.integers(0, 40).map(lambda m: Potential(m, Poly()))
    return st.builds(Potential, st.integers(0, 12), polys)


# ---------------------------------------------------------------------------
# Polynomial arithmetic

def test_poly_eval_examples():
    assert Poly([1, 2])(3) == 7
    assert Poly([])(5) == 0
    assert Poly([0, 0, 1])(4) == 16


def test_poly_ops_examples():
    assert Poly([1]) + Poly([0, 1]) == Poly([1, 1])
    assert Poly([1, 1]).shift_up() == Poly([0, 1, 1])
    assert Poly([2, 1]).scale(3) == Poly([6, 3])


def test_poly_canonical_form():
    assert Poly([0, 1, 0, 0]) == Poly([0, 1])
    assert Poly([0, 0]) == Poly([])
    assert len(Poly([3]).coeffs) - 1 == 0
    assert len(Poly([]).coeffs) - 1 == -1
    with pytest.raises(ValueError):
        Poly([1, -2])


@given(polys, polys, st.integers(0, 20))
def test_poly_add_pointwise(p, q, x):
    assert (p + q)(x) == p(x) + q(x)


@given(polys, st.integers(0, 8), st.integers(0, 20))
def test_poly_scale_and_shift(p, k, x):
    assert p.scale(k)(x) == k * p(x)
    assert p.shift_up()(x) == x * p(x)


@given(polys, polys, st.integers(0, 8))
def test_closed_operations_are_canonical(p, q, k):
    # the operations that build their result without the public
    # constructor's pass must agree with it
    for result in (p + q, p.scale(k), p.shift_up(), _branch_join(p, q)):
        assert result == Poly(list(result.coeffs))
        assert not result.coeffs or result.coeffs[-1] != 0


# ---------------------------------------------------------------------------
# Dominance check: sound, maybe incomplete

def test_dominates_examples():
    assert dominates_from(Poly([0, 1]), Poly([1]), 1)
    assert not dominates_from(Poly([1]), Poly([0, 1]), 0)
    for p in (Poly([]), Poly([3]), Poly([1, 2, 3])):
        assert dominates_from(p, p, 0)


@given(polys, polys, st.integers(0, 6))
def test_dominates_soundness_window(p, q, m):
    if dominates_from(p, q, m):
        for k in range(m, m + 201):
            assert p(k) >= q(k)


def test_dominates_known_incompleteness():
    # x^2 - 2x + 2 is positive everywhere but the shifted-coefficient
    # test cannot see it at m = 0.
    assert not dominates_from(Poly([2, 0, 1]), Poly([0, 2]), 0)
    assert all(Poly([2, 0, 1])(k) >= Poly([0, 2])(k) for k in range(100))


# ---------------------------------------------------------------------------
# ExtNat arithmetic

def test_extnat_absorbing_addition():
    assert NEG_INF + ExtNat.fin(5) == NEG_INF
    assert ExtNat.fin(5) + NEG_INF == NEG_INF
    assert ExtNat.fin(2) + ExtNat.fin(3) == ExtNat.fin(5)


def test_extnat_order():
    assert NEG_INF <= ExtNat.fin(0)
    assert not (ExtNat.fin(0) <= NEG_INF)
    assert ExtNat.fin(1) < ExtNat.fin(2)


# ---------------------------------------------------------------------------
# Monoid operation examples

def test_plus_examples():
    a, b = Potential(2, Poly([1])), Potential(3, Poly([0, 1]))
    assert plus(MonoidKind.MAX_POLY, a, b) == Potential(3, Poly([1, 1]))
    assert plus(MonoidKind.PLUS_POLY, a, b) == Potential(5, Poly([1, 1]))
    for kind in POLY_KINDS:
        assert plus(kind, a, EMPTY) == a
    assert plus(MonoidKind.NAT, Potential(2), Potential(3)) == Potential(5)
    with pytest.raises(ValueError):
        plus(MonoidKind.NAT, a, b)


def test_diff_examples():
    assert diff(
        MonoidKind.MAX_POLY, Potential(3, Poly([1, 2])), EMPTY
    ) == ExtNat.fin(7)
    assert (
        diff(MonoidKind.MAX_POLY, Potential(1, Poly([1])), Potential(2, Poly([1])))
        == NEG_INF
    )
    assert diff(MonoidKind.NAT, Potential(5), Potential(3)) == ExtNat.fin(2)
    assert diff(MonoidKind.NAT, Potential(3), Potential(5)) == NEG_INF


def test_acct_examples():
    assert acct(MonoidKind.MAX_POLY, 4) == Potential(0, Poly([4]))
    assert acct(MonoidKind.NAT, 7) == Potential(7, Poly())
    assert acct(MonoidKind.PLUS_POLY, 0) == EMPTY


def test_iteration_structure_examples():
    assert size(3) == Potential(3, Poly())
    assert raise_(Potential(0, Poly([4]))) == Potential(0, Poly([0, 4]))
    assert scale(2, Potential(0, Poly([3, 1]))) == Potential(0, Poly([6, 2]))


def test_submonoid_examples():
    assert in_submonoid(Potential(0, Poly([5, 2])))
    assert not in_submonoid(Potential(1, Poly()))
    for kind in POLY_KINDS:
        assert in_submonoid(acct(kind, 9))
    assert in_submonoid(raise_(acct(MonoidKind.MAX_POLY, 3)))


def test_n_action_examples():
    assert n_action(MonoidKind.PLUS_POLY, 3, Potential(1, Poly([1]))) == Potential(
        3, Poly([3])
    )
    assert n_action(MonoidKind.MAX_POLY, 3, Potential(1, Poly([1]))) == Potential(
        1, Poly([3])
    )
    for kind in ALL_KINDS:
        assert n_action(kind, 0, Potential(4 if kind is MonoidKind.NAT else 1, Poly())) == EMPTY


@given(st.sampled_from(ALL_KINDS), st.integers(0, 6), st.data())
def test_n_action_agrees_with_folded_plus(kind, n, data):
    a = data.draw(potentials_for(kind))
    folded = EMPTY
    for _ in range(n):
        folded = plus(kind, folded, a)
    assert n_action(kind, n, a) == folded


# ---------------------------------------------------------------------------
# Resource monoid laws (hypothesis editions; the high-volume randomized
# sweeps live in the acceptance suite)

@settings(max_examples=200)
@given(st.sampled_from(ALL_KINDS), st.data())
def test_law_identity(kind, data):
    a = data.draw(potentials_for(kind))
    assert diff(kind, a, a) == ExtNat.fin(0)


@settings(max_examples=200)
@given(st.sampled_from(ALL_KINDS), st.data())
def test_law_reverse_triangle(kind, data):
    pots = potentials_for(kind)
    a, b, c = data.draw(pots), data.draw(pots), data.draw(pots)
    assert diff(kind, a, b) + diff(kind, b, c) <= diff(kind, a, c)


@settings(max_examples=200)
@given(st.sampled_from(ALL_KINDS), st.data())
def test_law_plus_compatibility(kind, data):
    pots = potentials_for(kind)
    a, b, c = data.draw(pots), data.draw(pots), data.draw(pots)
    assert diff(kind, a, b) <= diff(kind, plus(kind, a, c), plus(kind, b, c))


@settings(max_examples=200)
@given(st.sampled_from(ALL_KINDS), st.data())
def test_law_diff_to_unit_nonnegative(kind, data):
    a = data.draw(potentials_for(kind))
    assert ExtNat.fin(0) <= diff(kind, a, EMPTY)


@given(st.sampled_from(ALL_KINDS), st.integers(0, 1000))
def test_law_acct(kind, k):
    assert ExtNat.fin(k) <= diff(kind, acct(kind, k), EMPTY)


@settings(max_examples=200)
@given(st.sampled_from(ALL_KINDS), st.data())
def test_plus_commutative_monoid(kind, data):
    pots = potentials_for(kind)
    a, b, c = data.draw(pots), data.draw(pots), data.draw(pots)
    assert plus(kind, a, b) == plus(kind, b, a)
    assert plus(kind, plus(kind, a, b), c) == plus(kind, a, plus(kind, b, c))
    assert plus(kind, a, EMPTY) == a


# ---------------------------------------------------------------------------
# Iteration laws for the polynomial monoids

@settings(max_examples=200)
@given(st.sampled_from(POLY_KINDS), st.integers(0, 32), st.data())
def test_iteration_law_raise_dominates_scale(kind, n, data):
    a = data.draw(potentials_for(kind))
    lhs = plus(kind, raise_(a), size(n))
    rhs = plus(kind, scale(n, a), size(n))
    assert ExtNat.fin(0) <= diff(kind, lhs, rhs)


@settings(max_examples=200)
@given(st.sampled_from(POLY_KINDS), st.integers(0, 32), polys)
def test_iteration_law_scale_decomposes(kind, n, p):
    a = Potential(0, p)  # zero-size elements only
    lhs = scale(1 + n, a)
    rhs = plus(kind, a, scale(n, a))
    assert ExtNat.fin(0) <= diff(kind, lhs, rhs)


def test_raise_preserves_submonoid():
    assert in_submonoid(raise_(Potential(0, Poly([1, 2, 3]))))


def test_every_public_name_in_potentials_is_used_by_the_package():
    # the resource monoids live with the tests (monoids.py); what the
    # package's potentials module defines, another of its modules uses,
    # and so each public method and property of Poly
    import ast
    from pathlib import Path

    import polyqtt.potentials as potentials

    src = Path(potentials.__file__)
    tree = ast.parse(src.read_text(encoding="utf-8"))
    defined, methods = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef) and node.name == "Poly":
            methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
    public = {n for n in defined if not n.startswith("_")}
    public_methods = {n for n in methods if not n.startswith("_")}
    assert {"Poly", "ZERO"} <= public
    assert {"scale", "shift_up"} <= public_methods
    used, attributes = set(), set()
    for path in src.parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "potentials":
                used.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute) and path != src:
                attributes.add(node.attr)
    assert public <= used, public - used
    assert public_methods <= attributes, public_methods - attributes

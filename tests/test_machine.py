import random

import pytest

from polyqtt.machine import (
    App,
    Clo,
    DecodeError,
    Done,
    FALSE,
    If,
    Lam,
    LetPair,
    MkFalse,
    MkPair,
    MkTrue,
    MkUnit,
    OutOfFuel,
    Seq,
    Stuck,
    TRUE,
    UNIT,
    Var,
    VPair,
    decode_bool,
    decode_list,
    decode_nat,
    encode_list,
    eval_expr,
    expr_from_sexp,
    expr_to_sexp,
    nat_value,
    value_from_sexp,
    value_to_sexp,
)


# ---------------------------------------------------------------------------
# Oracle: a direct recursive transcription of the evaluation rules, kept
# deliberately different in style from the production evaluator.

class _OracleStuck(Exception):
    pass


def oracle_eval(e, env):
    """Returns (value, steps); raises _OracleStuck on undefined cases."""
    def look(i):
        if 0 <= i < len(env):
            return env[len(env) - 1 - i]
        raise _OracleStuck(f"bad index {i}")

    if isinstance(e, Lam):
        return Clo(e.body, tuple(env)), 1
    if isinstance(e, MkUnit):
        return UNIT, 1
    if isinstance(e, MkPair):
        return VPair(look(e.i), look(e.j)), 1
    if isinstance(e, MkTrue):
        return TRUE, 1
    if isinstance(e, MkFalse):
        return FALSE, 1
    if isinstance(e, Var):
        return look(e.i), 1
    if isinstance(e, Seq):
        v1, k1 = oracle_eval(e.first, env)
        v2, k2 = oracle_eval(e.rest, tuple(env) + (v1,))
        return v2, k1 + 1 + k2
    if isinstance(e, App):
        clo = look(e.i)
        if not isinstance(clo, Clo):
            raise _OracleStuck("non-closure application")
        arg = look(e.j)
        v, k = oracle_eval(clo.body, clo.env + (clo, arg))
        return v, 1 + k
    if isinstance(e, LetPair):
        p = look(e.i)
        if not isinstance(p, VPair):
            raise _OracleStuck("non-pair elimination")
        v, k = oracle_eval(e.body, tuple(env) + (p.fst, p.snd))
        return v, 1 + k
    if isinstance(e, If):
        scrut = look(e.i)
        if scrut == TRUE:
            v, k = oracle_eval(e.then_branch, env)
        elif scrut == FALSE:
            v, k = oracle_eval(e.else_branch, env)
        else:
            raise _OracleStuck("non-boolean conditional")
        return v, 1 + k
    raise _OracleStuck("unknown form")


# ---------------------------------------------------------------------------
# Exact root costs, one test per evaluation rule.

def test_cost_mk_clo():
    assert eval_expr(Lam(Var(0)), (), 10) == Done(Clo(Var(0), ()), 1)


def test_cost_mk_unit():
    assert eval_expr(MkUnit(), (), 10) == Done(UNIT, 1)


def test_cost_mk_pair():
    out = eval_expr(MkPair(0, 1), (UNIT, TRUE), 10)
    assert out == Done(VPair(TRUE, UNIT), 1)


def test_cost_mk_true():
    assert eval_expr(MkTrue(), (), 10) == Done(TRUE, 1)


def test_cost_mk_false():
    assert eval_expr(MkFalse(), (), 10) == Done(FALSE, 1)


def test_cost_access():
    assert eval_expr(Var(0), (TRUE,), 10) == Done(TRUE, 1)


def test_cost_seq_is_k1_plus_1_plus_k2():
    # first costs 1, rest costs 1, the sequencing itself costs 1
    assert eval_expr(Seq(MkTrue(), Var(0)), (), 10) == Done(TRUE, 3)


def test_cost_app_is_1_plus_body():
    # identity closure applied to unit: 1 (app) + 1 (access in body)
    clo = Clo(Var(0), ())
    out = eval_expr(App(0, 1), (UNIT, clo), 10)
    assert out == Done(UNIT, 2)


def test_cost_let_pair_is_1_plus_body():
    env = (VPair(TRUE, FALSE),)
    assert eval_expr(LetPair(0, Var(0)), env, 10) == Done(FALSE, 2)
    assert eval_expr(LetPair(0, Var(1)), env, 10) == Done(TRUE, 2)


def test_cost_if_true_false():
    assert eval_expr(If(0, MkTrue(), MkFalse()), (TRUE,), 10) == Done(TRUE, 2)
    assert eval_expr(If(0, MkTrue(), MkFalse()), (FALSE,), 10) == Done(FALSE, 2)


def test_app_env_includes_self_reference():
    # The body sees [closure env, self closure, argument]; index 1 is the
    # closure itself, so a body of Var(1) returns it.
    clo = Clo(Var(1), ())
    out = eval_expr(App(0, 1), (UNIT, clo), 10)
    assert out == Done(clo, 2)


def test_self_reference_enables_recursion_until_fuel():
    # \x. self x: applying loops forever, so the evaluator must report
    # running out of fuel rather than diverging or crashing.
    loop = Lam(App(1, 0))
    prog = Seq(loop, Seq(MkUnit(), App(1, 0)))
    assert eval_expr(prog, (), 10_000) == OutOfFuel()


# ---------------------------------------------------------------------------
# Fuel semantics and determinism

def test_fuel_monotonicity_and_exact_boundary():
    prog = Seq(MkTrue(), Var(0))  # costs exactly 3
    assert isinstance(eval_expr(prog, (), 2), OutOfFuel)
    assert eval_expr(prog, (), 3) == Done(TRUE, 3)
    for extra in (4, 10, 1000):
        assert eval_expr(prog, (), extra) == Done(TRUE, 3)


def _random_expr(rng, depth, n_env):
    # Generates expressions that are index-valid for an environment of
    # n_env values; may still get stuck on variant mismatches.
    choices = ["unit", "true", "false"]
    if n_env > 0:
        choices += ["var", "pair", "app", "letpair", "if"]
    if depth > 0:
        choices += ["seq", "seq", "lam"]
    kind = rng.choice(choices)
    if kind == "unit":
        return MkUnit()
    if kind == "true":
        return MkTrue()
    if kind == "false":
        return MkFalse()
    if kind == "var":
        return Var(rng.randrange(n_env))
    if kind == "pair":
        return MkPair(rng.randrange(n_env), rng.randrange(n_env))
    if kind == "app":
        return App(rng.randrange(n_env), rng.randrange(n_env))
    if kind == "letpair":
        return LetPair(rng.randrange(n_env), _random_expr(rng, depth - 1, n_env + 2))
    if kind == "if":
        return If(
            rng.randrange(n_env),
            _random_expr(rng, depth - 1, n_env),
            _random_expr(rng, depth - 1, n_env),
        )
    if kind == "seq":
        return Seq(
            _random_expr(rng, depth - 1, n_env),
            _random_expr(rng, depth - 1, n_env + 1),
        )
    return Lam(_random_expr(rng, depth - 1, n_env + 2))


def _random_value(rng, depth):
    kind = rng.choice(["unit", "true", "false", "pair", "pair", "clo"])
    if depth == 0 or kind == "unit":
        return UNIT
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "pair":
        return VPair(_random_value(rng, depth - 1), _random_value(rng, depth - 1))
    return Clo(_random_expr(rng, 2, 2), (UNIT, TRUE))


def test_matches_oracle_on_random_programs():
    rng = random.Random(20240817)
    agree = 0
    for _ in range(400):
        n_env = rng.randrange(0, 4)
        env = tuple(_random_value(rng, 2) for _ in range(n_env))
        prog = _random_expr(rng, 4, n_env)
        out = eval_expr(prog, env, 100_000)
        try:
            v, k = oracle_eval(prog, env)
            assert out == Done(v, k)
            agree += 1
        except _OracleStuck:
            assert isinstance(out, Stuck)
        except RecursionError:
            pass
    assert agree > 50  # the generator must exercise the happy path


def test_determinism():
    rng = random.Random(7)
    prog = _random_expr(rng, 5, 1)
    first = eval_expr(prog, (nat_value(3),), 10_000)
    for _ in range(5):
        assert eval_expr(prog, (nat_value(3),), 10_000) == first


# ---------------------------------------------------------------------------
# Stuck states

def test_stuck_on_bad_index():
    out = eval_expr(Var(3), (UNIT,), 10)
    assert isinstance(out, Stuck) and "out of range" in out.reason


def test_stuck_on_variant_mismatch():
    out = eval_expr(If(0, MkTrue(), MkFalse()), (VPair(UNIT, UNIT),), 10)
    assert isinstance(out, Stuck) and "non-boolean" in out.reason
    out = eval_expr(App(0, 0), (UNIT,), 10)
    assert isinstance(out, Stuck) and "non-closure" in out.reason
    out = eval_expr(LetPair(0, Var(0)), (TRUE,), 10)
    assert isinstance(out, Stuck) and "pair" in out.reason


# ---------------------------------------------------------------------------
# Data encodings

def test_nat_value_base_and_successors():
    assert nat_value(0) == VPair(TRUE, UNIT)
    assert nat_value(1) == VPair(FALSE, VPair(TRUE, UNIT))
    assert nat_value(2) == VPair(FALSE, VPair(FALSE, VPair(TRUE, UNIT)))


def test_nat_codec_inverse_up_to_1000():
    for n in range(1001):
        assert decode_nat(nat_value(n)) == n


def test_decode_nat_rejects_bad_shapes():
    with pytest.raises(DecodeError):
        decode_nat(TRUE)
    with pytest.raises(DecodeError):
        decode_nat(VPair(UNIT, UNIT))


def test_encode_list():
    assert encode_list([]) == VPair(FALSE, UNIT)
    assert encode_list([TRUE]) == VPair(TRUE, VPair(TRUE, VPair(FALSE, UNIT)))
    assert encode_list([UNIT, UNIT]) == VPair(
        TRUE, VPair(UNIT, VPair(TRUE, VPair(UNIT, VPair(FALSE, UNIT))))
    )


def test_list_codec_roundtrip():
    items = [TRUE, FALSE, UNIT, nat_value(4)]
    assert decode_list(encode_list(items)) == items


def test_decode_bool():
    assert decode_bool(TRUE) is True
    assert decode_bool(FALSE) is False
    with pytest.raises(DecodeError):
        decode_bool(UNIT)


# ---------------------------------------------------------------------------
# Debug format round-trips

def test_expr_sexp_roundtrip():
    rng = random.Random(99)
    for _ in range(200):
        e = _random_expr(rng, 4, 3)
        assert expr_from_sexp(expr_to_sexp(e)) == e


def test_value_sexp_roundtrip():
    rng = random.Random(100)
    for _ in range(200):
        v = _random_value(rng, 3)
        assert value_from_sexp(value_to_sexp(v)) == v


def test_fuel_monotonicity_random():
    rng = random.Random(314159)
    for _ in range(150):
        n_env = rng.randrange(0, 3)
        env = tuple(_random_value(rng, 2) for _ in range(n_env))
        prog = _random_expr(rng, 4, n_env)
        out = eval_expr(prog, env, 10_000)
        if isinstance(out, Done):
            for extra in (0, 1, 17, 100_000):
                assert eval_expr(prog, env, out.steps + extra) == out
            if out.steps > 0:
                cut = eval_expr(prog, env, out.steps - 1)
                assert isinstance(cut, OutOfFuel)


def test_deep_pending_frames_do_not_overflow():
    # a hundred thousand pending sequencing frames resolve iteratively
    prog = MkTrue()
    for _ in range(100_000):
        prog = Seq(prog, Var(0))
    out = eval_expr(prog, (), 10_000_000)
    assert out == Done(TRUE, 200_001)

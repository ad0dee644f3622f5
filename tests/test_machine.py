import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import weakref

import pytest

from polyqtt import machine
from polyqtt.cli import main
from polyqtt.compiler import compile_declaration
from polyqtt.frontend import parse_module, resolve_module
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
    _eval_compiled,
    _eval_reference,
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

from conftest import CORPUS, CORPUS_FILES, compiled, load_corpus


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


def test_value_equality_does_not_recurse():
    # 100,000 nested pairs, built separately, compare with an explicit
    # stack; so do outcomes holding them
    big, twin = nat_value(100_000), nat_value(100_000)
    assert big == twin and hash(big) == hash(twin)
    assert big != twin.snd  # 99,999: unequal only at the innermost pair
    assert Done(big, 7) == Done(twin, 7)
    assert Done(big, 7) != Done(big, 8)
    # closures compare their code and their environments
    clo = Clo(Var(0), (nat_value(3), TRUE))
    assert clo == Clo(Var(0), (nat_value(3), TRUE))
    assert clo != Clo(Var(0), (nat_value(3), FALSE))
    assert clo != Clo(Var(0), (nat_value(2), TRUE))
    assert clo != Clo(Var(1), (nat_value(3), TRUE))
    assert clo != Clo(Var(0), (nat_value(3),))
    assert clo != nat_value(3) and VPair(TRUE, UNIT) != VPair(TRUE, TRUE)


def test_value_equality_compares_shared_pairs_once():
    # each level holds its one sub-value twice: 2^41 paths through 42
    # distinct pairs, built separately on each side
    def shared(depth, leaf):
        v = VPair(leaf, UNIT)
        for _ in range(depth):
            v = VPair(v, v)
        return v

    assert shared(41, TRUE) == shared(41, TRUE)
    assert shared(41, TRUE) != shared(41, FALSE)
    assert shared(41, TRUE) != shared(40, TRUE)
    assert Done(shared(41, TRUE), 3) == Done(shared(41, TRUE), 3)


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


def test_deep_sexps_roundtrip(tmp_path):
    # the first line --emit-machine prints for a 1,000-definition linear
    # chain nests each definition in the next, and values 10,000 deep
    # along first components, second components and closure environments;
    # all are read and printed without recursion, in a fresh interpreter
    # at the default recursion limit
    module = tmp_path / "chain.qtt"
    lines = ["regime consfree", r"def g0 ^1 : Bool -> Bool = \b. if b then false else true"]
    lines += [rf"def g{i} ^1 : Bool -> Bool = \b. g{i - 1} b" for i in range(1, 1000)]
    rec = "rec n at (x. Bool) { zero => true | succ(m, p) => g0 p }"
    lines.append(rf"def drive ^1 : (n ^1 : Nat) -> Bool = \n. g999 ({rec})")
    module.write_text("\n".join(lines) + "\n")
    script = tmp_path / "deep_sexps.py"
    script.write_text(
        "import contextlib, io, sys\n"
        "from polyqtt.cli import main\n"
        "from polyqtt.machine import *\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main(['bound', {str(module)!r}, 'drive', '--emit-machine']) == 0\n"
        "line = out.getvalue().splitlines()[0]\n"
        "assert len(line) > 30_000\n"
        "assert expr_to_sexp(expr_from_sexp(line)) == line\n"
        "fst, clo = TRUE, Clo(Var(0), ())\n"
        "for _ in range(10_000):\n"
        "    fst, clo = VPair(fst, UNIT), Clo(Var(0), (UNIT, clo))\n"
        "for v in (fst, nat_value(10_000), clo):\n"
        "    text = value_to_sexp(v)\n"
        "    assert value_from_sexp(text) == v and value_to_sexp(value_from_sexp(text)) == text\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


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


# ---------------------------------------------------------------------------
# The compiled path against the reference loop


def _contains_closure(v):
    todo = [v]
    while todo:
        v = todo.pop()
        if isinstance(v, Clo):
            return True
        if isinstance(v, VPair):
            todo += [v.fst, v.snd]
    return False


def _fuels_to_compare(prog, env):
    """Every fuel from 0 to one past the reference's cost: its steps when
    it finishes, the fuel at which it gets stuck, or a prefix of a run
    that never finishes; then 100,000, with which a block may loop on
    itself or go on past a call where a short run may not."""
    out = _eval_reference(prog, env, 100_000)
    if isinstance(out, Done):
        return [*range(out.steps + 2), 100_000]
    for fuel in range(200):
        if not isinstance(_eval_reference(prog, env, fuel), OutOfFuel):
            return [*range(fuel + 2), 100_000]
    return [*range(200), 100_000]


def _assert_paths_agree(prog, env):
    """The same outcome on both paths at every fuel _fuels_to_compare
    gives; returns the reference's outcome at the last of them."""
    for fuel in _fuels_to_compare(prog, env):
        want = _eval_reference(prog, env, fuel)
        assert _eval_compiled(prog, env, fuel) == want, (prog, env, fuel)
    return want


def _seq_all(parts, last):
    for part in reversed(parts):
        last = Seq(part, last)
    return last


def _nested_ifs(depth):
    """A conditional on index 0 in both arms of a conditional, depth
    deep, each arm binding a boolean for the next: 3 items a level."""
    e = MkPair(0, 2)
    for _ in range(depth):
        e = If(0, Seq(MkFalse(), e), Seq(MkTrue(), e))
    return e


def _edge_programs():
    """(program, environment) pairs at the compiled path's edges: indices
    read through the loop past the unrolled range, before and after
    values bound in the block, straight lines and conditionals around
    and past the block length cap, paths of unequal cost, code shared at
    two depths, and blocks that call or loop on themselves."""
    rng = random.Random(5)
    deep = tuple(_random_value(rng, 2) for _ in range(machine._UNROLL + 10))
    clo = Clo(Seq(Var(0), MkPair(0, 2)), (TRUE,))
    far = machine._UNROLL + 3  # a slot read through the loop
    slots = {far: clo, far + 1: TRUE, far + 2: VPair(FALSE, UNIT), far + 3: FALSE}
    deep = tuple(slots.get(len(deep) - 1 - k, v) for k, v in enumerate(deep))
    n = len(deep)
    yield Var(far), deep
    yield Var(n - 1), deep
    yield Var(n), deep
    yield MkPair(far + 2, 0), deep
    yield MkPair(1, n), deep
    yield App(far, far + 3), deep
    yield App(far + 1, 0), deep
    yield If(far + 1, Var(far + 2), Var(n + 5)), deep
    yield If(far + 3, Var(far + 2), Var(n + 5)), deep
    yield If(far + 2, MkTrue(), MkFalse()), deep
    yield LetPair(far + 2, MkPair(1, far + 4)), deep
    yield LetPair(far + 1, Var(0)), deep
    # the same reads in a straight line that binds a sequence's first
    yield Seq(Seq(MkUnit(), MkPair(0, far + 3)), Var(0)), deep
    yield Seq(Seq(MkUnit(), Var(n + 1)), Var(0)), deep
    for _ in range(40):
        yield _random_expr(rng, 4, n), deep
    # straight lines of _CAP - 2 to _CAP + 2 instructions and far longer:
    # bindings, pair eliminations, pushed frames and lines in a first
    cap = machine._CAP
    for k in (*range(cap - 2, cap + 3), 3 * cap + 1):
        yield _seq_all([MkTrue()] * k, MkPair(0, k - 1)), ()
        yield _seq_all([MkPair(0, 0), LetPair(0, Var(2))] * k, Var(3 * k - 1)), (FALSE,)
        yield _seq_all([Seq(Lam(Var(0)), Var(0))] * k, App(0, k)), (UNIT,)
        prog = MkTrue()
        for _ in range(k):
            prog = Seq(prog, If(0, Var(0), MkUnit()))
        yield prog, ()
        yield Seq(_seq_all([MkFalse()] * k, Var(k - 1)), Var(0)), ()
        yield Seq(_seq_all([MkFalse()] * k, App(0, 0)), Var(0)), ()
        # k pair eliminations in a row, then a closure over all they bound
        split = Seq(Lam(MkPair(1, 2 * k + 2)), App(0, 0))
        for _ in range(k):
            split = LetPair(0, split)
        yield split, (nat_value(k),)
    # one node entered at two environment depths
    shared = Seq(Var(1), If(0, LetPair(3, MkPair(0, 4)), Var(2)))
    twice = Seq(shared, Seq(MkTrue(), Seq(MkFalse(), shared)))
    yield twice, (VPair(FALSE, UNIT), TRUE, FALSE)
    yield twice, (TRUE, FALSE)
    body = Seq(Var(2), If(0, MkPair(far, 1), Var(3)))
    fn = Lam(body)
    yield Seq(fn, Seq(App(0, far + 2), Seq(fn, App(0, 4)))), deep
    yield Seq(fn, Seq(App(0, 1), Seq(fn, App(0, far + 3)))), deep
    # reads below, at and past _UNROLL after three values bound in the
    # block, and one past the environment
    for i in (machine._UNROLL - 1, machine._UNROLL + 2, far + 3, n + 3):
        yield Seq(MkTrue(), LetPair(far + 3, MkPair(i, 1))), deep
        yield Seq(MkTrue(), LetPair(far + 3, Seq(Var(i), App(far + 4, 0)))), deep
    # conditionals nested in both arms across _CAP, alone and as the
    # first part of a sequence
    for depth in (cap // 6, cap // 3, cap // 3 + 1, cap):
        for b in (TRUE, FALSE):
            yield _nested_ifs(depth), (UNIT, b)
            yield Seq(_nested_ifs(depth), LetPair(0, Var(1))), (UNIT, b)
    for b in (TRUE, FALSE):
        for x in (clo, VPair(TRUE, UNIT), TRUE):
            # a frame pending before a conditional whose arms apply x or
            # eliminate it as a pair: each may run out of fuel or get stuck
            arms = If(0, Seq(MkUnit(), App(2, 0)), LetPair(1, MkPair(1, 0)))
            yield Seq(arms, MkPair(0, 1)), (x, b)
            arms = If(1, Seq(MkUnit(), App(3, 0)), LetPair(2, MkPair(1, 0)))
            yield Seq(Seq(MkUnit(), arms), Seq(Var(0), App(3, 0))), (x, b)
        # arms of unequal cost, alone and as a sequence's first part
        uneven = If(0, Var(0), _seq_all([MkFalse(), MkUnit()], MkPair(0, 1)))
        yield uneven, (b,)
        yield Seq(uneven, Seq(MkTrue(), MkPair(1, 0))), (b,)
        yield Seq(If(0, Seq(MkUnit(), App(2, 0)), MkTrue()), Var(0)), (clo, b)
        # closures that capture values bound in the block, applied and
        # returned
        captured = Seq(MkTrue(), LetPair(2, Lam(MkPair(3, 2))))
        yield Seq(captured, Seq(MkUnit(), App(1, 0))), (VPair(UNIT, b), FALSE)
        yield Seq(MkFalse(), If(1, captured, Lam(Var(3)))), (VPair(b, b), b)
    # a closure or a pair as the scrutinee, read from the entry
    # environment or bound in the block
    for scrutinee in (clo, VPair(TRUE, FALSE)):
        yield If(0, MkTrue(), Var(0)), (scrutinee,)
    yield Seq(Lam(Var(0)), If(0, MkTrue(), MkFalse())), ()
    yield Seq(MkPair(0, 0), If(0, MkTrue(), MkFalse())), (TRUE,)
    yield Seq(MkTrue(), Seq(Var(1), If(0, MkTrue(), MkFalse()))), (clo,)
    yield from _call_programs(clo)


def _call_programs(clo):
    """Programs whose blocks call the blocks they apply, or loop on
    themselves: callees that finish in their first round, return a
    closure or get stuck, called with frames pending or in tail position,
    a callee that applies a closure in turn (past the one direct call a
    block may make), frames pushed for a call and resumed or cut by a
    jump after it, and recursion through a closure's self slot."""
    cap = machine._CAP
    quick, closure = Lam(MkTrue()), Lam(Lam(MkPair(1, 0)))
    bad_index, not_closure = Lam(Var(5)), Lam(App(0, 0))
    calls_on = Lam(Seq(Lam(MkPair(0, 1)), Seq(App(0, 1), MkPair(0, 1))))
    for fn in (quick, closure, bad_index, not_closure, calls_on):
        # with a frame pending, in tail position, twice in a row, and
        # from inside a conditional's arm
        yield Seq(fn, Seq(App(0, 1), MkPair(0, 1))), (FALSE,)
        yield Seq(fn, App(0, 1)), (TRUE,)
        yield Seq(fn, Seq(App(0, 1), Seq(App(1, 0), MkPair(1, 0)))), (UNIT,)
        yield Seq(fn, If(1, Seq(App(0, 0), MkPair(0, 2)), App(0, 1))), (TRUE,)
        # the result applied again, where it is a closure
        yield Seq(fn, Seq(App(0, 1), Seq(App(0, 2), MkPair(0, 1)))), (FALSE,)
        # frames pending around the call, resumed after it in the same
        # block, and cut by a jump after it
        yield Seq(Seq(MkUnit(), Seq(Seq(fn, Seq(MkUnit(), App(1, 0))), MkPair(1, 0))), LetPair(0, Var(0))), ()
        yield Seq(Seq(fn, Seq(App(0, 0), _seq_all([MkFalse()] * cap, Var(0)))), MkPair(0, 1)), ()
    # the closure applied twice by a block that itself runs in a frame
    # another block pushed
    yield Seq(Seq(quick, Seq(Seq(Seq(quick, Seq(MkUnit(), App(1, 0))), Seq(MkPair(1, 0), Seq(MkTrue(), MkPair(0, 1)))), MkPair(1, 0))), App(2, 0)), (TRUE,)
    # a closure that applies itself k times with a frame pending; each
    # frame's rest returns false for true, as its block's first round,
    # and gets stuck on false, in its second
    unwind = Lam(LetPair(0, If(1, MkTrue(), Seq(App(3, 0), If(0, MkFalse(), LetPair(0, Var(0)))))))
    for k in (1, 2, 4):
        yield Seq(unwind, App(0, 1)), (nat_value(k),)
    # one node run inline by a block and as the body of the closure that
    # block calls, which pushes a frame for the same rest before the
    # value returns: it returns to the callee's frame, not the caller's
    shared = If(0, Seq(App(1, 2), MkPair(0, 3)), MkTrue())
    yield Seq(MkTrue(), shared), (TRUE, Clo(shared, (FALSE,)))
    # recursors: a closure applying itself through its self slot with a
    # frame pending, values returned to frames of the returning block,
    # and tail calls and calls whose values return to such frames
    for file, decl in (
        ("consfree_iter.qtt", "parity1"),
        ("consfree_iter.qtt", "comboDup"),
        ("lfpl_iter.qtt", "rebuild1"),
        ("lfpl_iter.qtt", "nested2L"),
    ):
        for n in (0, 1, 2, 6):
            yield _fresh_code(file, decl), (nat_value(n),)


def test_compiled_path_matches_reference_on_random_programs():
    rng = random.Random(20240817)
    done = stuck = closures = 0
    for _ in range(400):
        n_env = rng.randrange(0, 4)
        env = tuple(_random_value(rng, 2) for _ in range(n_env))
        prog = _random_expr(rng, 4, n_env)
        want = _assert_paths_agree(prog, env)
        done += isinstance(want, Done)
        stuck += isinstance(want, Stuck)
        closures += isinstance(want, Done) and _contains_closure(want.value)
    # both kinds of outcome, and closures in results, are exercised
    assert done > 50 and stuck > 50 and closures > 20
    outcomes = [_assert_paths_agree(prog, env).__class__ for prog, env in _edge_programs()]
    assert outcomes.count(Done) > 40 and outcomes.count(Stuck) > 20


def _fresh_code(file: str, decl: str):
    """The code of a declaration compiled from a module resolved afresh,
    so that no block of its nodes has been prepared."""
    mod = resolve_module(parse_module((CORPUS / file).read_text()))
    d = next(d for d in mod.decls if d.name == decl)
    return compile_declaration(mod.regime, d.ty, d.body).code


def test_block_shapes_are_generated_once(monkeypatch):
    # a block's function comes from a factory cached by the block's shape,
    # and a block lives as long as its node: a second run of the same code
    # prepares nothing, and a fresh copy prepares its own blocks but
    # generates no new shape
    info = machine._factory.cache_info
    prepared = []
    real = machine._prepare
    monkeypatch.setattr(machine, "_prepare", lambda blk: prepared.append(blk) or real(blk))
    for nth in range(2):
        code = _fresh_code("consfree_iter.qtt", "nested3")
        misses = info().misses
        prepared.clear()
        assert _eval_compiled(code, (nat_value(6),), 10_000_000).steps == 5_996
        assert prepared
        assert nth == 0 or info().misses == misses
        calls = info().hits + info().misses
        prepared.clear()
        assert _eval_compiled(code, (nat_value(6),), 10_000_000).steps == 5_996
        assert not prepared and info().hits + info().misses == calls
    # unshared copies of a node without sub-nodes share one block: 100,000
    # distinct Var(0) nodes and Seq nodes 32 to a block
    prog = MkTrue()
    for _ in range(100_000):
        prog = Seq(prog, Var(0))
    prepared.clear()
    misses = info().misses
    assert _eval_compiled(prog, (), 10_000_000) == Done(TRUE, 200_001)
    assert info().misses - misses <= 5
    assert 3_000 <= len(prepared) <= 4_000


def test_blocks_continue_through_conditionals(monkeypatch):
    # the driver loop enters a block, which continues through conditionals,
    # loops on itself and calls the blocks it applies, far less often than
    # once per application: before blocks looped or called, nested3 at
    # n=20 entered 40,000 to 45,456 and the runs below 4.0, 4.0, 5.8 and
    # 5.9 steps per entry.  Fresh code and an empty table of leaf blocks,
    # so that every block entered is prepared, and so counted, here; a
    # block the loop enters runs with d=1, one another block calls with 0
    entered = [0]
    real = machine._factory

    def factory(shape):
        make = real(shape)

        def counted_factory(*refs):
            run = make(*refs)

            def counted(e, s, f, me, d):
                entered[0] += d
                return run(e, s, f, me, d)

            return counted

        return counted_factory

    monkeypatch.setattr(machine, "_factory", factory)
    monkeypatch.setattr(machine, "_LEAF_BLOCKS", {})
    for file, decl, n, steps, least, most in (
        ("consfree_iter.qtt", "nested3", 20, 176_418, 2_800, 3_000),
        ("consfree_iter.qtt", "nested3", 40, 1_343_998, 11_000, 11_800),
        ("consfree_iter.qtt", "comboDup", 60, 75_606, 400, 460),
        ("lfpl_sort.qtt", "sortDriver", 60, 102_545, 6_400, 6_900),
        ("lfpl_iter.qtt", "nested2L", 60, 65_819, 400, 450),
    ):
        entered[0] = 0
        assert _eval_compiled(_fresh_code(file, decl), (nat_value(n),), 10_000_000).steps == steps
        assert least <= entered[0] <= most, (decl, n, entered[0])


def test_eval_expr_picks_its_path(monkeypatch):
    taken = []
    for name in ("_eval_compiled", "_eval_reference"):
        real = getattr(machine, name)
        monkeypatch.setattr(
            machine, name, lambda *a, name=name, real=real: taken.append(name) or real(*a)
        )
    least = machine.COMPILE_MIN_FUEL

    def path(prog, fuel, trace=None):
        taken.clear()
        assert eval_expr(prog, (), fuel, trace=trace) == Done(TRUE, 3)
        return taken[0] if len(taken) == 1 else taken

    # fresh code runs compiled from COMPILE_MIN_FUEL, and a traced run never
    assert path(Seq(MkTrue(), Var(0)), least) == "_eval_compiled"
    assert path(Seq(MkTrue(), Var(0)), least - 1) == "_eval_reference"
    assert path(Seq(MkTrue(), Var(0)), least, []) == "_eval_reference"
    # code that has run compiled takes the compiled path at any fuel
    prog = Seq(MkTrue(), Var(0))
    assert path(prog, least) == "_eval_compiled"
    assert path(prog, least - 1) == "_eval_compiled"
    assert path(prog, 3) == "_eval_compiled"
    assert path(prog, least, []) == "_eval_reference"
    # a closure body whose block was only referred to, never entered
    body = Seq(MkTrue(), Var(0))
    assert eval_expr(Seq(Lam(body), Var(0)), (), least).value == Clo(body, ())
    assert path(body, least - 1) == "_eval_reference"


def test_code_stays_acyclic(monkeypatch):
    # a block refers to its node weakly, so code that ran compiled is freed
    # by reference counting alone, also after a stuck run.  Out of fuel is
    # the compiled path's own outcome; a stuck run starts over on the
    # reference loop, with the environment and fuel the caller passed
    handed = []
    reference = machine._eval_reference
    monkeypatch.setattr(machine, "_eval_reference", lambda *a: handed.append(a) or reference(*a))
    for fuel, env, outcome, calls in (
        (10_000_000, (nat_value(6),), Done, 0),
        (5_995, (nat_value(6),), OutOfFuel, 0),
        (10_000_000, (TRUE,), Stuck, 1),
    ):
        code = _fresh_code("consfree_iter.qtt", "nested3")
        want = reference(code, env, fuel)
        assert want.__class__ is outcome
        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(code)
            for _ in range(2):
                handed.clear()
                assert _eval_compiled(code, env, fuel) == want
                assert [(c is code, e is env, f) for c, e, f in handed] == [(True, True, fuel)] * calls
            handed.clear()
            del code
            assert ref() is None
        finally:
            gc.enable()


def test_compiled_path_detects_its_own_faults(monkeypatch, capsys):
    # a block that raises on a run the reference loop finishes is a fault
    # of the compiled path, never a Stuck outcome: _eval_compiled raises,
    # and the command exits 3
    def broken(*args):
        raise TypeError

    monkeypatch.setattr(machine, "_prepare", lambda blk: broken)
    with pytest.raises(RuntimeError):
        _eval_compiled(_fresh_code("consfree_iter.qtt", "nested3"), (nat_value(6),), 10_000_000)
    assert main(["run", str(CORPUS / "consfree_iter.qtt"), "nested3", "--input", "6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "internal error" in captured.err


def test_copies_prepare_their_own_blocks():
    # a copy or a pickle of code that ran compiled carries no block, so
    # none of its blocks refers to a node of the original once that is gone
    code, env = _fresh_code("consfree_iter.qtt", "parity1"), (nat_value(5),)
    want = _eval_compiled(code, env, 10_000_000)
    copies = [copy.copy(code), copy.deepcopy(code), pickle.loads(pickle.dumps(code))]
    del code
    for c in copies:
        assert getattr(c, "_block", None) is None
        assert _eval_compiled(c, env, 10_000_000) == want
        assert _eval_compiled(c, env, want.steps - 1) == OutOfFuel()


def test_threads_share_prepared_code():
    # the blocks are the code's and the frame stack is the run's: two
    # threads running one fresh copy of nested3, switching often, each
    # get the reference outcome every time
    code = _fresh_code("consfree_iter.qtt", "nested3")
    wants = {n: _eval_reference(code, (nat_value(n),), 10_000_000) for n in (8, 9)}
    outcomes = {8: [], 9: []}
    start = threading.Barrier(2)

    def work(n):
        start.wait(timeout=30)
        for _ in range(50):
            outcomes[n].append(_eval_compiled(code, (nat_value(n),), 10_000_000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in (8, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for n, want in wants.items():
        assert isinstance(want, Done) and outcomes[n] == [want] * 50


def test_cold_and_warm_runs_agree_on_corpus():
    # every runtime declaration with an input, on fresh code for each
    # n <= 6: the first compiled run prepares the blocks and the second
    # reuses them; both give the reference's value and steps, and the
    # prepared code runs out of fuel one step short on both entries
    checked = 0
    for name in CORPUS_FILES:
        for d in load_corpus(name).decls:
            if d.sigma != 1 or compiled(name, d.name).input_arity != 1:
                continue
            for n in range(7):
                code, env = _fresh_code(name, d.name), (nat_value(n),)
                want = _eval_reference(code, env, 10_000_000)
                assert isinstance(want, Done), (d.name, n)
                cold = _eval_compiled(code, env, 10_000_000)
                assert cold == want and _eval_compiled(code, env, 10_000_000) == want
                assert _eval_compiled(code, env, want.steps - 1) == OutOfFuel()
                assert eval_expr(code, env, want.steps - 1) == OutOfFuel()
            checked += 1
    assert checked == 14


def test_compiled_path_reports_each_stuck_reason():
    # out-of-range and negative indices, which the random programs lack
    clo = Clo(Var(0), ())
    for prog, env in (
        (Var(3), (UNIT,)),
        (Var(-1), (UNIT,)),
        (MkPair(0, 2), (UNIT,)),
        (App(0, 0), (UNIT,)),
        (App(0, 5), (clo,)),
        (If(0, MkTrue(), MkFalse()), (clo,)),
        (LetPair(0, Var(0)), (TRUE,)),
        (Seq(MkTrue(), Seq(Var(0), LetPair(1, Var(0)))), ()),
    ):
        want = _eval_reference(prog, env, 100)
        assert isinstance(want, Stuck)
        assert _eval_compiled(prog, env, 100) == want


def test_deep_code_takes_the_compiled_path(tmp_path):
    # 5,000 levels through sequencing, closure bodies and branches, run
    # in a fresh interpreter at the default recursion limit
    script = tmp_path / "deep.py"
    script.write_text(
        "import sys\n"
        "from polyqtt.machine import *\n"
        "from polyqtt.machine import _eval_compiled, _eval_reference\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "e = MkTrue()\n"
        "for k in range(5000):\n"
        "    if k % 3 == 0:\n"
        "        e = Seq(MkFalse(), e)\n"
        "    elif k % 3 == 1:\n"
        "        e = Seq(Lam(e), Seq(MkUnit(), App(1, 0)))\n"
        "    else:\n"
        "        e = Seq(MkTrue(), If(0, e, MkUnit()))\n"
        "want = _eval_reference(e, (), 10_000_000)\n"
        "assert isinstance(want, Done), want\n"
        "assert eval_expr(e, (), 10_000_000) == want\n"
        "assert _eval_compiled(e, (), want.steps - 1) == OutOfFuel()\n"
        "print(want.steps)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 15_000


def test_deep_recursion_stays_off_the_host_stack(tmp_path):
    # recursors 100,000 and 20,000 deep, through load and run_and_verify,
    # in fresh interpreters at the default recursion limit and at 200: a
    # block loops on itself and calls at most one block, so the depth of
    # the host stack does not grow with the object program's
    script = tmp_path / "deep_recursion.py"
    script.write_text(
        "import sys\n"
        "from pathlib import Path\n"
        "from polyqtt import load, run_and_verify\n"
        "if len(sys.argv) > 1:\n"
        "    sys.setrecursionlimit(int(sys.argv[1]))\n"
        f"corpus = Path({str(CORPUS)!r})\n"
        "cf = load((corpus / 'consfree_iter.qtt').read_text())\n"
        "lf = load((corpus / 'lfpl_iter.qtt').read_text())\n"
        "print(run_and_verify(cf.compile('parity1'), 100_000).steps)\n"
        "print(run_and_verify(lf.compile('rebuild1'), 20_000).steps)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for limit in ([], ["200"]):
        out = subprocess.run(
            [sys.executable, str(script), *limit],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["2000016", "700041"]


def test_deep_values_cross_into_and_out_of_the_compiled_path(tmp_path):
    # values 10,000 deep along first components, second components and
    # closure environments are converted without recursion, in a fresh
    # interpreter at the default recursion limit, and returned whole; where
    # a block gets stuck, the reference loop runs the caller's environment
    script = tmp_path / "deep_values.py"
    script.write_text(
        "import sys\n"
        "from polyqtt import machine\n"
        "from polyqtt.machine import *\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "fst, clo = TRUE, Clo(Var(0), ())\n"
        "for _ in range(10_000):\n"
        "    fst, clo = VPair(fst, UNIT), Clo(Var(0), (clo,))\n"
        "fuel = machine.COMPILE_MIN_FUEL\n"
        "reference, handed = machine._eval_reference, []\n"
        "machine._eval_reference = lambda *a: handed.append(a[1]) or reference(*a)\n"
        "stuck = Seq(MkTrue(), App(0, 1))\n"
        "for v in (fst, nat_value(10_000), clo):\n"
        "    out = eval_expr(MkPair(0, 0), (v,), fuel)\n"
        "    assert out == Done(VPair(v, v), 1) and out.value.fst is out.value.snd\n"
        "    assert not handed\n"
        "    assert eval_expr(stuck, (v,), fuel) == reference(stuck, (v,), fuel)\n"
        "    assert handed.pop() == (v,)\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_shared_values_are_converted_once(tmp_path):
    # a pair DAG of depth 64 has 2^64 paths but 65 nodes; both converters
    # visit each node once, and the returned value keeps the sharing.  In
    # a fresh interpreter, so a converter that walks paths times out
    script = tmp_path / "dag.py"
    script.write_text(
        "from polyqtt import machine\n"
        "from polyqtt.machine import *\n"
        "v = TRUE\n"
        "for _ in range(64):\n"
        "    v = VPair(v, v)\n"
        "c = machine._compiled_env((v,))[0]\n"
        "out = eval_expr(Var(0), (v,), machine.COMPILE_MIN_FUEL)\n"
        "assert out.steps == 1\n"
        "w = out.value\n"
        "for _ in range(64):\n"
        "    assert c[0] is c[1] and w.fst is w.snd\n"
        "    c, w = c[0], w.fst\n"
        "assert c is True and w is TRUE\n"
        "# and so does a closure environment that holds one value twice\n"
        "clo = Clo(Var(0), (v, v))\n"
        "w = eval_expr(Var(0), (clo,), machine.COMPILE_MIN_FUEL).value\n"
        "assert w == clo and w.env[0] is w.env[1]\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_foreign_values_run_on_the_reference_loop(monkeypatch):
    # an environment value of no machine value class, alone, at the end
    # of a long pair chain, in a closure's environment or as its body,
    # sends the run to the reference loop with the environment it was given
    handed = []
    reference = machine._eval_reference
    monkeypatch.setattr(
        machine, "_eval_reference", lambda *a: handed.append(a[1]) or reference(*a)
    )
    alien = object()
    chain = VPair(TRUE, alien)
    for _ in range(1_000):
        chain = VPair(FALSE, chain)
    fuel = machine.COMPILE_MIN_FUEL
    for v in (alien, chain, Clo(Var(0), (TRUE, alien)), Clo(Var(0), [TRUE]), Clo(alien, ())):
        for prog in (Var(0), MkPair(0, 0), If(0, MkTrue(), MkFalse()), LetPair(0, Var(1))):
            env = (UNIT, v)
            handed.clear()
            want = reference(prog, env, fuel)
            assert eval_expr(prog, env, fuel) == want
            assert len(handed) == 1 and handed[0] is env

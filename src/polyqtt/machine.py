"""Untyped CBV machine with exact step counting.

Expressions are index-based: eliminators take de Bruijn indices into the
environment rather than nested expressions, so only abstraction bodies
and sequencing nest.  Environments extend on the right and indices count
from the right, index 0 being the most recently bound value.  Closure
application installs the closure environment extended with the closure
itself (for self reference) and the argument.
"""

from __future__ import annotations

from dataclasses import dataclass


# --------------------------------------------------------------------------
# Syntax

class MachineExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Lam(MachineExpr):
    body: MachineExpr


@dataclass(frozen=True)
class MkUnit(MachineExpr):
    pass


@dataclass(frozen=True)
class MkPair(MachineExpr):
    i: int
    j: int


@dataclass(frozen=True)
class MkTrue(MachineExpr):
    pass


@dataclass(frozen=True)
class MkFalse(MachineExpr):
    pass


@dataclass(frozen=True)
class Var(MachineExpr):
    i: int


@dataclass(frozen=True)
class Seq(MachineExpr):
    first: MachineExpr
    rest: MachineExpr


@dataclass(frozen=True)
class App(MachineExpr):
    i: int
    j: int


@dataclass(frozen=True)
class LetPair(MachineExpr):
    i: int
    body: MachineExpr


@dataclass(frozen=True)
class If(MachineExpr):
    i: int
    then_branch: MachineExpr
    else_branch: MachineExpr


# --------------------------------------------------------------------------
# Values.  Environments are plain tuples of values; env[-1 - i] is the
# lookup of index i, counting from the right.

class MachineValue:
    __slots__ = ()


@dataclass(frozen=True)
class Clo(MachineValue):
    body: MachineExpr
    env: tuple = ()


@dataclass(frozen=True)
class VUnit(MachineValue):
    pass


@dataclass(frozen=True)
class VPair(MachineValue):
    fst: MachineValue
    snd: MachineValue


@dataclass(frozen=True)
class VTrue(MachineValue):
    pass


@dataclass(frozen=True)
class VFalse(MachineValue):
    pass


UNIT = VUnit()
TRUE = VTrue()
FALSE = VFalse()

Env = tuple


# --------------------------------------------------------------------------
# Outcomes

class EvalOutcome:
    __slots__ = ()


@dataclass(frozen=True)
class Done(EvalOutcome):
    value: MachineValue
    steps: int


@dataclass(frozen=True)
class OutOfFuel(EvalOutcome):
    pass


@dataclass(frozen=True)
class Stuck(EvalOutcome):
    reason: str


OUT_OF_FUEL = OutOfFuel()


def eval_expr(
    expr: MachineExpr,
    env: Env = (),
    fuel: int = 10_000_000,
    trace: list | None = None,
) -> EvalOutcome:
    """Run the big-step evaluator, counting exact steps: every rule,
    including the resumption of a sequencing frame, costs one step.

    Returns Done(v, k) exactly when a derivation of cost k <= fuel
    exists; OutOfFuel when the derivation would exceed the fuel; Stuck
    with a diagnostic on an out-of-range index or a variant mismatch.

    Evaluation is a loop over an explicit continuation stack (only the
    first component of a sequencing construct is a non-tail position),
    so deep recursion in object programs cannot overflow the host
    stack.
    """
    steps = 0
    # Pending frames: (rest_expr, env) to resume once a value arrives.
    stack: list[tuple[MachineExpr, Env]] = []
    value: MachineValue | None = None

    while True:
        if value is None:
            cls = expr.__class__
            if trace is not None:
                trace.append(cls.__name__)
            if cls is Var:
                i = expr.i
                if i < 0 or i >= len(env):
                    return Stuck(f"index {i} out of range for depth {len(env)}")
                steps += 1
                if steps > fuel:
                    return OUT_OF_FUEL
                value = env[-1 - i]
            elif cls is App:
                i, j = expr.i, expr.j
                if max(i, j) >= len(env) or min(i, j) < 0:
                    return Stuck(f"index out of range in application ({i}, {j})")
                fn = env[-1 - i]
                if fn.__class__ is not Clo:
                    return Stuck(f"applied a non-closure {fn.__class__.__name__}")
                steps += 1
                if steps > fuel:
                    return OUT_OF_FUEL
                arg = env[-1 - j]
                env = fn.env + (fn, arg)
                expr = fn.body
            elif cls is Seq:
                stack.append((expr.rest, env))
                expr = expr.first
            elif cls is If:
                i = expr.i
                if i < 0 or i >= len(env):
                    return Stuck(f"index {i} out of range for depth {len(env)}")
                scrut = env[-1 - i]
                if scrut.__class__ is VTrue:
                    steps += 1
                    if steps > fuel:
                        return OUT_OF_FUEL
                    expr = expr.then_branch
                elif scrut.__class__ is VFalse:
                    steps += 1
                    if steps > fuel:
                        return OUT_OF_FUEL
                    expr = expr.else_branch
                else:
                    return Stuck(
                        f"conditional on a non-boolean {scrut.__class__.__name__}"
                    )
            elif cls is LetPair:
                i = expr.i
                if i < 0 or i >= len(env):
                    return Stuck(f"index {i} out of range for depth {len(env)}")
                scrut = env[-1 - i]
                if scrut.__class__ is not VPair:
                    return Stuck(
                        f"pair elimination on a {scrut.__class__.__name__}"
                    )
                steps += 1
                if steps > fuel:
                    return OUT_OF_FUEL
                env = env + (scrut.fst, scrut.snd)
                expr = expr.body
            elif cls is MkPair:
                i, j = expr.i, expr.j
                if max(i, j) >= len(env) or min(i, j) < 0:
                    return Stuck(f"index out of range in pairing ({i}, {j})")
                steps += 1
                if steps > fuel:
                    return OUT_OF_FUEL
                value = VPair(env[-1 - i], env[-1 - j])
            elif cls is Lam:
                steps += 1
                if steps > fuel:
                    return OUT_OF_FUEL
                value = Clo(expr.body, env)
            elif cls is MkUnit:
                steps += 1
                if steps > fuel:
                    return OUT_OF_FUEL
                value = UNIT
            elif cls is MkTrue:
                steps += 1
                if steps > fuel:
                    return OUT_OF_FUEL
                value = TRUE
            elif cls is MkFalse:
                steps += 1
                if steps > fuel:
                    return OUT_OF_FUEL
                value = FALSE
            else:
                return Stuck(f"unknown expression {cls.__name__}")
        else:
            if not stack:
                return Done(value, steps)
            # Resume a sequencing frame: charge its own step, bind the value.
            steps += 1
            if steps > fuel:
                return OUT_OF_FUEL
            expr, env0 = stack.pop()
            env = env0 + (value,)
            value = None


# --------------------------------------------------------------------------
# Canonical encodings of observable data

def nat_value(n: int) -> MachineValue:
    """Naturals as nested tagged pairs: 0 is (true, *), n+1 is (false, n)."""
    if n < 0:
        raise ValueError("naturals only")
    v: MachineValue = VPair(TRUE, UNIT)
    for _ in range(n):
        v = VPair(FALSE, v)
    return v


class DecodeError(ValueError):
    pass


def decode_nat(v: MachineValue) -> int:
    n = 0
    while True:
        if v.__class__ is not VPair:
            raise DecodeError(f"not a natural encoding: {v!r}")
        tag = v.fst
        if tag.__class__ is VTrue:
            if v.snd.__class__ is not VUnit:
                raise DecodeError(f"malformed zero: {v!r}")
            return n
        if tag.__class__ is VFalse:
            n += 1
            v = v.snd
        else:
            raise DecodeError(f"not a natural encoding: {v!r}")


def encode_list(items: list[MachineValue]) -> MachineValue:
    """Lists as tagged pairs: nil is (false, *), cons is (true, (head, tail))."""
    v: MachineValue = VPair(FALSE, UNIT)
    for item in reversed(items):
        v = VPair(TRUE, VPair(item, v))
    return v


def decode_list(v: MachineValue) -> list[MachineValue]:
    out: list[MachineValue] = []
    while True:
        if v.__class__ is not VPair:
            raise DecodeError(f"not a list encoding: {v!r}")
        tag = v.fst
        if tag.__class__ is VFalse:
            if v.snd.__class__ is not VUnit:
                raise DecodeError(f"malformed nil: {v!r}")
            return out
        if tag.__class__ is VTrue:
            cell = v.snd
            if cell.__class__ is not VPair:
                raise DecodeError(f"malformed cons cell: {v!r}")
            out.append(cell.fst)
            v = cell.snd
        else:
            raise DecodeError(f"not a list encoding: {v!r}")


def decode_bool(v: MachineValue) -> bool:
    if v.__class__ is VTrue:
        return True
    if v.__class__ is VFalse:
        return False
    raise DecodeError(f"not a boolean: {v!r}")


# --------------------------------------------------------------------------
# Round-trippable s-expression debug format

def expr_to_sexp(e: MachineExpr) -> str:
    cls = e.__class__
    if cls is Lam:
        return f"(lam {expr_to_sexp(e.body)})"
    if cls is MkUnit:
        return "unit"
    if cls is MkPair:
        return f"(pair {e.i} {e.j})"
    if cls is MkTrue:
        return "true"
    if cls is MkFalse:
        return "false"
    if cls is Var:
        return f"(var {e.i})"
    if cls is Seq:
        return f"(let {expr_to_sexp(e.first)} {expr_to_sexp(e.rest)})"
    if cls is App:
        return f"(app {e.i} {e.j})"
    if cls is LetPair:
        return f"(letpair {e.i} {expr_to_sexp(e.body)})"
    if cls is If:
        return (
            f"(if {e.i} {expr_to_sexp(e.then_branch)}"
            f" {expr_to_sexp(e.else_branch)})"
        )
    raise ValueError(f"unknown expression {cls.__name__}")


def value_to_sexp(v: MachineValue) -> str:
    cls = v.__class__
    if cls is Clo:
        inner = " ".join(value_to_sexp(w) for w in v.env)
        return f"(clo {expr_to_sexp(v.body)} (env{' ' if inner else ''}{inner}))"
    if cls is VUnit:
        return "unit"
    if cls is VTrue:
        return "true"
    if cls is VFalse:
        return "false"
    if cls is VPair:
        return f"(pairv {value_to_sexp(v.fst)} {value_to_sexp(v.snd)})"
    raise ValueError(f"unknown value {cls.__name__}")


def _tokenize_sexp(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


class SexpError(ValueError):
    pass


def _parse_sexp(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise SexpError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _parse_sexp(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise SexpError("missing closing parenthesis")
        return items, pos + 1
    if tok == ")":
        raise SexpError("unexpected closing parenthesis")
    return tok, pos + 1


def _expr_of_sexp(s) -> MachineExpr:
    if s == "unit":
        return MkUnit()
    if s == "true":
        return MkTrue()
    if s == "false":
        return MkFalse()
    if isinstance(s, list) and s:
        head = s[0]
        if head == "lam" and len(s) == 2:
            return Lam(_expr_of_sexp(s[1]))
        if head == "pair" and len(s) == 3:
            return MkPair(int(s[1]), int(s[2]))
        if head == "var" and len(s) == 2:
            return Var(int(s[1]))
        if head == "let" and len(s) == 3:
            return Seq(_expr_of_sexp(s[1]), _expr_of_sexp(s[2]))
        if head == "app" and len(s) == 3:
            return App(int(s[1]), int(s[2]))
        if head == "letpair" and len(s) == 3:
            return LetPair(int(s[1]), _expr_of_sexp(s[2]))
        if head == "if" and len(s) == 4:
            return If(int(s[1]), _expr_of_sexp(s[2]), _expr_of_sexp(s[3]))
    raise SexpError(f"bad expression form: {s!r}")


def _value_of_sexp(s) -> MachineValue:
    if s == "unit":
        return UNIT
    if s == "true":
        return TRUE
    if s == "false":
        return FALSE
    if isinstance(s, list) and s:
        head = s[0]
        if head == "clo" and len(s) == 3:
            envs = s[2]
            if not (isinstance(envs, list) and envs and envs[0] == "env"):
                raise SexpError(f"bad closure environment: {envs!r}")
            return Clo(
                _expr_of_sexp(s[1]),
                tuple(_value_of_sexp(w) for w in envs[1:]),
            )
        if head == "pairv" and len(s) == 3:
            return VPair(_value_of_sexp(s[1]), _value_of_sexp(s[2]))
    raise SexpError(f"bad value form: {s!r}")


def expr_from_sexp(text: str) -> MachineExpr:
    tree, pos = _parse_sexp(_tokenize_sexp(text), 0)
    return _expr_of_sexp(tree)


def value_from_sexp(text: str) -> MachineValue:
    tree, pos = _parse_sexp(_tokenize_sexp(text), 0)
    return _value_of_sexp(tree)

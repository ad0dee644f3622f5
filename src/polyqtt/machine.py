"""Untyped CBV machine with exact step counting.

Expressions are index-based: eliminators take de Bruijn indices into the
environment rather than nested expressions, so only abstraction bodies
and sequencing nest.  Environments extend on the right and indices count
from the right, index 0 being the most recently bound value.  Closure
application installs the closure environment extended with the closure
itself (for self reference) and the argument.

eval_expr runs a program on one of two paths with the same contract and
the same step count.

- The reference loop (_eval_reference) interprets one rule per
  iteration, checking and charging each on its own.  It is the
  definition the tests compare against, and the only path that records
  a trace.
- The compiled path (_eval_compiled) prepares each distinct code node
  it enters once, lazily, into a block: the instructions from that node
  up to the first whose successor is only known at run time (an
  application, a conditional, or a value returned to a frame), merged
  into one closure (Feeley and Lapalme, "Using closures for code
  generation", 1987).  A block adds its steps and compares them with
  the fuel once.  Values are Python tuples, singletons and slotted
  closures, and environments linked cells, so extending one costs no
  copy; results become machine values again only in the outcome.  A
  block that cannot finish (it would cross the fuel limit, or an index
  or a variant is wrong) is handed to the reference loop, which runs it
  from its entry state with the fuel that is left and stops inside it,
  so OutOfFuel and Stuck, with its reason, are the reference's own.
  Indices are checked as they are read, not when a block is prepared:
  a shared definition's code runs at more than one environment depth.

eval_expr takes the reference loop for a traced run, for one with less
than COMPILE_MIN_FUEL fuel and for an environment holding a value of no
machine value class, and the compiled path otherwise.
Preparing blocks costs more than interpreting a short run: timed on
every corpus declaration with an input and on fan-out chains of depth
6, 8 and 10, at n <= 20 with the fuel run_and_verify gives (the bound
plus 4,096; Python 3.11, 2 shared Xeon cores), the compiled path took a
median 1.91 times the reference's time on the 93 runs below 5,000 fuel,
was faster on 8 of the 9 runs between 5,000 and 6,000, and took 0.26 to
0.88 times (median 0.41) on all 34 runs from 6,000 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter


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

    A traced run, or one with less fuel than COMPILE_MIN_FUEL, takes the
    reference loop; any other run takes the compiled path (see the
    module docstring).  Both give the same outcome.
    """
    if trace is None and fuel >= COMPILE_MIN_FUEL:
        return _eval_compiled(expr, env, fuel)
    return _eval_reference(expr, env, fuel, trace)


def _eval_reference(
    expr: MachineExpr,
    env: Env = (),
    fuel: int = 10_000_000,
    trace: list | None = None,
) -> EvalOutcome:
    """The reference path: one rule per iteration, each checked and
    charged on its own, and the one that records a trace.

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
# The compiled path (see the module docstring).  A pair is a tuple, a
# closure a _Closure, unit None and the booleans True and False.  An
# environment is a linked list of (value, rest) cells ending in ().

# Below this much fuel the reference loop is faster (module docstring).
COMPILE_MIN_FUEL = 6000

# A block is a list [cost, run, kind, a, b, c, node], patched in place
# when a stub is prepared.  cost is every step from entering the block
# to its last instruction; run (None when there is nothing to run) maps
# the entry environment to the environment of the last instruction,
# pushing the frames of the sequences it enters; a, b, c are the
# operands of the last instruction, by kind:
_APP = 0  # getter of the (function, argument) pair
_VALUE = 1  # function from the environment to the value
_IF = 2  # scrutinee getter, then block, else block
_STUB = 3  # not prepared yet
_REFER = 4  # an instruction only the reference loop handles
_NODE = 6

# Index i of a linked environment, and the environment extended by it,
# written out once at import: e[1][1][0] runs several times faster than
# a loop over the cells.
_SHORT = 24
_GET = tuple(eval(f"lambda e: e{'[1]' * i}[0]") for i in range(_SHORT))
_BIND = tuple(eval(f"lambda e: (e{'[1]' * i}[0], e)") for i in range(_SHORT))
_SHORT_PAIR = 6
_PAIR = tuple(
    tuple(
        eval(f"lambda e: (e{'[1]' * i}[0], e{'[1]' * j}[0])") for j in range(_SHORT_PAIR)
    )
    for i in range(_SHORT_PAIR)
)


def _pair_getter(i: int, j: int):
    """The pair of the values at indices i and j."""
    if i < _SHORT_PAIR and j < _SHORT_PAIR:
        return _PAIR[i][j]
    fst, snd = _getter(i), _getter(j)
    return lambda e: (fst(e), snd(e))


def _getter(i: int):
    if i < _SHORT:
        return _GET[i]

    def get(e):
        for _ in range(i):
            e = e[1]
        return e[0]

    return get


def _binder(f):
    """The environment extended by the value of f."""
    return lambda e: (f(e), e)


def _split(get):
    """The environment extended by both components of a pair."""

    def split(e):
        p = get(e)
        return (p[1], (p[0], e))

    return split


def _pusher(push, rest):
    """Push the frame that resumes at rest in the environment."""

    def push_frame(e):
        push((rest, e))
        return e

    return push_frame


def _sequence(segs):
    """Run each environment transformer in turn."""
    if not segs:
        return None
    if len(segs) == 1:
        return segs[0]

    def run(e):
        for s in segs:
            e = s(e)
        return e

    return run


class _Closure:
    __slots__ = ("block", "env")

    def __init__(self, block, env):
        self.block = block
        self.env = env


class _Foreign(Exception):
    """An input value of no machine value class."""


_LEAF_IN = {VTrue: True, VFalse: False, VUnit: None}
_MISSING = object()


def _cells(env) -> list:
    """The values of a linked environment, innermost first."""
    out = []
    while env:
        v, env = env
        out.append(v)
    return out


class _Program:
    """The blocks and the frame stack of one run.  Blocks are keyed by the
    id of their node; the table lives only as long as the run, whose code
    keeps every node alive, so an id cannot be reused while it is a key."""

    def __init__(self):
        self.blocks: dict[int, list] = {}
        self.stack: list[tuple[list, object]] = []

    def block(self, node: MachineExpr) -> list:
        b = self.blocks.get(id(node))
        if b is None:
            b = self.blocks[id(node)] = [0, None, _STUB, None, None, None, node]
        return b

    def _value(self, e):
        """(value function, steps) of a straight-line instruction, or of a
        sequence of them, or None."""
        cls = e.__class__
        if cls is Var and e.i >= 0:
            return _getter(e.i), 1
        if cls is MkPair and e.i >= 0 and e.j >= 0:
            return _pair_getter(e.i, e.j), 1
        if cls is MkUnit:
            return (lambda env: None), 1
        if cls is MkTrue:
            return (lambda env: True), 1
        if cls is MkFalse:
            return (lambda env: False), 1
        if cls is Lam:
            return partial(_Closure, self.block(e.body)), 1
        if cls is not Seq:
            return None
        segs, steps = [], 0
        while e.__class__ is Seq:
            op = None if e.first.__class__ is Seq else self._bind(e.first)
            if op is None:
                return None
            segs.append(op[0])
            steps += op[1] + 1
            e = e.rest
        op = self._value(e)
        if op is None:
            return None
        run, last = _sequence(segs), op[0]
        return (lambda env: last(run(env))), steps + op[1]

    def _bind(self, e):
        """(environment transformer, steps) binding the value of a
        straight-line e, or None."""
        cls = e.__class__
        if cls is Var and 0 <= e.i < _SHORT:
            return _BIND[e.i], 1
        if cls is Lam:
            body = self.block(e.body)
            return (lambda env: (_Closure(body, env), env)), 1
        op = self._value(e)
        return None if op is None else (_binder(op[0]), op[1])

    def prepare(self, blk: list) -> None:
        node = blk[_NODE]
        segs, cost, e = [], 0, node
        while True:
            cls = e.__class__
            if cls is Seq:
                op = self._bind(e.first)
                if op is not None:
                    segs.append(op[0])
                    cost += op[1] + 1
                else:
                    segs.append(_pusher(self.stack.append, self.block(e.rest)))
                    e = e.first
                    continue
                e = e.rest
            elif cls is LetPair and e.i >= 0:
                segs.append(_split(_getter(e.i)))
                cost += 1
                e = e.body
            else:
                break
        run = _sequence(segs)
        op = self._value(e)
        if op is not None:
            blk[:5] = cost + op[1], run, _VALUE, op[0], None
        elif cls is App and e.i >= 0 and e.j >= 0:
            blk[:4] = cost + 1, run, _APP, _pair_getter(e.i, e.j)
        elif cls is If and e.i >= 0:
            then_, else_ = self.block(e.then_branch), self.block(e.else_branch)
            blk[:6] = cost + 1, run, _IF, _getter(e.i), then_, else_
        else:
            # an unknown instruction or a negative index
            blk[:3] = cost, run, _REFER

    def compiled_env(self, env: Env):
        """The linked environment of the compiled-path forms of the values
        of a machine environment; raises _Foreign on a value of no
        machine value class.  Shared parts are converted once."""
        memo: dict[int, object] = {}

        def get(w):
            c = _LEAF_IN.get(w.__class__, _MISSING)
            return memo[id(w)] if c is _MISSING else c

        todo = [(v, False) for v in env]
        while todo:
            v, ready = todo.pop()
            cls = v.__class__
            if ready:
                if cls is VPair:
                    memo[id(v)] = (get(v.fst), get(v.snd))
                else:
                    cenv = ()
                    for w in v.env:
                        cenv = (get(w), cenv)
                    memo[id(v)] = _Closure(self.block(v.body), cenv)
            elif cls not in _LEAF_IN and id(v) not in memo:
                if cls is VPair:
                    parts = (v.fst, v.snd)
                elif cls is Clo and v.env.__class__ is tuple:
                    parts = v.env
                else:
                    raise _Foreign
                todo.append((v, True))
                todo += [(w, False) for w in parts]
        out = ()
        for v in env:
            out = (get(v), out)
        return out

    @staticmethod
    def machine_values(roots) -> list:
        """The machine values of compiled-path values.  Shared parts, and
        the shared tails of closure environments, are converted once."""
        roots = list(roots)
        memo: dict[int, MachineValue] = {}
        envs: dict[int, tuple] = {id(()): ()}

        def get(w):
            if w is True:
                return TRUE
            if w is False:
                return FALSE
            return UNIT if w is None else memo[id(w)]

        # (x, is_env, ready): expand x, or build it once its parts are built
        todo = [(v, False, False) for v in roots]
        while todo:
            x, is_env, ready = todo.pop()
            if is_env:
                if ready:
                    envs[id(x)] = envs[id(x[1])] + (get(x[0]),)
                elif id(x) not in envs:
                    todo += ((x, True, True), (x[1], True, False), (x[0], False, False))
            elif ready:
                if x.__class__ is tuple:
                    memo[id(x)] = VPair(get(x[0]), get(x[1]))
                else:
                    memo[id(x)] = Clo(x.block[_NODE], envs[id(x.env)])
            elif id(x) not in memo:
                if x.__class__ is tuple:
                    todo += ((x, False, True), (x[1], False, False), (x[0], False, False))
                elif x.__class__ is _Closure:
                    todo += ((x, False, True), (x.env, True, False))
        return [get(v) for v in roots]


def _eval_compiled(expr: MachineExpr, env: Env, fuel: int) -> EvalOutcome:
    """The compiled path: one step increment and one fuel comparison per
    block.  Where a block cannot finish (it would cross the fuel limit,
    an index is out of range or a value has the wrong variant, which
    the run and the last instruction report by raising) the reference
    loop runs the block's node from the block's entry state with the
    fuel that is left.  It stops inside that block, with OutOfFuel or
    Stuck, and its outcome is the run's outcome."""
    prog = _Program()
    try:
        entry = prog.compiled_env(env)
    except _Foreign:
        return _eval_reference(expr, env, fuel)
    env = entry
    steps = cost = 0
    stack = prog.stack
    blk = prog.block(expr)
    try:
        while True:
            cost, run, kind, a, b, c, _ = blk
            steps += cost
            if steps > fuel:
                break
            env1 = env if run is None else run(env)
            if kind == _APP:
                fn, arg = a(env1)
                env = (arg, (fn, fn.env))
                blk = fn.block
            elif kind == _VALUE:
                v = a(env1)
                if not stack:
                    return Done(prog.machine_values((v,))[0], steps)
                blk, env = stack.pop()
                env = (v, env)
                steps += 1  # the resumption; the next block compares
            elif kind == _IF:
                s = a(env1)
                if s is True:
                    blk = b
                elif s is False:
                    blk = c
                else:
                    break
                env = env1
            elif kind == _STUB:
                prog.prepare(blk)
            else:
                break
    except (IndexError, TypeError, AttributeError):
        pass
    steps -= cost
    if steps > fuel:
        return OUT_OF_FUEL
    ref_env = tuple(prog.machine_values(reversed(_cells(env))))
    out = _eval_reference(blk[_NODE], ref_env, fuel - steps)
    if out.__class__ is Done:
        raise RuntimeError("the reference loop finished a block the compiled path could not")
    return out


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

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
  application, a conditional, or a value returned to a frame), or up to
  _CAP of them and a jump, generated as one Python function that reads
  and extends the environment inline.  A block adds its steps and
  compares them with the fuel once.  The functions come from factories
  cached by the block's shape (its opcodes and indices; the blocks it
  refers to are factory arguments), so each distinct shape is compiled
  once per process; the table keeps the _SHAPES most recently used.
  Values are Python tuples, singletons and slotted closures, and
  environments linked cells, so extending one costs no copy; results
  become machine values again only in the outcome.  A block that cannot
  finish (it would cross the fuel limit, or an index or a variant is
  wrong) is handed to the reference loop, which runs it from its entry
  state with the fuel that is left and stops inside it, so OutOfFuel
  and Stuck, with its reason, are the reference's own.  Indices are
  checked as they are read, not when a block is prepared: a shared
  definition's code runs at more than one environment depth.

eval_expr takes the reference loop for a traced run, for one with less
than COMPILE_MIN_FUEL fuel and for an environment holding a value of no
machine value class, and the compiled path otherwise.
Preparing blocks costs more than interpreting a short run: timed on
every corpus declaration with an input and on fan-out chains of depth
6, 8 and 10, at n <= 20 with the fuel run_and_verify gives (the bound
plus 4,096; Python 3.11, 2 shared Xeon cores), with every shape already
compiled, the compiled path took a median 2.15 times the reference's
time on the 75 runs below 4,250 fuel and 0.97 times on the 82 up to
4,500, and was faster on 76 of the 82 runs from 4,500 to 6,000 and on
all 118 from 6,000 on (median 0.32).  Compiling a shape takes about
0.2 ms: with the table emptied before each run, the compiled path was
slower on every run below 6,000 and faster on 69 of the 118 from 6,000.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


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

# A block is a list [cost, run, node]: cost is every step from entering
# the block to its last instruction, and run is None until the block is
# first entered, then the function _factory generates for it.
_NODE = 2
# The items of a block before its straight line is cut by a jump.
_CAP = 32
# Index i is read as e[1]...[1][0] below this, and by _at from it.
_UNROLL = 24
# Distinct block shapes whose factories are kept.
_SHAPES = 1024

_CONSTANTS = {MkUnit: "None", MkTrue: "True", MkFalse: "False"}


def _at(e, i: int):
    """Index i of a linked environment."""
    for _ in range(i):
        e = e[1]
    return e[0]


def _get(env: str, i: int) -> str:
    return f"{env}{'[1]' * i}[0]" if i < _UNROLL else f"_at({env}, {i})"


@lru_cache(maxsize=_SHAPES)
def _factory(shape: tuple):
    """The factory of a block function of this shape.  It takes the
    frame stack's push and the blocks the items refer to, in order, and
    returns run(e): e is the block's entry environment, and run returns
    (next block, its environment) or, for a value returned to a frame,
    (None, value).  run raises where only the reference loop can go on."""
    params, body, env = ["push"], [], "e"

    def ref() -> str:
        params.append(f"b{len(params)}")
        return params[-1]

    def value(item) -> str:
        kind = item[1]
        if kind == "var":
            return _get(env, item[2])
        if kind == "pair":
            return f"({_get(env, item[2])}, {_get(env, item[3])})"
        if kind == "lam":
            return f"_Closure({ref()}, {env})"
        return kind  # a constant of _CONSTANTS

    for item in shape:
        op = item[0]
        if op == "bind":
            body.append(f"{env} = ({value(item)}, {env})")
        elif op == "split":
            body += [f"p = {_get('e', item[1])}", "e = (p[1], (p[0], e))"]
        elif op == "open":
            body.append("t = e")
            env = "t"
        elif op == "yield" and env == "t":
            body.append(f"e = ({value(item)}, e)")
            env = "e"
        elif op == "yield":
            body.append(f"return None, {value(item)}")
        elif op == "push":
            body.append(f"push(({ref()}, e))")
        elif op == "app":
            body += [
                f"f = {_get('e', item[1])}",
                f"return f.block, ({_get('e', item[2])}, (f, f.env))",
            ]
        elif op == "if":
            then_, else_ = ref(), ref()
            body += [
                f"s = {_get('e', item[1])}",
                f"if s is True: return {then_}, e",
                f"if s is False: return {else_}, e",
                "raise TypeError",
            ]
        elif op == "jump":
            body.append(f"return {ref()}, e")
        else:  # "stuck": only the reference loop runs this instruction
            body.append("raise TypeError")
    source = "".join(
        [f"def factory({', '.join(params)}):\n    def run(e):\n"]
        + [f"        {line}\n" for line in body]
        + ["    return run\n"]
    )
    namespace = {"_Closure": _Closure, "_at": _at}
    exec(source, namespace)
    return namespace["factory"]


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
        self.push = self.stack.append

    def block(self, node: MachineExpr) -> list:
        b = self.blocks.get(id(node))
        if b is None:
            b = self.blocks[id(node)] = [0, None, node]
        return b

    def _item(self, tag: str, e, refs: list):
        """The shape item that applies tag to e when e is a one-step value
        instruction, or None."""
        cls = e.__class__
        if cls is Var:
            return (tag, "var", e.i) if e.i >= 0 else None
        if cls is MkPair:
            return (tag, "pair", e.i, e.j) if e.i >= 0 and e.j >= 0 else None
        if cls is Lam:
            refs.append(self.block(e.body))
            return (tag, "lam")
        constant = _CONSTANTS.get(cls)
        return None if constant is None else (tag, constant)

    def _line(self, e, budget: int, shape: list, refs: list) -> int:
        """Append the items that bind the value of e when e is a straight
        line of at most budget items: one-step values, sequenced, ending
        in one.  Returns its steps, or 0, appending nothing, when e is
        not one."""
        item = self._item("bind", e, refs)
        if item is not None:
            shape.append(item)
            return 1
        mark, ref_mark, steps = len(shape), len(refs), 1
        shape.append(("open",))
        while e.__class__ is Seq and len(shape) - mark < budget:
            item = self._item("bind", e.first, refs)
            if item is None:
                break
            shape.append(item)
            steps += 2
            e = e.rest
        item = None if e.__class__ is Seq else self._item("yield", e, refs)
        if item is not None:
            shape.append(item)
            return steps
        del shape[mark:], refs[ref_mark:]
        return 0

    def prepare(self, blk: list) -> None:
        """Generate blk's function: the instructions from its node up to
        the first application, conditional or value returned to a frame,
        or up to _CAP items and a jump to the block of the node where the
        line was cut."""
        shape, refs, cost, e = [], [self.push], 0, blk[_NODE]
        while len(shape) < _CAP:
            cls = e.__class__
            if cls is Seq:
                steps = self._line(e.first, _CAP - len(shape), shape, refs)
                if steps:
                    cost += steps + 1
                    e = e.rest
                else:
                    shape.append(("push",))
                    refs.append(self.block(e.rest))
                    e = e.first
            elif cls is LetPair and e.i >= 0:
                shape.append(("split", e.i))
                cost += 1
                e = e.body
            else:
                item = self._item("yield", e, refs)
                if item is None and cls is App and e.i >= 0 and e.j >= 0:
                    item = ("app", e.i, e.j)
                elif item is None and cls is If and e.i >= 0:
                    item = ("if", e.i)
                    refs += (self.block(e.then_branch), self.block(e.else_branch))
                if item is None:
                    # an unknown instruction or a negative index
                    shape.append(("stuck",))
                else:
                    shape.append(item)
                    cost += 1
                break
        else:
            shape.append(("jump",))
            refs.append(self.block(e))
        blk[0] = cost
        blk[1] = _factory(tuple(shape))(*refs)

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
            cost, run, _ = blk
            if run is None:
                prog.prepare(blk)
                continue
            steps += cost
            if steps > fuel:
                break
            nxt, x = run(env)
            if nxt is not None:
                blk, env = nxt, x
            elif stack:
                blk, env = stack.pop()
                env = (x, env)
                steps += 1  # the resumption; the next block compares
            else:
                return Done(prog.machine_values((x,))[0], steps)
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

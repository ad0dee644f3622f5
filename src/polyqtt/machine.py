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
- The compiled path (_eval_compiled) prepares each distinct code node it
  enters once, lazily, into a block, generated as one Python function.
  A block is a tree of paths from its node: a conditional continues into
  both arms, held as a Python if, and a sequencing node continues into
  its first part and, on each path where that yields a value, into its
  rest.  A path ends where its successor is only known at run time (a
  value returned to a frame that an earlier block pushed, or an
  application, unless it goes on past it, below), or with a jump where
  the block's _CAP items, counted over all its paths, run out.  A value
  a block binds is a Python local.  A linked environment cell is built
  only where the environment escapes: into a closure, into the
  environment of a jump, or into a frame, which a sequencing node pushes
  only on a path that applies a closure or leaves the block before its
  first part yields.  The functions come from factories cached by the
  block's shape (its opcodes and indices; the blocks it refers to are
  factory arguments), so each distinct shape is compiled once per
  process; the table keeps the _SHAPES most recently used.  A block
  lives as long as its node, which it refers to weakly, so code holds no
  cycle: a node without sub-nodes keeps it in a process-wide table keyed
  by value, so unshared copies share it, and any other in its `_block`
  slot, which a copy of the node does not carry (node classes are built
  by `frozen.frozen`).  A run prepares only the blocks no earlier run
  entered, and keeps its own frame stack.  Values are Python tuples and
  singletons, and environments linked cells, so extending one costs no
  copy; results become machine values again only in the outcome.
  A driver loop enters blocks.  A block starts its next round (another
  path from its node) in place where it applies a closure of its own
  block, as a recursor descends, or returns a value to a frame of its
  own block, as it unwinds; a block the loop entered also calls the
  block of a closure it applies, once, after pushing its frames, and
  goes on in its innermost frame's rest, or with its next round, where
  the callee's value returns to that frame or to one of its own.  So the
  host stack holds at most two blocks, however deep the recursion.
  A block returns the fuel it leaves, and goes on past a call or into a
  next round only while that is not below 0.  It raises at the first
  wrong index or variant it reads, so a block that leaves less than no
  fuel ran all its steps validly, and the run is out of fuel.  A run in
  which a block raises runs again from the start on the reference loop,
  so Stuck and its reason are the reference's own; code compiled from
  a checked module never gets stuck, so only an untyped program pays.
  Indices are checked as they are read, not when a block is prepared: a
  shared definition's code runs at more than one environment depth.

eval_expr takes the reference loop for a traced run, for an environment
holding a value of no machine value class, and for one with less than
COMPILE_MIN_FUEL fuel of code whose entry block no earlier run prepared,
and the compiled path otherwise.  Values cross into and out of it
through one converter each way, linear in their distinct nodes, so a
short compiled run of code that has not run compiled yet pays mostly for
preparing its blocks.  The table is for such code: every corpus
declaration with an input (about 25 inputs each, n <= 200 with fuel <=
12,000) and fan-out drives (fan-out 2 at depths 5 and 8, 3 at depths 3
and 5, both regimes, n <= 12), at the fuel run_and_verify gives (the
bound plus 4,096), timed with every shape compiled, fresh code and the
median of five runs per path (Python 3.11, 2 shared Xeon cores; one
session, with blocks that loop and call):

    fuel          runs  compiled faster  compiled/reference time (median)
    4,096-4,399     48        2              8.3
    4,400-4,499     19       12              0.99
    4,500-4,999     65       65              0.72
    5,000-5,999     52       52              0.42
    6,000-12,000   165      165              0.31

COMPILE_MIN_FUEL is where the compiled path starts to be faster on at
least 90 % of runs: 4,500-4,599 is the first band of 100 fuel where it
was (on all 25 runs; 12 of 19 in the band below).  A process also
pays once for each new block shape it compiles: about 0.25 ms, so
sortDriver's 28 shapes cost a fresh process about 9 ms.
"""

from __future__ import annotations

import weakref
from functools import lru_cache, partial
from itertools import count

from .frozen import frozen


# --------------------------------------------------------------------------
# Syntax

class MachineExpr:
    # a node's block (see _block_of), and the weak reference a block holds
    __slots__ = ("_block", "__weakref__")


@frozen
class Lam(MachineExpr):
    body: MachineExpr


@frozen
class MkUnit(MachineExpr):
    pass


@frozen
class MkPair(MachineExpr):
    i: int
    j: int


@frozen
class MkTrue(MachineExpr):
    pass


@frozen
class MkFalse(MachineExpr):
    pass


@frozen
class Var(MachineExpr):
    i: int


@frozen
class Seq(MachineExpr):
    first: MachineExpr
    rest: MachineExpr


@frozen
class App(MachineExpr):
    i: int
    j: int


@frozen
class LetPair(MachineExpr):
    i: int
    body: MachineExpr


@frozen
class If(MachineExpr):
    i: int
    then_branch: MachineExpr
    else_branch: MachineExpr


# --------------------------------------------------------------------------
# Values.  Environments are plain tuples of values; env[-1 - i] is the
# lookup of index i, counting from the right.

class MachineValue:
    __slots__ = ()

    def __eq__(self, other) -> bool:
        """Structural equality, walked with an explicit stack; a pair of
        shared sub-values is compared once."""
        todo, seen = [(self, other)], set()
        while todo:
            x, y = todo.pop()
            if x is y or (id(x), id(y)) in seen:
                continue
            seen.add((id(x), id(y)))
            if x.__class__ is not y.__class__:
                return False
            if x.__class__ is VPair:
                todo += ((x.snd, y.snd), (x.fst, y.fst))
            elif x.__class__ is Clo and x.body == y.body and len(x.env) == len(y.env):
                todo += zip(x.env, y.env)
            elif x.__class__ is Clo or x != y:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self.__class__)  # equal values share their class


@frozen(eq=False)
class Clo(MachineValue):
    body: MachineExpr
    env: tuple = ()


@frozen
class VUnit(MachineValue):
    pass


@frozen(eq=False)
class VPair(MachineValue):
    fst: MachineValue
    snd: MachineValue


@frozen
class VTrue(MachineValue):
    pass


@frozen
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


@frozen
class Done(EvalOutcome):
    value: MachineValue
    steps: int


@frozen
class OutOfFuel(EvalOutcome):
    pass


@frozen
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

    A traced run, or one with less fuel than COMPILE_MIN_FUEL of code that
    has not run compiled yet, takes the reference loop; any other run
    takes the compiled path (see the module docstring).  Both give the
    same outcome.
    """
    if trace is None and (fuel >= COMPILE_MIN_FUEL or _block_of(expr)[0].__class__ is not partial):
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
                value = env[-1 - i]
            elif cls is App:
                i, j = expr.i, expr.j
                if max(i, j) >= len(env) or min(i, j) < 0:
                    return Stuck(f"index out of range in application ({i}, {j})")
                fn = env[-1 - i]
                if fn.__class__ is not Clo:
                    return Stuck(f"applied a non-closure {fn.__class__.__name__}")
                env = fn.env + (fn, env[-1 - j])
                expr = fn.body
            elif cls is Seq:  # a push costs nothing
                stack.append((expr.rest, env))
                expr = expr.first
                continue
            elif cls is If:
                i = expr.i
                if i < 0 or i >= len(env):
                    return Stuck(f"index {i} out of range for depth {len(env)}")
                scrut = env[-1 - i]
                if scrut.__class__ is VTrue:
                    expr = expr.then_branch
                elif scrut.__class__ is VFalse:
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
                env = env + (scrut.fst, scrut.snd)
                expr = expr.body
            elif cls is MkPair:
                i, j = expr.i, expr.j
                if max(i, j) >= len(env) or min(i, j) < 0:
                    return Stuck(f"index out of range in pairing ({i}, {j})")
                value = VPair(env[-1 - i], env[-1 - j])
            elif cls is Lam:
                value = Clo(expr.body, env)
            elif cls is MkUnit:
                value = UNIT
            elif cls is MkTrue:
                value = TRUE
            elif cls is MkFalse:
                value = FALSE
            else:
                return Stuck(f"unknown expression {cls.__name__}")
        elif stack:
            # Resume a sequencing frame: bind the value.
            expr, env0 = stack.pop()
            env = env0 + (value,)
            value = None
        else:
            return Done(value, steps)
        # Every rule but a push, and every resumption, costs one step, once
        # its checks have passed.
        steps += 1
        if steps > fuel:
            return OUT_OF_FUEL


# --------------------------------------------------------------------------
# The compiled path (see the module docstring).  A pair is a 2-tuple, a
# closure a 3-tuple (block, environment, None), unit None and the
# booleans True and False.  A tuple is built without a Python-level call,
# and unpacking a pair as a closure or a closure as a pair raises
# ValueError.  An environment is a linked list of (value, rest) cells
# ending in ().

# From this much fuel the compiled path is faster on at least 90 % of
# runs of code that has not run compiled yet, once its shapes are
# compiled (the table in the module docstring).
COMPILE_MIN_FUEL = 4500

# A block is a list [run, node]: run is the function _factory generates
# for the block, or, until the block is first entered, a partial of
# _enter that prepares it; node is a weak reference to the block's node.
_NODE = 1
# The items of a block, over all its paths, before a path is cut by a jump.
_CAP = 32
# Index i of the entry environment is read as e[1]...[1][0] below this,
# and by _at from it.
_UNROLL = 24
# Distinct block shapes whose factories are kept.
_SHAPES = 1024

_CONSTANTS = {MkUnit: "None", MkTrue: "True", MkFalse: "False"}
# The nodes without sub-nodes, whose blocks _LEAF_BLOCKS keeps for the
# process, keyed by value; any other node keeps its block in _block.
_LEAVES = frozenset((Var, MkPair, App, *_CONSTANTS))
_LEAF_BLOCKS: dict = {}
# The frame under every frame of a run: a value returned to it is the result.
_BOTTOM = (None, None)


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
    blocks the items refer to, in order, and returns run(e, s, f, me, d):
    e is the entry environment, s the run's frame stack, f the fuel left,
    me the block and d 1 where the loop entered it (else 0, and it calls
    no block).  run loops over rounds as the module docstring says and
    returns (next block, its environment, fuel left) or, for a value
    returned to the frame on top of s, (None, value, fuel left), which
    is below 0 only where the run is out of fuel.  It raises
    IndexError, TypeError or ValueError at a step the reference loop
    gets stuck on.

    A value a path binds is a Python local: index i below the number n
    of locals reads a local, and index i from n reads index i - n of e.
    A linked cell is built only where the environment escapes, into a
    pushed frame, a closure or a jump, and once per path."""
    params, lines, names = [], [], count()

    def ref() -> str:
        params.append(f"b{len(params)}")
        return params[-1]

    def new() -> str:
        return f"v{next(names)}"

    def path(items, pad: str, locs: list, envs: dict, frames: list, steps: int, fuel: str):
        # locs: the names of the path's locals, innermost last; envs: n ->
        # the name of a linked environment of e and the first n locals;
        # frames: (n, the name of its frame once on s) for each Seq whose
        # rest the path continues in; steps: the path's steps since its
        # last call, from fuel, the name of the fuel left then
        def emit(line: str) -> None:
            lines.append(pad + line)

        def local(expr: str) -> str:
            name = new()
            emit(f"{name} = {expr}")
            return name

        def read(i: int) -> str:
            return locs[-1 - i] if i < len(locs) else local(_get("e", i - len(locs)))

        def env(n: int) -> str:
            m = max(k for k in envs if k <= n)
            if m == n:
                return envs[n]
            expr = envs[m]
            for v in locs[m:n]:
                expr = f"({v}, {expr})"
            envs[n] = local(expr)
            return envs[n]

        def value(item) -> str:
            kind = item[1]
            if kind == "var":
                return read(item[2])
            if kind == "pair":
                return local(f"({read(item[2])}, {read(item[3])})")
            if kind == "lam":
                return local(f"({ref()}, {env(len(locs))}, None)")
            return kind  # a constant of _CONSTANTS

        def push() -> None:
            for k, (n, frame) in enumerate(frames):
                if frame is None:
                    frames[k] = n, local(f"({ref()}, {env(n)})")
                    emit(f"s.append({frames[k][1]})")

        def resume(v: str) -> None:
            n, frame = frames.pop()
            if frame is not None:
                emit("s.pop()")
            del locs[n:]
            for k in [k for k in envs if k > n]:
                del envs[k]
            locs.append(v)

        def again(cond: str, k: int, then: str, left: str) -> None:
            # a round of k steps ends here; the next starts in place
            emit(f"if {cond} and {left} >= {k}:")
            emit(f"    e = {then}")
            emit(f"    f = {left} - {k}")
            emit("    continue")

        for item in items:
            op = item[0]
            if op == "seq":
                frames.append((len(locs), None))
            elif op == "resume":
                resume(value(item))
                steps += 2
            elif op == "split":
                p = read(item[1])
                locs += [new(), new()]
                emit(f"{locs[-2]}, {locs[-1]} = {p}")
                steps += 1
            elif op == "ret":
                v = value(item)
                again("s[-1][0] is me", steps + 2, f"({v}, s.pop()[1])", fuel)
                emit(f"return None, {v}, {fuel} - {steps + 1}")
            elif op == "app":
                fn, body, fenv = read(item[1]), new(), new()
                emit(f"{body}, {fenv}, _ = {fn}")
                arg = local(f"({read(item[2])}, ({fn}, {fenv}))")
                steps += 1
                push()
                again(f"{body} is me", steps, arg, fuel)
                emit("if not d:")
                emit(f"    return {body}, {arg}, {fuel} - {steps}")
                out = local(f"{body}[0]({arg}, s, {fuel} - {steps}, {body}, 0)")
                if not frames:  # a value returned to a frame of me starts the next round
                    again(f"{out}[0] is None and s[-1][0] is me", 1, f"({out}[1], s.pop()[1])", f"{out}[2]")
                    emit(f"return {out}")
                    return
                # a value returned to its innermost frame goes on here
                emit(f"if {out}[0] is not None or s[-1] is not {frames[-1][1]} or {out}[2] < 0:")
                emit(f"    return {out}")
                resume(local(f"{out}[1]"))
                fuel, steps = local(f"{out}[2]"), 1  # the resumption
            elif op == "if":
                scrutinee = read(item[1])
                emit(f"if {scrutinee} is True:")
                path(item[2], pad + "    ", list(locs), dict(envs), list(frames), steps + 1, fuel)
                emit(f"if {scrutinee} is not False:")
                emit("    raise TypeError")
                path(item[3], pad, locs, envs, frames, steps + 1, fuel)
            elif op == "jump":
                m = env(len(locs))
                push()
                emit(f"return {ref()}, {m}, {fuel} - {steps}")
            else:  # "stuck": only the reference loop runs this instruction
                emit("raise TypeError")

    path(shape, " " * 12, [], {0: "e"}, [], 0, "f")
    head = f"def factory({', '.join(params)}):\n    def run(e, s, f, me, d):\n        while True:\n"
    source = "".join([head, *[f"{line}\n" for line in lines], "    return run\n"])
    namespace = {"_at": _at}
    exec(source, namespace)
    return namespace["factory"]


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


def _block_of(node: MachineExpr) -> list:
    """node's block (see _LEAVES), made as a stub on the first request."""
    if node.__class__ in _LEAVES:
        blk = _LEAF_BLOCKS.get(node)
        if blk is None:
            ref = weakref.ref(node)
            blk = _LEAF_BLOCKS.setdefault(node, [partial(_enter, ref), ref])
        return blk
    try:
        return node._block
    except AttributeError:
        ref = weakref.ref(node)
        object.__setattr__(node, "_block", [partial(_enter, ref), ref])
        return node._block


def _enter(ref, e, s, f, me, d):
    """A block's function until it is first entered: prepare it and run it."""
    return _prepare(_block_of(ref()))(e, s, f, me, d)


def _value(e, refs: list):
    """The shape item's value part when e is a one-step value
    instruction, or None."""
    cls = e.__class__
    if cls is Var:
        return ("var", e.i) if e.i >= 0 else None
    if cls is MkPair:
        return ("pair", e.i, e.j) if e.i >= 0 and e.j >= 0 else None
    if cls is Lam:
        refs.append(_block_of(e.body))
        return ("lam",)
    constant = _CONSTANTS.get(cls)
    return None if constant is None else (constant,)


def _path(e, frames: tuple, budget: int, refs: list, held: int = 0):
    """The items of the paths from e, at most budget of them, and their
    number.  frames holds the rests of the sequencing nodes the paths
    continue in, innermost last, the first held of them pushed by an
    application already.  An application with a frame pending continues
    in the innermost frame's rest.  A path ends at any other application,
    a value returned to a frame, an instruction only the reference loop
    runs, or, when the items run out, a jump to the block of the node
    where it was cut; a conditional ends a path in two."""
    items, used = [], 0
    while used < budget:
        used += 1
        cls = e.__class__
        if cls is Seq:
            items.append(("seq",))
            frames += (e.rest,)
            e = e.first
        elif cls is LetPair and e.i >= 0:
            items.append(("split", e.i))
            e = e.body
        elif cls is If and e.i >= 0:
            # the then arm takes at most half the items left
            then, n = _path(e.then_branch, frames, (budget - used + 1) // 2, refs, held)
            used += n
            else_, n = _path(e.else_branch, frames, budget - used, refs, held)
            items.append(("if", e.i, then, else_))
            return tuple(items), used + n
        else:
            value = _value(e, refs)
            if value is not None and frames:
                items.append(("resume", *value))
                e, frames = frames[-1], frames[:-1]
                held -= held > len(frames)
            elif value is not None:
                items.append(("ret", *value))
                return tuple(items), used
            elif cls is App and e.i >= 0 and e.j >= 0:
                items.append(("app", e.i, e.j))
                refs += map(_block_of, frames[held:])
                if not frames:
                    return tuple(items), used
                e, frames = frames[-1], frames[:-1]
                held = len(frames)
            else:  # an unknown instruction or a negative index
                items.append(("stuck",))
                return tuple(items), used
    items.append(("jump",))
    refs += map(_block_of, (*frames[held:], e))
    return tuple(items), used


def _prepare(blk: list):
    """Generate and return blk's function: the paths from its node, through
    conditionals and into the rests of sequencing nodes, up to _CAP items
    in all."""
    refs = []
    shape, _ = _path(blk[_NODE](), (), _CAP, refs)
    blk[0] = _factory(shape)(*refs)
    return blk[0]


def _compiled_env(env: Env):
    """The linked environment of the compiled-path forms of the values of
    a machine environment; raises _Foreign on a value of no machine value
    class.  Each value is converted once, keyed by id, after its parts,
    from an explicit stack: a loop walks a pair's chain of second
    components down to a converted value and builds the chain back up; a
    part still missing is pushed, and a value popped once converted is
    skipped."""
    memo = {id(TRUE): True, id(FALSE): False, id(UNIT): None}
    get, todo = memo.get, list(env)
    while todo:
        v = todo.pop()
        if id(v) in memo:
            continue
        cls = v.__class__
        if cls is VPair:
            spine, w = [], v
            while w.__class__ is VPair and id(w) not in memo:
                spine.append(w)
                w = w.snd
            x = get(id(w), _MISSING)
            if x is _MISSING:
                todo += (*spine, w)
                continue
            while spine:
                p = spine.pop()
                f = get(id(p.fst), _MISSING)
                if f is _MISSING:
                    todo += (*spine, p, p.fst)
                    break
                x = memo[id(p)] = (f, x)
        elif cls is Clo and v.env.__class__ is tuple and isinstance(v.body, MachineExpr):
            missing = [w for w in v.env if id(w) not in memo]
            if missing:
                todo += (v, *missing)
                continue
            cells = ()
            for w in v.env:
                cells = (memo[id(w)], cells)
            memo[id(v)] = (_block_of(v.body), cells, None)
        elif cls in _LEAF_IN:
            memo[id(v)] = _LEAF_IN[cls]
        else:
            raise _Foreign
    out = ()
    for v in env:
        out = (memo[id(v)], out)
    return out


def _machine_value(value) -> MachineValue:
    """The machine value of a compiled-path value, converted as
    _compiled_env converts."""
    memo = {id(True): TRUE, id(False): FALSE, id(None): UNIT}
    get, todo = memo.get, [value]
    while todo:
        x = todo.pop()
        if id(x) in memo:
            continue
        if len(x) == 2:
            spine, w = [], x
            while id(w) not in memo and len(w) == 2:
                spine.append(w)
                w = w[1]
            s = get(id(w), _MISSING)
            if s is _MISSING:
                todo += (*spine, w)
                continue
            while spine:
                p = spine.pop()
                f = get(id(p[0]), _MISSING)
                if f is _MISSING:
                    todo += (*spine, p, p[0])
                    break
                s = memo[id(p)] = VPair(f, s)
        else:
            values = _cells(x[1])
            missing = [v for v in values if id(v) not in memo]
            if missing:
                todo += (x, *missing)
                continue
            values.reverse()
            memo[id(x)] = Clo(x[0][_NODE](), tuple([memo[id(v)] for v in values]))
    return memo[id(value)]


def _eval_compiled(expr: MachineExpr, env: Env, fuel: int) -> EvalOutcome:
    """The compiled path: one fuel comparison per block the loop enters,
    on the fuel the block left.  A block raises at the first wrong index
    or variant it reads, so one that leaves less than no fuel ran all its
    steps validly, and the run is out of fuel.  A run in which a block
    raises runs again from the start on the reference loop, whose
    outcome, Stuck with its reason or OutOfFuel, is the run's."""
    try:
        e = _compiled_env(env)
    except _Foreign:
        return _eval_reference(expr, env, fuel)
    left, stack = fuel, [_BOTTOM]
    blk = _block_of(expr)
    try:
        while True:
            nxt, x, left = blk[0](e, stack, left, blk, 1)
            if left < 0:
                return OUT_OF_FUEL
            if nxt is not None:
                blk, e = nxt, x
            else:
                blk, e = stack.pop()
                if blk is None:
                    return Done(_machine_value(x), fuel - left)
                e = (x, e)
                left -= 1  # the resumption; the next block compares
    except (IndexError, TypeError, ValueError):
        out = _eval_reference(expr, env, fuel)
        if out.__class__ is Done:
            raise RuntimeError("the reference loop finished a run the compiled path could not")
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

# The s-expression head of a node class, whose fields follow it in order,
# and the name of a constant
_HEADS = {
    Lam: "lam", MkPair: "pair", Var: "var", Seq: "let", App: "app", LetPair: "letpair", If: "if"
}
_NAMES = {MkUnit: "unit", MkTrue: "true", MkFalse: "false"}


def expr_to_sexp(e: MachineExpr) -> str:
    """The s-expression of e, printed as a tree, with an explicit stack of
    the nodes and the text still to print, so a deep node nests no Python
    calls."""
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        cls = e.__class__
        if cls is str:
            out.append(e)
        elif cls in _NAMES:
            out.append(_NAMES[cls])
        elif cls in _HEADS:
            out.append(f"({_HEADS[cls]}")
            todo.append(")")
            for field in reversed(cls.__dataclass_fields__):
                part = getattr(e, field)
                todo += (str(part) if part.__class__ is int else part, " ")
        else:
            raise ValueError(f"unknown expression {cls.__name__}")
    return "".join(out)


def value_to_sexp(v: MachineValue) -> str:
    """The s-expression of v, printed as expr_to_sexp prints, with an
    explicit stack of the values and the text still to print."""
    out, todo = [], [v]
    while todo:
        v = todo.pop()
        cls = v.__class__
        if cls is str or cls in _VALUE_NAMES:
            out.append(v if cls is str else _VALUE_NAMES[cls])
        elif cls is VPair:
            todo += (")", v.snd, " ", v.fst, "(pairv ")
        elif cls is Clo:
            env = [x for w in reversed(v.env) for x in (w, " ")]
            todo += ("))", *env, f"(clo {expr_to_sexp(v.body)} (env")
        else:
            raise ValueError(f"unknown value {cls.__name__}")
    return "".join(out)


class SexpError(ValueError):
    pass


def _parse_sexp(text: str):
    """The first s-expression of text as a tree of lists and atoms, read
    with an explicit stack of the lists still open."""
    open_ = [[]]
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            open_.append([])
        elif tok != ")":
            open_[-1].append(tok)
        elif len(open_) > 1:
            open_[-2].append(open_.pop())
        else:
            raise SexpError("unexpected closing parenthesis")
        if open_[0]:
            return open_[0][0]
    raise SexpError("missing closing parenthesis" if open_[1:] else "unexpected end of input")


def _build(tree, form):
    """The object tree denotes, built without recursion: form(s) checks the
    form s and returns its constructor and its sub-forms, checked in order."""
    order, todo = [], [tree]
    while todo:
        make, parts = form(todo.pop())
        order.append((make, len(parts)))
        todo += reversed(parts)
    out = []
    for make, n in reversed(order):
        out.append(make(*[out.pop() for _ in range(n)]))
    return out[0]


_EXPR_OF_NAME = {name: cls for cls, name in _NAMES.items()}
_EXPR_OF_HEAD = {head: cls for cls, head in _HEADS.items()}


def _expr_form(s):
    """The constructor and sub-forms of s; a node's index fields are i and j."""
    if s.__class__ is str and s in _EXPR_OF_NAME:
        return _EXPR_OF_NAME[s], []
    head = s[0] if s.__class__ is list and s else None
    cls = _EXPR_OF_HEAD.get(head) if head.__class__ is str else None
    if cls is None or len(s) != 1 + len(cls.__dataclass_fields__):
        raise SexpError(f"bad expression form: {s!r}")
    indices = [int(x) for f, x in zip(cls.__dataclass_fields__, s[1:]) if f in ("i", "j")]
    return partial(cls, *indices), s[1 + len(indices):]


_VALUE_OF_NAME = {"unit": UNIT, "true": TRUE, "false": FALSE}
_VALUE_NAMES = {v.__class__: name for name, v in _VALUE_OF_NAME.items()}


def _value_form(s):
    if s.__class__ is str and s in _VALUE_OF_NAME:
        return partial(_VALUE_OF_NAME.get, s), []
    head = s[0] if s.__class__ is list and s else None
    if head == "clo" and len(s) == 3:
        envs = s[2]
        if not (isinstance(envs, list) and envs and envs[0] == "env"):
            raise SexpError(f"bad closure environment: {envs!r}")
        return partial(lambda body, *env: Clo(body, env), _build(s[1], _expr_form)), envs[1:]
    if head == "pairv" and len(s) == 3:
        return VPair, s[1:]
    raise SexpError(f"bad value form: {s!r}")


def expr_from_sexp(text: str) -> MachineExpr:
    return _build(_parse_sexp(text), _expr_form)


def value_from_sexp(text: str) -> MachineValue:
    return _build(_parse_sexp(text), _value_form)

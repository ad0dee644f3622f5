"""Translation of checked runtime-fragment terms to machine code, with
compositional potential accounting in polynomials.

The compiler is untyped.  It reads the core term, and the declared
type's value, from the check record a closed body keeps
(kernel.check_record), which its check at fragment 1 fills once per
regime; the input arity is read from that value.  The one typing fact
the translation needs, the usage of each application's function type
and each pair's tensor type, is read from the `usage` field of the App
and Pair nodes.

A definition is closed, and closed code addresses only the slots it
binds itself, so it does not depend on the depth of the environment it
is compiled in.  Each body is therefore compiled once per regime, and
its record keeps the costed code: compile_declaration on the body and
every reference to it share that code and potential, so the emitted
code is a DAG.  machine.expr_to_sexp, and so --emit-machine, still
print it as a tree.  The first request for a body without code compiles
the definitions it depends on leaves first, with an explicit stack, so
a chain of references does not recurse once per definition.

Code is emitted in A-normal form: machine eliminators take environment
indices, so every compound subterm is bound by sequencing first.  Every
kernel binder occupies exactly one machine slot; erased positions hold
unit dummies so index arithmetic stays uniform.

Each potential is a natural-coefficient polynomial (a Poly) summed from
the instructions the compiler emits, under the machine's cost rule:
every instruction costs one step, and so does every resumption of a
sequencing frame.  Code and potential are built in one step by two
helpers, _seq for sequences and _run for instructions that run one of
their bodies, so no step count is written by hand; each builds one
canonical Poly directly, as sums and maxima of canonical polynomials
need no re-validation (see potentials.Poly).  Sequenced costs
add; an instruction with several bodies is charged the join of their
potentials, the coefficient-wise maximum; an operand of usage k is
charged k times; and the recursor's step path, which runs once per
successor, is multiplied by the indeterminate, so the bound picks up
one degree per nested recursion.

The soundness proof reads a cost q as the element (0, q) of a
polynomial resource monoid (max-size under cons-free iteration, additive
under LFPL).  At size 0 both monoids add the polynomials, so q alone is
the cost.  An input of magnitude n adds size n + 1, and the fuel
diff(plus(size(n + 1), (0, q)), EMPTY) is then q(n + 1), which is
BoundReport.bound_at.  The package computes the bound as q(n + 1)
directly; test_compiler.py checks that reading against the monoid model
the tests keep (tests/monoids.py).  Bound soundness is checked end to
end by the sweeps, and exactness on branch-free code by the compiler
tests.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import zip_longest

from . import machine as m
from .frozen import frozen
from .frontend import ResolvedDecl, ResolvedModule, parse_module, resolve_module
from .kernel import CheckError, _entry, check_record
from .potentials import ZERO, Poly
from .syntax import (
    _SCHEMA,
    Ann,
    App,
    CodeTy,
    Cons,
    DupNat,
    FalseC,
    Global,
    If,
    Lam,
    LetPair,
    LetUnit,
    MatchList,
    NatTy,
    Nil,
    Pair,
    Pi,
    RecNatCF,
    RecNatL,
    Refl,
    ReflectElim,
    ReflectIntro,
    Regime,
    Star,
    SuccL,
    Term,
    TrueC,
    TypeExpr,
    Var,
    ZeroL,
)

VERIFY_FUEL_SLACK = 4096


class CompileError(Exception):
    """Internal invariant violation; checked terms should never trip it."""


@frozen
class CompiledProgram:
    code: m.MachineExpr
    potential: Poly  # the bound polynomial q
    regime: Regime
    input_arity: int


@frozen
class BoundReport:
    """The bound polynomial q; the step bound at input n is q(n + 1)."""

    poly: Poly
    regime: Regime
    input_arity: int

    def bound_at(self, n: int) -> int:
        if self.input_arity == 0:
            return self.poly(0)
        return self.poly(n + 1)


@frozen
class RunResult:
    steps: int | None
    value: m.MachineValue | None
    bound_at_n: int
    ok: bool
    outcome: str  # "done" | "stuck" | "out-of-fuel"


# ---------------------------------------------------------------------------
# Costed code: a (code, potential) pair, built together under the
# machine's cost rule (see the module docstring).

def _branch_join(a: Poly, b: Poly) -> Poly:
    """Least upper bound of two code potentials, coefficient-wise: sound
    for conditionals, as only one branch runs and the join dominates it.
    The maximum of canonical polynomials is canonical."""
    if not a.coeffs:
        return b
    if not b.coeffs:
        return a
    return Poly._of(tuple(map(max, zip_longest(a.coeffs, b.coeffs, fillvalue=0))))


def _seq(*parts) -> tuple[m.MachineExpr, Poly]:
    """Sequence the parts, each costed code or a bare instruction.

    A bare instruction costs one step, and so does each link; the step
    count is charged once for the whole sequence.
    """
    sums = [len(parts) - 1]
    code = None
    for part in reversed(parts):
        if part.__class__ is tuple:
            part, p = part
            cs, n = p.coeffs, len(sums)
            if len(cs) > n:
                sums += cs[n:]
                cs = cs[:n]
            for i, c in enumerate(cs):
                sums[i] += c
        else:
            sums[0] += 1
        code = part if code is None else m.Seq(part, code)
    # sums of canonical potentials and step counts: canonical unless all 0
    return code, Poly._of(tuple(sums)) if sums[-1] else ZERO


def _run(instr, *fields) -> tuple[m.MachineExpr, Poly]:
    """An instruction that runs one of its bodies (the costed-code
    fields): one step plus the join of the bodies."""
    args, joined = [], ZERO
    for f in fields:
        if f.__class__ is tuple:
            f, p = f
            joined = _branch_join(joined, p)
        args.append(f)
    cs = joined.coeffs
    return instr(*args), Poly._of((cs[0] + 1,) + cs[1:] if cs else (1,))


# ---------------------------------------------------------------------------
# Compilation environment: machine slot positions of kernel variables

@frozen
class EnvLayout:
    """Maps kernel variables to machine environment slots.

    Machine-only slots (sequencing temporaries and dummies) advance the
    depth without binding a kernel variable, so every kernel variable
    keeps exactly one live slot.
    """

    positions: tuple  # slot position (from the left) per kernel variable
    depth: int  # current machine environment depth

    def var_index(self, kernel_index: int) -> int:
        slot = self.positions[len(self.positions) - 1 - kernel_index]
        return self.depth - 1 - slot

    def bind(self, count: int) -> "EnvLayout":
        """Bind count kernel variables to the next count slots."""
        new = tuple(range(self.depth, self.depth + count))
        return EnvLayout(self.positions + new, self.depth + count)

    def slot(self, offset: int = 1) -> "EnvLayout":
        return EnvLayout(self.positions, self.depth + offset)


# ---------------------------------------------------------------------------
# Recursor assembly, exposed for direct testing.  With the scrutinee
# bound at depth D and the loop closure at D + 1, the loop body starts
# at depth D + 3 (captured environment, self reference, argument) and
# splits the argument, so the zero branch runs at depth D + 5 + d and
# the successor branch at D + 7 + d, after the erased-number dummy and
# the recursive result; d is the number of diamond dummies, 1 in the
# payment regime and 0 in the cons-free one.

def assemble_rec(regime: Regime, scrut, zero, succ) -> tuple[m.MachineExpr, Poly]:
    """The recursor loop over costed scrutinee and branch code.

    The base path and the step path are costed apart: the step path runs
    once per successor, so its potential is multiplied by the
    indeterminate.
    """
    d = 1 if regime is Regime.LFPL else 0
    dummies = (m.MkUnit(),) * d
    base = _seq(*dummies, zero)
    step = _seq(*dummies, m.MkUnit(), m.App(4 + d, 1 + d), succ)

    def loop(on_zero, on_succ):
        # split the argument into (tag, predecessor) and test the tag
        return _run(m.LetPair, 0, _run(m.If, 1, on_zero, on_succ))

    body, _ = loop(base, step)
    # a path's potential is the loop body's with both branches on that path
    code, setup = _seq(scrut, m.Lam(body), m.App(0, 1))
    return code, setup + loop(base, base)[1] + loop(step, step)[1].shift_up()


# ---------------------------------------------------------------------------
# Term translation

def _operand(regime: Regime, env: EnvLayout, t: Term, usage: int):
    """Costed code for an argument or a first pair component of the given
    usage: a unit dummy when erased, else charged usage times."""
    if usage == 0:
        return _seq(m.MkUnit())
    code, p = compile_term(regime, env, t)
    return code, p.scale(usage)


def compile_term(regime: Regime, env: EnvLayout, t: Term) -> tuple[m.MachineExpr, Poly]:
    """Compile a core runtime-fragment term (see kernel.elaborate)."""
    cls = t.__class__

    if cls is Var:
        return _seq(m.Var(env.var_index(t.index)))

    if cls is Ann:
        return compile_term(regime, env, t.term)

    if cls is Global:
        # closed code does not depend on the environment depth, so a
        # definition is compiled once per regime and shared by every use
        return _code(regime, t.body, t.ty, t)

    if cls is Lam:
        # the body runs in [captured env, self closure, argument]
        return _run(m.Lam, compile_term(regime, env.slot(1).bind(1), t.body))

    if cls is App:
        fn = compile_term(regime, env, t.fn)
        arg = _operand(regime, env.slot(1), t.arg, t.usage)
        return _seq(fn, arg, m.App(1, 0))

    if cls is Star:
        return _seq(m.MkUnit())
    if cls is TrueC:
        return _seq(m.MkTrue())
    if cls is FalseC:
        return _seq(m.MkFalse())

    if cls is Pair:
        fst = _operand(regime, env, t.fst, t.usage)
        snd = compile_term(regime, env.slot(1), t.snd)
        return _seq(fst, snd, m.MkPair(1, 0))

    if cls is LetPair:
        scrut = compile_term(regime, env, t.scrut)
        body = compile_term(regime, env.slot(1).bind(2), t.body)
        return _seq(scrut, _run(m.LetPair, 0, body))

    if cls is LetUnit:
        scrut = compile_term(regime, env, t.scrut)
        return _seq(scrut, compile_term(regime, env.slot(1), t.body))

    if cls is If:
        scrut = compile_term(regime, env, t.scrut)
        then_ = compile_term(regime, env.slot(1), t.then_branch)
        else_ = compile_term(regime, env.slot(1), t.else_branch)
        return _seq(scrut, _run(m.If, 0, then_, else_))

    if cls is Nil:
        # (false, *)
        return _seq(m.MkFalse(), m.MkUnit(), m.MkPair(1, 0))

    if cls is Cons:
        head = compile_term(regime, env, t.head)
        tail = compile_term(regime, env.slot(1), t.tail)
        # (true, (head, tail))
        return _seq(head, tail, m.MkPair(1, 0), m.MkTrue(), m.MkPair(0, 1))

    if cls is MatchList:
        scrut = compile_term(regime, env, t.scrut)
        # split (tag, payload); a true tag marks a cons cell
        nil = compile_term(regime, env.slot(3), t.nil_branch)
        cons = compile_term(regime, env.slot(3).bind(2), t.cons_branch)
        split_cell = _run(m.LetPair, 0, cons)
        test = _run(m.If, 1, split_cell, nil)
        return _seq(scrut, _run(m.LetPair, 0, test))

    if cls is DupNat:
        if isinstance(t.arg, Var):
            # a single pairing of the input slot with itself: one step
            idx = env.var_index(t.arg.index)
            return _seq(m.MkPair(idx, idx))
        return _seq(compile_term(regime, env, t.arg), m.MkPair(0, 0))

    if cls is ZeroL:
        # (true, <paid diamond>): the diamond dummy is the unit leaf
        pay = compile_term(regime, env, t.pay)
        return _seq(pay, m.MkTrue(), m.MkPair(0, 1))

    if cls is SuccL:
        pay = compile_term(regime, env, t.pay)
        pred = compile_term(regime, env.slot(1), t.pred)
        # (false, predecessor); the diamond is consumed silently
        return _seq(pay, pred, m.MkFalse(), m.MkPair(0, 1))

    if cls is RecNatCF or cls is RecNatL:
        if (cls is RecNatL) != (regime is Regime.LFPL):
            raise CompileError(f"{cls.__name__} under the wrong regime")
        # branch depths per the assembly layout above: the successor branch
        # binds (erased predecessor, previous result) after the diamonds
        d = 1 if regime is Regime.LFPL else 0
        return assemble_rec(
            regime,
            compile_term(regime, env, t.scrut),
            compile_term(regime, env.slot(5).bind(d), t.zero_branch),
            compile_term(regime, env.slot(5).bind(d + 2), t.succ_branch),
        )

    if cls is Refl or cls is CodeTy:
        # equation witnesses and type codes have no runtime content
        return _seq(m.MkUnit())

    if cls is ReflectIntro or cls is ReflectElim:
        return compile_term(regime, env, t.body)

    raise CompileError(f"term form {cls.__name__} cannot occur at runtime")


# ---------------------------------------------------------------------------
# Definitions, leaves first

# The term fields compile_term compiles, per class; it also skips an
# operand of usage 0 and compiles no equation witness.
_TERM_FIELDS = {
    cls: tuple(name for name, kind, _ in spec if kind == "term")
    for cls, spec in _SCHEMA.items()
}


def _references(core: Term) -> list[Global]:
    """The definitions whose code compile_term embeds in the code of core,
    found with an explicit stack (a definition is a leaf)."""
    found, todo = [], [core]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is Global:
            found.append(t)
        elif cls is App:
            todo.append(t.fn)
            if t.usage:
                todo.append(t.arg)
        elif cls is Pair:
            todo.append(t.snd)
            if t.usage:
                todo.append(t.fst)
        elif cls is not Refl:
            for name in _TERM_FIELDS[cls]:
                todo.append(getattr(t, name))
    return found


def _code(regime: Regime, body: Term, ty: TypeExpr, g=None) -> tuple[m.MachineExpr, Poly]:
    """The costed code of the closed body of type ty (of definition node
    g, if given), kept in its check record (kernel.check_record) per
    regime.  Every definition its code embeds that has no code yet is
    compiled before it, leaves first with an explicit stack, as a module
    is checked in its order.  A chain of references thus does not recurse
    once per definition, and each core term, which the record keeps from
    its check at fragment 1, is scanned once and compiled once."""
    todo = [(body, ty, g, None)]
    while todo:
        b, t, d, record = todo.pop()
        if record is None:
            record = check_record(regime, 1, b, t, d)
            if regime not in record[2]:
                todo.append((b, t, d, record))
                todo.extend((r.body, r.ty, r, None) for r in _references(record[2][regime, 1]))
        elif regime not in record[2]:
            # every definition it embeds has code by now
            record[2][regime] = compile_term(regime, EnvLayout((), 0), record[2][regime, 1])
    return record[2][regime]


# ---------------------------------------------------------------------------
# Whole-declaration compilation

@_entry
def compile_declaration(regime: Regime, ty: TypeExpr, body: Term, g=None) -> CompiledProgram:
    """Compile a closed runtime-fragment declaration from its check
    record (kept by definition node g, if given, for a constant or alias
    body): the code every reference to it embeds, and the value of ty.

    A body whose record lacks its check against ty at fragment 1 is
    checked first (CheckError if it does not check).  Called again on the
    body, or reached by a reference, it reuses the code.

    A declaration whose type is a usage-1 function from naturals takes
    one machine input (the encoded natural); anything else runs closed.
    """
    v = check_record(regime, 1, body, ty, g)[1]
    arity = 1 if v.__class__ is Pi and v.usage == 1 and v.dom.__class__ is NatTy else 0
    code, potential = _code(regime, body, ty, g)
    if arity == 1:
        # apply the compiled closure to the input slot
        code, potential = _seq((code, potential), m.App(0, 1))
    return CompiledProgram(code, potential, regime, arity)


# one declaration's check, as a reference to its definition node is checked
_check_declaration = _entry(check_record)


class Module:
    """A resolved module with each declaration checked once, in order, in
    its own fragment or in sigma.  outcomes holds, per declaration, None
    or its CheckError; a later reference to a failed one fails too."""

    def __init__(self, resolved: ResolvedModule, sigma: int | None = None):
        self.regime, self.decls, outcomes = resolved.regime, resolved.decls, []
        for d in self.decls:
            fragment = d.sigma if sigma is None else sigma
            try:
                _check_declaration(self.regime, fragment, d.body, d.ty, d.defn)
                outcomes.append(None)
            except CheckError as e:
                outcomes.append(CheckError(e.rule, e.message))  # holds no frames
        self.outcomes = tuple(outcomes)

    def check(self) -> None:
        """Raise the first failure in declaration order, if any."""
        for failure in filter(None, self.outcomes):
            raise CheckError(failure.rule, failure.message)

    def decl(self, name: str) -> ResolvedDecl:
        for d in self.decls:
            if d.name == name:
                return d
        raise CheckError("Resolve", f"no definition named {name!r}")

    def compile(self, name: str) -> CompiledProgram:
        """The program of runtime declaration name, from its check record."""
        self.check()
        d = self.decl(name)
        if d.sigma != 1:
            message = f"{name!r} lives in the erased fragment and has no runtime code"
            raise CheckError("Tm", message)
        return compile_declaration(self.regime, d.ty, d.body, d.defn)


def load(text: str, regime: Regime | None = None, sigma: int | None = None) -> Module:
    """Parse, resolve (regime, if given, overrides the pragma) and check text."""
    return Module(resolve_module(parse_module(text), regime), sigma)


def extract_bound(p: CompiledProgram) -> BoundReport:
    """Step bound from the program potential q: q(n + 1) at input n.

    Read as the monoid element (0, q), with an input contributing size
    n + 1, q makes the fuel diff(plus(size(n + 1), (0, q)), EMPTY)
    available, which is q(n + 1); test_compiler.py checks this against
    the tests' monoid model (tests/monoids.py).
    """
    return BoundReport(p.potential, p.regime, p.input_arity)


def run_and_verify(p: CompiledProgram, n: int) -> RunResult:
    """Run on the natural input n, through machine.eval_nat, with the
    bound at n (as BoundReport.bound_at reads it) plus VERIFY_FUEL_SLACK
    as fuel, and compare the steps against that bound."""
    if p.input_arity != 1:
        raise CompileError("verification runs need a single natural input")
    bound = BoundReport(p.potential, p.regime, p.input_arity).bound_at(n)
    out = m.eval_nat(p.code, n, bound + VERIFY_FUEL_SLACK)
    if isinstance(out, m.Done):
        return RunResult(out.steps, out.value, bound, out.steps <= bound, "done")
    if isinstance(out, m.Stuck):
        return RunResult(None, None, bound, False, "stuck")
    return RunResult(None, None, bound, False, "out-of-fuel")


def sabotage(p: CompiledProgram) -> CompiledProgram:
    """Halve the potential; used to demonstrate bound-violation detection."""
    return replace(p, potential=Poly(c // 2 for c in p.potential.coeffs))

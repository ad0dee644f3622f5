"""Translation of checked runtime-fragment terms to machine code, with
compositional potential accounting in the zero-size sub-monoid.

The compiler is untyped.  compile_declaration checks its input once with
kernel.elaborate and translates the core term that returns (compile_core
translates a core term the caller has already elaborated); the only
typing fact the translation needs, the usage of each application's
function type and each pair's tensor type, is read from the `usage`
field of the App and Pair nodes.

Code is emitted in A-normal form: machine eliminators take environment
indices, so every compound subterm is bound by sequencing first.  Every
kernel binder occupies exactly one machine slot; erased positions hold
unit dummies so index arithmetic stays uniform.  Each emitted machine
instruction contributes its exact step cost to the program potential;
recursor potentials use the degree-raising operation so that the bound
polynomial picks up one degree per nested recursion.

The recursor's administrative constants are derived from the emitted
code shapes by direct step counting (see REC_CONSTANTS and the unit
tests that pin them) and validated end to end by the bound-soundness
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import machine as m
from . import potentials as pot
from .kernel import elaborate, normalize_type
from .potentials import ExtNat, MonoidKind, Poly, Potential
from .syntax import (
    Ann,
    App,
    CodeTy,
    Cons,
    DupNat,
    FalseC,
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

# Administrative step constants of the emitted recursor shapes, computed
# by static counting of the instruction sequences assembled below and
# pinned by exact-step unit tests.
REC_CONSTANTS = {
    "setup": 4,  # scrutinee bind, loop bind, closure creation, initial call
    "cf_base": 2,  # pair split + tag test reaching the zero branch
    "cf_iter": 6,  # split, test, erased-number dummy, recursive call, seqs
    "lfpl_base": 4,  # split, test, diamond dummy bind
    "lfpl_iter": 8,  # split, test, diamond + erased-number dummies, call
}

VERIFY_FUEL_SLACK = 4096


def _kind_for(regime: Regime) -> MonoidKind:
    return MonoidKind.MAX_POLY if regime is Regime.CONS_FREE else MonoidKind.PLUS_POLY


class CompileError(Exception):
    """Internal invariant violation; checked terms should never trip it."""


@dataclass(frozen=True)
class CompiledProgram:
    code: m.MachineExpr
    potential: Potential
    kind: MonoidKind
    input_arity: int

    def __post_init__(self):
        if not pot.in_submonoid(self.potential):
            raise CompileError("program potential escaped the zero-size sub-monoid")


@dataclass(frozen=True)
class BoundReport:
    """The bound polynomial q; the step bound at input n is q(n + 1)."""

    poly: Poly
    regime: Regime
    input_arity: int

    def bound_at(self, n: int) -> int:
        if self.input_arity == 0:
            return self.poly(0)
        return self.poly(n + 1)


@dataclass(frozen=True)
class RunResult:
    steps: int | None
    value: m.MachineValue | None
    bound_at_n: int
    ok: bool
    outcome: str  # "done" | "stuck" | "out-of-fuel"


# ---------------------------------------------------------------------------
# Potential helpers

def _acct(regime: Regime, k: int) -> Potential:
    return pot.acct(_kind_for(regime), k)


def _plus(regime: Regime, *parts: Potential) -> Potential:
    kind = _kind_for(regime)
    out = pot.EMPTY
    for p in parts:
        out = pot.plus(kind, out, p)
    return out


def _branch_join(a: Potential, b: Potential) -> Potential:
    """Least upper bound of two code potentials (coefficient-wise max).

    Sound for conditionals: only one branch runs, and the join dominates
    each branch.
    """
    if a.size != 0 or b.size != 0:
        raise CompileError("branch potentials must be size-free")
    ca, cb = a.poly.coeffs, b.poly.coeffs
    n = max(len(ca), len(cb))
    ca = ca + (0,) * (n - len(ca))
    cb = cb + (0,) * (n - len(cb))
    return Potential(0, Poly(tuple(max(x, y) for x, y in zip(ca, cb))))


# ---------------------------------------------------------------------------
# Compilation environment: machine slot positions of kernel variables

@dataclass(frozen=True)
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


def _seq(*exprs: m.MachineExpr) -> m.MachineExpr:
    out = exprs[-1]
    for e in reversed(exprs[:-1]):
        out = m.Seq(e, out)
    return out


# ---------------------------------------------------------------------------
# Recursor assembly, exposed for direct testing.  With the scrutinee
# bound at depth D and the loop closure at D + 1, the loop body starts
# at depth D + 3 (captured environment, self reference, argument) and
# splits the argument, so the zero branch runs at depth D + 5; the
# successor branch runs at D + 7 (cons-free: erased-number dummy and
# recursive result) or D + 8 (payment regime: an extra diamond dummy).

def compile_rec_consfree(
    scrut_code: m.MachineExpr,
    scrut_pot: Potential,
    zero_code: m.MachineExpr,
    zero_pot: Potential,
    succ_code: m.MachineExpr,
    succ_pot: Potential,
) -> tuple[m.MachineExpr, Potential]:
    regime = Regime.CONS_FREE
    body = m.LetPair(
        0,
        m.If(
            1,
            zero_code,
            _seq(m.MkUnit(), m.App(4, 1), succ_code),
        ),
    )
    code = _seq(scrut_code, m.Lam(body), m.App(0, 1))
    c = REC_CONSTANTS
    potential = _plus(
        regime,
        scrut_pot,
        _acct(regime, c["setup"] + c["cf_base"]),
        zero_pot,
        pot.raise_(_plus(regime, _acct(regime, c["cf_iter"]), succ_pot)),
    )
    return code, potential


def compile_rec_lfpl(
    scrut_code: m.MachineExpr,
    scrut_pot: Potential,
    zero_code: m.MachineExpr,
    zero_pot: Potential,
    succ_code: m.MachineExpr,
    succ_pot: Potential,
) -> tuple[m.MachineExpr, Potential]:
    regime = Regime.LFPL
    body = m.LetPair(
        0,
        m.If(
            1,
            _seq(m.MkUnit(), zero_code),
            _seq(m.MkUnit(), m.MkUnit(), m.App(5, 2), succ_code),
        ),
    )
    code = _seq(scrut_code, m.Lam(body), m.App(0, 1))
    c = REC_CONSTANTS
    potential = _plus(
        regime,
        scrut_pot,
        _acct(regime, c["setup"] + c["lfpl_base"]),
        zero_pot,
        pot.raise_(_plus(regime, _acct(regime, c["lfpl_iter"]), succ_pot)),
    )
    return code, potential


# ---------------------------------------------------------------------------
# Term translation

def compile_term(
    regime: Regime, env: EnvLayout, t: Term
) -> tuple[m.MachineExpr, Potential]:
    """Compile a core runtime-fragment term (see kernel.elaborate)."""
    cls = t.__class__

    if cls is Var:
        return m.Var(env.var_index(t.index)), _acct(regime, 1)

    if cls is Ann:
        return compile_term(regime, env, t.term)

    if cls is Lam:
        # the body runs in [captured env, self closure, argument]
        body_code, body_pot = compile_term(regime, env.slot(1).bind(1), t.body)
        return m.Lam(body_code), _plus(regime, _acct(regime, 1), body_pot)

    if cls is App:
        fn_code, fn_pot = compile_term(regime, env, t.fn)
        pi = t.usage
        if pi == 0:
            arg_code, arg_contrib = m.MkUnit(), _acct(regime, 1)
        else:
            arg_code, arg_pot = compile_term(regime, env.slot(1), t.arg)
            arg_contrib = pot.n_action(_kind_for(regime), pi, arg_pot)
        code = _seq(fn_code, arg_code, m.App(1, 0))
        return code, _plus(regime, fn_pot, arg_contrib, _acct(regime, 3))

    if cls is Star:
        return m.MkUnit(), _acct(regime, 1)
    if cls is TrueC:
        return m.MkTrue(), _acct(regime, 1)
    if cls is FalseC:
        return m.MkFalse(), _acct(regime, 1)

    if cls is Pair:
        pi = t.usage
        if pi == 0:
            fst_code, fst_contrib = m.MkUnit(), _acct(regime, 1)
        else:
            fst_code, fst_pot = compile_term(regime, env, t.fst)
            fst_contrib = pot.n_action(_kind_for(regime), pi, fst_pot)
        snd_code, snd_pot = compile_term(regime, env.slot(1), t.snd)
        code = _seq(fst_code, snd_code, m.MkPair(1, 0))
        return code, _plus(regime, fst_contrib, snd_pot, _acct(regime, 3))

    if cls is LetPair:
        scrut_code, scrut_pot = compile_term(regime, env, t.scrut)
        body_code, body_pot = compile_term(regime, env.slot(1).bind(2), t.body)
        code = m.Seq(scrut_code, m.LetPair(0, body_code))
        return code, _plus(regime, scrut_pot, body_pot, _acct(regime, 2))

    if cls is LetUnit:
        scrut_code, scrut_pot = compile_term(regime, env, t.scrut)
        body_code, body_pot = compile_term(regime, env.slot(1), t.body)
        return m.Seq(scrut_code, body_code), _plus(
            regime, scrut_pot, body_pot, _acct(regime, 1)
        )

    if cls is If:
        scrut_code, scrut_pot = compile_term(regime, env, t.scrut)
        then_code, then_pot = compile_term(regime, env.slot(1), t.then_branch)
        else_code, else_pot = compile_term(regime, env.slot(1), t.else_branch)
        code = m.Seq(scrut_code, m.If(0, then_code, else_code))
        return code, _plus(
            regime, scrut_pot, _acct(regime, 2), _branch_join(then_pot, else_pot)
        )

    if cls is Nil:
        # (false, *)
        code = _seq(m.MkFalse(), m.MkUnit(), m.MkPair(1, 0))
        return code, _acct(regime, 5)

    if cls is Cons:
        head_code, head_pot = compile_term(regime, env, t.head)
        tail_code, tail_pot = compile_term(regime, env.slot(1), t.tail)
        # (true, (head, tail))
        code = _seq(
            head_code, tail_code, m.MkPair(1, 0), m.MkTrue(), m.MkPair(0, 1)
        )
        return code, _plus(regime, head_pot, tail_pot, _acct(regime, 7))

    if cls is MatchList:
        scrut_code, scrut_pot = compile_term(regime, env, t.scrut)
        # split (tag, payload); a true tag marks a cons cell
        nil_code, nil_pot = compile_term(regime, env.slot(3), t.nil_branch)
        cons_code, cons_pot = compile_term(
            regime, env.slot(3).bind(2), t.cons_branch
        )
        code = m.Seq(
            scrut_code,
            m.LetPair(0, m.If(1, m.LetPair(0, cons_code), nil_code)),
        )
        return code, _plus(
            regime,
            scrut_pot,
            _acct(regime, 3),
            _branch_join(nil_pot, _plus(regime, _acct(regime, 1), cons_pot)),
        )

    if cls is DupNat:
        if isinstance(t.arg, Var):
            # a single pairing of the input slot with itself: one step
            idx = env.var_index(t.arg.index)
            return m.MkPair(idx, idx), _acct(regime, 1)
        arg_code, arg_pot = compile_term(regime, env, t.arg)
        return m.Seq(arg_code, m.MkPair(0, 0)), _plus(
            regime, arg_pot, _acct(regime, 2)
        )

    if cls is ZeroL:
        pay_code, pay_pot = compile_term(regime, env, t.pay)
        # (true, <paid diamond>): the diamond dummy is the unit leaf
        code = _seq(pay_code, m.MkTrue(), m.MkPair(0, 1))
        return code, _plus(regime, pay_pot, _acct(regime, 4))

    if cls is SuccL:
        pay_code, pay_pot = compile_term(regime, env, t.pay)
        pred_code, pred_pot = compile_term(regime, env.slot(1), t.pred)
        # (false, predecessor); the diamond is consumed silently
        code = _seq(pay_code, pred_code, m.MkFalse(), m.MkPair(0, 1))
        return code, _plus(regime, pay_pot, pred_pot, _acct(regime, 5))

    if cls is RecNatCF:
        if regime is not Regime.CONS_FREE:
            raise CompileError("cons-free recursor under the wrong regime")
        return _compile_rec(regime, env, t, lfpl=False)

    if cls is RecNatL:
        if regime is not Regime.LFPL:
            raise CompileError("payment recursor under the wrong regime")
        return _compile_rec(regime, env, t, lfpl=True)

    if cls is Refl:
        # equation witnesses have no runtime content
        return m.MkUnit(), _acct(regime, 1)

    if cls is ReflectIntro or cls is ReflectElim:
        return compile_term(regime, env, t.body)

    if cls is CodeTy:
        # type codes carry no runtime content
        return m.MkUnit(), _acct(regime, 1)

    raise CompileError(f"term form {cls.__name__} cannot occur at runtime")


def _compile_rec(regime: Regime, env: EnvLayout, t, lfpl: bool):
    scrut_code, scrut_pot = compile_term(regime, env, t.scrut)
    # branch compile depths per the assembly layout documented above:
    # cons-free binds (erased predecessor, previous result) in the
    # successor branch; the payment regime adds a diamond to both branches
    diamond = 1 if lfpl else 0
    zero_env = env.slot(5).bind(diamond)
    succ_env = env.slot(5).bind(diamond + 2)
    zero_code, zero_pot = compile_term(regime, zero_env, t.zero_branch)
    succ_code, succ_pot = compile_term(regime, succ_env, t.succ_branch)
    assemble = compile_rec_lfpl if lfpl else compile_rec_consfree
    return assemble(scrut_code, scrut_pot, zero_code, zero_pot, succ_code, succ_pot)


# ---------------------------------------------------------------------------
# Whole-declaration compilation

def compile_declaration(regime: Regime, ty: TypeExpr, body: Term) -> CompiledProgram:
    """Check and compile a closed runtime-fragment declaration.

    The body is elaborated once (raising CheckError if it does not
    check) and its core term compiled by compile_core.
    """
    _, core = elaborate(regime, (), 1, body, ty)
    return compile_core(regime, ty, core)


def compile_core(regime: Regime, ty: TypeExpr, core: Term) -> CompiledProgram:
    """Compile the core term that kernel.elaborate returned for a closed
    runtime-fragment declaration of type ty.

    A declaration whose type is a usage-1 function from naturals takes
    one machine input (the encoded natural); anything else runs closed.
    """
    kind = _kind_for(regime)
    ty_n = normalize_type(regime, (), ty)
    arity = (
        1
        if isinstance(ty_n, Pi) and ty_n.usage == 1 and isinstance(ty_n.dom, NatTy)
        else 0
    )
    env = EnvLayout((), arity)
    code, potential = compile_term(regime, env, core)
    if arity == 1:
        # apply the compiled closure to the input slot
        code = m.Seq(code, m.App(0, 1))
        potential = _plus(regime, potential, _acct(regime, 2))
    return CompiledProgram(code, potential, kind, arity)


def extract_bound(p: CompiledProgram) -> BoundReport:
    """Step bound from the program potential via the difference function.

    With program potential (0, q) and an input contributing size n + 1,
    the available fuel is q(n + 1).
    """
    regime = Regime.CONS_FREE if p.kind is MonoidKind.MAX_POLY else Regime.LFPL
    for probe in (0, 1, 5):
        fuel = pot.diff(
            p.kind, pot.plus(p.kind, pot.size(probe + 1), p.potential), pot.EMPTY
        )
        if fuel != ExtNat.fin(p.potential.poly(probe + 1)):
            raise CompileError("bound extraction disagrees with differencing")
    return BoundReport(p.potential.poly, regime, p.input_arity)


def run_and_verify(p: CompiledProgram, n: int) -> RunResult:
    """Run on the encoded input n and compare steps against the bound."""
    if p.input_arity != 1:
        raise CompileError("verification runs need a single natural input")
    bound = extract_bound(p).bound_at(n)
    out = m.eval_expr(p.code, (m.nat_value(n),), bound + VERIFY_FUEL_SLACK)
    if isinstance(out, m.Done):
        return RunResult(out.steps, out.value, bound, out.steps <= bound, "done")
    if isinstance(out, m.Stuck):
        return RunResult(None, None, bound, False, "stuck")
    return RunResult(None, None, bound, False, "out-of-fuel")


def sabotage(p: CompiledProgram) -> CompiledProgram:
    """Halve the potential; used to demonstrate bound-violation detection."""
    halved = Poly(tuple(c // 2 for c in p.potential.poly.coeffs))
    return CompiledProgram(p.code, Potential(0, halved), p.kind, p.input_arity)

"""Concrete surface syntax: parser, name resolution, pretty printer.

A module is a regime pragma followed by definitions:

    regime consfree
    def parity ^1 : (n ^1 : Nat) -> Bool =
      \\n. rec n at (x. Bool) { zero => true | succ(m, p) => if p then false else true }

Usage annotations are written ``^k``; arrows and tensors without a
binder default to usage one.  Type formers may appear in term position
(they resolve to universe codes) and terms may appear in type position
(they resolve through the code-to-type embedding), so universe
programming reads naturally.  A name that refers to a definition
resolves to that definition's one shared `syntax.Global` node, which
unfolds transparently during conversion; the pretty printer prints it by
name.

The parser builds its trees from the kernel's own node classes, with
binder names where the kernel has indices (see `_Resolver`).  The lexer
is one scan with one regular expression.  Tokens, names and declarations
carry character offsets into the source, and a ``line:col`` span is
computed from the text's line starts only when a diagnostic, or a
declaration's ``span``, asks for one.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field

from .syntax import (
    Ann,
    App,
    BOOL_TY,
    BoolTy,
    CodeTy,
    Cons,
    DIAMOND_TY,
    DiamondStar,
    DiamondTy,
    DupNat,
    El,
    FalseC,
    Fst,
    Global,
    IdTy,
    If,
    Lam,
    LetPair,
    LetUnit,
    ListTy,
    MatchList,
    NAT_TY,
    NatTy,
    Nil,
    Pair,
    Pi,
    RecList,
    RecNatCF,
    RecNatL,
    Refl,
    Reflect,
    ReflectElim,
    ReflectIntro,
    Regime,
    Snd,
    Star,
    SuccCF,
    SuccL,
    Tensor,
    Term,
    TrueC,
    TypeExpr,
    UNIT_TY,
    UNIVERSE,
    UnitTy,
    Universe,
    Var,
    ZeroCF,
    ZeroL,
    _SCHEMA,
    has_free_var,
    nat_literal,
)


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    span: Span
    rule: str = ""

    def __str__(self):
        rule = f" [{self.rule}]" if self.rule else ""
        return f"{self.severity} at {self.span}:{rule} {self.message}"


class FrontendError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _err(message: str, span: Span, rule: str = "Parse") -> FrontendError:
    return FrontendError(Diagnostic("error", message, span, rule))


class _Lines:
    """Maps offsets into a source text to spans, by the line starts, which
    are found when the first span is asked for."""

    def __init__(self, text: str):
        self.text = text
        self.starts: list[int] | None = None

    def span(self, offset: int) -> Span:
        if self.starts is None:
            self.starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        line = bisect.bisect_right(self.starts, offset)
        return Span(line, offset - self.starts[line - 1] + 1)

    def error(self, message: str, offset: int, rule: str = "Parse") -> FrontendError:
        return _err(message, self.span(offset), rule)


class _Located:
    """A declaration's span, computed from its offset when it is read."""

    offset: int
    lines: _Lines

    @property
    def span(self) -> Span:
        return self.lines.span(self.offset)


# ---------------------------------------------------------------------------
# Lexer

# the type formers that may also stand in term position, as universe codes
_TYPE_FORMERS = ("Bool", "Nat", "I", "U", "List", "Id")

_KEYWORDS = {
    "def", "regime", "consfree", "lfpl", "let", "in", "if", "then", "else",
    "rec", "match", "reclist", "at", "zero", "succ", "nil", "cons", "dup",
    "fst", "snd", "refl", "true", "false", "dia", "El", "R", *_TYPE_FORMERS,
}

# Each match skips whitespace (exactly space, tab, CR and LF) and comments,
# then takes one token or the end of the text.  Digits are ASCII only:
# str.isdigit also accepts digits int() rejects.  A word continues with
# str.isalnum() characters (which is what \w is), _ and '; it starts with
# _ or a letter, and [^\W\d] also admits numerals such as ² that are not
# letters, so a word outside ASCII has its first character checked.
# Longer punctuation is listed before its prefixes.
_TOKEN = re.compile(
    r"""(?:[ \t\r\n]+|--[^\n]*)*
    (?: ([A-Za-z_][\w']*)                 # 1: an ASCII word
      | (\^-1|->|=>|<>|[(){},.:=|\\*^])   # 2: punctuation
      | ([0-9]+)                          # 3: an int
      | ([^\W\d][\w']*)                   # 4: any other word
      | (.)                               # 5: an unexpected character
      | \Z )""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[tuple]:
    """The tokens of text as `(kind, text, offset)` triples, then
    end-of-input entries.  A keyword's or punctuation's kind is its text;
    other kinds are "ident", "int" and "eof"."""
    toks = []
    append = toks.append
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group is None:  # the end of the text
            break
        s = m.group(group)
        if group == 1 or (group == 4 and s[0].isalpha()):
            append((s if s in _KEYWORDS else "ident", s, m.start(group)))
        elif group == 2:
            append((s, s, m.start(group)))
        elif group == 3:
            append(("int", s, m.start(group)))
        else:
            raise _Lines(text).error(f"unexpected character {s[0]!r}", m.start(group))
    # the parser looks at most two tokens past the current one
    toks += [("eof", "", len(text))] * 3
    return toks


# ---------------------------------------------------------------------------
# Surface trees: kernel nodes with binder names (the format is described
# at _Resolver)

@dataclass(frozen=True)
class SourceDecl(_Located):
    name: str
    sigma: int
    ty: object
    body: object
    offset: int  # of its `def`
    lines: _Lines = field(compare=False, repr=False)


@dataclass(frozen=True)
class SourceModule:
    regime: Regime | None
    decls: tuple
    # names must be unique; forward references are rejected at resolution


# the tags of the surface forms that are not kernel forms
_NAME, _LITERAL, _LAMBDA, _EMBED = "name", "literal", "lambda", "embed"

# the binder of a non-dependent arrow or tensor, which no name refers to
_UNNAMED = (None,)

# the atoms that are one token
_TYPE_CONSTANTS = {
    "Bool": BOOL_TY, "Nat": NAT_TY, "I": UNIT_TY, "U": UNIVERSE, "<>": DIAMOND_TY,
}
_TERM_CONSTANTS = {
    "*": Star(), "true": TrueC(), "false": FalseC(), "nil": Nil(),
    "dia": DiamondStar(), "zero": ZeroCF(),
}

# the keywords that take one argument atom
_PREFIXES = {"dup": DupNat, "fst": Fst, "snd": Snd, "refl": Refl}

# the kinds of the tokens that start an argument of an application
_ATOM_STARTS = frozenset((
    "ident", "int", "(", "<>", *_TYPE_FORMERS, "true", "false", "nil", "zero",
    "succ", "cons", "dup", "fst", "snd", "refl", "dia", "R", "El",
))


class _Parser:
    def __init__(self, text: str):
        self.lines = _Lines(text)
        self.toks = tokenize(text)
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    def peek(self, ahead: int = 0) -> tuple:
        return self.toks[self.pos + ahead]

    def next(self) -> tuple:
        # past the end this reads the padding, and every caller then fails
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str = "") -> tuple:
        t = self.toks[self.pos]
        if t[0] != kind:
            found = t[1] or "end of input"
            raise self.lines.error(f"expected {what or kind}, found {found}", t[2])
        self.pos += 1
        return t

    def eat(self, kind: str) -> bool:
        if self.toks[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def names(self, count: int, what: str = "ident") -> tuple:
        """`(a, b, ...)`: count names in parentheses."""
        self.expect("(")
        out = [self.expect("ident", what)[1]]
        for _ in range(count - 1):
            self.expect(",")
            out.append(self.expect("ident", what)[1])
        self.expect(")")
        return tuple(out)

    def at_binder(self) -> bool:
        # '(' IDENT '^' introduces an annotated binder
        toks, pos = self.toks, self.pos
        return toks[pos][0] == "(" and toks[pos + 1][0] == "ident" and toks[pos + 2][0] == "^"

    # -- module -------------------------------------------------------------
    def module(self) -> SourceModule:
        regime = None
        if self.eat("regime"):
            _, text, off = self.next()
            if text == "consfree":
                regime = Regime.CONS_FREE
            elif text == "lfpl":
                regime = Regime.LFPL
            else:
                raise self.lines.error("regime must be consfree or lfpl", off)
        decls = []
        while not self.at_eof():
            decls.append(self.decl())
        return SourceModule(regime, tuple(decls))

    def at_eof(self) -> bool:
        return self.toks[self.pos][0] == "eof"

    def decl(self) -> SourceDecl:
        start = self.expect("def")[2]
        name = self.expect("ident", "definition name")[1]
        self.expect("^", "fragment marker ^0 or ^1")
        _, digits, off = self.expect("int", "fragment 0 or 1")
        sigma = int(digits)
        if sigma not in (0, 1):
            raise self.lines.error("fragment marker must be 0 or 1", off)
        self.expect(":")
        ty = self.type_expr()
        self.expect("=")
        body = self.term()
        return SourceDecl(name, sigma, ty, body, start, self.lines)

    # -- types --------------------------------------------------------------
    def type_expr(self):
        # arrows bind loosest and associate right; tensors bind tighter
        lhs = self.type_tensor_or_binder()
        if self.toks[self.pos][0] == "->":
            self.pos += 1
            return (Pi, 1, lhs, (_UNNAMED, self.type_expr()))
        return lhs

    def type_tensor_or_binder(self):
        """A tensor of atoms, or a dependent binder `(x ^k : A) -> B` or
        `(x ^k : A) * B`."""
        if not self.at_binder():
            return self.type_tensor()
        name = self.toks[self.pos + 1][1]
        self.pos += 3
        usage = int(self.expect("int", "usage")[1])
        self.expect(":")
        dom = self.type_expr()
        self.expect(")")
        kind, _, off = self.next()
        if kind == "->":
            return (Pi, usage, dom, ((name,), self.type_expr()))
        if kind == "*":
            return (Tensor, usage, dom, ((name,), self.type_tensor_or_binder()))
        raise self.lines.error("expected -> or * after a binder", off)

    def type_tensor(self):
        lhs = self.type_atom()
        if self.toks[self.pos][0] == "*":
            self.pos += 1
            return (Tensor, 1, lhs, (_UNNAMED, self.type_tensor_or_binder()))
        return lhs

    def type_atom(self):
        kind = self.toks[self.pos][0]
        if kind in _TYPE_CONSTANTS:
            self.pos += 1
            return _TYPE_CONSTANTS[kind]
        if kind == "List":
            self.pos += 1
            return (ListTy, self.type_atom())
        if kind == "Id":
            self.pos += 1
            return (IdTy, self.type_atom(), self.term_atom(), self.term_atom())
        if kind == "R":
            self.pos += 1
            return (Reflect, self.type_atom())
        if kind == "El":
            self.pos += 1
            return (El, self.term_atom())
        if kind == "(":
            if self.at_binder():
                return self.type_tensor_or_binder()
            self.pos += 1
            inner = self.type_expr()
            self.expect(")")
            return inner
        # a term in type position embeds through El
        return (_EMBED, self.term_app())

    # -- terms ----------------------------------------------------------
    def term(self):
        kind, _, start = self.toks[self.pos]
        if kind == "\\":
            self.pos += 1
            binders = []
            while True:
                b = self.toks[self.pos]
                if b[0] == "ident":
                    self.pos += 1
                    binders.append(b[1])
                elif b[0] == "(":
                    binders.append(self.names(2, "pattern name"))
                else:
                    break
            if not binders:
                raise self.lines.error("lambda needs at least one binder", start)
            self.expect(".")
            return (_LAMBDA, binders, self.term())
        if kind == "let":
            self.pos += 1
            if self.eat("*"):
                cls, bound = LetUnit, None
            else:
                cls, bound = LetPair, self.names(2, "pattern name")
            self.expect("=")
            scrut = self.term()
            motive = self.motive_clause()
            self.expect("in")
            body = self.term()
            return (cls, scrut, body if bound is None else (bound, body), motive)
        if kind == "if":
            self.pos += 1
            scrut = self.term_app()
            motive = self.motive_clause()
            self.expect("then")
            then_b = self.term()
            self.expect("else")
            return (If, scrut, then_b, self.term(), motive)
        if kind == "rec":
            return self.rec_term()
        if kind == "match" or kind == "reclist":
            return self.list_term()
        return self.term_infix()

    def motive_clause(self):
        if self.eat("at"):
            self.expect("(")
            name = self.expect("ident", "motive binder")[1]
            self.expect(".")
            ty = self.type_expr()
            self.expect(")")
            return ((name,), ty)
        return None

    def rec_term(self):
        self.pos += 1
        scrut = self.term_app()
        motive = self.motive_clause()
        self.expect("{")
        self.expect("zero")
        # the payment regime's shape binds a diamond in each branch
        diamond = self.names(1, "diamond binder") if self.toks[self.pos][0] == "(" else ()
        self.expect("=>")
        zb = self.term()
        self.expect("|")
        self.expect("succ")
        bound = self.names(len(diamond) + 2)
        self.expect("=>")
        sb = self.term()
        self.expect("}")
        if diamond:
            return (RecNatL, scrut, (diamond, zb), (bound, sb), motive)
        return (RecNatCF, scrut, zb, (bound, sb), motive)

    def list_term(self):
        # match binds the head and tail; reclist also the previous result
        cls, count = (MatchList, 2) if self.next()[0] == "match" else (RecList, 3)
        scrut = self.term_app()
        motive = self.motive_clause()
        self.expect("{")
        self.expect("nil")
        self.expect("=>")
        nb = self.term()
        self.expect("|")
        self.expect("cons")
        bound = self.names(count)
        self.expect("=>")
        cb = self.term()
        self.expect("}")
        return (cls, scrut, nb, (bound, cb), motive)

    def term_infix(self):
        lhs = self.term_app()
        kind = self.toks[self.pos][0]
        if kind != "->" and kind != "*":
            return lhs
        lhs_ty: tuple = (_EMBED, lhs)
        if self.eat("*"):
            lhs_ty = (Tensor, 1, lhs_ty, (_UNNAMED, self.type_tensor_or_binder()))
        if self.eat("->"):
            lhs_ty = (Pi, 1, lhs_ty, (_UNNAMED, self.type_expr()))
        return (CodeTy, lhs_ty)

    def term_app(self):
        kind = self.toks[self.pos][0]
        # a type former in term position becomes a universe code
        if kind in _TYPE_FORMERS or kind == "<>" or self.at_binder():
            return (CodeTy, self.type_atom())
        head = self.head_atom()
        while self.toks[self.pos][0] in _ATOM_STARTS:
            head = (App, head, self.term_atom())
        return head

    def head_atom(self):
        kind = self.toks[self.pos][0]
        if kind == "zero":
            self.pos += 1
            if self.starts_atom():
                return (ZeroL, self.term_atom())
            return ZeroCF()
        if kind == "succ":
            self.pos += 1
            first = self.term_atom()
            if self.starts_atom():
                return (SuccL, first, self.term_atom())
            return (SuccCF, first)
        if kind == "cons":
            self.pos += 1
            return (Cons, self.term_atom(), self.term_atom())
        if kind in _PREFIXES:
            self.pos += 1
            return (_PREFIXES[kind], self.term_atom())
        if kind == "El":
            self.pos += 1
            return (CodeTy, (El, self.term_atom()))
        if kind == "R":
            self.pos += 1
            if self.eat("^-1"):
                return (ReflectElim, self.term_atom())
            return (ReflectIntro, self.term_atom())
        return self.term_atom()

    def starts_atom(self) -> bool:
        return self.toks[self.pos][0] in _ATOM_STARTS

    def term_atom(self):
        kind, text, off = self.toks[self.pos]
        if kind == "ident":
            self.pos += 1
            return (_NAME, text, off)
        if kind == "int":
            self.pos += 1
            return (_LITERAL, int(text))
        if kind in _TERM_CONSTANTS:
            self.pos += 1
            return _TERM_CONSTANTS[kind]
        if kind == "<>" or kind in _TYPE_FORMERS:
            # a type former used as a universe code
            return (CodeTy, self.type_atom())
        if kind in ("succ", "cons", "dup", "fst", "snd", "refl", "R", "El"):
            # builtins with arguments must head their own spine
            return self.head_atom()
        if kind == "(":
            self.pos += 1
            if self.toks[self.pos][0] == "*" and self.toks[self.pos + 1][0] == ")":
                self.pos += 2
                return Star()
            inner = self.term()
            if self.eat(","):
                snd = self.term()
                self.expect(")")
                return (Pair, inner, snd)
            if self.eat(":"):
                ty = self.type_expr()
                self.expect(")")
                return (Ann, inner, ty)
            self.expect(")")
            return inner
        raise self.lines.error(f"expected a term, found {text or 'end of input'!r}", off)


def _parse(text: str, rule):
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        # the parser recurses once per nesting level; input nested deeper
        # than the host stack allows is reported where the stack ran out
        raise p.lines.error("expression nested too deeply to parse", p.peek()[2]) from None
    if not p.at_eof():
        _, text, off = p.peek()
        raise p.lines.error(f"trailing input at {text!r}", off)
    return out


def parse_module(text: str) -> SourceModule:
    return _parse(text, _Parser.module)


def parse_term(text: str):
    return _parse(text, _Parser.term)


def parse_type(text: str):
    return _parse(text, _Parser.type_expr)


# ---------------------------------------------------------------------------
# Resolution to kernel syntax

@dataclass(frozen=True)
class ResolvedDecl(_Located):
    sigma: int
    offset: int  # of its `def`
    defn: Global  # the node every reference to the declaration resolves to
    lines: _Lines = field(compare=False, repr=False)

    @property
    def name(self) -> str:
        return self.defn.name

    @property
    def ty(self) -> TypeExpr:
        return self.defn.ty

    @property
    def body(self) -> Term:
        return self.defn.body


@dataclass(frozen=True)
class ResolvedModule:
    regime: Regime
    decls: tuple


class _Resolver:
    """Turns the parser's surface trees into kernel terms and types.

    A surface tree is written in the kernel's own classes.  A form that
    names nothing is the kernel node itself (``true`` is ``TrueC()``,
    ``Bool`` is ``BOOL_TY``).  Any other kernel form is a tuple
    ``(KernelClass, *fields)``, the fields in `syntax._SCHEMA` order.  A
    field that binds k variables is ``(k binder names, subtree)``, the
    innermost name last; a binder that no name can refer to is None.  An
    absent motive is None, and a trailing field the parser does not set
    (``App.usage``) is left out.  The other forms are tagged with a
    string:

    - ``(_NAME, text, offset)``: a variable, or a definition, by name;
    - ``(_LITERAL, n)``: a numeral, encoded as the regime writes it;
    - ``(_LAMBDA, binders, body)``: a lambda, whose binders are names or
      name pairs ``(a, c)`` that split their argument;
    - ``(_EMBED, term)``: a term in type position.
    """

    def __init__(self, regime: Regime, globals_: dict, lines: _Lines):
        self.regime = regime
        self.globals = globals_  # name -> Global
        self.lines = lines  # to report an offset

    def resolve(self, node, scope: tuple):
        """The kernel node of a surface tree under scope, the names of the
        binders around it, innermost last."""
        if node.__class__ is not tuple:
            return node  # a kernel node, a usage or an absent motive
        tag = node[0]
        if tag is _NAME:
            name = node[1]
            # innermost binding wins: search from the right
            for i, bound in enumerate(reversed(scope)):
                if bound == name:
                    return Var(i)
            if name in self.globals:
                return self.globals[name]
            raise self.lines.error(f"unbound name {name!r}", node[2], rule="Resolve")
        if tag is _LAMBDA:
            # \x (a, c). M is \x. \w. let (a, c) = w in M with w unnameable.
            # Expanded here rather than by the parser: each binder then
            # costs one resolve frame and the lambda one more, the depth
            # at which the tests pin "nested too deeply to resolve"
            _, binders, body = node
            for b in reversed(binders):
                if b.__class__ is tuple:
                    body = (Lam, (_UNNAMED, (LetPair, Var(0), (b, body), None)))
                else:
                    body = (Lam, ((b,), body))
            return self.resolve(body, scope)
        if tag is _LITERAL:
            return nat_literal(self.regime, node[1])
        if tag is _EMBED:
            inner = self.resolve(node[1], scope)
            return inner.ty if inner.__class__ is CodeTy else El(inner)
        fields = []
        for (_, _, binds), sub in zip(_SCHEMA[tag], node[1:]):
            if binds and sub is not None:
                sub = self.resolve(sub[1], scope + sub[0])
            elif sub.__class__ is tuple:
                sub = self.resolve(sub, scope)
            fields.append(sub)
        return tag(*fields)


def resolve_module(
    mod: SourceModule, regime_override: Regime | None = None
) -> ResolvedModule:
    regime = regime_override or mod.regime
    if regime is None:
        raise FrontendError(
            Diagnostic(
                "error",
                "no regime pragma in the module and none supplied",
                Span(1, 1),
                "Resolve",
            )
        )
    globals_: dict = {}
    out = []
    for d in mod.decls:
        if d.name in globals_:
            raise _err(f"duplicate definition {d.name!r}", d.span, rule="Resolve")
        r = _Resolver(regime, globals_, d.lines)
        try:
            defn = Global(d.name, r.resolve(d.ty, ()), r.resolve(d.body, ()))
        except RecursionError:
            # as in the parser: the resolver recurses once per binder
            raise _err(
                f"{d.name!r} is nested too deeply to resolve", d.span, rule="Resolve"
            ) from None
        globals_[d.name] = defn
        out.append(ResolvedDecl(d.sigma, d.offset, defn, d.lines))
    return ResolvedModule(regime, tuple(out))


def resolve_term(text: str, regime: Regime, scope: tuple = ()) -> Term:
    return _Resolver(regime, {}, _Lines(text)).resolve(parse_term(text), scope)


def resolve_type(text: str, regime: Regime, scope: tuple = ()) -> TypeExpr:
    return _Resolver(regime, {}, _Lines(text)).resolve(parse_type(text), scope)



# ---------------------------------------------------------------------------
# Pretty printing (deterministic fresh names, counted over named binders)

def _nat_literal_cf(t: Term) -> int | None:
    n = 0
    while isinstance(t, SuccCF):
        t = t.pred
        n += 1
    return n if isinstance(t, ZeroCF) else None


def _nat_literal_lfpl(t: Term) -> int | None:
    n = 0
    while isinstance(t, SuccL) and isinstance(t.pay, DiamondStar):
        t = t.pred
        n += 1
    if isinstance(t, ZeroL) and isinstance(t.pay, DiamondStar):
        return n
    return None


def _wrap(s: str, need: bool) -> str:
    return f"({s})" if need else s


class _Printer:
    """Prints under a scope, the tuple of the names of the binders around
    the printed node, innermost last.  A non-dependent arrow or tensor
    binds an unnamed slot (None), which no variable reads.  A new binder
    is named xk, k counting the named binders in scope, primed until it
    differs from every definition the printed node refers to, as those
    print by name."""

    def __init__(self, node):
        # the names of the definitions node refers to
        self.avoid, todo = set(), [node]
        while todo:
            x = todo.pop()
            if x.__class__ is Global:
                self.avoid.add(x.name)
            elif x is not None:  # an absent motive
                spec = _SCHEMA[x.__class__]
                todo += (getattr(x, f) for f, kind, _ in spec if kind != "plain")

    def name(self, k: int) -> str:
        name = f"x{k}"
        while name in self.avoid:
            name += "'"
        return name

    def bind(self, scope: tuple, count: int) -> tuple:
        # scope under count new named binders
        k = len(scope) - scope.count(None)
        return scope + tuple(self.name(k + j) for j in range(count))

    def term(self, t: Term, scope: tuple, prec: int) -> str:
        cls = t.__class__
        if cls is Var:
            i = t.index
            # an index past the scope is named as if its binders were named
            return scope[-1 - i] if i < len(scope) else self.name(len(scope) - 1 - i)
        if cls is Lam:
            inner = self.bind(scope, 1)
            body = self.term(t.body, inner, 0)
            return _wrap(f"\\{inner[-1]}. {body}", prec > 0)
        if cls is App:
            # successor heads take a flexible number of atoms, so an applied
            # successor must be parenthesised to keep its own argument
            fn_prec = 1
            if isinstance(t.fn, SuccCF) and _nat_literal_cf(t.fn) is None:
                fn_prec = 2
            if isinstance(t.fn, SuccL) and _nat_literal_lfpl(t.fn) is None:
                fn_prec = 2
            fn = self.term(t.fn, scope, fn_prec)
            arg = self.term(t.arg, scope, 2)
            return _wrap(f"{fn} {arg}", prec > 1)
        if cls is Pair:
            return f"({self.term(t.fst, scope, 0)}, {self.term(t.snd, scope, 0)})"
        if cls is Star:
            return "*" if prec < 2 else "(*)"
        if cls is TrueC:
            return "true"
        if cls is FalseC:
            return "false"
        if cls is Nil:
            return "nil"
        if cls is Cons:
            s = f"cons {self.term(t.head, scope, 2)} {self.term(t.tail, scope, 2)}"
            return _wrap(s, prec > 1)
        if cls is LetPair:
            inner = self.bind(scope, 2)
            a, b = inner[-2:]
            s = (
                f"let ({a}, {b}) = {self.term(t.scrut, scope, 0)}"
                f"{self.motive(t.motive, scope)} in "
                f"{self.term(t.body, inner, 0)}"
            )
            return _wrap(s, prec > 0)
        if cls is LetUnit:
            s = (
                f"let * = {self.term(t.scrut, scope, 0)}"
                f"{self.motive(t.motive, scope)} in {self.term(t.body, scope, 0)}"
            )
            return _wrap(s, prec > 0)
        if cls is If:
            s = (
                f"if {self.term(t.scrut, scope, 1)}{self.motive(t.motive, scope)} "
                f"then {self.term(t.then_branch, scope, 0)} "
                f"else {self.term(t.else_branch, scope, 0)}"
            )
            return _wrap(s, prec > 0)
        if cls is MatchList:
            inner = self.bind(scope, 2)
            h, tl = inner[-2:]
            s = (
                f"match {self.term(t.scrut, scope, 1)}{self.motive(t.motive, scope)} "
                f"{{ nil => {self.term(t.nil_branch, scope, 0)} "
                f"| cons({h}, {tl}) => {self.term(t.cons_branch, inner, 0)} }}"
            )
            return _wrap(s, prec > 0)
        if cls is RecList:
            inner = self.bind(scope, 3)
            h, tl, p = inner[-3:]
            s = (
                f"reclist {self.term(t.scrut, scope, 1)}{self.motive(t.motive, scope)} "
                f"{{ nil => {self.term(t.nil_branch, scope, 0)} "
                f"| cons({h}, {tl}, {p}) => {self.term(t.cons_branch, inner, 0)} }}"
            )
            return _wrap(s, prec > 0)
        if cls is ZeroCF:
            return "0"
        if cls is SuccCF:
            lit = _nat_literal_cf(t)
            if lit is not None:
                return str(lit)
            return _wrap(f"succ {self.term(t.pred, scope, 2)}", prec > 1)
        if cls is DupNat:
            return _wrap(f"dup {self.term(t.arg, scope, 2)}", prec > 1)
        if cls is RecNatCF:
            inner = self.bind(scope, 2)
            n, p = inner[-2:]
            s = (
                f"rec {self.term(t.scrut, scope, 1)}{self.motive(t.motive, scope)} "
                f"{{ zero => {self.term(t.zero_branch, scope, 0)} "
                f"| succ({n}, {p}) => {self.term(t.succ_branch, inner, 0)} }}"
            )
            return _wrap(s, prec > 0)
        if cls is DiamondStar:
            return "dia"
        if cls is ZeroL:
            lit = _nat_literal_lfpl(t)
            if lit is not None:
                return str(lit)
            return _wrap(f"zero {self.term(t.pay, scope, 2)}", prec > 1)
        if cls is SuccL:
            lit = _nat_literal_lfpl(t)
            if lit is not None:
                return str(lit)
            s = f"succ {self.term(t.pay, scope, 2)} {self.term(t.pred, scope, 2)}"
            return _wrap(s, prec > 1)
        if cls is RecNatL:
            inner_z, inner_s = self.bind(scope, 1), self.bind(scope, 3)
            d, n, p = inner_s[-3:]
            s = (
                f"rec {self.term(t.scrut, scope, 1)}{self.motive(t.motive, scope)} "
                f"{{ zero({d}) => {self.term(t.zero_branch, inner_z, 0)} "
                f"| succ({d}, {n}, {p}) => {self.term(t.succ_branch, inner_s, 0)} }}"
            )
            return _wrap(s, prec > 0)
        if cls is Refl:
            return _wrap(f"refl {self.term(t.body, scope, 2)}", prec > 1)
        if cls is ReflectIntro:
            return _wrap(f"R {self.term(t.body, scope, 2)}", prec > 1)
        if cls is ReflectElim:
            return _wrap(f"R^-1 {self.term(t.body, scope, 2)}", prec > 1)
        if cls is Fst:
            return _wrap(f"fst {self.term(t.pair, scope, 2)}", prec > 1)
        if cls is Snd:
            return _wrap(f"snd {self.term(t.pair, scope, 2)}", prec > 1)
        if cls is CodeTy:
            return _wrap(self.type(t.ty, scope, 1), prec > 1)
        if cls is Ann:
            return f"({self.term(t.term, scope, 0)} : {self.type(t.ty, scope, 0)})"
        if cls is Global:
            return t.name
        raise ValueError(f"unknown term {cls.__name__}")

    def motive(self, motive: TypeExpr | None, scope: tuple) -> str:
        if motive is None:
            return ""
        inner = self.bind(scope, 1)
        return f" at ({inner[-1]}. {self.type(motive, inner, 0)})"

    def type(self, ty: TypeExpr, scope: tuple, prec: int) -> str:
        cls = ty.__class__
        if cls is BoolTy:
            return "Bool"
        if cls is NatTy:
            return "Nat"
        if cls is UnitTy:
            return "I"
        if cls is Universe:
            return "U"
        if cls is DiamondTy:
            return "<>"
        if cls is Pi:
            if ty.usage == 1 and not has_free_var(ty.cod, 0):
                dom = self.type(ty.dom, scope, 1)
                cod = self.type(ty.cod, scope + (None,), 0)
                return _wrap(f"{dom} -> {cod}", prec >= 1)
            dom = self.type(ty.dom, scope, 0)
            inner = self.bind(scope, 1)
            cod = self.type(ty.cod, inner, 0)
            return _wrap(f"({inner[-1]} ^{ty.usage} : {dom}) -> {cod}", prec >= 1)
        if cls is Tensor:
            if ty.usage == 1 and not has_free_var(ty.snd, 0):
                fst = self.type(ty.fst, scope, 2)
                snd = self.type(ty.snd, scope + (None,), 1)
                return _wrap(f"{fst} * {snd}", prec >= 2)
            fst = self.type(ty.fst, scope, 0)
            inner = self.bind(scope, 1)
            snd = self.type(ty.snd, inner, 1)
            return _wrap(f"({inner[-1]} ^{ty.usage} : {fst}) * {snd}", prec >= 2)
        if cls is ListTy:
            return _wrap(f"List {self.type(ty.elem, scope, 2)}", prec >= 2)
        if cls is IdTy:
            s = (
                f"Id {self.type(ty.ty, scope, 2)} "
                f"{self.term(ty.lhs, scope, 2)} {self.term(ty.rhs, scope, 2)}"
            )
            return _wrap(s, prec >= 2)
        if cls is El:
            return _wrap(f"El {self.term(ty.code, scope, 2)}", prec >= 2)
        if cls is Reflect:
            return _wrap(f"R {self.type(ty.inner, scope, 2)}", prec >= 2)
        raise ValueError(f"unknown type {cls.__name__}")


def pretty_term(t: Term, depth: int = 0, prec: int = 0) -> str:
    """Render a kernel term under depth binders named x0, x1, ...; level
    0 is outermost, 2 is argument position."""
    p = _Printer(t)
    return p.term(t, p.bind((), depth), prec)


def pretty_type(ty: TypeExpr, depth: int = 0, prec: int = 0) -> str:
    """Render a kernel type.

    Precedence climbs from arrows (0) through tensors (1) to atoms (2);
    keyword-led formers behave like prefix operators at atom level.
    """
    p = _Printer(ty)
    return p.type(ty, p.bind((), depth), prec)

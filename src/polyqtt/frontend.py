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

The lexer is one scan with one regular expression.  Tokens and surface
nodes carry character offsets into the source, and a ``line:col`` span
is computed from the text's line starts only when a diagnostic, or a
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
# Surface trees (tagged tuples, source offset carried on the node where useful)

@dataclass(frozen=True)
class SourceDecl(_Located):
    name: str
    sigma: int
    ty: tuple
    body: tuple
    offset: int  # of its `def`
    lines: _Lines = field(compare=False, repr=False)


@dataclass(frozen=True)
class SourceModule:
    regime: Regime | None
    decls: tuple
    # names must be unique; forward references are rejected at resolution


# the surface trees of the atoms that are one token
_TYPE_CONSTANTS = {
    "Bool": ("bool",), "Nat": ("nat",), "I": ("unit",), "U": ("universe",),
    "<>": ("diamond",),
}
_TERM_CONSTANTS = {
    "*": ("star",), "true": ("true",), "false": ("false",), "nil": ("nil",),
    "dia": ("dstar",), "zero": ("zero_cf",),
}

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
    def _binder_head(self) -> tuple | None:
        # '(' IDENT '^' INT ':'  introduces an annotated binder
        toks, pos = self.toks, self.pos
        if toks[pos][0] == "(" and toks[pos + 1][0] == "ident" and toks[pos + 2][0] == "^":
            name = toks[pos + 1][1]
            self.pos += 3
            usage = int(self.expect("int", "usage")[1])
            self.expect(":")
            dom = self.type_expr()
            self.expect(")")
            return name, usage, dom
        return None

    def type_expr(self) -> tuple:
        # arrows bind loosest and associate right; tensors bind tighter
        lhs = self.type_tensor_or_binder()
        if self.toks[self.pos][0] == "->":
            self.pos += 1
            return ("pi", 1, None, lhs, self.type_expr())
        return lhs

    def type_tensor_or_binder(self) -> tuple:
        head = self._binder_head()
        if head is not None:
            name, usage, dom = head
            kind, _, off = self.next()
            if kind == "->":
                return ("pi", usage, name, dom, self.type_expr())
            if kind == "*":
                return ("tensor", usage, name, dom, self.type_tensor_or_binder())
            raise self.lines.error("expected -> or * after a binder", off)
        return self.type_tensor()

    def type_tensor(self) -> tuple:
        lhs = self.type_atom()
        if self.toks[self.pos][0] == "*":
            self.pos += 1
            return ("tensor", 1, None, lhs, self.type_tensor_or_binder())
        return lhs

    def type_atom(self) -> tuple:
        kind = self.toks[self.pos][0]
        if kind in _TYPE_CONSTANTS:
            self.pos += 1
            return _TYPE_CONSTANTS[kind]
        if kind == "List":
            self.pos += 1
            return ("list", self.type_atom())
        if kind == "Id":
            self.pos += 1
            ty = self.type_atom()
            lhs = self.term_atom()
            rhs = self.term_atom()
            return ("id", ty, lhs, rhs)
        if kind == "R":
            self.pos += 1
            return ("reflectty", self.type_atom())
        if kind == "El":
            self.pos += 1
            return ("el", self.term_atom())
        if kind == "(":
            head = self._binder_head()
            if head is not None:
                name, usage, dom = head
                kind, _, off = self.next()
                if kind == "->":
                    return ("pi", usage, name, dom, self.type_expr())
                if kind == "*":
                    return ("tensor", usage, name, dom, self.type_tensor_or_binder())
                raise self.lines.error("expected -> or * after a binder", off)
            self.pos += 1
            inner = self.type_expr()
            self.expect(")")
            return inner
        # a term in type position embeds through El
        term = self.term_app()
        return ("el-implicit", term)

    # -- terms ----------------------------------------------------------
    def term(self) -> tuple:
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
                    self.pos += 1
                    a = self.expect("ident", "pattern name")[1]
                    self.expect(",")
                    c = self.expect("ident", "pattern name")[1]
                    self.expect(")")
                    binders.append((a, c))
                else:
                    break
            if not binders:
                raise self.lines.error("lambda needs at least one binder", start)
            self.expect(".")
            return ("lam", binders, self.term(), start)
        if kind == "let":
            return self.let_term()
        if kind == "if":
            self.pos += 1
            scrut = self.term_app()
            motive = self.motive_clause()
            self.expect("then")
            then_b = self.term()
            self.expect("else")
            return ("if", scrut, motive, then_b, self.term(), start)
        if kind == "rec":
            return self.rec_term()
        if kind == "match":
            return self.match_term()
        if kind == "reclist":
            return self.reclist_term()
        return self.term_infix()

    def motive_clause(self) -> tuple | None:
        if self.eat("at"):
            self.expect("(")
            name = self.expect("ident", "motive binder")[1]
            self.expect(".")
            ty = self.type_expr()
            self.expect(")")
            return (name, ty)
        return None

    def let_term(self) -> tuple:
        start = self.next()[2]  # 'let'
        if self.eat("*"):
            self.expect("=")
            scrut = self.term()
            motive = self.motive_clause()
            self.expect("in")
            return ("letunit", scrut, motive, self.term(), start)
        self.expect("(")
        a = self.expect("ident", "pattern name")[1]
        self.expect(",")
        b = self.expect("ident", "pattern name")[1]
        self.expect(")")
        self.expect("=")
        scrut = self.term()
        motive = self.motive_clause()
        self.expect("in")
        return ("letpair", a, b, scrut, motive, self.term(), start)

    def rec_term(self) -> tuple:
        start = self.next()[2]
        scrut = self.term_app()
        motive = self.motive_clause()
        self.expect("{")
        self.expect("zero")
        if self.eat("("):  # payment-regime shape binds a diamond
            d0 = self.expect("ident", "diamond binder")[1]
            self.expect(")")
            self.expect("=>")
            zb = self.term()
            self.expect("|")
            self.expect("succ")
            self.expect("(")
            d1 = self.expect("ident")[1]
            self.expect(",")
            nn = self.expect("ident")[1]
            self.expect(",")
            pp = self.expect("ident")[1]
            self.expect(")")
            self.expect("=>")
            sb = self.term()
            self.expect("}")
            return ("rec_l", scrut, motive, (d0, zb), (d1, nn, pp, sb), start)
        self.expect("=>")
        zb = self.term()
        self.expect("|")
        self.expect("succ")
        self.expect("(")
        nn = self.expect("ident")[1]
        self.expect(",")
        pp = self.expect("ident")[1]
        self.expect(")")
        self.expect("=>")
        sb = self.term()
        self.expect("}")
        return ("rec_cf", scrut, motive, zb, (nn, pp, sb), start)

    def match_term(self) -> tuple:
        start = self.next()[2]
        scrut = self.term_app()
        motive = self.motive_clause()
        self.expect("{")
        self.expect("nil")
        self.expect("=>")
        nb = self.term()
        self.expect("|")
        self.expect("cons")
        self.expect("(")
        h = self.expect("ident")[1]
        self.expect(",")
        tl = self.expect("ident")[1]
        self.expect(")")
        self.expect("=>")
        cb = self.term()
        self.expect("}")
        return ("matchlist", scrut, motive, nb, (h, tl, cb), start)

    def reclist_term(self) -> tuple:
        start = self.next()[2]
        scrut = self.term_app()
        motive = self.motive_clause()
        self.expect("{")
        self.expect("nil")
        self.expect("=>")
        nb = self.term()
        self.expect("|")
        self.expect("cons")
        self.expect("(")
        h = self.expect("ident")[1]
        self.expect(",")
        tl = self.expect("ident")[1]
        self.expect(",")
        p = self.expect("ident")[1]
        self.expect(")")
        self.expect("=>")
        cb = self.term()
        self.expect("}")
        return ("reclist", scrut, motive, nb, (h, tl, p, cb), start)

    def term_infix(self) -> tuple:
        lhs = self.term_app()
        kind = self.toks[self.pos][0]
        if kind != "->" and kind != "*":
            return lhs
        lhs_ty: tuple = ("el-implicit", lhs)
        if self.eat("*"):
            lhs_ty = ("tensor", 1, None, lhs_ty, self.type_tensor_or_binder())
        if self.eat("->"):
            lhs_ty = ("pi", 1, None, lhs_ty, self.type_expr())
        return ("code", lhs_ty)

    def term_app(self) -> tuple:
        toks, pos = self.toks, self.pos
        kind = toks[pos][0]
        # a type former in term position becomes a universe code
        if kind in _TYPE_FORMERS or kind == "<>":
            return ("code", self.type_atom())
        if kind == "(" and toks[pos + 1][0] == "ident" and toks[pos + 2][0] == "^":
            return ("code", self.type_atom())
        head = self.head_atom()
        while self.toks[self.pos][0] in _ATOM_STARTS:
            head = ("app", head, self.term_atom())
        return head

    def head_atom(self) -> tuple:
        kind = self.toks[self.pos][0]
        if kind == "zero":
            self.pos += 1
            if self.starts_atom():
                return ("zero_l", self.term_atom())
            return ("zero_cf",)
        if kind == "succ":
            self.pos += 1
            first = self.term_atom()
            if self.starts_atom():
                return ("succ_l", first, self.term_atom())
            return ("succ_cf", first)
        if kind == "cons":
            self.pos += 1
            return ("cons", self.term_atom(), self.term_atom())
        if kind in ("dup", "fst", "snd", "refl"):
            self.pos += 1
            return (kind, self.term_atom())
        if kind == "El":
            self.pos += 1
            return ("code", ("el", self.term_atom()))
        if kind == "R":
            self.pos += 1
            if self.eat("^-1"):
                return ("relim", self.term_atom())
            return ("rintro", self.term_atom())
        return self.term_atom()

    def starts_atom(self) -> bool:
        return self.toks[self.pos][0] in _ATOM_STARTS

    def term_atom(self) -> tuple:
        kind, text, off = self.toks[self.pos]
        if kind == "ident":
            self.pos += 1
            return ("var", text, off)
        if kind == "int":
            self.pos += 1
            return ("lit", int(text), off)
        if kind in _TERM_CONSTANTS:
            self.pos += 1
            return _TERM_CONSTANTS[kind]
        if kind == "<>" or kind in _TYPE_FORMERS:
            # a type former used as a universe code
            return ("code", self.type_atom())
        if kind in ("succ", "cons", "dup", "fst", "snd", "refl", "R", "El"):
            # builtins with arguments must head their own spine
            return self.head_atom()
        if kind == "(":
            self.pos += 1
            if self.toks[self.pos][0] == "*" and self.toks[self.pos + 1][0] == ")":
                self.pos += 2
                return ("star",)
            inner = self.term()
            if self.eat(","):
                snd = self.term()
                self.expect(")")
                return ("pair", inner, snd)
            if self.eat(":"):
                ty = self.type_expr()
                self.expect(")")
                return ("ann", inner, ty)
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


def parse_term(text: str) -> tuple:
    return _parse(text, _Parser.term)


def parse_type(text: str) -> tuple:
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
    def __init__(self, regime: Regime, globals_: dict, lines: _Lines):
        self.regime = regime
        self.globals = globals_  # name -> Global
        self.lines = lines  # to report an offset

    def term(self, node: tuple, scope: tuple) -> Term:
        tag = node[0]
        if tag == "var":
            name = node[1]
            # innermost binding wins: search from the right
            for i, bound in enumerate(reversed(scope)):
                if bound == name:
                    return Var(i)
            if name in self.globals:
                return self.globals[name]
            raise self.lines.error(f"unbound name {name!r}", node[2], rule="Resolve")
        if tag == "lit":
            return nat_literal(self.regime, node[1])
        if tag == "lam":
            return self._pattern_body(node[1], list(scope), node[2])
        if tag == "app":
            return App(self.term(node[1], scope), self.term(node[2], scope))
        if tag == "pair":
            return Pair(self.term(node[1], scope), self.term(node[2], scope))
        if tag == "star":
            return Star()
        if tag == "dstar":
            return DiamondStar()
        if tag == "true":
            return TrueC()
        if tag == "false":
            return FalseC()
        if tag == "nil":
            return Nil()
        if tag == "cons":
            return Cons(self.term(node[1], scope), self.term(node[2], scope))
        if tag == "letpair":
            _, a, b, scrut, motive, body, _offset = node
            return LetPair(
                self.term(scrut, scope),
                self.term(body, scope + (a, b)),
                self.motive(motive, scope),
            )
        if tag == "letunit":
            _, scrut, motive, body, _offset = node
            return LetUnit(
                self.term(scrut, scope),
                self.term(body, scope),
                self.motive(motive, scope),
            )
        if tag == "if":
            _, scrut, motive, tb, eb, _offset = node
            return If(
                self.term(scrut, scope),
                self.term(tb, scope),
                self.term(eb, scope),
                self.motive(motive, scope),
            )
        if tag == "rec_cf":
            _, scrut, motive, zb, (nn, pp, sb), _offset = node
            return RecNatCF(
                self.term(scrut, scope),
                self.term(zb, scope),
                self.term(sb, scope + (nn, pp)),
                self.motive(motive, scope),
            )
        if tag == "rec_l":
            _, scrut, motive, (d0, zb), (d1, nn, pp, sb), _offset = node
            return RecNatL(
                self.term(scrut, scope),
                self.term(zb, scope + (d0,)),
                self.term(sb, scope + (d1, nn, pp)),
                self.motive(motive, scope),
            )
        if tag == "matchlist":
            _, scrut, motive, nb, (h, tl, cb), _offset = node
            return MatchList(
                self.term(scrut, scope),
                self.term(nb, scope),
                self.term(cb, scope + (h, tl)),
                self.motive(motive, scope),
            )
        if tag == "reclist":
            _, scrut, motive, nb, (h, tl, p, cb), _offset = node
            return RecList(
                self.term(scrut, scope),
                self.term(nb, scope),
                self.term(cb, scope + (h, tl, p)),
                self.motive(motive, scope),
            )
        if tag == "zero_cf":
            return ZeroCF()
        if tag == "succ_cf":
            return SuccCF(self.term(node[1], scope))
        if tag == "zero_l":
            return ZeroL(self.term(node[1], scope))
        if tag == "succ_l":
            return SuccL(self.term(node[1], scope), self.term(node[2], scope))
        if tag == "dup":
            return DupNat(self.term(node[1], scope))
        if tag == "fst":
            return Fst(self.term(node[1], scope))
        if tag == "snd":
            return Snd(self.term(node[1], scope))
        if tag == "refl":
            return Refl(self.term(node[1], scope))
        if tag == "rintro":
            return ReflectIntro(self.term(node[1], scope))
        if tag == "relim":
            return ReflectElim(self.term(node[1], scope))
        if tag == "ann":
            return Ann(self.term(node[1], scope), self.type(node[2], scope))
        if tag == "code":
            return CodeTy(self.type(node[1], scope))
        raise ValueError(f"unknown surface node {tag}")

    def _pattern_body(self, binders, scope: list, body) -> Term:
        """Lambda chains; pair patterns split the argument first."""
        if not binders:
            return self.term(body, tuple(scope))
        b, rest = binders[0], binders[1:]
        if isinstance(b, tuple):
            a, c = b
            # \(a, c). M  ~~>  \w. let (a, c) = w in M  with w unnameable
            fresh = f"%w{len(scope)}"
            inner = self._pattern_body(rest, scope + [fresh, a, c], body)
            return Lam(LetPair(Var(0), inner, None))
        return Lam(self._pattern_body(rest, scope + [b], body))

    def motive(self, motive, scope: tuple) -> TypeExpr | None:
        if motive is None:
            return None
        name, ty = motive
        return self.type(ty, scope + (name,))

    def type(self, node: tuple, scope: tuple) -> TypeExpr:
        tag = node[0]
        if tag == "bool":
            return BOOL_TY
        if tag == "nat":
            return NAT_TY
        if tag == "unit":
            return UNIT_TY
        if tag == "universe":
            return UNIVERSE
        if tag == "diamond":
            return DIAMOND_TY
        if tag == "list":
            return ListTy(self.type(node[1], scope))
        if tag == "id":
            return IdTy(
                self.type(node[1], scope),
                self.term(node[2], scope),
                self.term(node[3], scope),
            )
        if tag == "reflectty":
            return Reflect(self.type(node[1], scope))
        if tag == "el":
            return El(self.term(node[1], scope))
        if tag == "el-implicit":
            inner = self.term(node[1], scope)
            if isinstance(inner, CodeTy):
                return inner.ty
            return El(inner)
        if tag == "pi" or tag == "tensor":
            _, usage, name, first, second = node
            # the non-dependent sugar binds None, which no name refers to
            former = Pi if tag == "pi" else Tensor
            first, second = self.type(first, scope), self.type(second, scope + (name,))
            return former(usage, first, second)
        raise ValueError(f"unknown surface type {tag}")


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
            defn = Global(d.name, r.type(d.ty, ()), r.term(d.body, ()))
        except RecursionError:
            # as in the parser: the resolver recurses once per binder
            raise _err(
                f"{d.name!r} is nested too deeply to resolve", d.span, rule="Resolve"
            ) from None
        globals_[d.name] = defn
        out.append(ResolvedDecl(d.sigma, d.offset, defn, d.lines))
    return ResolvedModule(regime, tuple(out))


def resolve_term(text: str, regime: Regime, scope: tuple = ()) -> Term:
    return _Resolver(regime, {}, _Lines(text)).term(parse_term(text), scope)


def resolve_type(text: str, regime: Regime, scope: tuple = ()) -> TypeExpr:
    return _Resolver(regime, {}, _Lines(text)).type(parse_type(text), scope)


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

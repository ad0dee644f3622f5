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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    strengthen,
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


# ---------------------------------------------------------------------------
# Lexer

# the type formers that may also stand in term position, as universe codes
_TYPE_FORMERS = ("Bool", "Nat", "I", "U", "List", "Id")

_KEYWORDS = {
    "def", "regime", "consfree", "lfpl", "let", "in", "if", "then", "else",
    "rec", "match", "reclist", "at", "zero", "succ", "nil", "cons", "dup",
    "fst", "snd", "refl", "true", "false", "dia", "El", "R", *_TYPE_FORMERS,
}

_PUNCT = ["^-1", "->", "=>", "<>", "(", ")", "{", "}", ",", ".", ":", "=",
          "|", "\\", "*", "^"]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "kw" | punctuation itself | "eof"
    text: str
    span: Span


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = Span(line, col)
        # only ASCII digits: str.isdigit also accepts digits int() rejects
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(Token("int", text[i:j], span))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "ident"
            toks.append(Token(kind, word, span))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, span))
                i += len(p)
                col += len(p)
                break
        else:
            raise _err(f"unexpected character {c!r}", span)
    toks.append(Token("eof", "", Span(line, col)))
    return toks


# ---------------------------------------------------------------------------
# Surface trees (tagged tuples, span carried on the node where useful)

@dataclass(frozen=True)
class SourceDecl:
    name: str
    sigma: int
    ty: tuple
    body: tuple
    span: Span


@dataclass(frozen=True)
class SourceModule:
    regime: Regime | None
    decls: tuple
    # names must be unique; forward references are rejected at resolution


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.peek()
        if t.kind != kind and not (t.kind == "kw" and t.text == kind):
            raise _err(f"expected {what or kind}, found {t.text or 'end of input'}", t.span)
        return self.next()

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text == word

    def eat_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.next()
            return True
        return False

    # -- module -------------------------------------------------------------
    def module(self) -> SourceModule:
        regime = None
        if self.eat_kw("regime"):
            t = self.next()
            if t.text == "consfree":
                regime = Regime.CONS_FREE
            elif t.text == "lfpl":
                regime = Regime.LFPL
            else:
                raise _err("regime must be consfree or lfpl", t.span)
        decls = []
        while not self.at_eof():
            decls.append(self.decl())
        return SourceModule(regime, tuple(decls))

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"

    def decl(self) -> SourceDecl:
        start = self.expect("def").span
        name = self.expect("ident", "definition name").text
        self.expect("^", "fragment marker ^0 or ^1")
        sigma_tok = self.expect("int", "fragment 0 or 1")
        sigma = int(sigma_tok.text)
        if sigma not in (0, 1):
            raise _err("fragment marker must be 0 or 1", sigma_tok.span)
        self.expect(":")
        ty = self.type_expr()
        self.expect("=")
        body = self.term()
        return SourceDecl(name, sigma, ty, body, start)

    # -- types --------------------------------------------------------------
    def _binder_head(self) -> tuple | None:
        # '(' IDENT '^' INT ':'  introduces an annotated binder
        if (
            self.peek().kind == "("
            and self.peek(1).kind == "ident"
            and self.peek(2).kind == "^"
        ):
            self.next()
            name = self.next().text
            self.next()
            usage = int(self.expect("int", "usage").text)
            self.expect(":")
            dom = self.type_expr()
            self.expect(")")
            return name, usage, dom
        return None

    def type_expr(self) -> tuple:
        # arrows bind loosest and associate right; tensors bind tighter
        lhs = self.type_tensor_or_binder()
        if self.peek().kind == "->":
            self.next()
            return ("pi", 1, None, lhs, self.type_expr())
        return lhs

    def type_tensor_or_binder(self) -> tuple:
        head = self._binder_head()
        if head is not None:
            name, usage, dom = head
            arrow = self.next()
            if arrow.kind == "->":
                return ("pi", usage, name, dom, self.type_expr())
            if arrow.kind == "*":
                return ("tensor", usage, name, dom, self.type_tensor_or_binder())
            raise _err("expected -> or * after a binder", arrow.span)
        return self.type_tensor()

    def type_tensor(self) -> tuple:
        lhs = self.type_atom()
        if self.peek().kind == "*":
            self.next()
            return ("tensor", 1, None, lhs, self.type_tensor_or_binder())
        return lhs

    def type_atom(self) -> tuple:
        t = self.peek()
        if t.kind == "kw":
            if t.text == "Bool":
                self.next()
                return ("bool",)
            if t.text == "Nat":
                self.next()
                return ("nat",)
            if t.text == "I":
                self.next()
                return ("unit",)
            if t.text == "U":
                self.next()
                return ("universe",)
            if t.text == "List":
                self.next()
                return ("list", self.type_atom())
            if t.text == "Id":
                self.next()
                ty = self.type_atom()
                lhs = self.term_atom()
                rhs = self.term_atom()
                return ("id", ty, lhs, rhs)
            if t.text == "R":
                self.next()
                return ("reflectty", self.type_atom())
            if t.text == "El":
                self.next()
                return ("el", self.term_atom())
        if t.kind == "<>":
            self.next()
            return ("diamond",)
        if t.kind == "(":
            head = self._binder_head()
            if head is not None:
                name, usage, dom = head
                arrow = self.next()
                if arrow.kind == "->":
                    return ("pi", usage, name, dom, self.type_expr())
                if arrow.kind == "*":
                    return ("tensor", usage, name, dom, self.type_tensor_or_binder())
                raise _err("expected -> or * after a binder", arrow.span)
            self.next()
            inner = self.type_expr()
            self.expect(")")
            return inner
        # a term in type position embeds through El
        term = self.term_app()
        return ("el-implicit", term)

    # -- terms ----------------------------------------------------------
    def term(self) -> tuple:
        t = self.peek()
        if t.kind == "\\":
            self.next()
            binders = []
            while True:
                b = self.peek()
                if b.kind == "ident":
                    binders.append(self.next().text)
                elif b.kind == "(":
                    self.next()
                    a = self.expect("ident", "pattern name").text
                    self.expect(",")
                    c = self.expect("ident", "pattern name").text
                    self.expect(")")
                    binders.append((a, c))
                else:
                    break
            if not binders:
                raise _err("lambda needs at least one binder", t.span)
            self.expect(".")
            return ("lam", binders, self.term(), t.span)
        if self.at_kw("let"):
            return self.let_term()
        if self.at_kw("if"):
            self.next()
            scrut = self.term_app()
            motive = self.motive_clause()
            self.expect("then")
            then_b = self.term()
            self.expect("else")
            return ("if", scrut, motive, then_b, self.term(), t.span)
        if self.at_kw("rec"):
            return self.rec_term()
        if self.at_kw("match"):
            return self.match_term()
        if self.at_kw("reclist"):
            return self.reclist_term()
        return self.term_infix()

    def motive_clause(self) -> tuple | None:
        if self.eat_kw("at"):
            self.expect("(")
            name = self.expect("ident", "motive binder").text
            self.expect(".")
            ty = self.type_expr()
            self.expect(")")
            return (name, ty)
        return None

    def let_term(self) -> tuple:
        start = self.next().span  # 'let'
        if self.peek().kind == "*":
            self.next()
            self.expect("=")
            scrut = self.term()
            motive = self.motive_clause()
            self.expect("in")
            return ("letunit", scrut, motive, self.term(), start)
        self.expect("(")
        a = self.expect("ident", "pattern name").text
        self.expect(",")
        b = self.expect("ident", "pattern name").text
        self.expect(")")
        self.expect("=")
        scrut = self.term()
        motive = self.motive_clause()
        self.expect("in")
        return ("letpair", a, b, scrut, motive, self.term(), start)

    def rec_term(self) -> tuple:
        start = self.next().span
        scrut = self.term_app()
        motive = self.motive_clause()
        self.expect("{")
        self.expect("zero")
        if self.peek().kind == "(":  # payment-regime shape binds a diamond
            self.next()
            d0 = self.expect("ident", "diamond binder").text
            self.expect(")")
            self.expect("=>")
            zb = self.term()
            self.expect("|")
            self.expect("succ")
            self.expect("(")
            d1 = self.expect("ident").text
            self.expect(",")
            nn = self.expect("ident").text
            self.expect(",")
            pp = self.expect("ident").text
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
        nn = self.expect("ident").text
        self.expect(",")
        pp = self.expect("ident").text
        self.expect(")")
        self.expect("=>")
        sb = self.term()
        self.expect("}")
        return ("rec_cf", scrut, motive, zb, (nn, pp, sb), start)

    def match_term(self) -> tuple:
        start = self.next().span
        scrut = self.term_app()
        motive = self.motive_clause()
        self.expect("{")
        self.expect("nil")
        self.expect("=>")
        nb = self.term()
        self.expect("|")
        self.expect("cons")
        self.expect("(")
        h = self.expect("ident").text
        self.expect(",")
        tl = self.expect("ident").text
        self.expect(")")
        self.expect("=>")
        cb = self.term()
        self.expect("}")
        return ("matchlist", scrut, motive, nb, (h, tl, cb), start)

    def reclist_term(self) -> tuple:
        start = self.next().span
        scrut = self.term_app()
        motive = self.motive_clause()
        self.expect("{")
        self.expect("nil")
        self.expect("=>")
        nb = self.term()
        self.expect("|")
        self.expect("cons")
        self.expect("(")
        h = self.expect("ident").text
        self.expect(",")
        tl = self.expect("ident").text
        self.expect(",")
        p = self.expect("ident").text
        self.expect(")")
        self.expect("=>")
        cb = self.term()
        self.expect("}")
        return ("reclist", scrut, motive, nb, (h, tl, p, cb), start)

    def term_infix(self) -> tuple:
        lhs = self.term_app()
        if self.peek().kind not in ("->", "*"):
            return lhs
        lhs_ty: tuple = ("el-implicit", lhs)
        if self.peek().kind == "*":
            self.next()
            lhs_ty = ("tensor", 1, None, lhs_ty, self.type_tensor_or_binder())
        if self.peek().kind == "->":
            self.next()
            lhs_ty = ("pi", 1, None, lhs_ty, self.type_expr())
        return ("code", lhs_ty)

    def term_app(self) -> tuple:
        t = self.peek()
        # a type former in term position becomes a universe code
        if (t.kind == "kw" and t.text in _TYPE_FORMERS) or t.kind == "<>":
            return ("code", self.type_atom())
        if t.kind == "(" and self.peek(1).kind == "ident" and self.peek(2).kind == "^":
            return ("code", self.type_atom())
        head = self.head_atom()
        while self.starts_atom():
            head = ("app", head, self.term_atom())
        return head

    def head_atom(self) -> tuple:
        t = self.peek()
        if t.kind == "kw":
            if t.text == "zero":
                self.next()
                if self.starts_atom():
                    return ("zero_l", self.term_atom())
                return ("zero_cf",)
            if t.text == "succ":
                self.next()
                first = self.term_atom()
                if self.starts_atom():
                    return ("succ_l", first, self.term_atom())
                return ("succ_cf", first)
            if t.text == "cons":
                self.next()
                return ("cons", self.term_atom(), self.term_atom())
            if t.text == "dup":
                self.next()
                return ("dup", self.term_atom())
            if t.text == "fst":
                self.next()
                return ("fst", self.term_atom())
            if t.text == "snd":
                self.next()
                return ("snd", self.term_atom())
            if t.text == "refl":
                self.next()
                return ("refl", self.term_atom())
            if t.text == "El":
                self.next()
                return ("code", ("el", self.term_atom()))
            if t.text == "R":
                self.next()
                if self.peek().kind == "^-1":
                    self.next()
                    return ("relim", self.term_atom())
                return ("rintro", self.term_atom())
        return self.term_atom()

    def starts_atom(self) -> bool:
        t = self.peek()
        if t.kind in ("ident", "int", "(", "<>"):
            return True
        return t.kind == "kw" and (
            t.text in _TYPE_FORMERS
            or t.text in (
                "true", "false", "nil", "zero", "succ", "cons", "dup", "fst",
                "snd", "refl", "dia", "R", "El",
            )
        )

    def term_atom(self) -> tuple:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return ("var", t.text, t.span)
        if t.kind == "int":
            self.next()
            return ("lit", int(t.text), t.span)
        if t.kind == "*":
            self.next()
            return ("star",)
        if t.kind == "<>" or (t.kind == "kw" and t.text in _TYPE_FORMERS):
            # a type former used as a universe code
            return ("code", self.type_atom())
        if t.kind == "kw":
            if t.text == "true":
                self.next()
                return ("true",)
            if t.text == "false":
                self.next()
                return ("false",)
            if t.text == "nil":
                self.next()
                return ("nil",)
            if t.text == "dia":
                self.next()
                return ("dstar",)
            if t.text == "zero":
                self.next()
                return ("zero_cf",)
            if t.text in ("succ", "cons", "dup", "fst", "snd", "refl", "R", "El"):
                # builtins with arguments must head their own spine
                return self.head_atom()
        if t.kind == "(":
            self.next()
            if self.peek().kind == "*" and self.peek(1).kind == ")":
                self.next()
                self.next()
                return ("star",)
            inner = self.term()
            nxt = self.peek()
            if nxt.kind == ",":
                self.next()
                snd = self.term()
                self.expect(")")
                return ("pair", inner, snd)
            if nxt.kind == ":":
                self.next()
                ty = self.type_expr()
                self.expect(")")
                return ("ann", inner, ty)
            self.expect(")")
            return inner
        raise _err(f"expected a term, found {t.text or 'end of input'!r}", t.span)


def _parse(text: str, rule):
    p = _Parser(tokenize(text))
    try:
        out = rule(p)
    except RecursionError:
        # the parser recurses once per nesting level; input nested deeper
        # than the host stack allows is reported where the stack ran out
        raise _err("expression nested too deeply to parse", p.peek().span) from None
    if not p.at_eof():
        raise _err(f"trailing input at {p.peek().text!r}", p.peek().span)
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
class ResolvedDecl:
    sigma: int
    span: Span
    defn: Global  # the node every reference to the declaration resolves to

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
    def __init__(self, regime: Regime, globals_: dict):
        self.regime = regime
        self.globals = globals_  # name -> Global

    def term(self, node: tuple, scope: tuple) -> Term:
        tag = node[0]
        if tag == "var":
            name, span = node[1], node[2]
            # innermost binding wins: search from the right
            for i, bound in enumerate(reversed(scope)):
                if bound == name:
                    return Var(i)
            if name in self.globals:
                return self.globals[name]
            raise _err(f"unbound name {name!r}", span, rule="Resolve")
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
            _, a, b, scrut, motive, body, _span = node
            return LetPair(
                self.term(scrut, scope),
                self.term(body, scope + (a, b)),
                self.motive(motive, scope),
            )
        if tag == "letunit":
            _, scrut, motive, body, _span = node
            return LetUnit(
                self.term(scrut, scope),
                self.term(body, scope),
                self.motive(motive, scope),
            )
        if tag == "if":
            _, scrut, motive, tb, eb, _span = node
            return If(
                self.term(scrut, scope),
                self.term(tb, scope),
                self.term(eb, scope),
                self.motive(motive, scope),
            )
        if tag == "rec_cf":
            _, scrut, motive, zb, (nn, pp, sb), _span = node
            return RecNatCF(
                self.term(scrut, scope),
                self.term(zb, scope),
                self.term(sb, scope + (nn, pp)),
                self.motive(motive, scope),
            )
        if tag == "rec_l":
            _, scrut, motive, (d0, zb), (d1, nn, pp, sb), _span = node
            return RecNatL(
                self.term(scrut, scope),
                self.term(zb, scope + (d0,)),
                self.term(sb, scope + (d1, nn, pp)),
                self.motive(motive, scope),
            )
        if tag == "matchlist":
            _, scrut, motive, nb, (h, tl, cb), _span = node
            return MatchList(
                self.term(scrut, scope),
                self.term(nb, scope),
                self.term(cb, scope + (h, tl)),
                self.motive(motive, scope),
            )
        if tag == "reclist":
            _, scrut, motive, nb, (h, tl, p, cb), _span = node
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
        r = _Resolver(regime, globals_)
        try:
            defn = Global(d.name, r.type(d.ty, ()), r.term(d.body, ()))
        except RecursionError:
            # as in the parser: the resolver recurses once per binder
            raise _err(
                f"{d.name!r} is nested too deeply to resolve", d.span, rule="Resolve"
            ) from None
        globals_[d.name] = defn
        out.append(ResolvedDecl(d.sigma, d.span, defn))
    return ResolvedModule(regime, tuple(out))


def resolve_term(text: str, regime: Regime, scope: tuple = ()) -> Term:
    return _Resolver(regime, {}).term(parse_term(text), scope)


def resolve_type(text: str, regime: Regime, scope: tuple = ()) -> TypeExpr:
    return _Resolver(regime, {}).type(parse_type(text), scope)


# ---------------------------------------------------------------------------
# Pretty printing (deterministic fresh names by binder depth)

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
    """Names the binder at depth k xk, primed until it differs from every
    definition the printed node refers to, as those print by name."""

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

    def name(self, depth: int) -> str:
        name = f"x{depth}"
        while name in self.avoid:
            name += "'"
        return name

    def term(self, t: Term, depth: int, prec: int) -> str:
        cls = t.__class__
        if cls is Var:
            return self.name(depth - 1 - t.index)
        if cls is Lam:
            body = self.term(t.body, depth + 1, 0)
            return _wrap(f"\\{self.name(depth)}. {body}", prec > 0)
        if cls is App:
            # successor heads take a flexible number of atoms, so an applied
            # successor must be parenthesised to keep its own argument
            fn_prec = 1
            if isinstance(t.fn, SuccCF) and _nat_literal_cf(t.fn) is None:
                fn_prec = 2
            if isinstance(t.fn, SuccL) and _nat_literal_lfpl(t.fn) is None:
                fn_prec = 2
            fn = self.term(t.fn, depth, fn_prec)
            arg = self.term(t.arg, depth, 2)
            return _wrap(f"{fn} {arg}", prec > 1)
        if cls is Pair:
            return f"({self.term(t.fst, depth, 0)}, {self.term(t.snd, depth, 0)})"
        if cls is Star:
            return "*" if prec < 2 else "(*)"
        if cls is TrueC:
            return "true"
        if cls is FalseC:
            return "false"
        if cls is Nil:
            return "nil"
        if cls is Cons:
            s = f"cons {self.term(t.head, depth, 2)} {self.term(t.tail, depth, 2)}"
            return _wrap(s, prec > 1)
        if cls is LetPair:
            a, b = self.name(depth), self.name(depth + 1)
            s = (
                f"let ({a}, {b}) = {self.term(t.scrut, depth, 0)}"
                f"{self.motive(t.motive, depth)} in "
                f"{self.term(t.body, depth + 2, 0)}"
            )
            return _wrap(s, prec > 0)
        if cls is LetUnit:
            s = (
                f"let * = {self.term(t.scrut, depth, 0)}"
                f"{self.motive(t.motive, depth)} in {self.term(t.body, depth, 0)}"
            )
            return _wrap(s, prec > 0)
        if cls is If:
            s = (
                f"if {self.term(t.scrut, depth, 1)}{self.motive(t.motive, depth)} "
                f"then {self.term(t.then_branch, depth, 0)} "
                f"else {self.term(t.else_branch, depth, 0)}"
            )
            return _wrap(s, prec > 0)
        if cls is MatchList:
            h, tl = self.name(depth), self.name(depth + 1)
            s = (
                f"match {self.term(t.scrut, depth, 1)}{self.motive(t.motive, depth)} "
                f"{{ nil => {self.term(t.nil_branch, depth, 0)} "
                f"| cons({h}, {tl}) => {self.term(t.cons_branch, depth + 2, 0)} }}"
            )
            return _wrap(s, prec > 0)
        if cls is RecList:
            h, tl, p = self.name(depth), self.name(depth + 1), self.name(depth + 2)
            s = (
                f"reclist {self.term(t.scrut, depth, 1)}{self.motive(t.motive, depth)} "
                f"{{ nil => {self.term(t.nil_branch, depth, 0)} "
                f"| cons({h}, {tl}, {p}) => {self.term(t.cons_branch, depth + 3, 0)} }}"
            )
            return _wrap(s, prec > 0)
        if cls is ZeroCF:
            return "0"
        if cls is SuccCF:
            lit = _nat_literal_cf(t)
            if lit is not None:
                return str(lit)
            return _wrap(f"succ {self.term(t.pred, depth, 2)}", prec > 1)
        if cls is DupNat:
            return _wrap(f"dup {self.term(t.arg, depth, 2)}", prec > 1)
        if cls is RecNatCF:
            n, p = self.name(depth), self.name(depth + 1)
            s = (
                f"rec {self.term(t.scrut, depth, 1)}{self.motive(t.motive, depth)} "
                f"{{ zero => {self.term(t.zero_branch, depth, 0)} "
                f"| succ({n}, {p}) => {self.term(t.succ_branch, depth + 2, 0)} }}"
            )
            return _wrap(s, prec > 0)
        if cls is DiamondStar:
            return "dia"
        if cls is ZeroL:
            lit = _nat_literal_lfpl(t)
            if lit is not None:
                return str(lit)
            return _wrap(f"zero {self.term(t.pay, depth, 2)}", prec > 1)
        if cls is SuccL:
            lit = _nat_literal_lfpl(t)
            if lit is not None:
                return str(lit)
            s = f"succ {self.term(t.pay, depth, 2)} {self.term(t.pred, depth, 2)}"
            return _wrap(s, prec > 1)
        if cls is RecNatL:
            d0, d1 = self.name(depth), self.name(depth)
            n, p = self.name(depth + 1), self.name(depth + 2)
            s = (
                f"rec {self.term(t.scrut, depth, 1)}{self.motive(t.motive, depth)} "
                f"{{ zero({d0}) => {self.term(t.zero_branch, depth + 1, 0)} "
                f"| succ({d1}, {n}, {p}) => {self.term(t.succ_branch, depth + 3, 0)} }}"
            )
            return _wrap(s, prec > 0)
        if cls is Refl:
            return _wrap(f"refl {self.term(t.body, depth, 2)}", prec > 1)
        if cls is ReflectIntro:
            return _wrap(f"R {self.term(t.body, depth, 2)}", prec > 1)
        if cls is ReflectElim:
            return _wrap(f"R^-1 {self.term(t.body, depth, 2)}", prec > 1)
        if cls is Fst:
            return _wrap(f"fst {self.term(t.pair, depth, 2)}", prec > 1)
        if cls is Snd:
            return _wrap(f"snd {self.term(t.pair, depth, 2)}", prec > 1)
        if cls is CodeTy:
            return _wrap(self.type(t.ty, depth, 1), prec > 1)
        if cls is Ann:
            return f"({self.term(t.term, depth, 0)} : {self.type(t.ty, depth, 0)})"
        if cls is Global:
            return t.name
        raise ValueError(f"unknown term {cls.__name__}")

    def motive(self, motive: TypeExpr | None, depth: int) -> str:
        if motive is None:
            return ""
        return f" at ({self.name(depth)}. {self.type(motive, depth + 1, 0)})"

    def type(self, ty: TypeExpr, depth: int, prec: int) -> str:
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
                dom = self.type(ty.dom, depth, 1)
                cod = self.type(strengthen(ty.cod), depth, 0)
                return _wrap(f"{dom} -> {cod}", prec >= 1)
            dom = self.type(ty.dom, depth, 0)
            cod = self.type(ty.cod, depth + 1, 0)
            return _wrap(f"({self.name(depth)} ^{ty.usage} : {dom}) -> {cod}", prec >= 1)
        if cls is Tensor:
            if ty.usage == 1 and not has_free_var(ty.snd, 0):
                fst = self.type(ty.fst, depth, 2)
                snd = self.type(strengthen(ty.snd), depth, 1)
                return _wrap(f"{fst} * {snd}", prec >= 2)
            fst = self.type(ty.fst, depth, 0)
            snd = self.type(ty.snd, depth + 1, 1)
            return _wrap(f"({self.name(depth)} ^{ty.usage} : {fst}) * {snd}", prec >= 2)
        if cls is ListTy:
            return _wrap(f"List {self.type(ty.elem, depth, 2)}", prec >= 2)
        if cls is IdTy:
            s = (
                f"Id {self.type(ty.ty, depth, 2)} "
                f"{self.term(ty.lhs, depth, 2)} {self.term(ty.rhs, depth, 2)}"
            )
            return _wrap(s, prec >= 2)
        if cls is El:
            return _wrap(f"El {self.term(ty.code, depth, 2)}", prec >= 2)
        if cls is Reflect:
            return _wrap(f"R {self.type(ty.inner, depth, 2)}", prec >= 2)
        raise ValueError(f"unknown type {cls.__name__}")


def pretty_term(t: Term, depth: int = 0, prec: int = 0) -> str:
    """Render a kernel term; level 0 is outermost, 2 is argument position."""
    return _Printer(t).term(t, depth, prec)


def pretty_type(ty: TypeExpr, depth: int = 0, prec: int = 0) -> str:
    """Render a kernel type.

    Precedence climbs from arrows (0) through tensors (1) to atoms (2);
    keyword-led formers behave like prefix operators at atom level.
    """
    return _Printer(ty).type(ty, depth, prec)

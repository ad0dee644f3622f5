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

Each keyword-led form is one row of the syntax table (`_TERM_SYNTAX`,
`_TYPE_SYNTAX`), the grammar's one source: the parser and the printer
both interpret it, so what is printed reads back.  An eliminator's
scrutinee is read at application level, so a lambda, a `let` or a tensor
there is parenthesised.  Names, numerals, `zero` and `succ` (whose form
depends on how many arguments follow), applications, arrows, tensors,
binders, lambdas, pairs and annotations have rules of their own.  The
parser builds kernel nodes with binder names where the kernel has indices
(see `_Resolver`).  The lexer is one scan with one regular expression;
tokens and declarations carry character offsets, and a ``line:col`` span
is computed only when a diagnostic or a declaration's ``span`` asks.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import field

from .frozen import frozen
from .syntax import (
    Ann,
    App,
    BOOL_TY,
    CodeTy,
    Cons,
    DIAMOND_TY,
    DiamondStar,
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
    Var,
    ZeroCF,
    ZeroL,
    _SCHEMA,
    has_free_var,
    nat_literal,
)


@frozen
class Span:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


@frozen
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

    __slots__ = ()
    offset: int
    lines: _Lines

    @property
    def span(self) -> Span:
        return self.lines.span(self.offset)


# ---------------------------------------------------------------------------
# The syntax table: each keyword-led form written once, for the parser and
# the printer (after Rendel and Ostermann, "Invertible syntax descriptions:
# unifying parsing and pretty printing", 2010).  A template is the form as
# printed.  Its text is read as the tokens it lexes to; its holes are
#
#   {f}, {f:L}     field f, a term or a type by `syntax._SCHEMA`, at level L
#                  (0 if not given);
#   [f], [f:what]  the names of the variables f binds, as many as _SCHEMA
#                  says, separated by commas; `what` names one in a
#                  diagnostic ("ident" if not given);
#   {motive}       the optional motive clause ` at (x. T)`.
#
# A row names a kernel class, or a constant's one node, and the form's
# level.  Levels run from a whole term or type (0) through an application
# or a tensor (1) to an argument (2): the printer parenthesises a form
# above its level, and the parser reads a level-0 term form where a term
# starts and any other form where an atom does.  A row led by the first
# token of an earlier row ends with the token at which it departs from
# that row, where the parser chooses.  In term position `R` leads the term
# row, not the type row.

_TERM_SYNTAX = (
    (LetPair, 0, "let ([body:pattern name]) = {scrut}{motive} in {body}"),
    (LetUnit, 0, "let * = {scrut}{motive} in {body}", "*"),
    (If, 0, "if {scrut:1}{motive} then {then_branch} else {else_branch}"),
    (RecNatCF, 0, "rec {scrut:1}{motive} { zero => {zero_branch}"
                  " | succ([succ_branch]) => {succ_branch} }"),
    (RecNatL, 0, "rec {scrut:1}{motive} { zero([zero_branch:diamond binder]) => {zero_branch}"
                 " | succ([succ_branch]) => {succ_branch} }", "("),
    (MatchList, 0, "match {scrut:1}{motive} { nil => {nil_branch}"
                   " | cons([cons_branch]) => {cons_branch} }"),
    (RecList, 0, "reclist {scrut:1}{motive} { nil => {nil_branch}"
                 " | cons([cons_branch]) => {cons_branch} }"),
    (Cons, 1, "cons {head:2} {tail:2}"),
    (DupNat, 1, "dup {arg:2}"),
    (Fst, 1, "fst {pair:2}"),
    (Snd, 1, "snd {pair:2}"),
    (Refl, 1, "refl {body:2}"),
    (ReflectIntro, 1, "R {body:2}"),
    (ReflectElim, 1, "R^-1 {body:2}", "^-1"),
    (Star(), 1, "*"),  # an argument is (*): after an atom, * is a tensor
    (TrueC(), 2, "true"),
    (FalseC(), 2, "false"),
    (Nil(), 2, "nil"),
    (DiamondStar(), 2, "dia"),
)

_TYPE_SYNTAX = (
    (El, 1, "El {code:2}"),
    (ListTy, 1, "List {elem:2}"),
    (IdTy, 1, "Id {ty:2} {lhs:2} {rhs:2}"),
    (Reflect, 1, "R {inner:2}"),
    (BOOL_TY, 2, "Bool"),
    (NAT_TY, 2, "Nat"),
    (UNIT_TY, 2, "I"),
    (UNIVERSE, 2, "U"),
    (DIAMOND_TY, 2, "<>"),
)

_HOLE = re.compile(r"([{[]\w+(?::[\w ]+)?[]}])")


# ---------------------------------------------------------------------------
# Lexer (its keywords, _KEYWORDS, are the syntax table's words and those of
# the hand-written rules; they are collected where the table is prepared)

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
        s = m[group]
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

@frozen
class SourceDecl(_Located):
    name: str
    sigma: int
    ty: object
    body: object
    offset: int  # of its `def`
    lines: _Lines = field(compare=False, repr=False)


@frozen
class SourceModule:
    regime: Regime | None
    decls: tuple
    # names must be unique; forward references are rejected at resolution


# the tags of the surface forms that are not kernel forms
_NAME, _LITERAL, _LAMBDA, _EMBED = "name", "literal", "lambda", "embed"

# the binder of a non-dependent arrow or tensor, which no name refers to
_UNNAMED = (None,)

# the steps of a prepared template (see _Parser.form)
_TOK, _FIELD, _BOUND, _NAMES, _FORK = range(5)


class _Parser:
    def __init__(self, text: str):
        self.lines = _Lines(text)
        self.toks = tokenize(text)
        self.pos = 0

    # -- token helpers ------------------------------------------------------
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
        """`a, b, ...`: count names separated by commas."""
        out = [self.expect("ident", what)[1]]
        for _ in range(count - 1):
            self.expect(",")
            out.append(self.expect("ident", what)[1])
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
            if text not in ("consfree", "lfpl"):
                raise self.lines.error("regime must be consfree or lfpl", off)
            regime = Regime(text)
        decls = []
        while self.toks[self.pos][0] != "eof":
            decls.append(self.decl())
        return SourceModule(regime, tuple(decls))

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

    # -- the keyword-led forms ------------------------------------------------
    def form(self, form):
        """A form of the syntax table, from its first token, by the steps of
        its template.  A fork, the last step of the prefix that two forms
        share, chooses the steps that follow by the current token."""
        self.pos += 1  # the first token, which chose the form
        if form.node is not None:  # a constant
            return form.node
        toks = self.toks
        vals = [None] * form.arity
        steps = form.steps
        while True:
            for op, x, y in steps:
                if op == _TOK:
                    if toks[self.pos][0] != x:
                        self.expect(x)
                    self.pos += 1
                elif op == _FIELD:
                    vals[x] = y(self)
                elif op == _BOUND:  # after the names it binds
                    vals[x] = (vals[x], y(self))
                elif op == _NAMES:
                    vals[x] = self.names(*y)
                else:  # _FORK: x the form's own steps, y the others' by token
                    form, steps = y.get(toks[self.pos][0], x)
                    break
            else:
                return (form.cls, *vals)

    def motive_clause(self):
        if self.eat("at"):
            self.expect("(")
            name = self.expect("ident", "motive binder")[1]
            self.expect(".")
            ty = self.type_expr()
            self.expect(")")
            return ((name,), ty)
        return None

    # -- types --------------------------------------------------------------
    def type_expr(self, lhs=None):
        # arrows bind loosest and associate right; tensors bind tighter
        lhs = self.type_tensor_or_binder() if lhs is None else lhs
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

    def type_tensor(self, lhs=None):
        lhs = self.type_atom() if lhs is None else lhs
        if self.toks[self.pos][0] == "*":
            self.pos += 1
            return (Tensor, 1, lhs, (_UNNAMED, self.type_tensor_or_binder()))
        return lhs

    def type_atom(self):
        kind = self.toks[self.pos][0]
        form = _TYPE_LEADS.get(kind)
        if form is not None:
            return self.form(form)
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
            while self.toks[self.pos][0] in ("ident", "("):
                if self.eat("("):
                    binders.append(self.names(2, "pattern name"))
                    self.expect(")")
                else:
                    binders.append(self.next()[1])
            if not binders:
                raise self.lines.error("lambda needs at least one binder", start)
            self.expect(".")
            return (_LAMBDA, binders, self.term())
        form = _TERM_LEADS.get(kind)
        if form is not None:
            return self.form(form)
        return self.term_infix()

    def term_infix(self):
        lhs = self.term_app()
        kind = self.toks[self.pos][0]
        if kind != "->" and kind != "*":
            return lhs
        # a code: the term is the left operand of the type rules
        return (CodeTy, self.type_expr(self.type_tensor((_EMBED, lhs))))

    def term_app(self):
        toks, pos = self.toks, self.pos
        kind = toks[pos][0]
        # a type in term position is a universe code, and heads no spine
        if kind in _CODE_LEADS or self.at_binder():
            return (CodeTy, self.type_atom())
        if kind == "zero" and toks[pos + 1][0] in _ATOM_STARTS:
            # the payment regime's zero takes its diamond
            self.pos += 1
            head = (ZeroL, self.term_atom())
        else:
            head = self.term_atom()
        while toks[self.pos][0] in _ATOM_STARTS:
            head = (App, head, self.term_atom())
        return head

    def term_atom(self):
        kind, text, off = self.toks[self.pos]
        if kind == "ident":
            self.pos += 1
            return (_NAME, text, off)
        if kind == "int":
            self.pos += 1
            return (_LITERAL, int(text))
        # a form with arguments takes them here too, as it heads no spine
        form = _ATOM_LEADS.get(kind)
        if form is not None:
            return self.form(form)
        if kind in _CODE_LEADS:
            return (CodeTy, self.type_atom())
        if kind == "zero":
            self.pos += 1
            return ZeroCF()
        if kind == "succ":
            # the payment regime's successor takes a diamond, then its predecessor
            self.pos += 1
            first = self.term_atom()
            if self.toks[self.pos][0] in _ATOM_STARTS:
                return (SuccL, first, self.term_atom())
            return (SuccCF, first)
        if kind == "(":
            self.pos += 1
            inner = self.term()
            if self.eat(","):
                inner = (Pair, inner, self.term())
            elif self.eat(":"):
                inner = (Ann, inner, self.type_expr())
            self.expect(")")
            return inner
        raise self.lines.error(f"expected a term, found {text or 'end of input'!r}", off)


class _Form:
    """A row of the syntax table, prepared: the steps the parser takes
    after the first token, the words among its tokens, and the pieces the
    printer writes, text or (field, kind, level, binders), a level of None
    for binder names."""

    __slots__ = ("cls", "level", "arity", "lead", "steps", "words", "pieces", "node")

    def __init__(self, form, level: int, template: str):
        # form is a class, or the node of a constant
        cls = form if form.__class__ is type else form.__class__
        fields = _SCHEMA[cls]
        index = {name: j for j, (name, _, _) in enumerate(fields)}
        self.cls, self.level, self.arity = cls, level, len(fields)
        steps, self.pieces = [], []
        for k, piece in enumerate(_HOLE.split(template)):
            if k % 2 == 0:  # text, and the tokens it lexes to
                self.pieces.append(piece)
                lexed = _TOKEN.finditer(piece)
                steps += [(_TOK, t[t.lastindex], None) for t in lexed if t.lastindex]
                continue
            name, _, spec = piece[1:-1].partition(":")
            j = index[name]
            _, kind, binders = fields[j]
            if piece[0] == "[":  # the names of the binders
                steps.append((_NAMES, j, (binders, spec or "ident")))
                self.pieces.append((name, kind, None, binders))
                continue
            field_level = int(spec or 0)
            op = _BOUND if binders and kind != "motive" else _FIELD
            steps.append((op, j, _RULES[kind][field_level]))
            self.pieces.append((name, kind, field_level, binders))
        self.words = [x for op, x, _ in steps if op == _TOK and x[0].isalpha()]
        self.lead, self.steps = steps[0][1], steps[1:]
        self.node = None if self.steps else form


# the parser's rules for a field of each kind, by level
_RULES = {
    "term": (_Parser.term, _Parser.term_app, _Parser.term_atom),
    "type": (_Parser.type_expr, _Parser.type_tensor_or_binder, _Parser.type_atom),
    "motive": (_Parser.motive_clause,),  # it reads the name it binds
}


def _prepare(rows) -> dict:
    """The forms of a table's rows by their first tokens; a form that
    departs from an earlier one shares its steps up to a fork there."""
    leads = {}
    for cls_or_node, level, template, *departs in rows:
        form = _Form(cls_or_node, level, template)
        _FORMS[form.cls] = form
        first = leads.setdefault(form.lead, form)
        if departs:
            i = next(i for i, (a, b) in enumerate(zip(first.steps, form.steps)) if a != b)
            assert form.steps[i] == (_TOK, departs[0], None) and form.arity == first.arity
            fork = (_FORK, (first, first.steps[i:]), {departs[0]: (form, form.steps[i:])})
            first.steps[i:] = [fork]
    return leads


_FORMS: dict = {}  # by kernel class, for the printer
_TYPE_LEADS, _term_leads = _prepare(_TYPE_SYNTAX), _prepare(_TERM_SYNTAX)
# the words of the templates, and those of the hand-written rules
_KEYWORDS = {"def", "regime", "consfree", "lfpl", "at", "zero", "succ"}
_KEYWORDS.update(w for form in _FORMS.values() for w in form.words)
_TERM_LEADS = {k: f for k, f in _term_leads.items() if f.level == 0}
_ATOM_LEADS = {k: f for k, f in _term_leads.items() if f.level > 0}
# the tokens at which a type in term position starts, as a universe code
_CODE_LEADS = frozenset(_TYPE_LEADS).difference(_term_leads)
# the kinds of the tokens that start an argument of an application
_ATOM_STARTS = frozenset(("ident", "int", "(", "zero", "succ", *_ATOM_LEADS, *_CODE_LEADS)) - {"*"}


def _parse(text: str, rule):
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        # the parser recurses once per nesting level; input nested deeper
        # than the host stack allows is reported where the stack ran out
        raise p.lines.error("expression nested too deeply to parse", p.toks[p.pos][2]) from None
    kind, text, off = p.toks[p.pos]
    if kind != "eof":
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

@frozen
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


@frozen
class ResolvedModule:
    regime: Regime
    decls: tuple


class _Resolver:
    """Turns the parser's surface trees into kernel terms and types.

    A surface tree is written in the kernel's own classes.  A form that
    names nothing is the kernel node itself (``true`` is ``TrueC()``,
    ``Bool`` is ``BoolTy()``).  Any other kernel form is a tuple
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
        raise _err("no regime pragma in the module and none supplied", Span(1, 1), "Resolve")
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
            message = f"{d.name!r} is nested too deeply to resolve"
            raise _err(message, d.span, rule="Resolve") from None
        globals_[d.name] = defn
        out.append(ResolvedDecl(d.sigma, d.offset, defn, d.lines))
    return ResolvedModule(regime, tuple(out))


def resolve_term(text: str, regime: Regime, scope: tuple = ()) -> Term:
    return _Resolver(regime, {}, _Lines(text)).resolve(parse_term(text), scope)


def resolve_type(text: str, regime: Regime, scope: tuple = ()) -> TypeExpr:
    return _Resolver(regime, {}, _Lines(text)).resolve(parse_type(text), scope)



# ---------------------------------------------------------------------------
# Pretty printing (deterministic fresh names, counted over named binders)

def _numeral(t: Term) -> int | None:
    """The numeral t is, in the encoding of either regime, or None."""
    n = 0
    if t.__class__ is SuccCF or t.__class__ is ZeroCF:
        while t.__class__ is SuccCF:
            t, n = t.pred, n + 1
        return n if t.__class__ is ZeroCF else None
    while t.__class__ is SuccL and t.pay.__class__ is DiamondStar:
        t, n = t.pred, n + 1
    return n if t.__class__ is ZeroL and t.pay.__class__ is DiamondStar else None


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

    def form(self, node, scope: tuple, prec: int) -> str:
        """A form of the syntax table, by the pieces of its template."""
        form = _FORMS[node.__class__]
        out = []
        for piece in form.pieces:
            if piece.__class__ is str:
                out.append(piece)
                continue
            name, kind, level, binders = piece
            inner = self.bind(scope, binders) if binders else scope
            if kind == "motive":
                if node.motive is not None:
                    out.append(f" at ({inner[-1]}. {self.type(node.motive, inner, 0)})")
            elif level is None:  # the names of the binders
                out.append(", ".join(inner[-binders:]))
            elif kind == "term":
                out.append(self.term(getattr(node, name), inner, level))
            else:
                out.append(self.type(getattr(node, name), inner, level))
        return _wrap("".join(out), prec > form.level)

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
            # successor heads take a flexible number of atoms, and a code
            # heads no spine, so either one as a function is parenthesised
            fn_cls = t.fn.__class__
            atom = fn_cls is CodeTy or fn_cls in (SuccCF, SuccL) and _numeral(t.fn) is None
            fn, arg = self.term(t.fn, scope, 2 if atom else 1), self.term(t.arg, scope, 2)
            return _wrap(f"{fn} {arg}", prec > 1)
        if cls is Pair:
            return f"({self.term(t.fst, scope, 0)}, {self.term(t.snd, scope, 0)})"
        if cls is ZeroCF or cls is SuccCF or cls is ZeroL or cls is SuccL:
            n = _numeral(t)
            if n is not None:
                return str(n)
            args = " ".join(self.term(getattr(t, f), scope, 2) for f, _, _ in _SCHEMA[cls])
            return _wrap(f"{'zero' if cls is ZeroL else 'succ'} {args}", prec > 1)
        if cls is CodeTy:
            # as a scrutinee, a tensor would end the application at its *
            need = prec > 1 or prec == 1 and t.ty.__class__ is Tensor
            return _wrap(self.type(t.ty, scope, 1), need)
        if cls is Ann:
            return f"({self.term(t.term, scope, 0)} : {self.type(t.ty, scope, 0)})"
        if cls is Global:
            return t.name
        return self.form(t, scope, prec)

    def type(self, ty: TypeExpr, scope: tuple, prec: int) -> str:
        cls = ty.__class__
        if cls is Pi or cls is Tensor:
            # an arrow (level 0) binds looser than a tensor (1); each
            # associates right, and a binder is written only when needed
            level, op = (0, "->") if cls is Pi else (1, "*")
            first, second = (ty.dom, ty.cod) if cls is Pi else (ty.fst, ty.snd)
            if ty.usage == 1 and not has_free_var(second, 0):
                lhs, inner = self.type(first, scope, level + 1), scope + (None,)
            else:
                inner = self.bind(scope, 1)
                lhs = f"({inner[-1]} ^{ty.usage} : {self.type(first, scope, 0)})"
            return _wrap(f"{lhs} {op} {self.type(second, inner, level)}", prec > level)
        return self.form(ty, scope, prec)


def pretty_term(t: Term, depth: int = 0, prec: int = 0) -> str:
    """Render a kernel term under depth binders named x0, x1, ...; level
    0 is outermost, 2 is argument position."""
    p = _Printer(t)
    return p.term(t, p.bind((), depth), prec)


def pretty_type(ty: TypeExpr, depth: int = 0, prec: int = 0) -> str:
    """Render a kernel type at level prec (levels as in the syntax table)."""
    p = _Printer(ty)
    return p.type(ty, p.bind((), depth), prec)

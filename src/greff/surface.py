"""Surface language: lexer, parser, surface syntax trees, pretty-printer.

Programs are a sequence of modules followed by a main block:

    module Operations where
    effect print : str ~> 1
    define twice : str -[print]> 1 =
      lambda s. print(s); print(s)

    main {
      import Operations.print : str ~> 1
      import Operations.twice as t : str -[print]> 1
      handle [] 1 (t "hi") with
        ret x -> (x)
        print(s, k) -> (k ())
    }

A trailing `module Main where ... define main : A = M` is accepted as sugar
for a main block whose final term is `M :: A`.  Inside a main block an
optional `in` may fence the final term off from the declarations (needed
when a define body would otherwise absorb the term as an argument).

Types are bool, 1, str, Queue A, and arrows `A -[e1,e2]> B` / `A -[?]> B` /
`A -[]> B`.  A written type is a typesys type whose rows are `?` (DYN) or
operation names (SNames), which elaboration gives their typings; typesys
prints it.  Ascriptions are `M :: A` (value type) and `M :: [e1,e2]`
(effect).  `--` starts a line comment.  Identifiers may contain inner dashes
(`sch-loop`) and trailing primes (`q'`).  `f(M)` applies f when f is a value
and raises when f is an effect declared or imported in the enclosing module;
`raise f M` is the explicit form.  `M; N` abbreviates `let _ = M in N`.

Handler clause sequences carry no separators, so the application parser
stops when the upcoming tokens look like a clause head (`name(x, k) ->`,
`ret x ->`, `empty ->`, or `dequeue(x, q) ->`); no expression form can
produce those token shapes.  A string literal such as "->" or "(" never
stands for punctuation there.

The lexer keeps token kinds, texts and start offsets in parallel lists; a
line and column are worked out only for a node built or an error raised.

Nesting is limited, so that every later phase stays within Python's default
recursion limit.  Each term, argument or type parsed inside another is one
level deeper (a pair of parentheses costs two), and each link of a `++`,
application or `::` chain puts the whole chain so far one level deeper.
Past MAX_DEPTH (100) levels the parser reports a ParseError at the token.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Sequence
from typing import NamedTuple, Union

from .core import (
    App, BoolLit, CaseQueue, Concat, Enqueue, If, Lam, Let, StrLit, UnitLit, Var, _Node,
)
from .record import record
from .typesys import BOOL, DYN, STR, UNIT, Arrow, Bool, Dyn, QueueOf, Str, Unit, ValueType, atom


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokens

KEYWORDS = {
    "module", "where", "effect", "import", "as", "define",
    "lambda", "let", "in", "if", "then", "else",
    "match", "with", "empty", "dequeue", "enqueue",
    "handle", "shallow-handle", "ret", "raise",
    "true", "false", "bool", "str", "Queue",
}

# One match skips a run of blanks and `--` comments, then takes one token.
# The token alternatives start with distinct characters, so their order
# only puts the common ones first; `bad` takes any other character, so no
# match fails.  An identifier is words of `[^\W\d]\w*` joined by single
# dashes, then primes.  `[^\W\d]` also admits numerals that are not
# letters (`½`, `²`), so `tokenize` checks non-ASCII identifiers itself.
# `eof` matches only at the end; when blanks or a comment end the input,
# the match that takes them is followed by a second, empty `eof` match,
# and `tokenize` keeps only the first.
_TOKEN = re.compile(
    r"""\s*(?:--[^\n]*\s*)*
    (?:(?P<ident>[^\W\d]\w*(?:-[^\W\d]\w*)*'*)
      |(?P<punct>::|\+\+|-\[|\]>|->|~>|[(){}\[\],.;:=?])
      |(?P<string>"(?:[^"\\]|\\.)*")
      |(?P<one>1)
      |(?P<eof>\Z)
      |(?P<bad>.))""",
    re.VERBOSE | re.DOTALL,
)
_OPEN_STRING = re.compile(r'"(?:[^"\\]|\\.)*', re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}
_NEWLINE = re.compile("\n")


class Token(NamedTuple):
    kind: str  # ident, string, one, punct, eof
    text: str
    line: int
    col: int


class Tokens(Sequence):
    """tokenize's result: the tokens' kinds, texts and start offsets in
    parallel lists, a string's text with its quotes and escapes so that no
    string reads as a word.  An item is a Token, with the string's value and
    a line and column found by bisecting the offsets of src's newlines."""

    def __init__(self, src: str, kinds: list[str], texts: list[str], starts: list[int]):
        self.kinds, self.texts, self.starts = kinds, texts, starts
        self.newlines = [-1, *[m.start() for m in _NEWLINE.finditer(src)]]

    def where(self, start: int) -> tuple[int, int]:
        """The line and column of offset start."""
        line = bisect_left(self.newlines, start)
        return line, start - self.newlines[line - 1]

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        kind, text = self.kinds[i], self.texts[i]
        text = _unquote(text) if kind == "string" else text
        return Token(kind, text, *self.where(self.starts[i]))


def _unquote(text: str) -> str:
    """The value of a string token's text."""
    text = text[1:-1]
    return _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text) if "\\" in text else text


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def tokenize(src: str) -> Tokens:
    matches = list(_TOKEN.finditer(src))
    if len(matches) > 1 and matches[-2].lastgroup == "eof":
        del matches[-1]
    kinds = [m.lastgroup for m in matches]
    texts = [m[k] for m, k in zip(matches, kinds)]
    starts = [m.start(k) for m, k in zip(matches, kinds)]
    tokens = Tokens(src, kinds, texts, starts)
    if "bad" in kinds or not src.isascii():  # raise at the first offending token
        for kind, text, start in zip(kinds, texts, starts):
            if kind == "ident" and not text.isascii():
                if not _is_ident_start(text[0]):
                    raise ParseError(f"unexpected character {text[0]!r}", *tokens.where(start))
                for k, c in enumerate(text):
                    if c == "-" and not _is_ident_start(text[k + 1]):
                        raise ParseError("unexpected character '-'", *tokens.where(start + k))
            elif kind == "bad":
                if text != '"':
                    raise ParseError(f"unexpected character {text!r}", *tokens.where(start))
                if _OPEN_STRING.match(src, start).end() < len(src):  # ends in a lone backslash
                    raise ParseError("dangling escape in string", *tokens.where(len(src)))
                raise ParseError("unterminated string literal", *tokens.where(start))
    return tokens


# ---------------------------------------------------------------------------
# Surface syntax trees


@record
class SNames(_Node):
    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(sorted(self.names)))

    def __str__(self) -> str:
        return "[" + ",".join(self.names) + "]"


SType = ValueType  # whose rows are SEffects
SEffect = Union[Dyn, SNames]


# Var, the literals, Lam, App, Let, If, Concat, Enqueue and CaseQueue are
# core's classes, positioned; a form whose core class carries a typing the
# surface does not write (empty's element type, a raise's or a clause's
# typing, a handler's result) has a class of its own


@record
class SEmptyQueue(_Node):
    pass


@record
class SRaise(_Node):
    op: str
    payload: "STerm"


@record
class SClause(_Node):
    op: str
    payload_var: str
    resume_var: str
    body: "STerm"


@record
class SHandle(_Node):
    deep: bool
    eff_ann: SEffect
    type_ann: SType
    scrutinee: "STerm"
    ret_var: str
    ret_body: "STerm"
    clauses: tuple[SClause, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "clauses", tuple(sorted(self.clauses, key=lambda c: c.op))
        )


@record
class SAscribeType(_Node):
    term: "STerm"
    ann: SType


@record
class SAscribeEff(_Node):
    term: "STerm"
    ann: SEffect


STerm = Union[
    Var, BoolLit, UnitLit, StrLit, Lam, App, Let, If, Concat,
    SEmptyQueue, Enqueue, CaseQueue, SRaise, SHandle, SAscribeType, SAscribeEff,
]


@record
class SEffectDecl(_Node):
    name: str
    req: SType
    resp: SType


@record
class SImportEffect(_Node):
    module: str
    name: str
    req: SType
    resp: SType


@record
class SImportValue(_Node):
    module: str
    name: str
    alias: str
    ann: SType


@record
class SDefine(_Node):
    name: str
    ann: SType
    body: "STerm"


SDecl = Union[SEffectDecl, SImportEffect, SImportValue, SDefine]


@record
class SModule(_Node):
    name: str
    decls: tuple[SDecl, ...]


@record
class SProgram(_Node):
    modules: tuple[SModule, ...]
    main_decls: tuple[SDecl, ...]
    main_term: "STerm"


# each node class's node-valued fields (terms, types, rows, clauses,
# declarations, modules) in declaration order, each with the fields naming
# the variables bound over it; every other field is a name or a flag
FIELDS: dict[type, dict[str, tuple[str, ...]]] = {
    **dict.fromkeys(
        (Bool, Unit, Str, Dyn, SNames, Var, BoolLit, UnitLit, StrLit, SEmptyQueue), {}
    ),
    QueueOf: {"elem": ()},
    Arrow: {"dom": (), "eff": (), "cod": ()},
    Lam: {"ann": (), "body": ("var",)},
    App: {"fn": (), "arg": ()},
    Let: {"bound": (), "body": ("var",)},
    If: {"cond": (), "then": (), "els": ()},
    Concat: {"left": (), "right": ()},
    Enqueue: {"queue": (), "elem": ()},
    CaseQueue: {"scrutinee": (), "empty_body": (), "cons_body": ("head_var", "rest_var")},
    SRaise: {"payload": ()},
    SClause: {"body": ("payload_var", "resume_var")},
    SHandle: {
        "eff_ann": (), "type_ann": (), "scrutinee": (), "ret_body": ("ret_var",), "clauses": (),
    },
    **dict.fromkeys((SAscribeType, SAscribeEff), {"term": (), "ann": ()}),
    **dict.fromkeys((SEffectDecl, SImportEffect), {"req": (), "resp": ()}),
    SImportValue: {"ann": ()},
    SDefine: {"ann": (), "body": ()},
    SModule: {"decls": ()},
    SProgram: {"modules": (), "main_decls": (), "main_term": ()},
}


# ---------------------------------------------------------------------------
# Parser


MAX_DEPTH = 100  # nesting levels the parser allows; see the module docstring
_LOOKAHEAD = 6  # the most tokens past the current one that the parser peeks
_ATOM_WORDS = frozenset({"true", "false", "empty", "enqueue"})  # keywords that start atoms


class _Parser:
    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        # eof sentinels past the end, so that lookahead needs no bounds check
        self.kinds = tokens.kinds + tokens.kinds[-1:] * _LOOKAHEAD
        self.texts = tokens.texts + tokens.texts[-1:] * _LOOKAHEAD
        self.pos = 0
        # nesting levels: the current one, and the deepest reached since
        # the innermost chain began (the deepest overall outside chains)
        self.depth = self.peak = 0
        self.effects: set[str] = set()

    # -- token plumbing; a token is consumed by `self.pos += 1`, only ever
    # after a test that it is not eof, and a string's text keeps its quotes,
    # so that testing for a word is one index and one compare

    def where(self) -> tuple[int, int]:
        return self.tokens.where(self.tokens.starts[self.pos])

    def at(self, text: str, k: int = 0) -> bool:
        return self.texts[self.pos + k] == text

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            self._expected(repr(text))
        self.pos += 1

    def ident(self, what="identifier") -> str:
        text = self.texts[self.pos]
        if self.kinds[self.pos] != "ident" or text in KEYWORDS:
            self._expected(what)
        self.pos += 1
        return text

    def _err(self, msg: str):
        raise ParseError(msg, *self.where())

    def _expected(self, what: str):
        t = self.tokens[self.pos]
        raise ParseError(f"expected {what}, found {t.text or t.kind!r}", t.line, t.col)

    def _deepen(self, peak: int):
        if peak > MAX_DEPTH:
            self._err(f"nested more than {MAX_DEPTH} levels deep")
        self.peak = peak

    # -- types

    def parse_type(self) -> SType:
        depth = self.depth = self.depth + 1
        if depth > self.peak:
            self._deepen(depth)
        try:
            left = self.type_atom()
            if self.at("-["):
                self.pos += 1
                eff = self.effect_names()
                self.expect("]>")
                return Arrow(left, eff, self.parse_type())
            return left
        finally:
            self.depth = depth - 1

    def type_atom(self) -> SType:
        depth = self.depth = self.depth + 1
        if depth > self.peak:
            self._deepen(depth)
        try:
            i = self.pos
            word = self.texts[i]
            if self.kinds[i] == "one":
                self.pos += 1
                return UNIT
            if word == "bool" or word == "str":
                self.pos += 1
                return BOOL if word == "bool" else STR
            if word == "Queue":
                self.pos += 1
                return QueueOf(self.type_atom())
            if word == "(":
                self.pos += 1
                inner = self.parse_type()
                self.expect(")")
                return inner
            self._expected("a type")
        finally:
            self.depth = depth - 1

    def effect_names(self) -> SEffect:
        pos = self.where()
        if self.at("?"):
            self.pos += 1
            return DYN
        names = []
        while self.kinds[self.pos] == "ident":
            names.append(self.ident("effect name"))
            if not self.at(","):
                break
            self.pos += 1
        return SNames(tuple(names), pos=pos)

    # -- clause-head lookahead (see module docstring)

    def _at_clause_head(self) -> bool:
        kinds, texts, i = self.kinds, self.texts, self.pos
        w0, w1 = texts[i], texts[i + 1]
        return kinds[i] == "ident" and (
            (w0 == "ret" and kinds[i + 1] == "ident" and texts[i + 2] == "->")
            or (w0 == "empty" and w1 == "->")
            or (
                w1 == "("
                and kinds[i + 2] == "ident"
                and texts[i + 3] == ","
                and kinds[i + 4] == "ident"
                and texts[i + 5] == ")"
                and texts[i + 6] == "->"
            )
        )

    # -- terms

    def parse_term(self) -> STerm:
        depth = self.depth = self.depth + 1
        if depth > self.peak:
            self._deepen(depth)
        try:
            form = self.texts[self.pos]
            if form == "lambda":
                pos = self.where()
                self.pos += 1
                var = self.ident("parameter")
                ann = None
                if self.at(":"):
                    self.pos += 1
                    ann = self.parse_type()
                self.expect(".")
                return Lam(var, ann, self.parse_term(), pos=pos)
            if form == "let":
                pos = self.where()
                self.pos += 1
                var = self.ident("binder")
                self.expect("=")
                bound = self.parse_term()
                self.expect("in")
                return Let(bound, var, self.parse_term(), pos=pos)
            if form == "if":
                pos = self.where()
                self.pos += 1
                cond = self.parse_term()
                self.expect("then")
                then = self.parse_term()
                self.expect("else")
                return If(cond, then, self.parse_term(), pos=pos)
            if form == "match":
                return self.parse_match()
            if form in ("handle", "shallow-handle"):
                return self.parse_handle()
            if form == "raise":
                pos = self.where()
                outer, self.peak = self.peak, self.depth
                self.pos += 1
                op = self.ident("effect name")
                term = self.asc_tail(SRaise(op, self.parse_atom(), pos=pos), outer)
            else:
                term = self.parse_ascribed()
            if self.texts[self.pos] != ";":
                return term
            pos = self.where()
            self.pos += 1  # `M; N` is `let _ = M in N`
            return Let(term, "_", self.parse_term(), pos=pos)
        finally:
            self.depth = depth - 1

    def parse_ascribed(self) -> STerm:
        outer, self.peak = self.peak, self.depth
        term = self.parse_app()
        while self.texts[self.pos] == "++":
            pos = self.where()
            self._deepen(self.peak + 1)  # the chain so far sinks a level
            self.pos += 1
            term = Concat(term, self.parse_app(), pos=pos)
        return self.asc_tail(term, outer)

    def asc_tail(self, term: STerm, outer: int) -> STerm:
        while self.texts[self.pos] == "::":
            pos = self.where()
            self._deepen(self.peak + 1)  # the chain so far sinks a level
            self.pos += 1
            if self.at("["):
                self.pos += 1
                eff = self.effect_names()
                self.expect("]")
                term = SAscribeEff(term, eff, pos=pos)
            else:
                term = SAscribeType(term, self.parse_type(), pos=pos)
        if outer > self.peak:
            self.peak = outer
        return term

    def _at_atom(self) -> bool:
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == "ident":
            if text in KEYWORDS:
                return text in _ATOM_WORDS
            # `main {` starts the main block, not a variable
            return text != "main" or self.texts[i + 1] != "{"
        return kind == "string" or text == "("

    def parse_app(self) -> STerm:
        outer, self.peak = self.peak, self.depth
        head = self.parse_atom()
        while self._at_atom() and not self._at_clause_head():
            pos = self.where()
            self._deepen(self.peak + 1)  # the chain so far sinks a level
            head = App(head, self.parse_atom(), pos=pos)
        if outer > self.peak:
            self.peak = outer
        return head

    def parse_atom(self) -> STerm:
        depth = self.depth = self.depth + 1
        if depth > self.peak:
            self._deepen(depth)
        try:
            i = self.pos
            kind, text, pos = self.kinds[i], self.texts[i], self.where()
            if kind == "ident":
                if text not in KEYWORDS:
                    self.pos += 1
                    if text in self.effects and self.at("("):
                        self.pos += 1
                        if self.at(")"):
                            self.pos += 1
                            payload: STerm = UnitLit(pos=pos)
                        else:
                            payload = self.parse_term()
                            self.expect(")")
                        return SRaise(text, payload, pos=pos)
                    return Var(text, pos=pos)
                if text in _ATOM_WORDS:
                    self.pos += 1
                    if text == "empty":
                        return SEmptyQueue(pos=pos)
                    if text == "enqueue":
                        q = self.parse_atom()
                        return Enqueue(q, self.parse_atom(), pos=pos)
                    return BoolLit(text == "true", pos=pos)
            elif kind == "string":
                self.pos += 1
                return StrLit(_unquote(text), pos=pos)
            elif text == "(":
                self.pos += 1
                if self.at(")"):
                    self.pos += 1
                    return UnitLit(pos=pos)
                inner = self.parse_term()
                self.expect(")")
                return inner
            self._expected("a term")
        finally:
            self.depth = depth - 1

    def parse_match(self) -> STerm:
        pos = self.where()
        self.expect("match")
        scrutinee = self.parse_ascribed()
        self.expect("with")
        self.expect("empty")
        self.expect("->")
        empty_body = self.parse_term()
        self.expect("dequeue")
        self.expect("(")
        head_var = self.ident("binder")
        self.expect(",")
        rest_var = self.ident("binder")
        self.expect(")")
        self.expect("->")
        cons_body = self.parse_term()
        return CaseQueue(scrutinee, empty_body, head_var, rest_var, cons_body, pos=pos)

    def parse_handle(self) -> STerm:
        pos, deep = self.where(), self.at("handle")
        self.pos += 1
        self.expect("[")
        eff_ann = self.effect_names()
        self.expect("]")
        type_ann = self.type_atom()
        scrutinee = self.parse_ascribed()
        self.expect("with")
        self.expect("ret")
        ret_var = self.ident("binder")
        self.expect("->")
        ret_body = self.parse_term()
        clauses = []
        while self._at_clause_head():
            cpos = self.where()
            op = self.ident("effect name")
            self.expect("(")
            payload_var = self.ident("binder")
            self.expect(",")
            resume_var = self.ident("binder")
            self.expect(")")
            self.expect("->")
            body = self.parse_term()
            clauses.append(SClause(op, payload_var, resume_var, body, pos=cpos))
        return SHandle(
            deep, eff_ann, type_ann, scrutinee, ret_var, ret_body, tuple(clauses),
            pos=pos,
        )

    # -- declarations and programs

    def parse_decl(self) -> SDecl:
        pos, word = self.where(), self.texts[self.pos]
        if word == "effect":
            self.pos += 1
            name = self.ident("effect name")
            self.expect(":")
            req = self.parse_type()
            self.expect("~>")
            resp = self.parse_type()
            self.effects.add(name)
            return SEffectDecl(name, req, resp, pos=pos)
        if word == "import":
            self.pos += 1
            module = self.ident("module name")
            self.expect(".")
            name = self.ident("imported name")
            if self.at("as"):
                self.pos += 1
                alias = self.ident("alias")
                self.expect(":")
                return SImportValue(module, name, alias, self.parse_type(), pos=pos)
            self.expect(":")
            ty = self.parse_type()
            if self.at("~>"):
                self.pos += 1
                resp = self.parse_type()
                self.effects.add(name)
                return SImportEffect(module, name, ty, resp, pos=pos)
            return SImportValue(module, name, name, ty, pos=pos)
        if word == "define":
            self.pos += 1
            name = self.ident("name")
            self.expect(":")
            ann = self.parse_type()
            self.expect("=")
            return SDefine(name, ann, self.parse_term(), pos=pos)
        self._expected("a declaration")

    def _at_decl(self) -> bool:
        return self.texts[self.pos] in ("effect", "import", "define")

    def parse_module(self) -> SModule:
        pos = self.where()
        self.expect("module")
        name = self.ident("module name")
        self.expect("where")
        self.effects = set()
        decls = []
        while self._at_decl():
            decls.append(self.parse_decl())
        return SModule(name, tuple(decls), pos=pos)

    def parse_program(self) -> SProgram:
        pos = self.where()
        modules = []
        while self.at("module"):
            modules.append(self.parse_module())
        if self.at("main") and self.at("{", 1):
            self.pos += 1
            self.expect("{")
            self.effects = set()
            decls = []
            while self._at_decl():
                decls.append(self.parse_decl())
            # an optional `in` fences the final term off from a preceding
            # define body, which would otherwise absorb it as an argument
            if self.at("in"):
                self.pos += 1
            term = self.parse_term()
            self.expect("}")
            program = SProgram(tuple(modules), tuple(decls), term, pos=pos)
        else:
            # sugar: a trailing module Main with a define main : A = M
            if not modules or modules[-1].name != "Main":
                self._err("expected a main block or a final module Main")
            last = modules[-1]
            if not (last.decls and isinstance(last.decls[-1], SDefine)
                    and last.decls[-1].name == "main"):
                self._err("module Main must end with a define main")
            main_def = last.decls[-1]
            term = SAscribeType(main_def.body, main_def.ann, pos=main_def.pos)
            program = SProgram(
                tuple(modules[:-1]), tuple(last.decls[:-1]), term, pos=pos
            )
        self._end("program")
        return program

    def _end(self, what: str) -> None:
        if self.kinds[self.pos] != "eof":
            t = self.tokens[self.pos]
            raise ParseError(f"unexpected {t.text!r} after {what}", t.line, t.col)


def parse_program(src: str) -> SProgram:
    return _Parser(tokenize(src)).parse_program()


def parse_term(src: str, effects: frozenset[str] = frozenset()) -> STerm:
    p = _Parser(tokenize(src))
    p.effects = set(effects)
    term = p.parse_term()
    p._end("term")
    return term


def parse_type(src: str) -> SType:
    p = _Parser(tokenize(src))
    ty = p.parse_type()
    p._end("type")
    return ty


# ---------------------------------------------------------------------------
# Pretty-printer (output reparses to an equal tree)


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


# precedence levels, loosest first: term, ascription, `++`, enqueue,
# application, atom; a class not listed is a term
_ASC, _CAT, _ENQ, _APP, _ATOM = range(1, 6)
_LEVEL = {
    SAscribeType: _ASC, SAscribeEff: _ASC, Concat: _CAT, Enqueue: _ENQ, App: _APP,
    **dict.fromkeys((Var, BoolLit, UnitLit, StrLit, SEmptyQueue), _ATOM),
}


def pretty_term(t: STerm, effects: frozenset[str] = frozenset()) -> str:
    """t as source that parse_term(_, effects) reads back as t.  A variable
    named like an effect in scope is printed in parentheses, as in
    `(ping) ()`, which `ping ()` would not be: that raises ping."""

    def sub(t: STerm, level: int = 0) -> str:
        """t printed at a position that requires level, in parentheses when looser."""
        text = form(t)
        return f"({text})" if _LEVEL.get(type(t), 0) < level else text

    def form(t: STerm) -> str:
        if isinstance(t, Var):
            return f"({t.name})" if t.name in effects else t.name
        if isinstance(t, BoolLit):
            return "true" if t.value else "false"
        if isinstance(t, UnitLit):
            return "()"
        if isinstance(t, StrLit):
            return _q(t.value)
        if isinstance(t, Lam):
            ann = f" : {t.ann}" if t.ann is not None else ""
            return f"lambda {t.var}{ann}. {sub(t.body)}"
        if isinstance(t, App):
            return f"{sub(t.fn, _APP)} {sub(t.arg, _ATOM)}"
        if isinstance(t, Let):
            if t.var == "_":
                return f"{sub(t.bound, _ASC)}; {sub(t.body)}"
            return f"let {t.var} = {sub(t.bound)} in {sub(t.body)}"
        if isinstance(t, If):
            return f"if {sub(t.cond)} then {sub(t.then)} else {sub(t.els)}"
        if isinstance(t, Concat):
            return f"{sub(t.left, _CAT)} ++ {sub(t.right, _ENQ)}"
        if isinstance(t, SEmptyQueue):
            return "empty"
        if isinstance(t, Enqueue):
            return f"enqueue {sub(t.queue, _ATOM)} {sub(t.elem, _ATOM)}"
        if isinstance(t, CaseQueue):
            return (
                f"match {sub(t.scrutinee, _ASC)} with empty -> ({sub(t.empty_body)}) "
                f"dequeue({t.head_var}, {t.rest_var}) -> ({sub(t.cons_body)})"
            )
        if isinstance(t, SRaise):
            return f"raise {t.op} {sub(t.payload, _ATOM)}"
        if isinstance(t, SHandle):
            kw = "handle" if t.deep else "shallow-handle"
            return (
                f"{kw} {t.eff_ann} {atom(t.type_ann)} {sub(t.scrutinee, _ASC)} "
                f"with ret {t.ret_var} -> ({sub(t.ret_body)})"
            ) + "".join(
                f" {c.op}({c.payload_var}, {c.resume_var}) -> ({sub(c.body)})" for c in t.clauses
            )
        if isinstance(t, (SAscribeType, SAscribeEff)):
            return f"{sub(t.term, _ASC)} :: {t.ann}"
        raise TypeError(f"not a surface term: {t!r}")

    return form(t)


def pretty_decl(d: SDecl, effects: frozenset[str] = frozenset()) -> str:
    """d as source; effects are the effect names in scope before it."""
    if isinstance(d, SEffectDecl):
        return f"effect {d.name} : {atom(d.req)} ~> {atom(d.resp)}"
    if isinstance(d, SImportEffect):
        return f"import {d.module}.{d.name} : {atom(d.req)} ~> {atom(d.resp)}"
    if isinstance(d, SImportValue):
        alias = f" as {d.alias}" if d.alias != d.name else ""
        return f"import {d.module}.{d.name}{alias} : {d.ann}"
    if isinstance(d, SDefine):
        return f"define {d.name} : {d.ann} =\n  {pretty_term(d.body, effects)}"
    raise TypeError(f"not a declaration: {d!r}")


def _pretty_decls(decls: tuple[SDecl, ...]) -> tuple[list[str], frozenset[str]]:
    """Each of decls printed in the scope the parser reads it in, the
    effects declared or imported before it, and the effects after them all."""
    out, effects = [], frozenset()
    for d in decls:
        out.append(pretty_decl(d, effects))
        if isinstance(d, (SEffectDecl, SImportEffect)):
            effects |= {d.name}
    return out, effects


def pretty_program(p: SProgram) -> str:
    parts = []
    for m in p.modules:
        parts.append(f"module {m.name} where")
        parts += _pretty_decls(m.decls)[0]
        parts.append("")
    decls, effects = _pretty_decls(p.main_decls)
    parts.append("main {")
    parts += ["  " + d.replace("\n", "\n  ") for d in decls]
    if decls:
        parts.append("  in")
    parts.append("  " + pretty_term(p.main_term, effects))
    parts.append("}")
    return "\n".join(parts) + "\n"

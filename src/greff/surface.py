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

Nesting is limited, so that every later phase stays within Python's default
recursion limit.  Each term, argument or type parsed inside another is one
level deeper (a pair of parentheses costs two), and each link of a `++`,
application or `::` chain puts the whole chain so far one level deeper.
Past MAX_DEPTH (100) levels the parser reports a ParseError at the token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

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


class Token(NamedTuple):
    kind: str  # ident, string, one, punct, eof
    text: str
    line: int
    col: int


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def tokenize(src: str) -> list[Token]:
    out: list[Token] = []
    new = tuple.__new__  # Token(...) without the named tuple's own __new__
    line, line_start = 1, 0
    nl = src.find("\n")  # the first newline at or after the last token start
    if nl < 0:
        nl = len(src)
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        start, end = m.span(kind)
        if start > nl:  # lines are counted between token starts
            line_start = src.rfind("\n", nl, start) + 1
            line += src.count("\n", nl, line_start)
            nl = src.find("\n", start)
            if nl < 0:
                nl = len(src)
        col = start - line_start + 1
        text = src[start:end]
        if kind == "ident":
            if not text.isascii():
                if not _is_ident_start(text[0]):
                    raise ParseError(f"unexpected character {text[0]!r}", line, col)
                for k, c in enumerate(text):
                    if c == "-" and not _is_ident_start(text[k + 1]):
                        raise ParseError("unexpected character '-'", line, col + k)
        elif kind == "string":
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text)
        elif kind == "bad":
            if text != '"':
                raise ParseError(f"unexpected character {text!r}", line, col)
            if _OPEN_STRING.match(src, start).end() < len(src):  # ends in a lone backslash
                line, col = src.count("\n") + 1, len(src) - src.rfind("\n")
                raise ParseError("dangling escape in string", line, col)
            raise ParseError("unterminated string literal", line, col)
        out.append(new(Token, (kind, text, line, col)))
        if kind == "eof":  # the match after it would be an empty eof again
            break
    return out


# ---------------------------------------------------------------------------
# Surface syntax trees


@dataclass(frozen=True)
class _Node:
    """A tree node's source position, left out of equality, hash and repr."""

    pos: Optional[tuple] = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class SNames(_Node):
    names: tuple[str, ...]

    def __init__(self, names, pos=None):
        object.__setattr__(self, "names", tuple(sorted(names)))
        object.__setattr__(self, "pos", pos)

    def __str__(self) -> str:
        return "[" + ",".join(self.names) + "]"


SType = ValueType  # whose rows are SEffects
SEffect = Union[Dyn, SNames]


@dataclass(frozen=True)
class SVar(_Node):
    name: str


@dataclass(frozen=True)
class SBoolLit(_Node):
    value: bool


@dataclass(frozen=True)
class SUnitLit(_Node):
    pass


@dataclass(frozen=True)
class SStrLit(_Node):
    value: str


@dataclass(frozen=True)
class SLam(_Node):
    var: str
    ann: Optional[SType]
    body: "STerm"


@dataclass(frozen=True)
class SApp(_Node):
    fn: "STerm"
    arg: "STerm"


@dataclass(frozen=True)
class SLet(_Node):
    var: str
    bound: "STerm"
    body: "STerm"


@dataclass(frozen=True)
class SIf(_Node):
    cond: "STerm"
    then: "STerm"
    els: "STerm"


@dataclass(frozen=True)
class SConcat(_Node):
    left: "STerm"
    right: "STerm"


@dataclass(frozen=True)
class SEmptyQueue(_Node):
    pass


@dataclass(frozen=True)
class SEnqueue(_Node):
    queue: "STerm"
    elem: "STerm"


@dataclass(frozen=True)
class SMatch(_Node):
    scrutinee: "STerm"
    empty_body: "STerm"
    head_var: str
    rest_var: str
    cons_body: "STerm"


@dataclass(frozen=True)
class SRaise(_Node):
    op: str
    payload: "STerm"


@dataclass(frozen=True)
class SClause(_Node):
    op: str
    payload_var: str
    resume_var: str
    body: "STerm"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SAscribeType(_Node):
    term: "STerm"
    ann: SType


@dataclass(frozen=True)
class SAscribeEff(_Node):
    term: "STerm"
    ann: SEffect


STerm = Union[
    SVar, SBoolLit, SUnitLit, SStrLit, SLam, SApp, SLet, SIf, SConcat,
    SEmptyQueue, SEnqueue, SMatch, SRaise, SHandle, SAscribeType, SAscribeEff,
]


@dataclass(frozen=True)
class SEffectDecl(_Node):
    name: str
    req: SType
    resp: SType


@dataclass(frozen=True)
class SImportEffect(_Node):
    module: str
    name: str
    req: SType
    resp: SType


@dataclass(frozen=True)
class SImportValue(_Node):
    module: str
    name: str
    alias: str
    ann: SType


@dataclass(frozen=True)
class SDefine(_Node):
    name: str
    ann: SType
    body: "STerm"


SDecl = Union[SEffectDecl, SImportEffect, SImportValue, SDefine]


@dataclass(frozen=True)
class SModule(_Node):
    name: str
    decls: tuple[SDecl, ...]


@dataclass(frozen=True)
class SProgram(_Node):
    modules: tuple[SModule, ...]
    main_decls: tuple[SDecl, ...]
    main_term: "STerm"


# each node class's node-valued fields (terms, types, rows, clauses,
# declarations, modules) in declaration order, each with the fields naming
# the variables bound over it; every other field is a name or a flag
FIELDS: dict[type, dict[str, tuple[str, ...]]] = {
    **dict.fromkeys(
        (Bool, Unit, Str, Dyn, SNames, SVar, SBoolLit, SUnitLit, SStrLit, SEmptyQueue), {}
    ),
    QueueOf: {"elem": ()},
    Arrow: {"dom": (), "eff": (), "cod": ()},
    SLam: {"ann": (), "body": ("var",)},
    SApp: {"fn": (), "arg": ()},
    SLet: {"bound": (), "body": ("var",)},
    SIf: {"cond": (), "then": (), "els": ()},
    SConcat: {"left": (), "right": ()},
    SEnqueue: {"queue": (), "elem": ()},
    SMatch: {"scrutinee": (), "empty_body": (), "cons_body": ("head_var", "rest_var")},
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


def _nested(parse):
    """parse, one nesting level deeper; see the module docstring."""

    def nested(self):
        depth = self.depth = self.depth + 1
        if depth > self.peak:
            self._deepen(depth)
        node = parse(self)
        self.depth = depth - 1
        return node

    return nested


class _Parser:
    def __init__(self, tokens: list[Token]):
        # eof sentinels past the end, so that lookahead needs no bounds check
        self.toks = toks = tokens + tokens[-1:] * _LOOKAHEAD
        # each token's text if it is punctuation or a word, else None, so
        # that testing for a word is one index and one compare
        self.words = [t[1] if t[0] in ("punct", "ident") else None for t in toks]
        self.pos = 0
        # nesting levels: the current one, and the deepest reached since
        # the innermost chain began (the deepest overall outside chains)
        self.depth = self.peak = 0
        self.effects: set[str] = set()

    # -- token plumbing; a token is consumed by `self.pos += 1`, only ever
    # after a test that it is not eof

    def where(self) -> tuple[int, int]:
        return self.toks[self.pos][2:]

    def at(self, text: str, k: int = 0) -> bool:
        return self.words[self.pos + k] == text

    def expect(self, text: str) -> None:
        if self.words[self.pos] != text:
            t = self.toks[self.pos]
            raise ParseError(f"expected {text!r}, found {t.text or t.kind!r}", t.line, t.col)
        self.pos += 1

    def ident(self, what="identifier") -> str:
        t = self.toks[self.pos]
        if t.kind != "ident" or t.text in KEYWORDS:
            raise ParseError(f"expected {what}, found {t.text or t.kind!r}", t.line, t.col)
        self.pos += 1
        return t.text

    def _err(self, msg: str):
        raise ParseError(msg, *self.where())

    def _deepen(self, peak: int):
        if peak > MAX_DEPTH:
            self._err(f"nested more than {MAX_DEPTH} levels deep")
        self.peak = peak

    # -- types

    @_nested
    def parse_type(self) -> SType:
        left = self.type_atom()
        if self.at("-["):
            self.pos += 1
            eff = self.effect_names()
            self.expect("]>")
            return Arrow(left, eff, self.parse_type())
        return left

    @_nested
    def type_atom(self) -> SType:
        t, word = self.toks[self.pos], self.words[self.pos]
        if t.kind == "one":
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
        self._err(f"expected a type, found {t.text or t.kind!r}")

    def effect_names(self) -> SEffect:
        pos = self.where()
        if self.at("?"):
            self.pos += 1
            return DYN
        names = []
        while self.toks[self.pos].kind == "ident":
            names.append(self.ident("effect name"))
            if not self.at(","):
                break
            self.pos += 1
        return SNames(tuple(names), pos=pos)

    # -- clause-head lookahead (see module docstring)

    def _at_clause_head(self) -> bool:
        toks, words, i = self.toks, self.words, self.pos
        w0, w1 = words[i], words[i + 1]
        return toks[i].kind == "ident" and (
            (w0 == "ret" and toks[i + 1].kind == "ident" and words[i + 2] == "->")
            or (w0 == "empty" and w1 == "->")
            or (
                w1 == "("
                and toks[i + 2].kind == "ident"
                and words[i + 3] == ","
                and toks[i + 4].kind == "ident"
                and words[i + 5] == ")"
                and words[i + 6] == "->"
            )
        )

    # -- terms

    @_nested
    def parse_term(self) -> STerm:
        i = self.pos
        pos, form = self.toks[i][2:], self.words[i]
        if form == "lambda":
            self.pos += 1
            var = self.ident("parameter")
            ann = None
            if self.at(":"):
                self.pos += 1
                ann = self.parse_type()
            self.expect(".")
            return SLam(var, ann, self.parse_term(), pos=pos)
        if form == "let":
            self.pos += 1
            var = self.ident("binder")
            self.expect("=")
            bound = self.parse_term()
            self.expect("in")
            return SLet(var, bound, self.parse_term(), pos=pos)
        if form == "if":
            self.pos += 1
            cond = self.parse_term()
            self.expect("then")
            then = self.parse_term()
            self.expect("else")
            return SIf(cond, then, self.parse_term(), pos=pos)
        if form == "match":
            return self.parse_match()
        if form in ("handle", "shallow-handle"):
            return self.parse_handle()
        if form == "raise":
            outer, self.peak = self.peak, self.depth
            self.pos += 1
            op = self.ident("effect name")
            term = self.asc_tail(SRaise(op, self.parse_atom(), pos=pos), outer)
        else:
            term = self.parse_ascribed()
        i = self.pos
        if self.words[i] != ";":
            return term
        self.pos = i + 1  # `M; N` is `let _ = M in N`
        return SLet("_", term, self.parse_term(), pos=self.toks[i][2:])

    def parse_ascribed(self) -> STerm:
        outer, self.peak = self.peak, self.depth
        term = self.parse_app()
        while self.words[self.pos] == "++":
            pos = self.toks[self.pos][2:]
            self._deepen(self.peak + 1)  # the chain so far sinks a level
            self.pos += 1
            term = SConcat(term, self.parse_app(), pos=pos)
        return self.asc_tail(term, outer)

    def asc_tail(self, term: STerm, outer: int) -> STerm:
        while self.words[self.pos] == "::":
            pos = self.toks[self.pos][2:]
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
        t = self.toks[self.pos]
        if t.kind == "ident":
            if t.text in KEYWORDS:
                return t.text in _ATOM_WORDS
            # `main {` starts the main block, not a variable
            return t.text != "main" or self.words[self.pos + 1] != "{"
        return t.kind == "string" or t.text == "("

    def parse_app(self) -> STerm:
        outer, self.peak = self.peak, self.depth
        head = self.parse_atom()
        while self._at_atom() and not self._at_clause_head():
            pos = self.toks[self.pos][2:]
            self._deepen(self.peak + 1)  # the chain so far sinks a level
            head = SApp(head, self.parse_atom(), pos=pos)
        if outer > self.peak:
            self.peak = outer
        return head

    @_nested
    def parse_atom(self) -> STerm:
        t = self.toks[self.pos]
        kind, text, pos = t.kind, t.text, t[2:]
        if kind == "ident":
            if text not in KEYWORDS:
                self.pos += 1
                if text in self.effects and self.at("("):
                    self.pos += 1
                    if self.at(")"):
                        self.pos += 1
                        payload: STerm = SUnitLit(pos=pos)
                    else:
                        payload = self.parse_term()
                        self.expect(")")
                    return SRaise(text, payload, pos=pos)
                return SVar(text, pos=pos)
            if text in _ATOM_WORDS:
                self.pos += 1
                if text == "empty":
                    return SEmptyQueue(pos=pos)
                if text == "enqueue":
                    q = self.parse_atom()
                    return SEnqueue(q, self.parse_atom(), pos=pos)
                return SBoolLit(text == "true", pos=pos)
        elif kind == "string":
            self.pos += 1
            return SStrLit(text, pos=pos)
        elif text == "(":
            self.pos += 1
            if self.at(")"):
                self.pos += 1
                return SUnitLit(pos=pos)
            inner = self.parse_term()
            self.expect(")")
            return inner
        self._err(f"expected a term, found {text or kind!r}")

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
        return SMatch(scrutinee, empty_body, head_var, rest_var, cons_body, pos=pos)

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
        pos, word = self.where(), self.words[self.pos]
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
        t = self.toks[self.pos]
        self._err(f"expected a declaration, found {t.text or t.kind!r}")

    def _at_decl(self) -> bool:
        return self.words[self.pos] in ("effect", "import", "define")

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
        t = self.toks[self.pos]
        if t.kind != "eof":
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


def pretty_term(t: STerm) -> str:
    if isinstance(t, SVar):
        return t.name
    if isinstance(t, SBoolLit):
        return "true" if t.value else "false"
    if isinstance(t, SUnitLit):
        return "()"
    if isinstance(t, SStrLit):
        return _q(t.value)
    if isinstance(t, SLam):
        ann = f" : {t.ann}" if t.ann is not None else ""
        return f"lambda {t.var}{ann}. {pretty_term(t.body)}"
    if isinstance(t, SApp):
        return f"{_sub(t.fn, _APP)} {_sub(t.arg, _ATOM)}"
    if isinstance(t, SLet):
        if t.var == "_":
            return f"{_sub(t.bound, _ASC)}; {pretty_term(t.body)}"
        return f"let {t.var} = {pretty_term(t.bound)} in {pretty_term(t.body)}"
    if isinstance(t, SIf):
        return (
            f"if {pretty_term(t.cond)} then {pretty_term(t.then)} "
            f"else {pretty_term(t.els)}"
        )
    if isinstance(t, SConcat):
        return f"{_sub(t.left, _CAT)} ++ {_sub(t.right, _ENQ)}"
    if isinstance(t, SEmptyQueue):
        return "empty"
    if isinstance(t, SEnqueue):
        return f"enqueue {_sub(t.queue, _ATOM)} {_sub(t.elem, _ATOM)}"
    if isinstance(t, SMatch):
        return (
            f"match {_sub(t.scrutinee, _ASC)} with "
            f"empty -> ({pretty_term(t.empty_body)}) "
            f"dequeue({t.head_var}, {t.rest_var}) -> ({pretty_term(t.cons_body)})"
        )
    if isinstance(t, SRaise):
        return f"raise {t.op} {_sub(t.payload, _ATOM)}"
    if isinstance(t, SHandle):
        kw = "handle" if t.deep else "shallow-handle"
        head = (
            f"{kw} {t.eff_ann} {atom(t.type_ann)} "
            f"{_sub(t.scrutinee, _ASC)} with ret {t.ret_var} -> ({pretty_term(t.ret_body)})"
        )
        for c in t.clauses:
            head += (
                f" {c.op}({c.payload_var}, {c.resume_var}) -> ({pretty_term(c.body)})"
            )
        return head
    if isinstance(t, SAscribeType):
        return f"{_sub(t.term, _ASC)} :: {t.ann}"
    if isinstance(t, SAscribeEff):
        return f"{_sub(t.term, _ASC)} :: {t.ann}"
    raise TypeError(f"not a surface term: {t!r}")


# precedence levels, loosest first: term, ascription, `++`, enqueue,
# application, atom; a class not listed is a term
_ASC, _CAT, _ENQ, _APP, _ATOM = range(1, 6)
_LEVEL = {
    SAscribeType: _ASC, SAscribeEff: _ASC, SConcat: _CAT, SEnqueue: _ENQ, SApp: _APP,
    **dict.fromkeys((SVar, SBoolLit, SUnitLit, SStrLit, SEmptyQueue), _ATOM),
}


def _sub(t: STerm, level: int) -> str:
    """t printed at a position that requires level, in parentheses when looser."""
    if _LEVEL.get(type(t), 0) < level:
        return f"({pretty_term(t)})"
    return pretty_term(t)


def pretty_decl(d: SDecl) -> str:
    if isinstance(d, SEffectDecl):
        return f"effect {d.name} : {atom(d.req)} ~> {atom(d.resp)}"
    if isinstance(d, SImportEffect):
        return f"import {d.module}.{d.name} : {atom(d.req)} ~> {atom(d.resp)}"
    if isinstance(d, SImportValue):
        alias = f" as {d.alias}" if d.alias != d.name else ""
        return f"import {d.module}.{d.name}{alias} : {d.ann}"
    if isinstance(d, SDefine):
        return f"define {d.name} : {d.ann} =\n  {pretty_term(d.body)}"
    raise TypeError(f"not a declaration: {d!r}")


def pretty_program(p: SProgram) -> str:
    parts = []
    for m in p.modules:
        parts.append(f"module {m.name} where")
        for d in m.decls:
            parts.append(pretty_decl(d))
        parts.append("")
    parts.append("main {")
    for d in p.main_decls:
        parts.append("  " + pretty_decl(d).replace("\n", "\n  "))
    if p.main_decls:
        parts.append("  in")
    parts.append("  " + pretty_term(p.main_term))
    parts.append("}")
    return "\n".join(parts) + "\n"

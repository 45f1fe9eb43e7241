"""Lexer, parser, and pretty-printer tests for the surface language."""

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from greff import core, surface
from greff.core import App, BoolLit, CaseQueue, Concat, Enqueue, If, Lam, Let, StrLit, UnitLit, Var
from greff.surface import (
    FIELDS, MAX_DEPTH, ParseError, SAscribeEff, SAscribeType, SClause, SDefine,
    SEffectDecl, SEmptyQueue, SHandle, SImportEffect, SImportValue, SNames, SRaise,
    parse_program, parse_term, parse_type, pretty_program, pretty_term, tokenize,
)
from greff.elaborate import ElabError, elab_program
from greff.typesys import BOOL, DYN, STR, UNIT, Arrow, QueueOf

OPS = frozenset({"print", "yield", "fork"})


# ---------------------------------------------------------------------------
# lexer


def test_lex_dashed_idents_and_arrow_brackets():
    toks = [t.text for t in tokenize("sch-loop str -[print]> str")][:-1]
    assert toks == ["sch-loop", "str", "-[", "print", "]>", "str"]


def test_lex_primes_and_comments():
    toks = [t.text for t in tokenize("q' -- the rest of the queue\nq''")]
    assert [t for t in toks if t] == ["q'", "q''"]


def test_lex_string_escapes():
    toks = tokenize(r'"a\"b\\c\nd"')
    assert toks[0].kind == "string"
    assert toks[0].text == 'a"b\\c\nd'


def test_lex_positions():
    toks = tokenize("ab\n  cd")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_lex_rejects_stray_characters():
    with pytest.raises(ParseError):
        tokenize("a # b")


# (source, its (kind, text, line, col) stream or its ParseError string)
LEX_EDGE_CASES = [
    # numerals that are not letters start no identifier, nor a dashed part
    ("½", "1:1: unexpected character '½'"),
    ("²x", "1:1: unexpected character '²'"),
    ("Ⅻ", "1:1: unexpected character 'Ⅻ'"),
    ("a-½", "1:2: unexpected character '-'"),
    ("a-Ⅻ", "1:2: unexpected character '-'"),
    ("é-b a-é", [("ident", "é-b", 1, 1), ("ident", "a-é", 1, 5),
                           ("eof", "", 1, 8)]),
    ("a-b'", [("ident", "a-b'", 1, 1), ("eof", "", 1, 5)]),
    ("q''-x", "1:4: unexpected character '-'"),
    ("a-", "1:2: unexpected character '-'"),
    ("x--c", [("ident", "x", 1, 1), ("eof", "", 1, 5)]),
    ("-", "1:1: unexpected character '-'"),
    ("12", "1:2: unexpected character '2'"),
    # a comment that ends the input, and no input at all
    ("x -- no newline", [("ident", "x", 1, 1), ("eof", "", 1, 16)]),
    ("", [("eof", "", 1, 1)]),
    # blanks other than space and newline take a column, not a line
    ("a\rb", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)]),
    ("a\u00a0b", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)]),
    ("a\x1cb", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)]),
    ("a\u2028b", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)]),
    # a string's newline moves the next token's line
    ('"a\nb" c', [("string", "a\nb", 1, 1), ("ident", "c", 2, 4), ("eof", "", 2, 5)]),
    ('"a\\nb\\t\\q"', [("string", "a\nb\tq", 1, 1), ("eof", "", 1, 11)]),
    ('x\n\n  "s" y', [("ident", "x", 1, 1), ("string", "s", 3, 3), ("ident", "y", 3, 7),
                    ("eof", "", 3, 8)]),
    # an unterminated string is reported at its quote, a dangling escape
    # at the end of the input
    ('"abc', "1:1: unterminated string literal"),
    ('x\n"ab', "2:1: unterminated string literal"),
    ('"a\\', "1:4: dangling escape in string"),
    ('"a\n\\', "2:2: dangling escape in string"),
]


@pytest.mark.parametrize("src, expected", LEX_EDGE_CASES)
def test_lex_edge_cases(src, expected):
    try:
        got = [(t.kind, t.text, t.line, t.col) for t in tokenize(src)]
    except ParseError as e:
        got = str(e)
    assert got == expected


# ---------------------------------------------------------------------------
# types


def test_parse_type_examples():
    assert parse_type("bool") == BOOL
    assert parse_type("1") == UNIT
    assert parse_type("Queue (1 -[?]> 1)") == QueueOf(Arrow(UNIT, DYN, UNIT))
    t = parse_type("str -[print,yield]> str")
    assert t == Arrow(STR, SNames(("print", "yield")), STR)
    assert parse_type("1 -[]> 1") == Arrow(UNIT, SNames(()), UNIT)


def test_arrow_right_associative():
    t = parse_type("1 -[?]> 1 -[?]> bool")
    assert isinstance(t.cod, Arrow)


def test_effect_names_are_canonically_sorted():
    assert parse_type("1 -[yield,print]> 1") == parse_type("1 -[print,yield]> 1")


# ---------------------------------------------------------------------------
# terms


def test_call_sugar_raises_for_effects_and_applies_for_values():
    t = parse_term('print("a")', OPS)
    assert t == SRaise("print", StrLit("a"))
    t = parse_term('f("a")', OPS)
    assert t == App(Var("f"), StrLit("a"))
    assert parse_term("yield()", OPS) == SRaise("yield", UnitLit())


def test_explicit_raise():
    assert parse_term("raise print x", frozenset()) == SRaise("print", Var("x"))


def test_seq_desugars_to_wildcard_let():
    t = parse_term('print("a"); yield()', OPS)
    assert t == Let(SRaise("print", StrLit("a")), "_", SRaise("yield", UnitLit()))


def test_seq_is_right_associative():
    t = parse_term("x; y; z")
    assert t == Let(Var("x"), "_", Let(Var("y"), "_", Var("z")))


def test_application_left_associative():
    assert parse_term("f x y") == App(App(Var("f"), Var("x")), Var("y"))


def test_ascription_chains():
    t = parse_term("f x :: [print] :: str", OPS)
    assert t == SAscribeType(
        SAscribeEff(App(Var("f"), Var("x")), SNames(("print",))), STR
    )
    assert parse_term("x :: []") == SAscribeEff(Var("x"), SNames(()))
    assert parse_term("x :: [?]") == SAscribeEff(Var("x"), DYN)


def test_concat_binds_tighter_than_ascription():
    t = parse_term('s ++ "a" :: str')
    assert t == SAscribeType(Concat(Var("s"), StrLit("a")), STR)


def test_lambda_body_extends_right():
    t = parse_term("lambda x. f x; g x")
    assert isinstance(t, Lam)
    assert isinstance(t.body, Let)


def test_annotated_lambda():
    t = parse_term("lambda s : str. s")
    assert t == Lam("s", STR, Var("s"))


def test_match_queue():
    t = parse_term("match q with empty -> x dequeue(v, q') -> f v q'")
    assert t == CaseQueue(
        Var("q"), Var("x"), "v", "q'",
        App(App(Var("f"), Var("v")), Var("q'")),
    )


def test_enqueue_prefix_form():
    t = parse_term("enqueue (enqueue q' new) k")
    assert t == Enqueue(Enqueue(Var("q'"), Var("new")), Var("k"))


def test_handle_clause_boundaries():
    # each clause body is an application; the next clause head must not be
    # swallowed as extra arguments
    src = (
        "handle [print] str t with "
        "ret x -> f x "
        "print(s, k) -> k s "
        "yield(u, k) -> g u k"
    )
    t = parse_term(src, OPS)
    assert isinstance(t, SHandle)
    assert t.deep
    assert [c.op for c in t.clauses] == ["print", "yield"]
    assert t.clauses[0].body == App(Var("k"), Var("s"))
    assert t.clauses[1].body == App(App(Var("g"), Var("u")), Var("k"))
    assert t.ret_body == App(Var("f"), Var("x"))


def test_shallow_handle_and_dyn_annotation():
    t = parse_term("shallow-handle [?] (str -[?]> str) m with ret x -> x", OPS)
    assert not t.deep
    assert t.eff_ann == DYN
    assert t.type_ann == Arrow(STR, DYN, STR)
    assert t.clauses == ()


def test_empty_clause_boundary_in_match():
    t = parse_term("match q with empty -> lambda s. s dequeue(v, q') -> v")
    assert t.empty_body == Lam("s", None, Var("s"))


def test_a_string_is_never_a_clause_head():
    # a string literal "->" or "(" must not complete a clause head's shape
    for t in [
        App(App(Var("f"), SEmptyQueue()), StrLit("->")),
        App(App(App(Var("f"), Var("x")), StrLit("(")), Var("y")),
    ]:
        assert parse_term(pretty_term(t)) == t
    assert parse_term('f empty "->"') == App(App(Var("f"), SEmptyQueue()), StrLit("->"))


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_term("lambda . x")
    assert "1:8" in str(e.value)


def test_reject_trailing_tokens():
    with pytest.raises(ParseError):
        parse_term("x y)")


@pytest.mark.parametrize(
    "parse, src, token",
    [
        (parse_term, "(" * 200 + "x" + ")" * 200, "("),
        (parse_term, "let x = y in " * 200 + "x", "y"),
        (parse_term, "lambda x. " * 200 + "x", "lambda"),
        (parse_term, "x; " * 200 + "x", "x"),
        (parse_term, " ++ ".join(["x"] * 200), "++"),
        (parse_term, "f" + " x" * 200, "x"),
        (parse_term, "x" + " :: str" * 200, "::"),
        (parse_type, "Queue " * 200 + "str", "Queue"),
        (parse_type, "1 -[]> " * 200 + "1", "1"),
    ],
    ids=["parentheses", "let", "lambda", "seq", "concat", "app", "ascription", "queue",
         "arrow"],
)
def test_nesting_limit_names_the_token_that_goes_too_deep(parse, src, token):
    with pytest.raises(ParseError) as e:
        parse(src)
    assert str(e.value) == f"1:{e.value.col}: nested more than {MAX_DEPTH} levels deep"
    assert src[e.value.col - 1 :].startswith(token)


def test_a_chain_counts_one_level_per_link():
    # the term is one level and its first operand a second, so a flat
    # chain may have MAX_DEPTH - 2 links
    assert parse_term(" ++ ".join(["x"] * (MAX_DEPTH - 1)))
    with pytest.raises(ParseError):
        parse_term(" ++ ".join(["x"] * MAX_DEPTH))
    # each chain of n operands: the longest accepted, and the token (its
    # last occurrence) where the shortest rejected one goes too deep
    deep_left = "(" * 40 + "x" + ")" * 40  # 82 levels, under the ++ link
    chains = [
        (lambda n: " ".join(["f"] + ["x"] * (n - 1)), MAX_DEPTH - 1, "x"),
        (lambda n: "x" + " :: str" * (n - 1), MAX_DEPTH - 1, "::"),
        (lambda n: "f x" + " ++ g y" * (n - 1) + " :: str", MAX_DEPTH - 3, "::"),
        # the right operand's chain counts from its own level, not from
        # the depth its left operand reached
        (lambda n: deep_left + " ++ f" + " x" * (n - 1), MAX_DEPTH - 1, "x"),
    ]
    for chain, longest, token in chains:
        assert parse_term(chain(longest))
        src = chain(longest + 1)
        with pytest.raises(ParseError) as e:
            parse_term(src)
        assert str(e.value) == (
            f"1:{src.rindex(token) + 1}: nested more than {MAX_DEPTH} levels deep"
        )


# ---------------------------------------------------------------------------
# programs


SCHEDULER_SRC = (
    pathlib.Path(__file__).parent.parent / "corpus" / "threads_imprecise.greff"
).read_text()


def test_scheduler_program_parses():
    p = parse_program(SCHEDULER_SRC)
    assert [m.name for m in p.modules] == ["Operations", "Scheduler"]
    # module Main becomes the main block, its final define the main term
    assert isinstance(p.main_term, SAscribeType)
    assert p.main_term.ann == STR
    kinds = [type(d).__name__ for d in p.main_decls]
    assert kinds == ["SImportEffect"] * 3 + ["SImportValue", "SDefine", "SDefine"]
    sched = p.modules[1]
    loop = sched.decls[3]
    assert isinstance(loop, SDefine)
    handle = loop.body.body.cons_body
    assert isinstance(handle, SHandle) and not handle.deep
    assert [c.op for c in handle.clauses] == ["fork", "print", "yield"]


def test_explicit_main_block():
    p = parse_program(
        "module A where\neffect ping : 1 ~> 1\n"
        "main { import A.ping : 1 ~> 1\n"
        "handle [] 1 (ping()) with ret x -> (x) ping(u, k) -> (k u) }"
    )
    assert len(p.modules) == 1
    assert isinstance(p.main_term, SHandle)
    assert p.main_decls == (SImportEffect("A", "ping", UNIT, UNIT),)


def test_import_value_forms():
    p = parse_program(
        "module A where\ndefine x : bool = true\n"
        "main { import A.x : bool\nimport A.x as y : bool\nx }"
    )
    d1, d2 = p.main_decls
    assert d1 == SImportValue("A", "x", "x", BOOL)
    assert d2 == SImportValue("A", "x", "y", BOOL)


def test_program_requires_main():
    with pytest.raises(ParseError):
        parse_program("module A where\ndefine x : bool = true")


# ---------------------------------------------------------------------------
# pretty-printing round trips


def reparse(t):
    return parse_term(pretty_term(t), frozenset())


def test_round_trip_scheduler_program():
    p = parse_program(SCHEDULER_SRC)
    text = pretty_program(p)
    assert parse_program(text) == p
    # pretty output is a fixpoint
    assert pretty_program(parse_program(text)) == text


# ping applied as a value, in a define body and in the main block: each
# `(ping) x` and `f (ping) x` would read back as a raise without its parentheses
APPLIED_EFFECT_SRC = """
module M where
effect ping : 1 ~> 1
define f : (1 -[]> 1) -[]> 1 -[]> 1 = lambda g. (ping) ()
main {
  import M.ping : 1 ~> 1
  import M.f : (1 -[]> 1) -[]> 1 -[]> 1
  in
  f (ping) (enqueue (ping) ((ping) ()))
}
"""


def test_an_effect_name_applied_as_a_value_prints_back_to_the_same_tree():
    p = parse_program(APPLIED_EFFECT_SRC)
    ping = Var("ping")
    assert p.modules[0].decls[1].body.body == App(ping, UnitLit())
    assert p.main_term == App(App(Var("f"), ping), Enqueue(ping, App(ping, UnitLit())))
    text = pretty_program(p)
    assert parse_program(text) == p
    assert pretty_program(parse_program(text)) == text
    with pytest.raises(ElabError, match="effect ping used as a value"):
        elab_program(parse_program(text))
    # outside the scope of ping, the name needs no parentheses
    assert pretty_term(p.main_term) == "f ping (enqueue ping (ping ()))"
    assert pretty_term(p.main_term, frozenset({"ping"})) == (
        "f (ping) (enqueue (ping) ((ping) ()))"
    )


_type_leaf = st.sampled_from([BOOL, UNIT, STR])
_effects = st.one_of(
    st.just(DYN),
    st.lists(st.sampled_from(sorted(OPS)), max_size=3, unique=True).map(
        lambda ns: SNames(tuple(ns))
    ),
)
_types = st.recursive(
    _type_leaf,
    lambda inner: st.one_of(
        st.builds(QueueOf, inner),
        st.builds(Arrow, inner, _effects, inner),
    ),
    max_leaves=5,
)

_names = st.sampled_from(["x", "y", "f", "q'", "sch-loop", "_"])
_term_leaf = st.one_of(
    st.sampled_from([UnitLit(), BoolLit(True), BoolLit(False), SEmptyQueue()]),
    _names.map(Var),
    st.text(alphabet='ab"\\\n ', max_size=5).map(StrLit),
)


def _extend(inner):
    clause = st.builds(
        SClause, st.sampled_from(sorted(OPS)), _names, st.just("k"), inner
    )
    handle = st.builds(
        lambda deep, eff, ty, sc, rb, cs: SHandle(deep, eff, ty, sc, "x", rb, cs),
        st.booleans(), _effects, _types, inner, inner,
        st.lists(clause, max_size=2, unique_by=lambda c: c.op).map(tuple),
    )
    return st.one_of(
        st.builds(App, inner, inner),
        st.builds(Lam, _names, st.none() | _types, inner),
        st.builds(Let, inner, _names, inner),
        st.builds(If, inner, inner, inner),
        st.builds(Concat, inner, inner),
        st.builds(Enqueue, inner, inner),
        st.builds(CaseQueue, inner, inner, st.just("v"), st.just("q'"), inner),
        st.builds(SRaise, st.sampled_from(sorted(OPS)), inner),
        st.builds(SAscribeType, inner, _types),
        st.builds(SAscribeEff, inner, _effects),
        handle,
    )


_terms = st.recursive(_term_leaf, _extend, max_leaves=20)


@given(_types)
def test_round_trip_types(t):
    assert parse_type(str(t)) == t


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_round_trip_terms(t):
    assert reparse(t) == t


@settings(max_examples=100, deadline=None)
@given(_terms)
def test_pretty_is_fixpoint(t):
    text = pretty_term(t)
    assert pretty_term(parse_term(text, frozenset())) == text


# ---------------------------------------------------------------------------
# the field table


# a program with a node of every surface class
EVERY_CLASS_SRC = """
module A where
effect e : (Queue str -[e]> bool) ~> 1
define f : str -[?]> str =
  lambda s : str. let t = s ++ "x" in if true then t else (raise e (lambda q. true) :: [e]) :: str
main {
  import A.e : (Queue str -[e]> bool) ~> 1
  import A.f : str -[?]> str
  import A.f as g : str -[?]> str
  in
  handle [e] 1 (match enqueue empty (g "a") with empty -> () dequeue(h, r) -> (f h; ()))
  with ret x -> (x) e(p, k) -> (k ())
}
"""


def _nodes(node):
    """node and every node under it, through the fields FIELDS names."""
    yield node
    for name in FIELDS[type(node)]:
        v = getattr(node, name)
        for x in v if isinstance(v, tuple) else (v,):
            if x is not None:
                yield from _nodes(x)


def _surface_classes():
    """surface's own node classes, the core classes it builds terms of and
    the typesys types its parser builds."""
    return [
        cls for name, cls in vars(surface).items()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and not name.startswith("_")
    ]


def test_every_surface_class_is_in_the_field_table():
    assert sorted(FIELDS, key=lambda c: c.__name__) == sorted(
        _surface_classes(), key=lambda c: c.__name__
    )


@pytest.mark.parametrize("cls", _surface_classes(), ids=lambda c: c.__name__)
def test_the_field_table_names_every_node_field_in_order(cls):
    # every field but the position that is not a name, a flag or a list of names
    names = [
        f.name for f in dataclasses.fields(cls)
        if f.name != "pos" and f.type not in ("str", "bool", "tuple[str, ...]")
    ]
    assert list(FIELDS[cls]) == names
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for binders in FIELDS[cls].values():
        assert all(types[b] == "str" for b in binders)


def test_core_and_surface_field_tables_agree_on_the_classes_they_share():
    # the surface's entry for a core class names the same term fields with
    # the same binders, in the same order, and adds the fields it writes a
    # type in (a lambda's annotation)
    shared = [cls for cls in FIELDS if cls in core.FIELDS]
    assert len(shared) == 11
    for cls in shared:
        typed = {f.name for f in dataclasses.fields(cls) if "Type" in f.type}
        terms = [(name, binders) for name, binders in FIELDS[cls].items() if name not in typed]
        assert list(core.FIELDS[cls].items()) == terms, cls.__name__
    assert [cls.__name__ for cls in shared if len(core.FIELDS[cls]) < len(FIELDS[cls])] == ["Lam"]


def test_nodes_equal_hash_and_print_alike_at_any_position():
    nodes = list(_nodes(parse_program(EVERY_CLASS_SRC)))
    assert {type(n) for n in nodes} == set(FIELDS)
    for node in nodes:
        if type(node).__module__ == "greff.typesys":  # a type has no position
            continue
        moved = dataclasses.replace(node, pos=(99, 99))
        assert moved.pos != node.pos
        assert moved == node and hash(moved) == hash(node) and repr(moved) == repr(node)

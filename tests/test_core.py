"""Core calculus: typechecking, substitution, printing, string-literal round trip."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from greff import gen
from greff.core import (
    App,
    BoolLit,
    CaseQueue,
    Clause,
    Concat,
    EmptyQueue,
    Enqueue,
    Err,
    EffDowncast,
    EffUpcast,
    FALSE,
    Fix,
    Handle,
    If,
    Lam,
    Let,
    Raise,
    StrLit,
    TRUE,
    Term,
    TypeCheckError,
    UNIT,
    ValDowncast,
    ValUpcast,
    Var,
    WellFormednessError,
    _brief,
    pretty,
    pretty_type,
    subst,
    typecheck,
)
from greff.typesys import (
    Arrow,
    Bool,
    Concrete,
    DYN,
    EMPTY,
    OpSig,
    QueueOf,
    Signature,
    Str,
    Unit,
)
from greff.surface import tokenize

BOOL, U1, STR = Bool(), Unit(), Str()
SIG = Signature(
    {
        "print": OpSig(STR, U1),
        "yield": OpSig(U1, U1),
        "fork": OpSig(Arrow(U1, DYN, U1), U1),
    }
)
PRINT = Concrete({"print": OpSig(STR, U1)})
PY = Concrete({"print": OpSig(STR, U1), "yield": OpSig(U1, U1)})
NOPE = Concrete({"nope": OpSig(U1, U1)})  # names an undeclared operation


def check(term: Term, expected=None):
    return typecheck(SIG, {}, term, expected)


# ---------------------------------------------------------------------------
# typechecking


def test_literals():
    assert check(TRUE) == (EMPTY, BOOL)
    assert check(StrLit("hi")) == (EMPTY, STR)
    assert check(UNIT) == (EMPTY, U1)


def test_lambda_and_app():
    ident = Lam("x", BOOL, Var("x"))
    assert check(ident) == (EMPTY, Arrow(BOOL, EMPTY, BOOL))
    assert check(App(ident, TRUE)) == (EMPTY, BOOL)
    with pytest.raises(TypeCheckError):
        check(App(ident, StrLit("no")))
    with pytest.raises(TypeCheckError):
        check(App(TRUE, TRUE))


def test_raise_effect_tracked():
    r = Raise("print", STR, U1, StrLit("x"))
    assert check(r) == (PRINT, U1)


def test_raise_wellformedness():
    with pytest.raises(WellFormednessError):
        check(Raise("print", U1, U1, UNIT))
    with pytest.raises(WellFormednessError):
        check(Raise("nosuch", U1, U1, UNIT))


def test_latent_effect_restored_by_application():
    thunk = Lam("u", U1, Raise("print", STR, U1, StrLit("x")))
    assert check(thunk) == (EMPTY, Arrow(U1, PRINT, U1))
    assert check(App(thunk, UNIT)) == (PRINT, U1)


def test_effect_lub_of_operands():
    m = Raise("print", STR, U1, StrLit("a"))
    n = Raise("yield", U1, U1, UNIT)
    combined = Let(m, "_", n)
    eff, val = check(combined)
    assert set(eff.names()) == {"print", "yield"}
    assert val == U1


def test_mixed_dyn_and_concrete_has_no_lub():
    dyn_fn = Lam("u", U1, EffUpcast(EMPTY, DYN, UNIT))
    # applying a ?-latent function while also raising concretely cannot type
    bad = Let(Raise("print", STR, U1, StrLit("a")), "_", App(dyn_fn, UNIT))
    with pytest.raises(TypeCheckError):
        check(bad)


def test_err_needs_expected():
    with pytest.raises(TypeCheckError):
        check(Err())
    assert check(Err(), (EMPTY, BOOL)) == (EMPTY, BOOL)
    assert check(Err(), (DYN, STR)) == (DYN, STR)


def test_subsumption_closure():
    # a term typed at ({print}, bool) also checks at wider expectations
    t = Let(Raise("print", STR, U1, StrLit("a")), "_", TRUE)
    eff, val = check(t)
    assert eff == PRINT and val == BOOL
    # wider expectations are accepted; the minimal typing is still reported
    assert check(t, (PY, BOOL)) == (PRINT, BOOL)
    with pytest.raises(TypeCheckError):
        check(t, (EMPTY, BOOL))
    with pytest.raises(TypeCheckError):
        check(t, (DYN, BOOL))  # concrete is not <=-below ?


def test_handle_discharges_effect():
    body = Raise("print", STR, U1, StrLit("a"))
    h = Handle(
        scrutinee=body,
        ret_var="x",
        ret_body=TRUE,
        clauses=(Clause("print", "s", "k", App(Var("k"), UNIT), STR, U1),),
        result_eff=EMPTY,
        result_type=BOOL,
    )
    assert check(h) == (EMPTY, BOOL)


def test_handle_unhandled_must_appear_in_result():
    body = Raise("yield", U1, U1, UNIT)
    h = Handle(body, "x", TRUE, (), EMPTY, BOOL)
    with pytest.raises(TypeCheckError):
        check(h)
    h_ok = Handle(body, "x", TRUE, (), Concrete({"yield": OpSig(U1, U1)}), BOOL)
    assert check(h_ok) == (Concrete({"yield": OpSig(U1, U1)}), BOOL)


def test_handle_clause_typing_must_match_scrutinee():
    body = Raise("print", STR, U1, StrLit("a"))
    h = Handle(
        body, "x", TRUE,
        (Clause("print", "s", "k", TRUE, U1, U1),),  # wrong request type
        EMPTY, BOOL,
    )
    with pytest.raises(TypeCheckError):
        check(h)


def test_shallow_clause_continuation_types_at_scrutinee():
    # shallow: k : resp -[scrutinee eff]> scrutinee type
    body = Let(Raise("print", STR, U1, StrLit("a")), "_", StrLit("done"))
    h = Handle(
        body, "x", Var("x"),
        (Clause("print", "s", "k", App(Var("k"), UNIT), STR, U1),),
        PRINT, STR, deep=False,
    )
    # the resumed continuation may raise print again, so result must admit it
    assert check(h) == (PRINT, STR)
    h_bad = Handle(
        body, "x", Var("x"),
        (Clause("print", "s", "k", App(Var("k"), UNIT), STR, U1),),
        EMPTY, STR, deep=False,
    )
    with pytest.raises(TypeCheckError):
        check(h_bad)


def test_fix_types_at_annotation():
    loop = Fix("f", Arrow(U1, EMPTY, BOOL), Lam("u", U1, App(Var("f"), Var("u"))))
    assert check(loop) == (EMPTY, Arrow(U1, EMPTY, BOOL))
    bad = Fix("f", Arrow(U1, EMPTY, BOOL), Lam("u", U1, StrLit("no")))
    with pytest.raises(TypeCheckError):
        check(bad)


def test_cast_endpoints_must_be_precision_related():
    with pytest.raises(TypeCheckError):
        ValUpcast(BOOL, STR, TRUE)
    with pytest.raises(TypeCheckError):
        EffUpcast(PY, PRINT, UNIT)
    up = EffUpcast(PRINT, DYN, Raise("print", STR, U1, StrLit("a")))
    assert check(up) == (DYN, U1)
    down = EffDowncast(PRINT, DYN, up)
    assert check(down) == (PRINT, U1)


def _bare(clause):
    """A handler over () with the one clause."""
    return Handle(UNIT, "x", TRUE, (clause,), EMPTY, BOOL)


def _unrelated(cast, lo, hi):
    return lambda: cast(lo, hi, UNIT)


# ill-typed core terms, each with the exception class that typecheck or
# the cast constructor raises for it
ILL_TYPED = {
    "raise-undeclared": (lambda: Raise("nosuch", U1, U1, UNIT), WellFormednessError),
    "raise-not-erasing": (lambda: Raise("print", U1, U1, UNIT), WellFormednessError),
    "clause-undeclared": (
        lambda: _bare(Clause("nosuch", "p", "k", TRUE, U1, U1)), WellFormednessError,
    ),
    "clause-not-erasing": (
        lambda: _bare(Clause("print", "p", "k", TRUE, U1, U1)), WellFormednessError,
    ),
    "clause-undeclared-inside": (
        lambda: _bare(Clause("fork", "p", "k", TRUE, Arrow(U1, NOPE, U1), U1)),
        WellFormednessError,
    ),
    "unhandled-missing": (
        lambda: Handle(Raise("yield", U1, U1, UNIT), "x", TRUE, (), PRINT, BOOL),
        TypeCheckError,
    ),
    "unhandled-misfit": (
        lambda: Handle(
            Raise("fork", Arrow(U1, PRINT, U1), U1,
                  Lam("u", U1, Raise("print", STR, U1, StrLit("a")))),
            "x", TRUE, (), Concrete({"fork": OpSig(Arrow(U1, EMPTY, U1), U1)}), BOOL,
        ),
        TypeCheckError,
    ),
    "fix-of-non-lambda": (lambda: Fix("f", Arrow(U1, EMPTY, U1), Var("f")), TypeCheckError),
    "value-cast-of-rows": (lambda: ValUpcast(PRINT, DYN, UNIT), TypeCheckError),
    "effect-cast-of-types": (lambda: EffUpcast(BOOL, BOOL, TRUE), TypeCheckError),
    **{
        f"{cast.__name__}-unrelated": (_unrelated(cast, lo, hi), TypeCheckError)
        for cast, lo, hi in (
            (ValUpcast, BOOL, STR), (ValDowncast, BOOL, STR),
            (EffUpcast, PY, PRINT), (EffDowncast, PY, PRINT),
        )
    },
}


@pytest.mark.parametrize("build, exc", ILL_TYPED.values(), ids=list(ILL_TYPED))
def test_ill_typed_core_terms_are_refused(build, exc):
    with pytest.raises(TypeCheckError) as e:
        check(build())
    assert type(e.value) is exc


def test_casts_of_either_direction_are_distinct_dataclasses():
    a, b = Arrow(U1, PRINT, U1), Arrow(U1, DYN, U1)
    f = Var("f")
    assert ValUpcast(a, b, f) != ValDowncast(a, b, f)
    assert ValUpcast(a, b, f) == ValUpcast(a, b, f)
    assert repr(EffDowncast(PRINT, DYN, UNIT)).startswith("EffDowncast(")
    c = dataclasses.replace(EffDowncast(PRINT, DYN, UNIT), body=TRUE)
    assert type(c) is EffDowncast and c.body == TRUE
    with pytest.raises(TypeCheckError):
        dataclasses.replace(c, hi=PY)


def test_value_cast_typing():
    f = Lam("u", U1, Raise("print", STR, U1, StrLit("a")))
    a = Arrow(U1, PRINT, U1)
    b = Arrow(U1, DYN, U1)
    assert check(ValUpcast(a, b, f)) == (EMPTY, b)
    assert check(ValDowncast(a, b, ValUpcast(a, b, f))) == (EMPTY, a)
    with pytest.raises(TypeCheckError):
        check(ValUpcast(b, b, f))  # f's type is not <= b (? is not above {print})


def test_queue_rules():
    q = Enqueue(EmptyQueue(BOOL), TRUE)
    assert check(q) == (EMPTY, QueueOf(BOOL))
    m = CaseQueue(q, FALSE, "x", "rest", Var("x"))
    assert check(m) == (EMPTY, BOOL)
    with pytest.raises(TypeCheckError):
        check(Enqueue(EmptyQueue(BOOL), StrLit("no")))


def test_concat():
    assert check(Concat(StrLit("a"), StrLit("b"))) == (EMPTY, STR)
    with pytest.raises(TypeCheckError):
        check(Concat(StrLit("a"), TRUE))


# ---------------------------------------------------------------------------
# substitution


def test_subst_shadowing():
    t = Lam("x", BOOL, Var("x"))
    assert subst(t, "x", TRUE) == t
    t2 = Lam("y", BOOL, Var("x"))
    assert subst(t2, "x", TRUE) == Lam("y", BOOL, TRUE)


def test_subst_let():
    t = Let(Var("x"), "x", Var("x"))
    out = subst(t, "x", TRUE)
    assert out == Let(TRUE, "x", Var("x"))


X, V = Var("x"), StrLit("v")
ARROW = Arrow(STR, EMPTY, STR)


def _clause(payload_var, resume_var, body):
    return Clause("print", payload_var, resume_var, body, STR, U1)


def _handle(scrutinee, ret_var, ret_body, body):
    return Handle(scrutinee, ret_var, ret_body, (body,), EMPTY, STR)


# each binder of x, as (term, the child x is bound over, the substitution
# of V for x in the term): x stays in that child and is replaced elsewhere
BINDERS = {
    "lam": (App(Lam("x", STR, X), X), lambda t: t.fn.body, App(Lam("x", STR, X), V)),
    "fix": (
        App(Fix("x", ARROW, Lam("u", STR, X)), X),
        lambda t: t.fn.body,
        App(Fix("x", ARROW, Lam("u", STR, X)), V),
    ),
    "let": (Let(X, "x", X), lambda t: t.body, Let(V, "x", X)),
    "caseq-head": (
        CaseQueue(X, X, "x", "q", X),
        lambda t: t.cons_body,
        CaseQueue(V, V, "x", "q", X),
    ),
    "caseq-rest": (
        CaseQueue(X, X, "h", "x", X),
        lambda t: t.cons_body,
        CaseQueue(V, V, "h", "x", X),
    ),
    "handle-return": (
        _handle(X, "x", X, _clause("p", "k", X)),
        lambda t: t.ret_body,
        _handle(V, "x", X, _clause("p", "k", V)),
    ),
    "clause-payload": (
        _handle(X, "r", X, _clause("x", "k", X)),
        lambda t: t.clauses[0].body,
        _handle(V, "r", V, _clause("x", "k", X)),
    ),
    "clause-resume": (
        _handle(X, "r", X, _clause("p", "x", X)),
        lambda t: t.clauses[0].body,
        _handle(V, "r", V, _clause("p", "x", X)),
    ),
}


@pytest.mark.parametrize("term, bound_child, want", BINDERS.values(), ids=list(BINDERS))
def test_subst_stops_at_each_binder(term, bound_child, want):
    out = subst(term, "x", V)
    assert out == want
    assert bound_child(out) is bound_child(term)


def test_subst_of_an_absent_name_is_the_same_object():
    for seed in range(50):
        term = gen.gen_core_program(seed)[1]
        assert subst(term, "absent", V) is term


# ---------------------------------------------------------------------------
# printer: every term form at its exact `greff elab` spelling


SAMPLE_TERMS = [
    (TRUE, "true"),
    (UNIT, "unit"),
    (StrLit('tricky "quoted" \\ string'), r'(str "tricky \"quoted\" \\ string")'),
    (Lam("x", BOOL, Var("x")), "(lam (x bool) (var x))"),
    (
        Fix("f", Arrow(U1, EMPTY, BOOL), Lam("u", U1, App(Var("f"), Var("u")))),
        "(fix f (arrow unit (eff) bool) (lam (u unit) (app (var f) (var u))))",
    ),
    (If(TRUE, StrLit("a"), StrLit("b")), '(if true (str "a") (str "b"))'),
    (Let(UNIT, "u", Var("u")), "(let u unit (var u))"),
    (Concat(StrLit("a"), StrLit("b")), '(concat (str "a") (str "b"))'),
    (
        Enqueue(EmptyQueue(Arrow(U1, DYN, U1)), Lam("u", U1, Var("u"))),
        "(enq (emptyq (arrow unit dyn unit)) (lam (u unit) (var u)))",
    ),
    (
        CaseQueue(EmptyQueue(BOOL), TRUE, "x", "q", Var("x")),
        "(caseq (emptyq bool) true (x q (var x)))",
    ),
    (Raise("print", STR, U1, StrLit("s")), '(raise print str unit (str "s"))'),
    (
        Handle(
            Raise("print", STR, U1, StrLit("a")),
            "x", Var("x"),
            (Clause("print", "s", "k", App(Var("k"), UNIT), STR, U1),),
            EMPTY, U1, deep=False,
        ),
        '(handle shallow (raise print str unit (str "a")) (ret x (var x)) '
        "((print s k str unit (app (var k) unit))) (eff) unit)",
    ),
    (Err(), "err"),
    (
        ValUpcast(Arrow(U1, PRINT, U1), Arrow(U1, DYN, U1), Lam("u", U1, UNIT)),
        "(vup (arrow unit (eff (print str unit)) unit) (arrow unit dyn unit) (lam (u unit) unit))",
    ),
    (
        EffDowncast(PRINT, DYN, EffUpcast(PRINT, DYN, Raise("print", STR, U1, StrLit("a")))),
        "(edn (eff (print str unit)) dyn "
        '(eup (eff (print str unit)) dyn (raise print str unit (str "a"))))',
    ),
]


@pytest.mark.parametrize("term, printed", SAMPLE_TERMS, ids=range(len(SAMPLE_TERMS)))
def test_pretty_prints_exact_form(term, printed):
    assert pretty(term) == printed


DEPTH = 10_000


def _deep_concat() -> tuple[Term, str]:
    t: Term = StrLit("a")
    for _ in range(DEPTH):
        t = Concat(t, StrLit("b"))
    return t, "(concat " * DEPTH + '(str "a")' + ' (str "b"))' * DEPTH


def _deep_let() -> tuple[Term, str]:
    t: Term = StrLit("a")
    for i in range(DEPTH):
        t = Let(StrLit("b"), f"x{i}", t)
    heads = "".join(f'(let x{i} (str "b") ' for i in reversed(range(DEPTH)))
    return t, heads + '(str "a")' + ")" * DEPTH


@pytest.mark.parametrize("build", [_deep_concat, _deep_let], ids=["concat", "let"])
def test_a_term_nested_10000_deep_prints_and_typechecks_or_is_refused(build):
    # built without the parser, so no nesting limit applies
    term, printed = build()
    assert pretty(term) == printed
    assert _brief(term) == printed[:57] + "..."
    try:
        assert typecheck(SIG, {}, term) == (EMPTY, STR)
    except TypeCheckError:
        pass


def test_a_limited_print_stops_past_the_limit():
    term = _deep_concat()[0]
    out = pretty(term, 60)
    assert 60 < len(out) < 80 and pretty(term).startswith(out)
    assert pretty(StrLit("ab"), 60) == pretty(StrLit("ab"))


@given(st.text(max_size=40))
def test_string_literal_roundtrip(s):
    # the surface lexer reads the same `\\` and `\"` escapes the printer writes
    toks = tokenize(pretty(StrLit(s)))
    assert [(t.kind, t.text) for t in toks] == [
        ("punct", "("), ("ident", "str"), ("string", s), ("punct", ")"), ("eof", ""),
    ]


def test_pretty_type_forms():
    assert pretty_type(Arrow(U1, PY, STR)) == (
        "(arrow unit (eff (print str unit) (yield unit unit)) str)"
    )

"""Direct-style evaluator: unit rules, casts, and the scheduler corpus."""

import pathlib

import pytest

from greff import core, eval as ev, reference
from greff.core import (
    App,
    BoolLit,
    CaseQueue,
    Clause,
    Concat,
    EmptyQueue,
    Enqueue,
    Err,
    Fix,
    Handle,
    If,
    Lam,
    Let,
    Raise,
    StrLit,
    UnitLit,
    ValDowncast,
    ValUpcast,
    EffDowncast,
    EffUpcast,
    Var,
)
from greff.elaborate import elab_source
from greff.eval import Error, FuelExhausted, UncaughtRaise, Value
from greff.reference import evaluate
from greff.typesys import (
    DYN,
    EMPTY,
    Arrow,
    Bool,
    Concrete,
    OpSig,
    QueueOf,
    Signature,
    Str,
    Unit,
)

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

BOOL, UNIT_T, STR = Bool(), Unit(), Str()
SIG0 = Signature({})
PING = Signature({"ping": OpSig(UNIT_T, UNIT_T)})
ASK = Signature({"ask": OpSig(UNIT_T, STR)})


def run(term, sig=SIG0, fuel=10_000):
    return evaluate(sig, term, fuel)


# ---------------------------------------------------------------------------
# Plain rules


def test_literals_and_beta():
    assert run(BoolLit(True)) == Value(BoolLit(True))
    assert run(App(Lam("x", BOOL, Var("x")), BoolLit(False))) == Value(BoolLit(False))


def test_let_if_concat():
    t = Let(StrLit("a"), "x", Concat(Var("x"), StrLit("b")))
    assert run(t) == Value(StrLit("ab"))
    assert run(If(BoolLit(True), StrLit("t"), Err())) == Value(StrLit("t"))
    assert run(If(BoolLit(False), Err(), StrLit("f"))) == Value(StrLit("f"))


def test_error_aborts():
    assert run(Let(Err(), "x", BoolLit(True))) == Error()
    assert run(Concat(StrLit("a"), Err())) == Error()


def test_queue_fifo():
    q = Enqueue(Enqueue(EmptyQueue(STR), StrLit("a")), StrLit("b"))
    t = CaseQueue(q, StrLit("nope"), "h", "r", Var("h"))
    assert run(t) == Value(StrLit("a"))
    rest = CaseQueue(
        q, StrLit("?"), "h", "r", CaseQueue(Var("r"), StrLit("gone"), "h2", "r2", Var("h2"))
    )
    assert run(rest) == Value(StrLit("b"))
    assert run(CaseQueue(EmptyQueue(STR), StrLit("empty"), "h", "r", Var("h"))) == Value(
        StrLit("empty")
    )


def test_fix_unrolls():
    # fold a queue of strings into one string
    fold = Fix(
        "f",
        Arrow(QueueOf(STR), EMPTY, STR),
        Lam(
            "q",
            QueueOf(STR),
            CaseQueue(
                Var("q"),
                StrLit(""),
                "h",
                "r",
                Concat(Var("h"), App(Var("f"), Var("r"))),
            ),
        ),
    )
    q = Enqueue(Enqueue(Enqueue(EmptyQueue(STR), StrLit("x")), StrLit("y")), StrLit("z"))
    assert run(App(fold, q)) == Value(StrLit("xyz"))


def test_fuel_exhaustion():
    loop = Fix("f", Arrow(UNIT_T, EMPTY, UNIT_T), Lam("u", UNIT_T, App(Var("f"), Var("u"))))
    assert run(App(loop, UnitLit()), fuel=500) == FuelExhausted(500)


def test_host_stack_exhaustion_is_not_fuel():
    # 120,000 nested ++ outrun the host stack long before the fuel; the
    # machine, whose stack is on the heap, runs the same term to a value
    t = StrLit("a")
    for _ in range(120_000):
        t = Concat(t, StrLit("a"))
    got = run(t, fuel=10**9)
    assert isinstance(got, reference.DepthExhausted) and 0 < got.steps < 10**9
    assert ev.run(SIG0, t, fuel=10**9) == ev.RunResult(Value(StrLit("a" * 120_001)), 480_002)


def test_uncaught_raise():
    t = Raise("ping", UNIT_T, UNIT_T, UnitLit())
    assert run(t, PING) == UncaughtRaise("ping")


# ---------------------------------------------------------------------------
# Handlers


def _ping_handler(body, deep=True, result=BOOL):
    return Handle(
        body,
        "x",
        BoolLit(False),
        (Clause("ping", "p", "k", BoolLit(True), UNIT_T, UNIT_T),),
        EMPTY,
        result,
        deep,
    )


def test_handle_value_runs_return_clause():
    assert run(_ping_handler(UnitLit()), PING) == Value(BoolLit(False))


def test_handle_catches_raise():
    assert run(_ping_handler(Raise("ping", UNIT_T, UNIT_T, UnitLit())), PING) == Value(
        BoolLit(True)
    )


def test_deep_handler_resumes_and_recatches():
    # ask twice; handler answers "a" then keeps handling after resuming
    body = Concat(
        Raise("ask", UNIT_T, STR, UnitLit()), Raise("ask", UNIT_T, STR, UnitLit())
    )
    h = Handle(
        body,
        "x",
        Var("x"),
        (Clause("ask", "p", "k", App(Var("k"), StrLit("a")), UNIT_T, STR),),
        EMPTY,
        STR,
        deep=True,
    )
    assert run(h, ASK) == Value(StrLit("aa"))


def test_shallow_handler_resumes_without_recatching():
    body = Concat(
        Raise("ask", UNIT_T, STR, UnitLit()), Raise("ask", UNIT_T, STR, UnitLit())
    )
    h = Handle(
        body,
        "x",
        Var("x"),
        (Clause("ask", "p", "k", App(Var("k"), StrLit("a")), UNIT_T, STR),),
        EMPTY,
        STR,
        deep=False,
    )
    assert run(h, ASK) == UncaughtRaise("ask")


def test_unhandled_op_forwards_and_handler_survives():
    # outer catches ask; inner only handles ping but must stay installed
    # around the resumption so the later ping is still caught
    inner_body = Let(
        Raise("ask", UNIT_T, STR, UnitLit()),
        "s",
        Concat(Var("s"), If(Raise("ping", UNIT_T, UNIT_T, UnitLit()), StrLit("?"), StrLit("!"))),
    )
    sig = Signature({"ask": OpSig(UNIT_T, STR), "ping": OpSig(UNIT_T, BOOL)})
    inner = Handle(
        inner_body,
        "x",
        Var("x"),
        (Clause("ping", "p", "k", App(Var("k"), BoolLit(False)), UNIT_T, BOOL),),
        Concrete({"ask": OpSig(UNIT_T, STR)}),
        STR,
        deep=True,
    )
    outer = Handle(
        inner,
        "x",
        Var("x"),
        (Clause("ask", "p", "k", App(Var("k"), StrLit("a")), UNIT_T, STR),),
        EMPTY,
        STR,
        deep=True,
    )
    assert run(outer, sig) == Value(StrLit("a!"))


def test_abortive_clause_discards_continuation():
    body = Concat(StrLit("x"), Raise("ask", UNIT_T, STR, UnitLit()))
    h = Handle(
        body,
        "x",
        Var("x"),
        (Clause("ask", "p", "k", StrLit("aborted"), UNIT_T, STR),),
        EMPTY,
        STR,
        deep=True,
    )
    assert run(h, ASK) == Value(StrLit("aborted"))


# ---------------------------------------------------------------------------
# Casts


def test_effect_casts_invisible_to_values():
    t = EffDowncast(EMPTY, DYN, EffUpcast(EMPTY, DYN, StrLit("v")))
    assert run(t) == Value(StrLit("v"))


def test_raise_crosses_matching_downcast():
    row = Concrete({"ping": OpSig(UNIT_T, UNIT_T)})
    t = _ping_handler(EffDowncast(row, DYN, EffUpcast(row, DYN, Raise("ping", UNIT_T, UNIT_T, UnitLit()))))
    assert run(t, PING) == Value(BoolLit(True))


def test_bad_downcast_traps():
    row = Concrete({"ask": OpSig(UNIT_T, STR)})
    sig = Signature({"ask": OpSig(UNIT_T, STR), "ping": OpSig(UNIT_T, UNIT_T)})
    raisin = EffUpcast(Concrete({"ping": OpSig(UNIT_T, UNIT_T)}), DYN, Raise("ping", UNIT_T, UNIT_T, UnitLit()))
    assert run(EffDowncast(row, DYN, raisin), sig) == Error()


def test_fun_proxy_casts_at_application():
    # identity on str upcast into a dynamic-effect arrow, then applied
    ident = Lam("s", STR, Var("s"))
    lo = Arrow(STR, EMPTY, STR)
    hi = Arrow(STR, DYN, STR)
    t = App(ValUpcast(lo, hi, ident), StrLit("ok"))
    assert run(t) == Value(StrLit("ok"))


def test_value_cast_retraction_on_queues():
    q = Enqueue(EmptyQueue(Arrow(STR, EMPTY, STR)), Lam("s", STR, Var("s")))
    lo = QueueOf(Arrow(STR, EMPTY, STR))
    hi = QueueOf(Arrow(STR, DYN, STR))
    back = ValDowncast(lo, hi, ValUpcast(lo, hi, q))
    t = CaseQueue(back, StrLit("empty"), "f", "r", App(Var("f"), StrLit("q")))
    assert run(t) == Value(StrLit("q"))


def test_proxy_effect_downcast_traps_leaked_raise():
    # a chattering function downcast to a pure arrow errors when called
    chatty = Lam("u", UNIT_T, Raise("ping", UNIT_T, UNIT_T, UnitLit()))
    lo = Arrow(UNIT_T, EMPTY, UNIT_T)
    hi = Arrow(UNIT_T, DYN, UNIT_T)
    dyn_chatty = ValUpcast(Arrow(UNIT_T, Concrete({"ping": OpSig(UNIT_T, UNIT_T)}), UNIT_T), hi, chatty)
    t = App(ValDowncast(lo, hi, dyn_chatty), UnitLit())
    assert run(t, PING) == Error()


# ---------------------------------------------------------------------------
# The scheduler corpus


@pytest.mark.parametrize("name", ["threads_imprecise", "threads_precise"])
def test_scheduler_runs_to_1a2b(name):
    res = elab_source((CORPUS / f"{name}.greff").read_text())
    assert evaluate(res.sig, res.term, fuel=100_000) == Value(StrLit("1a2b"))

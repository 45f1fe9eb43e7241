"""Frame machine: rule coverage, apartness, reification, corpus differential."""

import collections
import pathlib
import re

import pytest

from greff import core, eval as ev, gen, reference
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
from greff.elaborate import ElabError, elab_source
from greff.eval import (
    NO_ENV,
    Ctx,
    EffCastFrame,
    Error,
    FuelExhausted,
    MachineState,
    StuckState,
    UncaughtRaise,
    ValCastFrame,
    Value,
    apart,
    reify,
    run,
)
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

from programs import capture_walk_source, cast_loop_source, queue_walk_source, resumption_cases

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

BOOL, UNIT_T, STR = Bool(), Unit(), Str()
SIG0 = Signature({})
PING = Signature({"ping": OpSig(UNIT_T, UNIT_T)})
ASK = Signature({"ask": OpSig(UNIT_T, STR)})
PING_ROW = Concrete({"ping": OpSig(UNIT_T, UNIT_T)})


def steps_of(term, sig=SIG0, fuel=10_000):
    return run(sig, term, fuel)


# ---------------------------------------------------------------------------
# Single rules


def test_beta_in_one_application():
    res = steps_of(App(Lam("x", BOOL, Var("x")), BoolLit(True)))
    assert res.outcome == Value(BoolLit(True))


def test_if_picks_branches():
    assert run(SIG0, If(BoolLit(True), BoolLit(False), Err())).outcome == Value(BoolLit(False))
    assert run(SIG0, If(BoolLit(False), Err(), BoolLit(True))).outcome == Value(BoolLit(True))


def test_err_discards_everything():
    t = Let(Concat(StrLit("a"), Err()), "x", BoolLit(True))
    assert run(SIG0, t).outcome == Error()


def test_handle_value_runs_return_clause():
    h = Handle(StrLit("v"), "x", Concat(Var("x"), StrLit("!")), (), EMPTY, STR)
    assert run(SIG0, h).outcome == Value(StrLit("v!"))


def test_effect_casts_dissolve_on_values():
    t = EffDowncast(EMPTY, DYN, EffUpcast(EMPTY, DYN, StrLit("v")))
    assert run(SIG0, t).outcome == Value(StrLit("v"))


def test_bad_downcast_steps_to_error():
    raisin = EffUpcast(PING_ROW, DYN, Raise("ping", UNIT_T, UNIT_T, UnitLit()))
    sig = Signature({"ping": OpSig(UNIT_T, UNIT_T), "ask": OpSig(UNIT_T, STR)})
    t = EffDowncast(Concrete({"ask": OpSig(UNIT_T, STR)}), DYN, raisin)
    assert run(sig, t).outcome == Error()


def test_uncaught_raise_outcome():
    assert run(PING, Raise("ping", UNIT_T, UNIT_T, UnitLit())).outcome == UncaughtRaise("ping")


def test_fuel_exhausted_reports_steps():
    loop = Fix("f", Arrow(UNIT_T, EMPTY, UNIT_T), Lam("u", UNIT_T, App(Var("f"), Var("u"))))
    out = run(SIG0, App(loop, UnitLit()), fuel=100).outcome
    assert out == FuelExhausted(100)


def test_open_term_is_stuck():
    with pytest.raises(StuckState):
        run(SIG0, Var("ghost"))


# ---------------------------------------------------------------------------
# Handler dispatch through the stack


def _ask_twice():
    return Concat(Raise("ask", UNIT_T, STR, UnitLit()), Raise("ask", UNIT_T, STR, UnitLit()))


def _ask_handler(body, deep):
    return Handle(
        body,
        "x",
        Var("x"),
        (Clause("ask", "p", "k", App(Var("k"), StrLit("a")), UNIT_T, STR),),
        EMPTY,
        STR,
        deep,
    )


def test_deep_handler_recatches():
    assert run(ASK, _ask_handler(_ask_twice(), deep=True)).outcome == Value(StrLit("aa"))


def test_shallow_handler_does_not_recatch():
    assert run(ASK, _ask_handler(_ask_twice(), deep=False)).outcome == UncaughtRaise("ask")


def test_forwarded_op_keeps_inner_handler_installed():
    sig = Signature({"ask": OpSig(UNIT_T, STR), "ping": OpSig(UNIT_T, BOOL)})
    inner_body = Let(
        Raise("ask", UNIT_T, STR, UnitLit()),
        "s",
        Concat(Var("s"), If(Raise("ping", UNIT_T, UNIT_T, UnitLit()), StrLit("?"), StrLit("!"))),
    )
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
    assert run(sig, outer).outcome == Value(StrLit("a!"))


def test_raise_crossing_upcast_then_downcast_is_caught():
    inner = EffDowncast(
        PING_ROW, DYN, EffUpcast(PING_ROW, DYN, Raise("ping", UNIT_T, UNIT_T, UnitLit()))
    )
    h = Handle(
        inner,
        "x",
        BoolLit(False),
        (Clause("ping", "p", "k", BoolLit(True), UNIT_T, UNIT_T),),
        EMPTY,
        BOOL,
        deep=True,
    )
    assert run(PING, h).outcome == Value(BoolLit(True))


_TICK = Concrete({"tick": OpSig(UNIT_T, UNIT_T)})
_GET = Signature({
    "get": OpSig(UNIT_T, Arrow(UNIT_T, DYN, STR)),
    "tick": OpSig(UNIT_T, UNIT_T),
    "other": OpSig(UNIT_T, UNIT_T),
})


@pytest.mark.parametrize("op, outcome, steps", [
    ("tick", Value(StrLit("tick")), 42),
    ("other", Error(), 28),
], ids=["tick", "other"])
def test_a_raise_across_two_typings_casts_its_response(op, outcome, steps):
    # get is raised at 1 ~> (1 -[tick]> str) and crosses an effect upcast
    # to ?, where it is typed 1 ~> (1 -[?]> str); the handler's answer
    # comes back through a downcast to 1 -[tick]> str, which traps a
    # function that raises anything but tick
    precise = Arrow(UNIT_T, _TICK, STR)
    row = Concrete({"get": OpSig(UNIT_T, precise), "tick": OpSig(UNIT_T, UNIT_T)})
    body = EffUpcast(row, DYN, App(Raise("get", UNIT_T, precise, UnitLit()), UnitLit()))
    answer = Lam("_", UNIT_T, EffUpcast(
        Concrete({op: OpSig(UNIT_T, UNIT_T)}), DYN,
        Let(Raise(op, UNIT_T, UNIT_T, UnitLit()), "_", StrLit(op)),
    ))
    resume = App(Var("k"), UnitLit())
    h = Handle(body, "x", Var("x"), (
        Clause("get", "p", "k", App(Var("k"), answer), UNIT_T, Arrow(UNIT_T, DYN, STR)),
        Clause("tick", "p", "k", resume, UNIT_T, UNIT_T),
        Clause("other", "p", "k", resume, UNIT_T, UNIT_T),
    ), EMPTY, STR)
    core.typecheck(_GET, {}, h)
    rules, failures, sampled = [], {}, [0]

    def sample(state):  # reads back the state after each step
        sampled[0] += 1
        try:
            core.typecheck(_GET, {}, reify(state))
        except core.TypeCheckError as e:
            kinds = (FORK_UNDER_NARROWER_ROW, ERR_SCRUTINEE)
            failures[sampled[0]] = next((k for k in kinds if k in str(e)), str(e))

    got = run(
        _GET, h, trace=lambda rule, detail: rules.append(rule), sample=sample, sample_every=1
    )
    assert (got.outcome, got.steps) == (outcome, steps)
    assert reference.evaluate(_GET, h) == outcome
    fired = [r for r in rules if r in ("val-downcast", "fun-downcast")]
    assert fired[:2] == ["val-downcast", "fun-downcast"]
    # the states that fail read-back (ROADMAP item 9), by step: just after
    # get crosses the upcast, it carries the ? side's typing under the
    # precise row, as raise fork does in the corpus; and the other case's
    # err, once the downcast traps, is a handler's scrutinee
    pinned = {8: FORK_UNDER_NARROWER_ROW}
    assert failures == (pinned if op == "tick" else {**pinned, 27: ERR_SCRUTINEE})


def test_fun_proxies_fire_at_application():
    ident = Lam("s", STR, Var("s"))
    lo = Arrow(STR, EMPTY, STR)
    hi = Arrow(STR, DYN, STR)
    up_then_down = ValDowncast(lo, hi, ValUpcast(lo, hi, ident))
    assert run(SIG0, App(up_then_down, StrLit("ok"))).outcome == Value(StrLit("ok"))


def test_queue_casts_distribute():
    q = Enqueue(EmptyQueue(Arrow(STR, EMPTY, STR)), Lam("s", STR, Var("s")))
    lo = QueueOf(Arrow(STR, EMPTY, STR))
    hi = QueueOf(Arrow(STR, DYN, STR))
    t = CaseQueue(
        ValDowncast(lo, hi, ValUpcast(lo, hi, q)),
        StrLit("empty"),
        "f",
        "r",
        App(Var("f"), StrLit("q")),
    )
    assert run(SIG0, t).outcome == Value(StrLit("q"))


# ---------------------------------------------------------------------------
# apart


def test_apart_on_empty_sequence():
    assert apart(PING, (), "ping")


def test_apart_blocked_by_handler_clause():
    h = Handle(
        UnitLit(), "x", Var("x"),
        (Clause("ping", "p", "k", UnitLit(), UNIT_T, UNIT_T),),
        EMPTY, UNIT_T,
    )
    assert not apart(PING, (Ctx(h, NO_ENV),), "ping")
    assert apart(PING, (Ctx(h, NO_ENV),), "ask")


def test_apart_blocked_by_effect_casts():
    assert not apart(PING, (EffCastFrame(True, PING_ROW, DYN),), "ping")
    assert not apart(PING, (EffCastFrame(False, PING_ROW, DYN),), "ping")
    assert not apart(PING, (EffCastFrame(False, EMPTY, DYN),), "ping")
    assert apart(PING, (EffCastFrame(False, EMPTY, PING_ROW),), "ask")
    assert apart(PING, (Ctx(Let(UnitLit(), "x", Var("x")), NO_ENV),), "ping")


def test_raising_captured_frames_stay_apart():
    # walk a raise through a let and an unrelated handler; every captured
    # frame must satisfy its apartness rule
    sig = Signature({"ask": OpSig(UNIT_T, STR), "ping": OpSig(UNIT_T, BOOL)})
    inner = Handle(
        Let(Raise("ask", UNIT_T, STR, UnitLit()), "s", Var("s")),
        "x",
        Var("x"),
        (Clause("ping", "p", "k", App(Var("k"), BoolLit(True)), UNIT_T, BOOL),),
        Concrete({"ask": OpSig(UNIT_T, STR)}),
        STR,
    )
    outer = _ask_handler(inner, deep=True)
    seen = []

    def sample(state):
        if isinstance(state.control, ev.Raising):
            assert apart(sig, state.control.captured, state.control.op)
            seen.append(state.control.op)

    assert run(sig, outer, sample=sample, sample_every=1).outcome == Value(StrLit("a"))
    assert "ask" in seen


# ---------------------------------------------------------------------------
# Reification


def test_reify_roundtrips_initial_state():
    t = Let(StrLit("a"), "x", Concat(Var("x"), StrLit("b")))
    assert reify(MachineState((), Ctx(t, NO_ENV))) == t


Y = StrLit("a")
# each compound node that waits in a Ctx frame, with y free in its first
# operand and in a later field, and rebound by a later field's binder
WAITING_NODES = {
    "App": App(Lam("x", STR, Var("y")), App(Lam("y", STR, Var("y")), Var("y"))),
    "Let": Let(Var("y"), "y", Concat(Var("y"), StrLit("b"))),
    "If": If(Let(Var("y"), "x", BoolLit(True)), Var("y"), Let(StrLit("b"), "y", Var("y"))),
    "Concat": Concat(Var("y"), Concat(Var("y"), Let(StrLit("b"), "y", Var("y")))),
    "Enqueue": Enqueue(Let(Var("y"), "y", EmptyQueue(STR)), Var("y")),
    "CaseQueue": CaseQueue(
        Enqueue(EmptyQueue(STR), Var("y")), Var("y"), "y", "r", Concat(Var("y"), Var("y"))
    ),
    "Raise": Raise("ask", STR, STR, Concat(Var("y"), StrLit("b"))),
    "Handle": Handle(
        Var("y"), "y", Concat(Var("y"), StrLit("b")),
        (
            Clause("ask", "y", "k", Var("y"), STR, STR),
            Clause("ping", "p", "y", Concat(Var("y"), Var("p")), UNIT_T, UNIT_T),
            Clause("get", "p", "k", Var("y"), UNIT_T, STR),
        ),
        EMPTY, STR,
    ),
}


@pytest.mark.parametrize("node", WAITING_NODES.values(), ids=WAITING_NODES)
def test_reify_closes_a_waiting_node_outside_its_binders(node):
    # let y = "a" in node, read back just after node's frame is pushed
    pushed = []

    def sample(state):
        f = state.frames[0] if state.frames else None
        if type(f) is ev.Ctx and f.term is node:
            pushed.append(reify(state))

    run(SIG0, Let(Y, "y", node), fuel=4, sample=sample, sample_every=1)
    assert pushed == [core.subst(node, "y", Y)]


# what the states of each corpus program that elaborates fail
# core.typecheck for, read back at every step (ROADMAP item 9)
ERR_SCRUTINEE = "the error term needs an expected typing"
K_AT_EMPTY_ROW = "expected <= 1 -[?]> 1"  # a shallow handler's resumption k
FORK_UNDER_NARROWER_ROW = "ambient effect"  # raise fork
READBACK_TYPING_FAILURES = {
    "bad_downcast": {ERR_SCRUTINEE: 1},
    "combo_III": {K_AT_EMPTY_ROW: 2},
    "combo_IIP": {K_AT_EMPTY_ROW: 2, FORK_UNDER_NARROWER_ROW: 1},
    "combo_IPI": {FORK_UNDER_NARROWER_ROW: 1},
    "combo_IPP": {},
    "combo_PII": {K_AT_EMPTY_ROW: 2},
    "combo_PIP": {K_AT_EMPTY_ROW: 2, FORK_UNDER_NARROWER_ROW: 1},
    "combo_PPI": {FORK_UNDER_NARROWER_ROW: 1},
    "combo_PPP": {},
    "threads_imprecise": {K_AT_EMPTY_ROW: 2},
    "threads_precise": {},
}


def test_readback_typing_failures_are_the_three_known():
    kinds = (ERR_SCRUTINEE, K_AT_EMPTY_ROW, FORK_UNDER_NARROWER_ROW)
    got = {}
    for path in sorted(CORPUS.glob("*.greff")):
        try:
            res = elab_source(path.read_text())
        except ElabError:
            continue
        failures = got[path.stem] = collections.Counter()

        def sample(state):
            try:
                core.typecheck(res.sig, {}, reify(state))
            except core.TypeCheckError as e:
                # a message of no known kind is counted whole, so it shows
                failures[next((k for k in kinds if k in str(e)), str(e))] += 1

        run(res.sig, res.term, sample=sample, sample_every=1)
    assert got == READBACK_TYPING_FAILURES


def test_intermediate_states_retypecheck():
    from greff.typesys import subtype

    src = (CORPUS / "threads_precise.greff").read_text()
    res = elab_source(src)
    eff0, val0 = core.typecheck(res.sig, {}, res.term)
    checked = []

    def sample(state):
        term = reify(state)
        eff, val = core.typecheck(res.sig, {}, term)
        assert eff == eff0 or subtype(eff, eff0)
        assert val == val0 or subtype(val, val0)
        checked.append((eff, val))

    out = run(res.sig, res.term, fuel=100_000, sample=sample, sample_every=50)
    assert out.outcome == Value(StrLit("1a2b"))
    assert checked, "sampling never fired"


@pytest.mark.parametrize(
    "name, sig, term", resumption_cases(), ids=[c[0] for c in resumption_cases()]
)
def test_resumption_replay_preserves_types_at_every_step(name, sig, term):
    # every intermediate state, replays of captured frames included,
    # reads back as a term whose typing is below the program's
    from greff.typesys import subtype

    eff0, val0 = core.typecheck(sig, {}, term)

    def sample(state):
        eff, val = core.typecheck(sig, {}, reify(state))
        assert subtype(eff, eff0) and subtype(val, val0)

    got = run(sig, term, sample=sample, sample_every=1).outcome
    want = reference.evaluate(sig, term)
    if isinstance(want, Value) and isinstance(want.value, reference.Opaque):
        assert isinstance(got, Value) and isinstance(got.value, Lam)
    else:
        assert got == want


def _applying_programs():
    """The resumption cases and the corpus mixes, which apply both
    resumptions and arrow-cast proxies."""
    programs = resumption_cases()
    for path in sorted(CORPUS.glob("combo_*.greff")):
        res = elab_source(path.read_text())
        programs.append((path.stem, res.sig, res.term))
    return programs


APPLYING = _applying_programs()


def _elaborated(src):
    res = elab_source(src)
    return res.sig, res.term


@pytest.mark.parametrize("name, sig, term", APPLYING, ids=[p[0] for p in APPLYING])
def test_resumption_and_proxy_return_their_argument_at_once(name, sig, term):
    # applying a resumption pushes its frames and returns the argument to
    # them; applying a proxy pushes its casts and the target's application
    # and returns the cast argument: the argument is never evaluated again
    applied, after = [], []

    def trace(rule, detail):
        resumes = rule == "beta" and detail.startswith("%r")
        applied.append(resumes or rule in ("fun-upcast", "fun-downcast"))

    def sample(state):
        if applied and applied[-1]:
            after.append(isinstance(state.control, (ev.Ctx, ev.Raising)))
        applied.clear()

    run(sig, term, trace=trace, sample=sample, sample_every=1)
    assert after == [False] * len(after)
    assert after or name == "returned"  # that case never applies its resumption


def test_untraced_run_never_reads_back(monkeypatch):
    # tracing off: no rule detail is printed or spelled, and no state is
    # read back
    calls = {"pretty": 0, "subst": 0, "_brief": 0, "_spelled": 0}
    owner = {"pretty": core, "subst": core, "_brief": core, "_spelled": ev}

    def counting(name):
        orig = getattr(owner[name], name)

        def counted(*args):
            calls[name] += 1
            return orig(*args)

        return counted

    programs = [
        (elab_source((CORPUS / "threads_precise.greff").read_text()), "1a2b"),
        (elab_source(capture_walk_source(64)), "a" * 64),
        (elab_source(cast_loop_source(64)), "a" * 64),
    ]
    for name in calls:
        monkeypatch.setattr(owner[name], name, counting(name))
    for res, want in programs:
        assert run(res.sig, res.term, trace=None).outcome == Value(StrLit(want))
    assert calls == {"pretty": 0, "subst": 0, "_brief": 0, "_spelled": 0}


def test_untraced_run_builds_no_state_object(monkeypatch):
    # the machine runs on its registers: a state object is built only
    # for the sample hook
    built = {"MachineState": 0}

    def counting(cls):
        class Counted(cls):
            __slots__ = ()

            def __init__(self, *args):
                built[cls.__name__] += 1
                super().__init__(*args)

        return Counted

    res = elab_source((CORPUS / "threads_precise.greff").read_text())
    for name in built:
        monkeypatch.setattr(ev, name, counting(getattr(ev, name)))
    assert run(res.sig, res.term, trace=None).outcome == Value(StrLit("1a2b"))
    assert built == {"MachineState": 0}


ONE_MACHINE = APPLYING + [
    (f"gen-{seed}", *gen.gen_core_program(seed)[:2]) for seed in range(50)
]


@pytest.mark.parametrize("name, sig, term", ONE_MACHINE, ids=[p[0] for p in ONE_MACHINE])
def test_run_and_step_are_one_machine(name, sig, term):
    # run's per-step view, the sample hook at sample_every=1 that the
    # benchmark's tracer installs, is the plain run: the same steps to
    # the same outcome, with a state shown after every step but the last
    shown = []
    got = run(sig, term, fuel=100_000, sample=lambda s: shown.append(reify(s)), sample_every=1)
    assert got == run(sig, term, fuel=100_000)
    assert len(shown) == got.steps - 1


# the corpus mixes, the resumption cases and the queue walk at ?: raises
# cross effect casts, and proxies fire, at equal response, codomain or
# latent typings
CASTING = APPLYING + [("queue-walk-16-?", *_elaborated(queue_walk_source(16, "?")))]


def test_no_identity_cast_frame_is_ever_pushed():
    seen = {"stack": 0, "captured": 0}

    def check(frames, where):
        for f in frames:
            if isinstance(f, (ValCastFrame, EffCastFrame)):
                assert f.lo != f.hi, f"{name}: {f} on the {where}"
                seen[where] += 1

    def sample(state):
        check(state.frames, "stack")
        if isinstance(state.control, ev.Raising):
            check(state.control.captured, "captured")

    for name, sig, term in CASTING:
        run(sig, term, sample=sample, sample_every=1)
    assert seen["stack"] and seen["captured"]


def test_the_value_line_is_the_read_back_brief_without_reading_back(monkeypatch):
    # a traced run prints each returned value as core._brief prints its
    # read-back, except a resumption, which shows as a tag; no closure is
    # read back for it, so nothing is substituted
    lines, tags, values = [], [], []
    substs = []
    subst = core.subst
    monkeypatch.setattr(core, "subst", lambda *a: substs.append(1) or subst(*a))

    def trace(rule, detail):
        lines.append(detail if rule == "value" else None)

    def sample(state):
        if lines and lines[-1] is not None:
            values.append((lines[-1], state.control))
        lines.clear()

    programs = CASTING + [(f"gen-{seed}", *gen.gen_core_program(seed)[:2]) for seed in range(50)]
    for _, sig, term in programs:
        run(sig, term, fuel=100_000, trace=trace, sample=sample, sample_every=1)
    assert not substs
    monkeypatch.setattr(core, "subst", subst)
    for line, value in values:
        if "<resume " in line:
            tags.append(line)
        else:
            assert line == core._brief(ev._back(value))
    assert len(values) > 1000 and tags
    assert all(re.search(r"<resume %r\d+: \d+ frames>", t) or t.endswith("...") for t in tags)
    assert "<resume %r1: 3 frames>" in tags


# ---------------------------------------------------------------------------
# Corpus differential against the direct-style evaluator


@pytest.mark.parametrize("name", ["threads_imprecise", "threads_precise"])
def test_scheduler_runs_to_1a2b_in_budget(name):
    res = elab_source((CORPUS / f"{name}.greff").read_text())
    got = run(res.sig, res.term, fuel=10_000)
    assert got.outcome == Value(StrLit("1a2b"))
    assert got.steps < 10_000
    assert reference.evaluate(res.sig, res.term, fuel=1_000_000) == got.outcome


@pytest.mark.parametrize("name", ["threads_imprecise", "threads_precise"])
def test_determinism_same_trace(name):
    res = elab_source((CORPUS / f"{name}.greff").read_text())
    traces = []
    for _ in range(2):
        log = []
        run(res.sig, res.term, fuel=10_000, trace=lambda rule, d: log.append((rule, d)))
        traces.append(log)
    assert traces[0] == traces[1]


# (program, N, steps, checked against the reference): the capture walk
# and the cast loop at ROADMAP's Baseline sizes; the reference takes
# over a second on the cast loop at 256, so it checks only the 64
PROBES = [
    ("capture-walk", capture_walk_source, 256, 42_991, True),
    ("cast-loop", cast_loop_source, 64, 7_131, True),
    ("cast-loop", cast_loop_source, 256, 77_429, False),
]


@pytest.mark.parametrize(
    "source, n, steps, differential", [p[1:] for p in PROBES], ids=[f"{p[0]}-{p[2]}" for p in PROBES]
)
def test_probe_programs_run_to_their_pinned_steps(source, n, steps, differential):
    res = elab_source(source(n))
    got = run(res.sig, res.term)
    assert got == ev.RunResult(Value(StrLit("a" * n)), steps)
    if differential:
        assert reference.evaluate(res.sig, res.term) == got.outcome


def test_bad_downcast_corpus_errors():
    res = elab_source((CORPUS / "bad_downcast.greff").read_text())
    assert run(res.sig, res.term).outcome == Error()
    assert reference.evaluate(res.sig, res.term) == Error()

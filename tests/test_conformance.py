"""The metatheory checks: cast laws, factorization, and graduality batches."""

import dataclasses
import json
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from greff import conformance as conf, core, eval as ev, gen, surface as s
from greff.typesys import (
    DYN,
    Arrow,
    Bool,
    Dyn,
    OpSig,
    QueueOf,
    Signature,
    Str,
    Unit,
    gradual_subtype,
    precision,
    subtype,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SIG = Signature(
    {
        "ask": OpSig(Unit(), Str()),
        "tick": OpSig(Bool(), Unit()),
    }
)


# ---------------------------------------------------------------------------
# Verdicts


TRUE = ev.Value(core.BoolLit(True))
FALSE = ev.Value(core.BoolLit(False))
ASK, TICK = ev.UncaughtRaise("ask"), ev.UncaughtRaise("tick")
FUEL = ev.FuelExhausted(100)

# name -> (sides, ordered, verdict); a side that is a core term is run first
VERDICTS = {
    "ordered-error-vs-value": ((ev.Error(), TRUE), True, "holds"),
    "ordered-error-vs-error": ((ev.Error(), ev.Error()), True, "holds"),
    "ordered-error-vs-uncaught": ((ev.Error(), ASK), True, "holds"),
    "ordered-equal-values": ((TRUE, TRUE), True, "holds"),
    "ordered-equal-uncaught": ((TICK, TICK), True, "holds"),
    "ordered-fuel-both": ((FUEL, ev.FuelExhausted(7)), True, "inconclusive"),
    "ordered-fuel-first": ((FUEL, TRUE), True, "inconclusive"),
    "ordered-fuel-second": ((TRUE, FUEL), True, "inconclusive"),
    "ordered-values-differ": ((TRUE, FALSE), True, "violated"),
    "ordered-value-vs-error": ((TRUE, ev.Error()), True, "violated"),
    "fuel-both": ((ev.FuelExhausted(3), ev.FuelExhausted(9)), False, "inconclusive"),
    "fuel-vs-value": ((ev.FuelExhausted(3), ev.Value(True)), False, "inconclusive"),
    "equal-values": ((ev.Value("a"), ev.Value("a")), False, "holds"),
    "error-vs-value": ((ev.Error(), TRUE), False, "violated"),
    "third-side-differs": ((TRUE, TRUE, FALSE), False, "violated"),
    "run-equal-values": ((core.BoolLit(True), core.BoolLit(True)), True, "holds"),
    "run-error-first": ((core.Err(), core.BoolLit(False)), True, "holds"),
    "run-error-second": ((core.BoolLit(True), core.Err()), True, "violated"),
}


@pytest.mark.parametrize("name", VERDICTS)
def test_verdict(name):
    sides, ordered, expected = VERDICTS[name]
    outcomes = [
        ev.run(SIG, x).outcome if isinstance(x, core.Term) else x for x in sides
    ]
    assert conf.verdict(outcomes, ordered=ordered) == expected


def test_a_case_short_of_fuel_is_inconclusive():
    full = conf.run_law_case("effect-cast-handler", 0)
    assert full.verdict == "holds" and full.steps_left != full.steps_right
    for fuel in (min(full.steps_left, full.steps_right), 3):
        rec = conf.run_law_case("effect-cast-handler", 0, fuel=fuel)
        assert rec.verdict == "inconclusive", (fuel, rec.left, rec.right)


def test_describe_outcome():
    assert conf.describe_outcome(ev.Error()) == "error"
    assert "ask" in conf.describe_outcome(ev.UncaughtRaise("ask"))
    assert "fuel" in conf.describe_outcome(ev.FuelExhausted(12))


# ---------------------------------------------------------------------------
# Cast expansions


def _fresh():
    n = 0

    def go(base: str) -> str:
        nonlocal n
        n += 1
        return f"%{base}{n}"

    return go


def test_effect_upcast_expansion_shape():
    lo = SIG.at(["ask"])
    body = core.Raise("ask", Unit(), Str(), core.UNIT)
    cast = core.EffUpcast(lo, DYN, body)
    h = conf.expand_effect_cast(SIG, cast, Str(), _fresh())
    assert isinstance(h, core.Handle) and h.deep
    assert [c.op for c in h.clauses] == ["ask"]
    assert h.clauses[0].req == Unit() and h.clauses[0].resp == Str()
    assert h.result_eff == DYN
    assert h.scrutinee is body


def test_effect_downcast_expansion_errs_on_lost_operations():
    lo = SIG.at(["ask"])
    body = core.EffUpcast(
        SIG.at(["ask", "tick"]),
        DYN,
        core.Raise("tick", Bool(), Unit(), core.BoolLit(True)),
    )
    h = conf.expand_effect_cast(SIG, core.EffDowncast(lo, DYN, body), Str(), _fresh())
    by_op = {c.op: c for c in h.clauses}
    assert set(by_op) == {"ask", "tick"}
    assert isinstance(by_op["tick"].body, core.Err)
    assert not isinstance(by_op["ask"].body, core.Err)
    assert h.result_eff == lo


def test_fun_cast_expansion_shape():
    lo = Arrow(Unit(), SIG.at(["ask"]), Str())
    hi = Arrow(Unit(), DYN, Str())
    fn = core.Lam("x", Unit(), core.StrLit("s"))
    out = conf.expand_fun_cast(core.ValUpcast(lo, hi, fn), _fresh())
    assert isinstance(out, core.Let)
    assert out.bound is fn
    assert isinstance(out.body, core.Lam)
    assert out.body.ann == hi.dom


def test_expanded_casts_typecheck_and_agree():
    for law in ("effect-cast-handler", "fun-cast-wrapper"):
        for seed in range(40):
            case = conf.LAWS[law](seed)
            core.typecheck(case.sig, {}, case.right)
            a = ev.run(case.sig, case.left, fuel=200_000).outcome
            b = ev.run(case.sig, case.right, fuel=200_000).outcome
            assert conf.outcomes_equal(a, b), (law, seed)


def test_expansion_with_both_families_enabled():
    for seed in range(25):
        case = conf.LAWS["retraction"](seed)
        both = conf.expand_casts(case.sig, case.right, effect=True, function=True)
        core.typecheck(case.sig, {}, both)
        a = ev.run(case.sig, case.right, fuel=200_000).outcome
        b = ev.run(case.sig, both, fuel=200_000).outcome
        assert conf.outcomes_equal(a, b), seed


CASTS = (core.ValUpcast, core.ValDowncast, core.EffUpcast, core.EffDowncast)


def _children(t) -> list:
    out = []
    for name in core.FIELDS[type(t)]:
        v = getattr(t, name)
        out += v if isinstance(v, tuple) else [v]
    return out


def _cast_free(t) -> bool:
    return not isinstance(t, CASTS) and all(map(_cast_free, _children(t)))


def _assert_cast_free_parts_kept(before, after):
    """Every cast-free subtree of before is its own object in after."""
    if _cast_free(before):
        assert after is before
    elif type(after) is type(before):  # a cast that stayed, or a path to one
        for b, a in zip(_children(before), _children(after)):
            _assert_cast_free_parts_kept(b, a)


def test_expansion_keeps_every_cast_free_subtree():
    expanded = 0
    for seed in range(40):
        sig, term = gen.gen_core_program(seed)[:2]
        for effect, function in ((True, False), (False, True), (True, True)):
            out = conf.expand_casts(sig, term, effect=effect, function=function)
            _assert_cast_free_parts_kept(term, out)
            expanded += out is not term
    assert expanded


def _nested_lets_and_casts(k: int) -> core.Term:
    """k lets, each bound to effect casts up to ? and back around the last."""
    t: core.Term = core.StrLit("s")
    for i in range(k):
        cast = core.EffDowncast(SIG.at([]), DYN, core.EffUpcast(SIG.at([]), DYN, t))
        t = core.Let(cast, f"x{i}", core.Var(f"x{i}"))
    return t


def _synth_calls(monkeypatch, **flags) -> dict[int, int]:
    """Calls to core._synth while expanding the k-deep term, for k=10 and 40."""
    calls = 0
    synth = core._synth

    def counting(*args):
        nonlocal calls
        calls += 1
        return synth(*args)

    out = {}
    with monkeypatch.context() as m:
        m.setattr(core, "_synth", counting)
        for k in (10, 40):
            calls = 0
            conf.expand_casts(SIG, _nested_lets_and_casts(k), **flags)
            out[k] = calls
    return out


def test_expansion_typechecks_its_input_once(monkeypatch):
    calls = _synth_calls(monkeypatch, effect=True)
    # one walk, a few calls per let; re-typing each expanded subterm
    # grows with the square of the nesting depth
    assert calls[40] <= 4 * calls[10] + 10, calls
    assert _synth_calls(monkeypatch, effect=False, function=True) == {10: 0, 40: 0}


def test_expansion_of_a_shared_cast_at_two_types_is_refused():
    cast = core.EffUpcast(SIG.at([]), DYN, core.Var("v"))
    twice = core.Let(
        core.Let(core.StrLit("s"), "v", cast), "w", core.Let(core.UNIT, "v", cast)
    )
    with pytest.raises(core.TypeCheckError, match="body typed"):
        conf.expand_casts(SIG, twice)


# ---------------------------------------------------------------------------
# Factorization


def _seeded_pair(seed: int):
    rng = random.Random(seed)
    sig = gen.gen_signature(rng)
    row = gen.gen_row(rng, sig)
    a = Arrow(rng.choice(gen.GROUND), row, rng.choice(gen.GROUND))
    b = gen.loosen(rng, conf._widen(rng, sig, a), p=0.5)
    return sig, a, b


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_factor_properties(seed):
    sig, a, b = _seeded_pair(seed)
    if not gradual_subtype(a, b):
        return
    f = conf.factor(a, b)
    assert subtype(a, f.up_hi)
    assert subtype(f.down_lo, b)
    assert subtype(f.mid_lo, f.mid_hi)
    assert precision(a, f.mid_lo)
    assert precision(f.up_hi, f.mid_hi)
    assert precision(f.down_lo, f.mid_lo)
    assert precision(b, f.mid_hi)


def test_factor_on_equal_grounds_is_trivial():
    f = conf.factor(Str(), Str())
    assert f.up_hi == f.mid_hi == f.mid_lo == f.down_lo == Str()


def test_factor_dyn_endpoints():
    a = Arrow(Unit(), SIG.at(["ask"]), Str())
    f = conf.factor(a, DYN_ARROW := Arrow(Unit(), DYN, Str()))
    assert precision(a, f.mid_lo) and precision(DYN_ARROW, f.mid_hi)
    full = conf.factor(Dyn(), Dyn())
    assert full.up_hi == Dyn()


def test_factor_rejects_unrelated_types():
    with pytest.raises(conf.DecompositionFailed):
        conf.factor(Bool(), Str())
    with pytest.raises(conf.DecompositionFailed):
        conf.factor(QueueOf(Str()), Str())


def test_cast_factorizations_typecheck():
    for seed in range(120):
        sig, a, b = _seeded_pair(seed)
        if not gradual_subtype(a, b):
            continue
        rng = random.Random(seed + 1)
        g = gen._CoreGen(rng, sig)
        m = g.value(a, frozenset(), {}, 2)
        for v in conf.cast_factorizations(a, b, m):
            eff, val = core.typecheck(sig, {}, v)


def test_factorization_agrees_at_runtime():
    ran = 0
    for seed in range(120):
        rec = conf.run_factorization_case(seed)
        if rec is None:
            continue
        ran += 1
        assert rec.verdict == "holds", (seed, rec.left, rec.right)
    assert ran >= 100


# ---------------------------------------------------------------------------
# Surface precision pairs


def test_count_effect_sites_and_imprecisify():
    p = gen.gen_surface_program(11)
    n = conf.count_effect_sites(p)
    pair = conf.imprecisify(p, random.Random(3))
    if n == 0:
        assert pair is None
        return
    assert pair is not None
    assert pair.precise == p
    assert 1 <= len(pair.sites) <= n
    assert conf.count_effect_sites(pair.imprecise) == n - len(pair.sites)


# one concrete row in a lambda annotation, two in a handler's row and
# type annotations, one in a define's annotation and one in each of a
# type and an effect ascription; the rows in the effect declaration and
# the two imports are interface typings, not sites
SITES_SRC = """
module A where
effect e : (1 -[e]> 1) ~> (1 -[e]> 1)
define f : str -[e]> 1 = lambda s. e(lambda u : 1 -[e]> 1. u); ()
main {
  import A.e : (1 -[e]> 1) ~> (1 -[e]> 1)
  import A.f : str -[e]> 1
  import A.f as g : str -[e]> 1
  in
  handle [e] (1 -[e]> 1) ((g :: str -[e]> 1) "a" :: [e]) with ret x -> (lambda u. u) e(p, k) -> (p)
}
"""


def test_count_effect_sites_counts_annotations_not_interfaces():
    p = s.parse_program(SITES_SRC)
    (define,) = p.modules[0].decls[1:]
    assert conf.count_effect_sites(define.ann) == 1
    assert conf.count_effect_sites(define.body) == 1  # the lambda annotation
    interface = (p.modules[0].decls[0], *p.main_decls)
    assert [type(d) for d in interface] == [s.SEffectDecl, s.SImportEffect, s.SImportValue, s.SImportValue]
    assert [conf.count_effect_sites(d) for d in interface] == [0, 0, 0, 0]
    handle = p.main_term
    assert isinstance(handle, s.SHandle)
    assert conf.count_effect_sites(handle.eff_ann) == conf.count_effect_sites(handle.type_ann) == 1
    eff_asc = handle.scrutinee
    type_asc = eff_asc.term.fn
    assert isinstance(eff_asc, s.SAscribeEff) and isinstance(type_asc, s.SAscribeType)
    assert conf.count_effect_sites(eff_asc.ann) == conf.count_effect_sites(type_asc.ann) == 1
    assert conf.count_effect_sites(p) == 6
    blurred = set()
    for seed in range(40):
        pair = conf.imprecisify(p, random.Random(seed))
        blurred.update(pair.sites)
        assert pair.imprecise.modules[0].decls[0] is interface[0]
        assert all(map(operator.is_, pair.imprecise.main_decls, interface[1:]))
    assert blurred == set(range(6))


def syntactic_precision(a, b) -> bool:
    """Structural equality except annotations may be ? on the right."""
    if isinstance(b, Dyn):
        return isinstance(a, (s.SNames, Dyn))
    if type(a) is not type(b) or type(a) not in s.FIELDS:
        return a == b
    kids = s.FIELDS[type(a)]
    for name in kids:
        va, vb = getattr(a, name), getattr(b, name)
        if type(va) is tuple:
            if len(va) != len(vb) or not all(map(syntactic_precision, va, vb)):
                return False
        elif not syntactic_precision(va, vb):
            return False
    return dataclasses.replace(a, **{name: getattr(b, name) for name in kids}) == b


def test_imprecisify_yields_syntactic_precision():
    made = 0
    for seed in range(60):
        p = gen.gen_surface_program(seed)
        pair = conf.imprecisify(p, random.Random(seed))
        if pair is None:
            continue
        made += 1
        assert syntactic_precision(p, pair.imprecise)
        assert not syntactic_precision(pair.imprecise, p) or p == pair.imprecise
    assert made >= 40


def _blurred_from(a, b) -> bool:
    """Check that b is a with some row annotations turned to ?.

    Every surface node of b keeps the position of its node in a, and a
    subtree with nothing blurred is a's own object.  Says whether b blurs any.
    (A rebuilt handler sorts its clause tuple anew, so tuples are
    compared by their elements.)
    """
    if isinstance(a, s.SNames) and b is DYN:
        return True
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        return any([_blurred_from(x, y) for x, y in zip(a, b)])
    if not dataclasses.is_dataclass(a):
        assert a == b
        return False
    assert type(a) is type(b)
    assert getattr(a, "pos", None) == getattr(b, "pos", None)  # a type has none
    names = [f.name for f in dataclasses.fields(a) if f.name != "pos"]
    blurred = any([_blurred_from(getattr(a, n), getattr(b, n)) for n in names])
    assert blurred or a is b
    return blurred


def test_imprecisify_rebuilds_only_the_paths_to_blurred_sites():
    made = 0
    for path in sorted(CORPUS.glob("combo_*.greff")):
        p = s.parse_program(path.read_text(encoding="utf-8"))
        interface = p.modules[0]
        assert all(isinstance(d, s.SEffectDecl) for d in interface.decls)
        for seed in range(10):
            pair = conf.imprecisify(p, random.Random(seed))
            if pair is None:
                continue
            made += 1
            assert _blurred_from(p, pair.imprecise), (path.name, seed)
            assert pair.imprecise.modules[0] is interface
    assert made >= 60


def test_syntactic_precision_is_reflexive():
    for seed in range(20):
        p = gen.gen_surface_program(seed)
        assert syntactic_precision(p, p)


def test_syntactic_precision_ignores_positions():
    for seed in range(5):
        text = s.pretty_program(gen.gen_surface_program(seed))
        assert syntactic_precision(s.parse_program(text), s.parse_program("\n" + text))


def test_syntactic_precision_rejects_unrelated():
    a = gen.gen_surface_program(1)
    b = gen.gen_surface_program(2)
    assert not syntactic_precision(a, b)


def test_graduality_pairs_never_violated():
    kept = 0
    for seed in range(120):
        rec = conf.run_graduality_case(seed)
        if rec is None:
            continue
        kept += 1
        assert rec.verdict != "violated", (seed, rec.left, rec.right)
    assert kept >= 90


# ---------------------------------------------------------------------------
# Law batches and the report


@pytest.mark.parametrize("law", sorted(conf.LAWS))
def test_law_holds_across_seeds(law):
    for seed in range(60):
        rec = conf.run_law_case(law, seed)
        assert rec.verdict == "holds", (law, seed, rec.left, rec.right)


def test_laws_hold_with_higher_order_payloads(monkeypatch):
    """Signatures that may declare `call`, whose payload is a function."""

    def gen_ctx(seed):
        rng = random.Random(seed)
        return rng, gen._CoreGen(rng, gen.gen_signature(rng, higher_order=True))

    monkeypatch.setattr(conf, "_gen_ctx", gen_ctx)
    crossings = []

    def trace(rule: str, detail: str) -> None:
        if rule in ("eff-upcast-raise", "eff-downcast-raise") and detail == "call":
            crossings.append(rule)

    declared = 0
    for law, make in conf.LAWS.items():
        for seed in range(100):
            case = make(seed)
            declared += "call" in case.sig.names()
            sides = (case.left, case.right)
            outs = [ev.run(case.sig, t, fuel=200_000, trace=trace).outcome for t in sides]
            assert conf.verdict(outs) == "holds", (law, seed, outs)
    assert declared >= 100
    assert crossings


def test_case_record_serializes():
    rec = conf.run_law_case("retraction", 5)
    blob = json.loads(rec.to_json())
    assert blob["check"] == "retraction"
    assert blob["seed"] == 5
    assert blob["verdict"] == "holds"


def test_report_is_reproducible_and_clean():
    one = conf.run_conformance(seed=3, cases_per_law=8)
    two = conf.run_conformance(seed=3, cases_per_law=8)
    assert [r.to_json() for r in one.records] == [r.to_json() for r in two.records]
    assert one.violations == []
    checks = {r.check for r in one.records}
    assert checks == set(conf.LAWS) | {"factorization", "graduality"}


def test_report_emits_line_records():
    seen: list[str] = []
    conf.run_conformance(seed=1, cases_per_law=2, emit=seen.append)
    assert len(seen) >= 2 * (len(conf.LAWS) + 2)
    for line in seen:
        json.loads(line)

"""The metatheory checks: cast laws, factorization, and graduality batches."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from greff import conformance as conf, core, eval as ev, gen, surface as s
from greff.typesys import (
    DYN,
    Arrow,
    Bool,
    Concrete,
    Dyn,
    OpSig,
    QueueOf,
    Signature,
    Str,
    Unit,
    erase,
    gradual_subtype,
    precision,
    subtype,
)

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


def test_imprecisify_yields_syntactic_precision():
    made = 0
    for seed in range(60):
        p = gen.gen_surface_program(seed)
        pair = conf.imprecisify(p, random.Random(seed))
        if pair is None:
            continue
        made += 1
        assert conf.syntactic_precision(p, pair.imprecise)
        assert not conf.syntactic_precision(pair.imprecise, p) or p == pair.imprecise
    assert made >= 40


def test_syntactic_precision_is_reflexive():
    for seed in range(20):
        p = gen.gen_surface_program(seed)
        assert conf.syntactic_precision(p, p)


def test_syntactic_precision_ignores_positions():
    for seed in range(5):
        text = s.pretty_program(gen.gen_surface_program(seed))
        assert conf.syntactic_precision(s.parse_program(text), s.parse_program("\n" + text))


def test_syntactic_precision_rejects_unrelated():
    a = gen.gen_surface_program(1)
    b = gen.gen_surface_program(2)
    assert not conf.syntactic_precision(a, b)


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


def test_case_record_serializes():
    rec = conf.run_law_case("retraction", 5)
    blob = json.loads(rec.to_json())
    assert blob["check"] == "retraction"
    assert blob["seed"] == 5
    assert blob["verdict"] == "holds"


def test_report_is_reproducible_and_clean():
    one = conf.run_conformance(seed=3, cases_per_law=8)
    two = conf.run_conformance(seed=3, cases_per_law=8)
    assert one.lines() == two.lines()
    assert one.violations == []
    checks = {r.check for r in one.records}
    assert checks == set(conf.LAWS) | {"factorization", "graduality"}


def test_report_emits_line_records():
    seen: list[str] = []
    conf.run_conformance(seed=1, cases_per_law=2, emit=seen.append)
    assert len(seen) >= 2 * (len(conf.LAWS) + 2)
    for line in seen:
        json.loads(line)

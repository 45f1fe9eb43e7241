"""End-to-end acceptance: one test per shipping criterion, at full size.

Each test is a single pass/fail line under `pytest -v`.  Sizes and
tolerances are pinned here on purpose; loosening them is an interface
change, not a test fix.
"""

import time
from pathlib import Path

import pytest

from greff import cli, conformance as conf, core, elaborate, eval as ev, gen, reference
from greff.typesys import subtype

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

MIXES = ["III", "IIP", "IPI", "IPP", "PII", "PIP", "PPI", "PPP"]


def test_c1_eight_precision_mixes_check_in_under_a_second():
    sources = [(CORPUS / f"combo_{m}.greff").read_text() for m in MIXES]
    t0 = time.perf_counter()
    for src in sources:
        res = elaborate.elab_source(src)
        core.typecheck(res.sig, {}, res.term)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"checking the 8 mixes took {elapsed:.2f}s"


@pytest.mark.parametrize("name", ["threads_precise", "threads_imprecise"])
def test_c2_scheduler_interleaves_within_budget(name):
    res = elaborate.elab_source((CORPUS / f"{name}.greff").read_text())
    got = ev.run(res.sig, res.term, fuel=10_000)
    assert got.outcome == ev.Value(core.StrLit("1a2b"))
    assert got.steps < 10_000
    oracle = reference.evaluate(res.sig, res.term, fuel=1_000_000)
    assert oracle == got.outcome


def test_c3_thousand_surface_programs_elaborate_deterministically():
    failures = []
    for seed in range(1000):
        try:
            p = gen.gen_surface_program(seed)
            one = elaborate.elab_program(p)
            two = elaborate.elab_program(p)
            if core.pretty(one.term) != core.pretty(two.term) or one.term != two.term:
                failures.append((seed, "nondeterministic"))
                continue
            core.typecheck(one.sig, {}, one.term)
        except Exception as e:
            failures.append((seed, f"{type(e).__name__}: {e}"))
    assert not failures, f"{len(failures)} failures, first: {failures[:3]}"


def test_c4_thousand_core_programs_run_safely_with_preservation():
    t0 = time.perf_counter()
    sampled = 0
    for seed in range(1000):
        sig, term, ty = gen.gen_core_program(seed)
        eff0, val0 = core.typecheck(sig, {}, term)

        def sample(state, sig=sig, eff0=eff0, val0=val0):
            nonlocal sampled
            t = ev.reify(state)
            eff, val = core.typecheck(sig, {}, t)
            assert eff == eff0 or subtype(eff, eff0)
            assert val == val0 or subtype(val, val0)
            sampled += 1

        got = ev.run(sig, term, fuel=100_000, sample=sample, sample_every=13)
        assert not isinstance(got.outcome, ev.UncaughtRaise), seed
        assert not isinstance(got.outcome, ev.FuelExhausted), seed
    elapsed = time.perf_counter() - t0
    assert sampled > 200, f"preservation sampling fired only {sampled} times"
    assert elapsed < 60.0, f"batch took {elapsed:.1f}s"


def test_c5_five_hundred_effect_casts_match_their_handler_expansions():
    for seed in range(500):
        rec = conf.run_law_case("effect-cast-handler", seed)
        assert rec.verdict == "holds", (seed, rec.left, rec.right)


@pytest.mark.parametrize(
    "law", ["retraction", "decomposition", "commutation", "forwarding"]
)
def test_c6_two_hundred_cast_law_cases_each(law):
    for seed in range(200):
        rec = conf.run_law_case(law, seed)
        assert rec.verdict == "holds", (law, seed, rec.left, rec.right)


def test_c7_two_hundred_factorization_cases_agree_four_ways():
    kept = 0
    seed = 0
    while kept < 200 and seed < 800:
        rec = conf.run_factorization_case(seed)
        seed += 1
        if rec is None:
            continue
        kept += 1
        assert rec.verdict == "holds", (seed - 1, rec.left, rec.right)
    assert kept >= 200


def test_c8_three_hundred_precision_pairs_respect_graduality():
    kept = 0
    inconclusive = 0
    seed = 0
    while kept < 300 and seed < 1500:
        rec = conf.run_graduality_case(seed)
        seed += 1
        if rec is None:
            continue
        kept += 1
        assert rec.verdict != "violated", (seed - 1, rec.left, rec.right)
        if rec.verdict == "inconclusive":
            inconclusive += 1
    assert kept >= 300
    assert inconclusive / kept < 0.10, f"{inconclusive}/{kept} inconclusive"


def test_c9_corpus_failure_modes_map_to_exit_codes():
    assert cli.main(["run", str(CORPUS / "bad_downcast.greff")]) == 2
    assert cli.main(["run", str(CORPUS / "bad_import.greff")]) == 1

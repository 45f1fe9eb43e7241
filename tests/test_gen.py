"""The seeded generators produce well-formed artifacts, deterministically."""

import random

from greff import core, elaborate, eval as ev, gen, reference, surface
from greff.typesys import Concrete, Dyn, precision, wellformed

SURFACE_SEEDS = range(150)
CORE_SEEDS = range(150)


# ---------------------------------------------------------------------------
# Surface programs


def test_surface_same_seed_same_program():
    for seed in (0, 7, 91):
        assert gen.gen_surface_program(seed) == gen.gen_surface_program(seed)


def test_surface_seeds_vary():
    programs = {surface.pretty_program(gen.gen_surface_program(s)) for s in range(30)}
    assert len(programs) > 25


def test_surface_programs_elaborate_and_typecheck():
    for seed in SURFACE_SEEDS:
        p = gen.gen_surface_program(seed)
        res = elaborate.elab_program(p)
        core.typecheck(res.sig, {}, res.term)


def test_surface_elaboration_is_deterministic():
    for seed in (3, 17, 44):
        p = gen.gen_surface_program(seed)
        one = elaborate.elab_program(p)
        two = elaborate.elab_program(p)
        assert core.pretty(one.term) == core.pretty(two.term)


def test_surface_programs_round_trip_through_printer():
    for seed in SURFACE_SEEDS:
        p = gen.gen_surface_program(seed)
        assert surface.parse_program(surface.pretty_program(p)) == p


def test_surface_bounds_respected():
    for seed in SURFACE_SEEDS:
        p = gen.gen_surface_program(seed)
        assert len(p.modules) == 1  # declarations module; main block on top
        decls = [d for d in p.modules[0].decls if isinstance(d, surface.SEffectDecl)]
        assert 1 <= len(decls) <= 3


def test_surface_programs_run_to_ground_outcomes():
    """Raises stay under handlers: no generated program leaks an operation."""
    for seed in range(60):
        p = gen.gen_surface_program(seed)
        res = elaborate.elab_program(p)
        out = ev.run(res.sig, res.term, fuel=300_000).outcome
        assert not isinstance(out, ev.UncaughtRaise), seed


# ---------------------------------------------------------------------------
# Core terms


def test_core_same_seed_same_term():
    for seed in (0, 5, 23):
        assert gen.gen_core_program(seed) == gen.gen_core_program(seed)


def test_core_programs_typecheck_closed():
    for seed in CORE_SEEDS:
        sig, term, ty = gen.gen_core_program(seed)
        eff, val = core.typecheck(sig, {}, term)
        assert eff == Concrete({}), seed
        assert val == ty, seed


def test_core_programs_never_raise_uncaught_or_stick():
    for seed in CORE_SEEDS:
        sig, term, _ = gen.gen_core_program(seed)
        out = ev.run(sig, term, fuel=300_000).outcome
        assert not isinstance(out, ev.UncaughtRaise), seed


def test_core_machine_agrees_with_reference():
    for seed in CORE_SEEDS:
        sig, term, _ = gen.gen_core_program(seed)
        a = ev.run(sig, term, fuel=300_000).outcome
        b = reference.evaluate(sig, term, fuel=300_000)
        assert type(a) is type(b), seed
        if isinstance(a, ev.Value):
            assert a == b, seed


# ---------------------------------------------------------------------------
# Types


def test_gen_row_and_value_type_wellformed():
    rng = random.Random(11)
    for _ in range(200):
        sig = gen.gen_signature(rng, higher_order=True)
        assert wellformed(gen.gen_row(rng, sig), sig)
        assert wellformed(gen.gen_value_type(rng, sig), sig)


def test_loosen_moves_up_in_precision():
    rng = random.Random(12)
    for _ in range(300):
        sig = gen.gen_signature(rng)
        t = gen.gen_value_type(rng, sig)
        assert precision(t, gen.loosen(rng, t))
        row = gen.gen_row(rng, sig)
        assert precision(row, gen.loosen(rng, row))


def test_loosen_eventually_reaches_dynamic_rows():
    rng = random.Random(13)
    sig = gen.gen_signature(rng)
    row = gen.gen_row(rng, sig)
    seen_dyn = any(
        isinstance(gen.loosen(rng, row, p=0.9), Dyn) for _ in range(50)
    )
    assert seen_dyn or not row.ops

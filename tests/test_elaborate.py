import dataclasses
import pathlib
import random

import pytest

from greff import core, gen
from greff import surface as s
from greff.conformance import imprecisify
from greff.elaborate import (
    ElabError, _Elab, elab_program, elab_source, occurs_free,
)
from greff.surface import parse_program, parse_term, parse_type
from greff.typesys import (
    Arrow, Bool, Concrete, DYN, EMPTY, OpSig, QueueOf, Str, Unit,
    is_value_type, subtype,
)

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

PING = Concrete({"ping": OpSig(Unit(), Unit())})
PONG = Concrete({"pong": OpSig(Unit(), Unit())})


def nodes(term):
    """Every subterm, as a flat list."""
    out = [term]
    for f in dataclasses.fields(term):
        v = getattr(term, f.name)
        if dataclasses.is_dataclass(v) and isinstance(v, core.Term):
            out.extend(nodes(v))
        elif isinstance(v, tuple):
            for c in v:
                if isinstance(c, core.Clause):
                    out.extend(nodes(c.body))
    return out


def casts(term):
    return [
        n
        for n in nodes(term)
        if isinstance(
            n, (core.ValUpcast, core.ValDowncast, core.EffUpcast, core.EffDowncast)
        )
    ]


def make_elab(**effects):
    """An elaborator plus a matching effect context and raw signature."""
    e = _Elab()
    gamma_eff = {}
    from greff.typesys import erase

    for name, (req, resp) in effects.items():
        e.sig = e.sig.extend(name, OpSig(erase(req), erase(resp)))
        gamma_eff[name] = (req, resp)
    return e, gamma_eff


def run_term(src, gamma_val=None, hint=None, **effects):
    e, gamma_eff = make_elab(**effects)
    gv = {name: (name, ty) for name, ty in (gamma_val or {}).items()}
    t = parse_term(src, effects=frozenset(effects))
    term, eff, val = e.elab_term(t, gamma_eff, gv, hint)
    # every elaborated term must typecheck, at a typing below the claim
    core_eff, core_val = core.typecheck(
        e.sig, dict(gamma_val or {}), term
    )
    assert core_eff == eff or subtype(core_eff, eff)
    assert core_val == val or subtype(core_val, val)
    return term, eff, val


# ---------------------------------------------------------------------------
# whole corpus programs


def check_program(path):
    res = elab_source(path.read_text())
    eff, val = core.typecheck(res.sig, {}, res.term)
    assert eff == res.eff or subtype(eff, res.eff)
    assert val == res.val or subtype(val, res.val)
    return res


def test_imprecise_threads_elaborate_and_typecheck():
    res = check_program(CORPUS / "threads_imprecise.greff")
    assert res.val == Str()
    assert res.eff == DYN


def test_precise_threads_elaborate_and_typecheck():
    res = check_program(CORPUS / "threads_precise.greff")
    assert res.val == Str()
    assert res.eff == EMPTY
    # fully precise code needs no casts at all
    assert casts(res.term) == []


@pytest.mark.parametrize("combo", sorted(CORPUS.glob("combo_*.greff")))
def test_all_mixes_elaborate_and_typecheck(combo):
    res = check_program(combo)
    assert res.val == Str()


def test_elaboration_deterministic():
    src = (CORPUS / "threads_imprecise.greff").read_text()
    one = core.pretty(elab_source(src).term)
    two = core.pretty(elab_source(src).term)
    assert one == two


def _typing_claims():
    """Every generated surface program of seeds 0-1999, each one's
    imprecise variant, and every corpus program that elaborates."""
    for seed in range(2000):
        program = gen.gen_surface_program(seed)
        yield f"surface-{seed}", program
        pair = imprecisify(program, random.Random(seed))
        if pair is not None:
            yield f"surface-{seed}-imprecise", pair.imprecise
    for path in sorted(CORPUS.glob("*.greff")):
        yield path.stem, parse_program(path.read_text())


def test_core_typecheck_gives_exactly_the_reported_typing():
    # check and the frontend benchmark report res.eff ! res.val; the core
    # term must have that typing itself, not one below it
    checked = 0
    for name, program in _typing_claims():
        try:
            res = elab_program(program)
        except ElabError:
            continue
        assert core.typecheck(res.sig, {}, res.term) == (res.eff, res.val), name
        checked += 1
    assert checked > 3000


def _value_types(x):
    """Every value type in x, a type or a core term, and every part of each,
    the operation typings of rows included."""
    if is_value_type(x):
        yield x
    if isinstance(x, tuple):
        parts = x
    elif dataclasses.is_dataclass(x):
        parts = [getattr(x, f.name) for f in dataclasses.fields(x)]
    else:
        return
    for part in parts:
        yield from _value_types(part)


def test_printed_typings_read_back():
    # one printer serves both layers: each typing check prints, and each
    # type the elaborated term carries (a row printed as its names), is
    # surface syntax that parses back to a type printed the same way
    programs = [gen.gen_surface_program(seed) for seed in range(100)]
    programs += [parse_program(p.read_text()) for p in sorted(CORPUS.glob("*.greff"))]
    printed = set()
    for program in programs:
        try:
            res = elab_program(program)
        except ElabError:
            continue
        printed.update(map(str, _value_types((res.eff, res.val, res.term))))
    assert [t for t in printed if str(parse_type(t)) != t] == []
    assert len(printed) > 20 and any("-[" in t for t in printed)


def test_bad_import_rejected_statically():
    with pytest.raises(ElabError) as e:
        elab_source((CORPUS / "bad_import.greff").read_text())
    assert "incompatible" in str(e.value)


def test_bad_downcast_is_statically_fine():
    # its failure is a runtime matter; elaboration and typing accept it
    res = check_program(CORPUS / "bad_downcast.greff")
    assert res.val == Bool()


# ---------------------------------------------------------------------------
# cast placement


def test_ascription_to_dynamic_row_is_a_bare_upcast():
    term, eff, val = run_term(
        '(raise ping ()) :: [?]', ping=(Unit(), Unit())
    )
    assert eff == DYN and val == Unit()
    assert isinstance(term, core.EffUpcast)
    assert term.lo == PING and term.hi == DYN
    # a value payload is raised directly, with no let around the raise
    assert term.body == core.Raise("ping", Unit(), Unit(), core.UNIT)


def test_widening_into_a_concrete_row_needs_no_cast():
    term, eff, _ = run_term(
        "ping(); pong()", ping=(Unit(), Unit()), pong=(Unit(), Unit())
    )
    assert eff == Concrete({"ping": OpSig(Unit(), Unit()), "pong": OpSig(Unit(), Unit())})
    assert casts(term) == []


def test_mixed_application_widens_the_latent_row():
    fn_ty = Arrow(Unit(), PING, Unit())
    dyn_ty = Arrow(Unit(), DYN, Unit())
    term, eff, val = run_term(
        "f (g ())",
        gamma_val={"f": fn_ty, "g": dyn_ty},
        ping=(Unit(), Unit()),
    )
    assert eff == DYN and val == Unit()
    assert isinstance(term, core.App)
    widen = term.fn
    assert isinstance(widen, core.ValUpcast)
    assert widen.lo == fn_ty and widen.hi == dyn_ty
    # f is a value at [], so no effect cast takes it up to ?
    assert widen.body == core.Var("f")


def _under(t, *kinds):
    """t without the casts of the given kinds around it."""
    while isinstance(t, kinds):
        t = t.body
    return t


# each sequencing form with value operands at [] beside an effectful
# operand {m}, and where the value operands sit in the elaboration
SEQUENCING_FORMS = {
    "application": ("f ({m})", lambda t: [_under(t.fn, core.ValUpcast)]),
    "let": ('let y = "v" in {m}', lambda t: [t.bound]),
    "if": ('if b then "v" else {m}', lambda t: [t.cond, t.then]),
    "match": (
        'match q with empty -> ("v") dequeue(x, r) -> ({m})',
        lambda t: [t.scrutinee, t.empty_body],
    ),
    "concat": ('"v" ++ {m}', lambda t: [t.left]),
    "enqueue": ("enqueue q ({m})", lambda t: [t.queue]),
    # the raise's own payload is the value operand
    "raise": ('ping("v") ++ {m}', lambda t: [_under(t.left, core.EffUpcast).payload]),
}
PING_STR = Concrete({"ping": OpSig(Str(), Str())})


@pytest.mark.parametrize("row", ["?", "ping"])
@pytest.mark.parametrize("form", sorted(SEQUENCING_FORMS))
def test_a_value_operand_at_the_empty_row_gets_no_effect_cast(form, row):
    src, values = SEQUENCING_FORMS[form]
    gamma_val = {
        "b": Bool(),
        "q": QueueOf(Str()),
        "f": Arrow(Str(), EMPTY, Str()),
        "d": Arrow(Unit(), DYN, Str()),
        "p": Arrow(Unit(), PING_STR, Str()),
    }
    src = src.format(m="d ()" if row == "?" else "p ()")
    term, eff, _ = run_term(src, gamma_val=gamma_val, ping=(Str(), Str()))
    assert eff == (DYN if row == "?" else PING_STR)
    for operand in values(term):
        assert isinstance(operand, (core.Var, core.StrLit)), core.pretty(term)
    if form != "let":  # and no raise binds its value payload with a let
        assert not any(isinstance(n, core.Let) for n in nodes(term))


def test_a_raise_binds_a_payload_that_is_not_a_value():
    term, eff, _ = run_term(
        "ping(g ())",
        gamma_val={"g": Arrow(Unit(), DYN, Str())},
        ping=(Str(), Str()),
    )
    assert eff == DYN
    assert isinstance(term, core.Let) and isinstance(term.body, core.EffUpcast)
    assert term.body.body == core.Raise("ping", Str(), Str(), core.Var(term.var))


def test_argument_cast_wraps_its_effect_cast():
    # f's latent row is dynamic, so the whole application runs at ?; the
    # argument both raises (effect upcast) and is a more precise function
    # than the domain (value upcast outside it)
    f_ty = Arrow(Arrow(Unit(), DYN, Unit()), DYN, Unit())
    k_ty = Arrow(Unit(), PING, Arrow(Unit(), EMPTY, Unit()))
    term, eff, _ = run_term(
        "f (k ())",
        gamma_val={"f": f_ty, "k": k_ty},
        ping=(Unit(), Unit()),
    )
    assert eff == DYN
    arg = term.arg
    assert isinstance(arg, core.ValUpcast)
    assert arg.lo == Arrow(Unit(), EMPTY, Unit())
    assert isinstance(arg.body, core.EffUpcast)
    assert arg.body.lo == PING


def test_branch_casts_put_the_effect_cast_outside():
    h_ty = Arrow(Unit(), PING, Arrow(Unit(), EMPTY, Unit()))
    d_ty = Arrow(Unit(), DYN, Arrow(Unit(), DYN, Unit()))
    term, eff, val = run_term(
        "if b then h () else d ()",
        gamma_val={"b": Bool(), "h": h_ty, "d": d_ty},
        ping=(Unit(), Unit()),
    )
    assert eff == DYN and val == Arrow(Unit(), DYN, Unit())
    then = term.then
    assert isinstance(then, core.EffUpcast) and then.lo == PING
    assert isinstance(then.body, core.ValUpcast)
    assert then.body.lo == Arrow(Unit(), EMPTY, Unit())


# ---------------------------------------------------------------------------
# handler scrutinee rows


def test_handle_concrete_under_dynamic_result_erases_uncaught():
    # spawn's request mentions ping precisely; the handler result row is
    # dynamic, so the uncaught spawn is upcast to its erased typing
    spawn_req = Arrow(Unit(), PING, Unit())
    term, eff, val = run_term(
        "handle [?] 1 (raise spawn f) with ret x -> (x)",
        gamma_val={"f": spawn_req},
        ping=(Unit(), Unit()),
        spawn=(spawn_req, Unit()),
    )
    assert eff == DYN and val == Unit()
    scr = term.scrutinee
    assert isinstance(scr, core.EffDowncast)
    erased_row = Concrete({"spawn": OpSig(Arrow(Unit(), DYN, Unit()), Unit())})
    assert scr.lo == erased_row
    assert isinstance(scr.body, core.EffUpcast)
    assert scr.body.lo == Concrete({"spawn": OpSig(spawn_req, Unit())})


def test_handle_dynamic_under_concrete_result_checks_escapees():
    g_ty = Arrow(Unit(), DYN, Unit())
    term, eff, val = run_term(
        "handle [ping] 1 (g ()) with ret x -> (x)",
        gamma_val={"g": g_ty},
        ping=(Unit(), Unit()),
    )
    assert eff == PING and val == Unit()
    scr = term.scrutinee
    assert isinstance(scr, core.EffDowncast)
    assert scr.lo == PING and scr.hi == DYN


def test_handle_dynamic_under_dynamic_needs_no_scrutinee_cast():
    g_ty = Arrow(Unit(), DYN, Unit())
    term, _, _ = run_term(
        "handle [?] 1 (g ()) with ret x -> (x)",
        gamma_val={"g": g_ty},
    )
    assert isinstance(term.scrutinee, core.App)


def test_handle_escaping_operation_is_an_error():
    with pytest.raises(ElabError) as e:
        run_term(
            "handle [] 1 (raise ping ()) with ret x -> (x)",
            ping=(Unit(), Unit()),
        )
    assert "escape" in str(e.value)


def test_deep_handler_resumes_at_the_result_typing():
    term, eff, val = run_term(
        'handle [] str (raise ping ()) with ret x -> ("done") ping(p, k) -> (k ())',
        ping=(Unit(), Unit()),
    )
    assert eff == EMPTY and val == Str()
    assert term.deep
    (clause,) = term.clauses
    assert clause.op == "ping"


def test_clause_effects_must_fit_the_result_row():
    with pytest.raises(ElabError) as e:
        run_term(
            "handle [] 1 (raise ping ()) with ret x -> (x) ping(p, k) -> (pong(); k ())",
            ping=(Unit(), Unit()),
            pong=(Unit(), Unit()),
        )
    assert "clause ping" in str(e.value)


def test_duplicate_clauses_rejected():
    with pytest.raises(ElabError) as e:
        run_term(
            "handle [] 1 (raise ping ()) with ret x -> (x) "
            "ping(p, k) -> (k ()) ping(q, k) -> (k ())",
            ping=(Unit(), Unit()),
        )
    assert "duplicate" in str(e.value)


# ---------------------------------------------------------------------------
# hints and synthesis errors


def test_empty_queue_needs_a_hint():
    e, gamma_eff = make_elab()
    with pytest.raises(ElabError) as exc:
        e.elab_term(parse_term("empty"), gamma_eff, {})
    assert "ascribe" in str(exc.value)
    term, _, val = run_term("empty", hint=QueueOf(Bool()))
    assert term == core.EmptyQueue(Bool())
    assert val == QueueOf(Bool())


def test_lambda_domain_from_hint_or_annotation():
    with pytest.raises(ElabError) as exc:
        run_term("lambda x. x")
    assert "annotation" in str(exc.value)
    term, _, val = run_term("lambda x. x", hint=Arrow(Bool(), EMPTY, Bool()))
    assert isinstance(term, core.Lam) and term.ann == Bool()
    assert val == Arrow(Bool(), EMPTY, Bool())
    term, _, val = run_term("lambda x : str. x")
    assert val == Arrow(Str(), EMPTY, Str())


def test_effect_name_is_not_a_value():
    with pytest.raises(ElabError) as e:
        run_term("let x = ping in x", ping=(Unit(), Unit()))
    assert "used as a value" in str(e.value)


def test_type_errors_are_reported():
    for src, needle in [
        ("true true", "cannot apply"),
        ("if u then true else false", "not bool"),
        ('"a" ++ ()', "needs str"),
        ("enqueue b x", "needs a queue"),
        ("match b with empty -> (true) dequeue(h, r) -> (true)", "needs a queue"),
        ("true :: str", "not coercible"),
        ("(raise ping ()) :: []", "not coercible"),
        ("raise ping x", "request of type"),
        ("y", "unbound variable"),
    ]:
        with pytest.raises(ElabError) as e:
            run_term(
                src,
                gamma_val={"b": Bool(), "u": Unit(), "x": Str()},
                ping=(Unit(), Unit()),
            )
        assert needle in str(e.value), src


# one program per place where elaboration coerces a typing, with the exact
# error each gives when the typing is not coercible
_OPS = "module Ops where\neffect ping : bool ~> 1\neffect pong : 1 ~> 1\n"
_MAIN = "main {\nimport Ops.ping : bool ~> 1\nimport Ops.pong : 1 ~> 1\n"
COERCION_SITES = {
    "app-arg": (
        _MAIN + '(lambda x : bool. x) "s"\n}',
        "7:22: argument has type str, not coercible to bool",
    ),
    "raise-request": (
        _MAIN + 'ping("s")\n}',
        "7:1: ping expects a request of type bool, got str",
    ),
    "ascribe-type": (
        _MAIN + "true :: str\n}",
        "7:6: term has type bool, not coercible to str",
    ),
    "ascribe-eff": (
        _MAIN + "pong() :: []\n}",
        "7:8: term has effects [pong], not coercible to []",
    ),
    "ret-type": (
        _MAIN + 'handle [] bool () with\n  ret x -> "s"\n}',
        "7:1: return clause has type str, not coercible to bool",
    ),
    "ret-eff": (
        _MAIN + "handle [] 1 () with\n  ret x -> pong()\n}",
        "7:1: return clause has effects [pong], not coercible to []",
    ),
    "clause-type": (
        _MAIN + 'handle [] bool pong() with\n  ret x -> true\n  pong(p, k) -> "s"\n}',
        "9:3: clause pong has type str, not coercible to bool",
    ),
    "clause-eff": (
        _MAIN + "handle [] 1 pong() with\n  ret x -> ()\n  pong(p, k) -> ping(true)\n}",
        "9:3: clause pong has effects [ping], not coercible to []",
    ),
    "enqueue-elem": (
        _MAIN + 'enqueue (empty :: Queue bool) "s"\n}',
        "7:1: str is not coercible to bool",
    ),
    "define": (
        _MAIN + 'define v : bool = "s"\nin\nv\n}',
        "7:1: v has type str, not coercible to bool",
    ),
    "import-value": (
        "module A where\ndefine v : bool = true\n\nmain {\nimport A.v : str\nin\nv\n}",
        "8:1: A.v has type bool, not coercible to str",
    ),
    "recursive-type": (
        _MAIN + 'define f : 1 -[]> bool =\n  lambda x. let g = f in "s"\nin\nf ()\n}',
        "7:1: f has type str, not coercible to bool",
    ),
    "recursive-eff": (
        _MAIN + "define f : 1 -[]> 1 =\n  lambda x. let g = f in pong()\nin\nf ()\n}",
        "7:1: f has effects [pong], not coercible to []",
    ),
}


@pytest.mark.parametrize(
    "src, message", COERCION_SITES.values(), ids=list(COERCION_SITES)
)
def test_each_coercion_site_reports_its_own_error(src, message):
    with pytest.raises(ElabError) as e:
        elab_source(_OPS + src)
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# declarations, modules, recursion


def test_recursive_define_builds_a_fix():
    res = elab_source(
        "module A where\n"
        "define loop : 1 -[]> 1 = lambda x. loop x\n"
        "main { import A.loop : 1 -[]> 1\nin\nloop () }"
    )
    fixes = [n for n in nodes(res.term) if isinstance(n, core.Fix)]
    assert len(fixes) == 1
    assert fixes[0].ann == Arrow(Unit(), EMPTY, Unit())
    core.typecheck(res.sig, {}, res.term)


def test_recursive_define_requires_function_shape():
    with pytest.raises(ElabError) as e:
        elab_source(
            "module A where\ndefine x : bool = if x then true else false\n"
            "main { true }"
        )
    assert "arrow annotation" in str(e.value)


def test_module_name_mangling_keeps_same_names_apart():
    res = elab_source(
        "module A where\ndefine v : bool = true\n"
        "module B where\ndefine v : str = \"s\"\n"
        "main { import A.v : bool\nimport B.v as w : str\nin\n"
        "if v then w else w }"
    )
    assert res.val == Str()
    mangled = [n.name for n in nodes(res.term) if isinstance(n, core.Var)]
    assert len(set(mangled)) >= 2
    core.typecheck(res.sig, {}, res.term)


def test_import_at_less_precise_type_casts_the_binding():
    res = elab_source(
        "module A where\ndefine f : 1 -[]> 1 = lambda x. x\n"
        "main { import A.f : 1 -[?]> 1\nin\nf () }"
    )
    ups = [n for n in nodes(res.term) if isinstance(n, core.ValUpcast)]
    assert any(u.lo == Arrow(Unit(), EMPTY, Unit()) for u in ups)
    core.typecheck(res.sig, {}, res.term)


def test_import_must_be_coercible():
    with pytest.raises(ElabError) as e:
        elab_source(
            "module A where\ndefine v : bool = true\n"
            "main { import A.v : str\nin\nv }"
        )
    assert "not coercible" in str(e.value)


def test_unknown_module_and_value():
    with pytest.raises(ElabError) as e:
        elab_source("main { import A.v : bool\nin\nv }")
    assert "unknown module" in str(e.value)
    with pytest.raises(ElabError) as e:
        elab_source("module A where\nmain { import A.v : bool\nin\nv }")
    assert "no value" in str(e.value)


def test_duplicate_module_and_effect():
    with pytest.raises(ElabError) as e:
        elab_source("module A where\nmodule A where\nmain { true }")
    assert "duplicate module" in str(e.value)
    with pytest.raises(ElabError) as e:
        elab_source(
            "module A where\neffect ping : 1 ~> 1\n"
            "module B where\neffect ping : str ~> 1\nmain { true }"
        )
    assert "already declared" in str(e.value)


def test_effect_import_requires_compatibility_not_equality():
    # dynamic-for-precise in the request is fine; str-for-unit is not
    elab_source(
        "module A where\neffect ping : 1 ~> 1\n"
        "effect spawn : (1 -[ping]> 1) ~> 1\n"
        "module B where\nimport A.spawn : (1 -[?]> 1) ~> 1\n"
        "main { true }"
    )
    with pytest.raises(ElabError) as e:
        elab_source(
            "module A where\neffect ping : 1 ~> 1\n"
            "module B where\nimport A.ping : str ~> 1\nmain { true }"
        )
    assert "incompatible" in str(e.value)


def test_occurs_free_sees_through_binders():
    # each binder hides its names in its own body, and only there: the
    # same name in a sibling field stays free
    cases = {
        "lambda x. let y = f x in g y z": {"f", "g", "z"},
        "lambda x : str. x y": {"y"},
        "let x = x in x": {"x"},
        "match a with empty -> (b) dequeue(x, q) -> (x q c)": {"a", "b", "c"},
        "match x with empty -> (q) dequeue(x, q) -> (x q)": {"x", "q"},
        "handle [] 1 a with ret x -> (x b) ping(p, k) -> (k p c)": {"a", "b", "c"},
        "handle [] 1 x with ret x -> (p k) ping(p, k) -> (k p x)": {"x", "p", "k"},
    }
    names = set().union(*cases.values()) | {"y"}
    for src, free in cases.items():
        t = parse_term(src, frozenset({"ping"}))
        for name in names:
            assert occurs_free(name, t) == (name in free), (src, name)


def _free_vars(t) -> set:
    """A naive fold: one case per binding form, else the union over every
    field holding a term."""
    if isinstance(t, core.Var):
        return {t.name}
    if isinstance(t, core.Lam):
        return _free_vars(t.body) - {t.var}
    if isinstance(t, core.Let):
        return _free_vars(t.bound) | (_free_vars(t.body) - {t.var})
    if isinstance(t, core.CaseQueue):
        cons = _free_vars(t.cons_body) - {t.head_var, t.rest_var}
        return _free_vars(t.scrutinee) | _free_vars(t.empty_body) | cons
    if isinstance(t, s.SHandle):
        out = _free_vars(t.scrutinee) | (_free_vars(t.ret_body) - {t.ret_var})
        for c in t.clauses:
            out |= _free_vars(c.body) - {c.payload_var, c.resume_var}
        return out
    kids = [getattr(t, f.name) for f in dataclasses.fields(t)]
    return set().union(*(_free_vars(k) for k in kids if isinstance(k, core._Node)))


def _every_var_name(t) -> set:
    if isinstance(t, core.Var):
        return {t.name}
    kids = [getattr(t, f.name) for f in dataclasses.fields(t)]
    kids = [k for v in kids for k in (v if isinstance(v, tuple) else (v,))]
    return set().union(*(_every_var_name(k) for k in kids if dataclasses.is_dataclass(k)))


def _defines():
    programs = [gen.gen_surface_program(seed) for seed in range(300)]
    programs += [parse_program(p.read_text()) for p in sorted(CORPUS.glob("*.greff"))]
    for p in programs:
        for d in [d for m in p.modules for d in m.decls] + list(p.main_decls):
            if isinstance(d, s.SDefine):
                yield d


def test_occurs_free_agrees_with_a_naive_free_variable_fold():
    recursive = 0
    for d in _defines():
        free = _free_vars(d.body)
        for name in _every_var_name(d.body) | {d.name}:
            assert occurs_free(name, d.body) == (name in free), (d.name, name)
        recursive += d.name in free
    assert recursive > 0  # the corpus's scheduler walks call themselves

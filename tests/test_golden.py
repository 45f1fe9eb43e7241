"""Golden outputs, pinned byte for byte against files in tests/golden/.

Nine things are pinned: the JSONL that `greff conformance --seed 0
--cases 25` prints; for every program in corpus/, the exit code and
stdout of `greff check`, `greff elab` and `greff run`, plus the
machine's step count for programs that elaborate; for a fixed set of
machine runs, the outcome, the step count and a digest of every traced
rule with its detail; for generated surface programs and their
imprecise variants, a digest of the elaborated core term and the
program's typing; and for the same generated programs printed back to
source, the corpus files and seeded one-character mutations of both, a
digest of the token stream or the lexer's error, and for the mutations
the parser's error; and a digest of each law case's cast expansion, the
handler and wrapper sides of the two expansion families and retraction's
side with effect and function casts both expanded; and, for seeded
pairs of value types or of effect rows, the result of each typesys
relation and bound, a bound printed with core.pretty_type or named by
its error class when it does not exist; and, for every corpus program
that elaborates and every resumption case, the number of states the
machine passes through and a digest of each state read back with
eval.reify and printed with core.pretty; and a digest of
surface.pretty_term over every term form at every child position of
every term form, one per term class, and of surface.pretty_program over
each corpus file.  A change that should keep behaviour identical must
leave all nine files unchanged.  After an
intended change of behaviour, `python tests/test_golden.py` rewrites
them from the current code.  It first prints what moved, keeping step
counts apart: the step totals of the machine runs, the corpus and the
JSONL before and after; the machine runs whose outcome changed and those
whose steps or trace alone did; the corpus programs whose `check` or
`run` output changed and those whose `elab` output alone did; the
elaborations whose typing changed and those whose core term alone did;
the token streams that changed, the expansions that changed, the
relation pairs that changed, the read-backs that changed, the printed
forms that changed, and the JSONL lines that changed outside
`steps_left`/`steps_right`.
"""

import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from greff import cli, core, elaborate, gen, typesys
from greff import conformance as conf
from greff import eval as ev
from greff import surface as s
from greff.surface import ParseError, parse_program, pretty_program, tokenize
from greff.typesys import BOOL, DYN, STR, UNIT, Arrow, QueueOf
from programs import queue_walk_source, resumption_cases

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFORMANCE_ARGS = ("conformance", "--seed", "0", "--cases", "25")
CONFORMANCE_FILE = GOLDEN / "conformance_seed0_cases25.jsonl"
CORPUS_FILE = GOLDEN / "corpus.json"
MACHINE_FILE = GOLDEN / "machine.json"
ELAB_FILE = GOLDEN / "elab.json"
TOKENS_FILE = GOLDEN / "tokens.json"
EXPAND_FILE = GOLDEN / "expand.json"
RELATIONS_FILE = GOLDEN / "relations.json"
READBACK_FILE = GOLDEN / "readback.json"
PRINTER_FILE = GOLDEN / "printer.json"
STATIC_ERRORS = (ParseError, elaborate.ElabError, core.TypeCheckError)
MACHINE_CORE_SEEDS = range(300)
MACHINE_CORE_FUEL = 100_000
ELAB_SEEDS = range(300)
MUTATIONS_PER_SOURCE = 2
EXPAND_SEEDS = range(300)
EXPAND_RETRACTION_SEEDS = range(100)
RELATION_PAIRS = range(2000)
RELATIONS = (
    "subtype",
    "precision",
    "gradual_subtype",
    "compatible",
    "gradual_join",
    "gradual_meet",
    "lub",
    "glb",
)
# blanks the lexer must skip, characters it must reject (numerals that are
# not letters among them), and the starts of strings, comments and punctuation
MUTATION_CHARS = " \n\r\x1c\"\\-'()[]:>1x\u00bd\u00b2#"


def _cli(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue()


def observe_conformance() -> str:
    code, out = _cli(*CONFORMANCE_ARGS)
    assert code == cli.EXIT_OK
    return out


def observe_corpus(path: Path) -> dict:
    """Exit code and stdout per subcommand; steps when the program elaborates."""
    obs = {}
    for command in ("check", "elab", "run"):
        code, out = _cli(command, str(path))
        obs[command] = {"exit": code, "stdout": out}
    if obs["run"]["exit"] != cli.EXIT_STATIC:
        res = elaborate.elab_source(path.read_text(encoding="utf-8"))
        obs["steps"] = ev.run(res.sig, res.term).steps
    return obs


def _corpus_programs() -> list[Path]:
    return sorted(CORPUS.glob("*.greff"))


def _expected_corpus() -> dict:
    return json.loads(CORPUS_FILE.read_bytes().decode("utf-8"))


def _resumption_and_corpus_programs() -> list[tuple[str, object, object]]:
    """(name, signature, core term) for each resumption case and each
    corpus program that elaborates."""
    runs = [(f"resumption-{name}", sig, term) for name, sig, term in resumption_cases()]
    for path in _corpus_programs():
        try:
            res = elaborate.elab_source(path.read_text(encoding="utf-8"))
        except STATIC_ERRORS:
            continue
        runs.append((f"corpus-{path.stem}", res.sig, res.term))
    return runs


def _machine_programs() -> list[tuple[str, object, object, int]]:
    """(name, signature, core term, fuel) for every pinned machine run."""
    runs = []
    for seed in MACHINE_CORE_SEEDS:
        sig, term, _ = gen.gen_core_program(seed)
        runs.append((f"core-{seed:03d}", sig, term, MACHINE_CORE_FUEL))
    for row in ("print", "?"):
        res = elaborate.elab_source(queue_walk_source(64, row))
        runs.append((f"queue-walk-64-{row}", res.sig, res.term, ev.DEFAULT_FUEL))
    for name, sig, term in _resumption_and_corpus_programs():
        runs.append((name, sig, term, ev.DEFAULT_FUEL))
    return runs


def observe_machine(sig, term, fuel: int) -> dict:
    """Outcome, step count and the sha256 of the traced (rule, detail) lines."""
    digest = hashlib.sha256()

    def trace(rule: str, detail: str) -> None:
        digest.update(f"{rule}\t{detail}\n".encode("utf-8"))

    result = ev.run(sig, term, fuel=fuel, trace=trace)
    return {
        "outcome": conf.describe_outcome(result.outcome),
        "steps": result.steps,
        "trace_sha256": digest.hexdigest(),
    }


def observe_machine_runs() -> dict:
    runs = _machine_programs()
    return {name: observe_machine(sig, term, fuel) for name, sig, term, fuel in runs}


def observe_readback(sig, term) -> dict:
    """The number of states sampled and the sha256 of their read-backs."""
    digest = hashlib.sha256()
    states = 0

    def sample(state) -> None:
        nonlocal states
        states += 1
        digest.update(core.pretty(ev.reify(state)).encode("utf-8") + b"\n")

    ev.run(sig, term, sample=sample, sample_every=1)
    return {"states": states, "readback_sha256": digest.hexdigest()}


def observe_readbacks() -> dict:
    runs = _resumption_and_corpus_programs()
    return {name: observe_readback(sig, term) for name, sig, term in runs}


def observe_elab(program) -> dict:
    """The sha256 of the elaborated core term and the typing, or the error."""
    try:
        res = elaborate.elab_program(program)
    except elaborate.ElabError as e:
        return {"error": str(e)}
    digest = hashlib.sha256(core.pretty(res.term).encode("utf-8"))
    return {"core_sha256": digest.hexdigest(), "typing": f"{res.eff} ! {res.val}"}


def observe_elaborations() -> dict:
    """Each generated surface program's elaboration, and its imprecise variant's."""
    out = {}
    for seed in ELAB_SEEDS:
        program = gen.gen_surface_program(seed)
        out[f"surface-{seed:03d}"] = observe_elab(program)
        pair = conf.imprecisify(program, random.Random(seed))
        if pair is not None:
            out[f"surface-{seed:03d}-imprecise"] = observe_elab(pair.imprecise)
    return out


def observe_lex(src: str) -> dict:
    """The sha256 of the (kind, text, line, col) stream, or the lexer's error."""
    try:
        tokens = tokenize(src)
    except ParseError as e:
        return {"error": str(e)}
    digest = hashlib.sha256()
    for t in tokens:
        digest.update(f"{t.kind}\t{t.text!r}\t{t.line}\t{t.col}\n".encode("utf-8"))
    return {"tokens": len(tokens), "tokens_sha256": digest.hexdigest()}


def _mutate(src: str, rng: random.Random) -> str:
    """src with one character replaced, deleted, or inserted."""
    i = rng.randrange(len(src))
    c = rng.choice(MUTATION_CHARS)
    how = rng.choice(("replace", "delete", "insert"))
    if how == "replace":
        return src[:i] + c + src[i + 1 :]
    if how == "delete":
        return src[:i] + src[i + 1 :]
    return src[:i] + c + src[i:]


def observe_mutation(src: str) -> dict:
    """observe_lex of src, plus the parser's error or "ok"."""
    obs = observe_lex(src)
    try:
        parse_program(src)
        obs["parse"] = "ok"
    except ParseError as e:
        obs["parse"] = str(e)
    return obs


def observe_token_streams() -> dict:
    """Every generated and corpus program's tokens, and its mutations' outcomes."""
    sources = {
        f"surface-{seed:03d}": pretty_program(gen.gen_surface_program(seed))
        for seed in ELAB_SEEDS
    }
    for path in _corpus_programs():
        sources[f"corpus-{path.stem}"] = path.read_text(encoding="utf-8")
    out = {}
    for name, src in sources.items():
        out[name] = observe_lex(src)
        for m in range(MUTATIONS_PER_SOURCE):
            mutant = _mutate(src, random.Random(f"{name}/{m}"))
            out[f"{name}-mutation-{m}"] = observe_mutation(mutant)
    return out


def _term_sha256(term) -> dict:
    return {"core_sha256": hashlib.sha256(core.pretty(term).encode("utf-8")).hexdigest()}


def observe_expansions() -> dict:
    """The sha256 of every pinned cast expansion, printed with core.pretty."""
    out = {}
    for law in ("effect-cast-handler", "fun-cast-wrapper"):
        for seed in EXPAND_SEEDS:
            out[f"{law}-{seed:03d}"] = _term_sha256(conf.LAWS[law](seed).right)
    for seed in EXPAND_RETRACTION_SEEDS:
        case = conf.case_retraction(seed)
        both = conf.expand_casts(case.sig, case.right, effect=True, function=True)
        out[f"retraction-{seed:03d}"] = _term_sha256(both)
    return out


def _row(rng: random.Random, sig) -> object:
    """?, a row at signature typings, or the same names at drawn typings."""
    r = rng.random()
    if r < 0.2:
        return typesys.DYN
    row = gen.gen_row(rng, sig)
    if r < 0.6:
        return row

    def typing():
        return typesys.OpSig(gen.gen_value_type(rng, sig, 0), gen.gen_value_type(rng, sig, 0))

    return typesys.Concrete({name: typing() for name in row.names()})


def _relation_pair(rng: random.Random) -> tuple:
    """Two value types or two rows: equal, one loosened, or drawn apart."""
    sig = gen.gen_signature(rng, higher_order=True)
    rows = rng.random() < 0.5

    def draw():
        return _row(rng, sig) if rows else gen.gen_value_type(rng, sig)

    t = draw()
    how = rng.choice(("same", "loosen", "fresh", "loosen-fresh"))
    if how == "same":
        u = t
    elif how == "loosen":
        u = gen.loosen(rng, t)
    else:
        u = draw() if how == "fresh" else gen.loosen(rng, draw())
    return (u, t) if rng.random() < 0.5 else (t, u)


def observe_relation(t, u) -> dict:
    """Both types and each relation's result, a bound printed with pretty_type."""
    out = {"t": core.pretty_type(t), "u": core.pretty_type(u)}
    for name in RELATIONS:
        try:
            result = getattr(typesys, name)(t, u)
        except typesys.JoinUndefined as e:
            result = type(e).__name__
        out[name] = result if isinstance(result, (bool, str)) else core.pretty_type(result)
    return out


def observe_relations() -> dict:
    out = {}
    for i in RELATION_PAIRS:
        t, u = _relation_pair(random.Random(f"relations/{i}"))
        out[f"pair-{i:04d}"] = observe_relation(t, u)
    return out


_ROW = s.SNames(("a", "b"))
_FN_TYPE = Arrow(QueueOf(STR), _ROW, Arrow(UNIT, DYN, BOOL))
# every printed form of a term, built from its term children: each term
# class, with each way its flags, binders and annotations change the text
TERM_FORMS = (
    lambda: core.Var("x"),
    lambda: core.BoolLit(True),
    lambda: core.BoolLit(False),
    lambda: core.UnitLit(),
    lambda: core.StrLit('a"b\\\nc'),
    lambda: s.SEmptyQueue(),
    lambda m: core.Lam("x", None, m),
    lambda m: core.Lam("x", _FN_TYPE, m),
    lambda m, n: core.App(m, n),
    lambda m, n: core.Let(m, "x", n),
    lambda m, n: core.Let(m, "_", n),
    lambda m, n, o: core.If(m, n, o),
    lambda m, n: core.Concat(m, n),
    lambda m, n: core.Enqueue(m, n),
    lambda m, n, o: core.CaseQueue(m, n, "h", "t", o),
    lambda m: s.SRaise("e", m),
    lambda m, n: s.SHandle(True, _ROW, STR, m, "r", n, ()),
    lambda m, n, o, p: s.SHandle(
        False, DYN, _FN_TYPE, m, "r", n,
        (s.SClause("e", "p", "k", o), s.SClause("d", "p", "k", p)),
    ),
    lambda m: s.SAscribeType(m, QueueOf(_FN_TYPE)),
    lambda m: s.SAscribeType(m, STR),
    lambda m: s.SAscribeEff(m, _ROW),
    lambda m: s.SAscribeEff(m, DYN),
)
_LEAVES = [form() for form in TERM_FORMS if form.__code__.co_argcount == 0]


def printer_terms() -> list:
    """Every term form at depth 1, each with all children one leaf, then
    every form with one of those at each child position and the leaf y
    at the others."""
    inner = list(_LEAVES)
    for form in TERM_FORMS:
        arity = form.__code__.co_argcount
        if arity:
            inner += [form(*[leaf] * arity) for leaf in _LEAVES]
    terms = list(inner)
    for form in TERM_FORMS:
        arity = form.__code__.co_argcount
        for i in range(arity):
            for sub in inner:
                kids = [core.Var("y")] * arity
                kids[i] = sub
                terms.append(form(*kids))
    return terms


def observe_printer() -> dict:
    """The sha256 of pretty_term over printer_terms, one per term class,
    and of pretty_program over each corpus file."""
    digests: dict = {}
    for t in printer_terms():
        key = f"term-{type(t).__name__}"
        digests.setdefault(key, hashlib.sha256()).update(s.pretty_term(t).encode("utf-8") + b"\n")
    out = {key: {"terms_sha256": d.hexdigest()} for key, d in digests.items()}
    for path in _corpus_programs():
        text = pretty_program(parse_program(path.read_text(encoding="utf-8")))
        out[f"corpus-{path.stem}"] = {"program_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    return out


def test_conformance_seed0_jsonl_is_unchanged():
    assert observe_conformance().encode("utf-8") == CONFORMANCE_FILE.read_bytes()


def test_golden_covers_every_corpus_program():
    assert sorted(_expected_corpus()) == [p.name for p in _corpus_programs()]


@pytest.mark.parametrize("path", _corpus_programs(), ids=lambda p: p.stem)
def test_corpus_outputs_are_unchanged(path):
    assert observe_corpus(path) == _expected_corpus()[path.name]


def test_machine_runs_are_unchanged():
    expected = json.loads(MACHINE_FILE.read_bytes().decode("utf-8"))
    got = observe_machine_runs()
    assert sorted(got) == sorted(expected)
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, f"{len(moved)} runs moved, first: {moved[:5]}"


def test_elaborations_are_unchanged():
    expected = json.loads(ELAB_FILE.read_bytes().decode("utf-8"))
    got = observe_elaborations()
    assert sorted(got) == sorted(expected)
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, f"{len(moved)} elaborations moved, first: {moved[:5]}"


def test_token_streams_are_unchanged():
    expected = json.loads(TOKENS_FILE.read_bytes().decode("utf-8"))
    got = observe_token_streams()
    assert sorted(got) == sorted(expected)
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, f"{len(moved)} token streams moved, first: {moved[:5]}"


def test_expansions_are_unchanged():
    expected = json.loads(EXPAND_FILE.read_bytes().decode("utf-8"))
    got = observe_expansions()
    assert sorted(got) == sorted(expected)
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, f"{len(moved)} expansions moved, first: {moved[:5]}"


def test_relations_are_unchanged():
    expected = json.loads(RELATIONS_FILE.read_bytes().decode("utf-8"))
    got = observe_relations()
    assert sorted(got) == sorted(expected)
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, f"{len(moved)} relation pairs moved, first: {moved[:5]}"


def test_readbacks_are_unchanged():
    expected = json.loads(READBACK_FILE.read_bytes().decode("utf-8"))
    got = observe_readbacks()
    assert sorted(got) == sorted(expected)
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, f"{len(moved)} read-backs moved, first: {moved[:5]}"


def test_printed_forms_are_unchanged():
    expected = json.loads(PRINTER_FILE.read_bytes().decode("utf-8"))
    got = observe_printer()
    assert sorted(got) == sorted(expected)
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, f"{len(moved)} printed forms moved, first: {moved[:5]}"


def test_relations_golden_gives_every_outcome():
    # each relation both holds and fails, and each bound both exists and
    # does not, on at least 100 pinned pairs
    pairs = json.loads(RELATIONS_FILE.read_bytes().decode("utf-8")).values()
    for name in RELATIONS:
        results = [pair[name] for pair in pairs]
        if isinstance(results[0], bool):
            outcomes = [r is True for r in results]
        else:
            outcomes = [r == "JoinUndefined" for r in results]
        assert 100 <= sum(outcomes) <= len(outcomes) - 100, name


def _dump(obj) -> bytes:
    text = json.dumps(obj, indent=1, sort_keys=True, ensure_ascii=False) + "\n"
    return text.encode("utf-8")


def _old(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _jsonl(text: str) -> dict:
    lines = enumerate(text.splitlines(), 1)
    return {f"line {i:03d}": json.loads(line) for i, line in lines}


def _moved(old: dict, new: dict, ignore: tuple[str, ...] = ()) -> list[str]:
    """Keys whose entries differ between old and new in a field outside ignore."""

    def kept(entry):
        return entry and {k: v for k, v in entry.items() if k not in ignore}

    keys = sorted(old.keys() | new.keys())
    return [key for key in keys if kept(old.get(key)) != kept(new.get(key))]


def _report(what: str, names: list[str]) -> None:
    print(f"{len(names)} {what}" + (": " + ", ".join(names) if names else ""))


def _report_pair(old, new, apart, what: str, rest: str, ignore: tuple[str, ...] = ()) -> None:
    """Report the keys that moved outside the fields apart, then those that
    moved only in them; fields in ignore count for neither."""
    outside = _moved(old, new, apart + ignore)
    _report(what, outside)
    _report(rest, [key for key in _moved(old, new, ignore) if key not in outside])


def _report_steps(what: str, old: dict, new: dict, fields: tuple[str, ...]) -> None:
    def total(entries):
        return sum(e.get(f) or 0 for e in entries.values() for f in fields)

    print(f"{what} steps: {total(old)} -> {total(new)}")


def write_golden() -> None:
    """Rewrite the nine files, first printing what moved in each."""
    machine = observe_machine_runs()
    corpus = {p.name: observe_corpus(p) for p in _corpus_programs()}
    elab = observe_elaborations()
    tokens = observe_token_streams()
    expand = observe_expansions()
    relations = observe_relations()
    readback = observe_readbacks()
    printer = observe_printer()
    conformance = observe_conformance()
    old_machine = json.loads(_old(MACHINE_FILE) or "{}")
    old_corpus = json.loads(_old(CORPUS_FILE) or "{}")
    old_lines = _jsonl(_old(CONFORMANCE_FILE))
    new_lines = _jsonl(conformance)
    _report_steps("machine runs", old_machine, machine, ("steps",))
    _report_steps("corpus programs", old_corpus, corpus, ("steps",))
    _report_steps("conformance lines", old_lines, new_lines, ("steps_left", "steps_right"))
    _report_pair(
        old_machine, machine, ("steps", "trace_sha256"),
        "machine runs changed outcome", "machine runs changed only steps or trace",
    )
    _report_pair(
        old_corpus, corpus, ("elab",),
        "corpus programs changed check or run output",
        "corpus programs changed only elab output", ignore=("steps",),
    )
    _report_pair(
        json.loads(_old(ELAB_FILE) or "{}"), elab, ("core_sha256",),
        "elaborations changed typing", "elaborations changed only the core term",
    )
    old_tokens = json.loads(_old(TOKENS_FILE) or "{}")
    _report("token streams or parse errors changed", _moved(old_tokens, tokens))
    _report("expansions changed", _moved(json.loads(_old(EXPAND_FILE) or "{}"), expand))
    old_relations = json.loads(_old(RELATIONS_FILE) or "{}")
    _report("relation pairs changed", _moved(old_relations, relations))
    _report("read-backs changed", _moved(json.loads(_old(READBACK_FILE) or "{}"), readback))
    _report("printed forms changed", _moved(json.loads(_old(PRINTER_FILE) or "{}"), printer))
    lines = _moved(old_lines, new_lines, ("steps_left", "steps_right"))
    _report("conformance lines changed outside steps_left/steps_right", lines)
    GOLDEN.mkdir(exist_ok=True)
    CONFORMANCE_FILE.write_bytes(conformance.encode("utf-8"))
    CORPUS_FILE.write_bytes(_dump(corpus))
    MACHINE_FILE.write_bytes(_dump(machine))
    ELAB_FILE.write_bytes(_dump(elab))
    TOKENS_FILE.write_bytes(_dump(tokens))
    EXPAND_FILE.write_bytes(_dump(expand))
    RELATIONS_FILE.write_bytes(_dump(relations))
    READBACK_FILE.write_bytes(_dump(readback))
    PRINTER_FILE.write_bytes(_dump(printer))


if __name__ == "__main__":
    write_golden()

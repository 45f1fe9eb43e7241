"""The command line driver's outputs and exit codes."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from greff import cli, core, elaborate, gen, reference, surface
from greff import eval as ev
from greff.typesys import EMPTY, Str
from programs import capture_walk_source, cast_loop_source, queue_source, queue_walk_source

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def invoke(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# run


def test_run_threads_imprecise_prints_interleaving():
    code, out, _ = invoke("run", str(CORPUS / "threads_imprecise.greff"))
    assert code == cli.EXIT_OK
    assert out.strip() == "1a2b"


def test_run_threads_precise_agrees():
    code, out, _ = invoke("run", str(CORPUS / "threads_precise.greff"))
    assert code == cli.EXIT_OK
    assert out.strip() == "1a2b"


def test_run_bad_downcast_is_a_cast_error():
    code, out, err = invoke("run", str(CORPUS / "bad_downcast.greff"))
    assert code == cli.EXIT_CAST_ERROR
    assert "cast error" in err


def test_run_bad_import_is_a_static_error():
    code, _, err = invoke("run", str(CORPUS / "bad_import.greff"))
    assert code == cli.EXIT_STATIC
    assert "static error" in err


def test_run_fuel_exhaustion(tmp_path):
    code, _, err = invoke(
        "run", str(CORPUS / "threads_precise.greff"), "--fuel", "40"
    )
    assert code == cli.EXIT_FUEL
    assert "fuel" in err


def test_run_uncaught_operation(tmp_path):
    src = tmp_path / "uncaught.greff"
    src.write_text(
        "module Ops where\n"
        "effect ping : 1 ~> 1\n\n"
        "module Main where\n"
        "import Ops.ping : 1 ~> 1\n\n"
        "define loose : 1 -[?]> 1 =\n"
        "  lambda _. ping(); ()\n\n"
        "define main : 1 =\n"
        "  loose()\n"
    )
    code, _, err = invoke("run", str(src))
    assert code == cli.EXIT_UNCAUGHT
    assert "ping" in err


def test_run_walks_a_queue_of_4096(tmp_path):
    src = tmp_path / "walk.greff"
    src.write_text(queue_walk_source(4096, elem="q"))
    code, out, err = invoke("run", str(src))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == "q" * 4096 + "\n"


def test_run_prints_a_queue_of_2048(tmp_path):
    src = tmp_path / "queue.greff"
    src.write_text(queue_source(2048))
    code, out, err = invoke("run", str(src))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == "(enq " * 2048 + "(emptyq str)" + ' (str "a"))' * 2048 + "\n"


# main's value is a closure whose environment binds a recursive
# function's name: it prints as the lambda with that name read back as the
# function's fix term
RECURSIVE_MAIN = {
    "count": (
        "module Main where\n\n"
        "define count : Queue str -[]> str =\n"
        "  lambda q. match q with\n"
        '    empty -> ""\n'
        "    dequeue(x, q') -> x ++ count q'\n\n"
        "define main : Queue str -[]> str = count\n",
        '(lam (q (queue str)) (caseq (var q) (str "") (x q\' (concat (var x) (app (fix count#0'
        ' (arrow (queue str) (eff) str) (lam (q (queue str)) (caseq (var q) (str "")'
        " (x q' (concat (var x) (app (var count#0) (var q'))))))) (var q'))))))\n",
    ),
    "mk": (
        "module Main where\n\n"
        "define mk : str -[]> Queue str -[]> str =\n"
        "  lambda s. lambda q. match q with\n"
        "    empty -> s\n"
        "    dequeue(x, q') -> x ++ mk s q'\n\n"
        'define main : Queue str -[]> str = mk "z"\n',
        '(lam (q (queue str)) (caseq (var q) (str "z") (x q\' (concat (var x) (app (app'
        " (fix mk#0 (arrow str (eff) (arrow (queue str) (eff) str)) (lam (s str) (lam"
        " (q (queue str)) (caseq (var q) (var s) (x q' (concat (var x) (app (app (var mk#0)"
        ' (var s)) (var q\')))))))) (str "z")) (var q\'))))))\n',
    ),
}


@pytest.mark.parametrize("name", sorted(RECURSIVE_MAIN))
def test_run_prints_a_recursive_function_unrolled(tmp_path, name):
    source, printed = RECURSIVE_MAIN[name]
    src = tmp_path / f"{name}.greff"
    src.write_text(source)
    assert invoke("run", str(src)) == (cli.EXIT_OK, printed, "")


SHARED_BINDERS = {
    "dequeue": (
        "module Main where\n\n"
        "define main : str =\n"
        '  match enqueue (enqueue (enqueue (empty :: Queue str) "a") "b") "c" with\n'
        '    empty -> "none"\n'
        "    dequeue(x, x) -> (match x with\n"
        '      empty -> "mt"\n'
        "      dequeue(y, _) -> y)\n"
    ),
    "clause": (
        "module Ops where\n"
        "effect ask : 1 ~> str\n\n"
        "module Main where\n"
        "import Ops.ask : 1 ~> str\n\n"
        "define main : str =\n"
        '  handle [] str (ask() ++ "!") with\n'
        "    ret r -> r\n"
        '    ask(k, k) -> (k "hi")\n'
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED_BINDERS))
def test_run_binds_a_shared_name_like_the_typechecker(tmp_path, name):
    # the second binder wins: the rest of the queue, the resumption
    src = tmp_path / f"{name}.greff"
    src.write_text(SHARED_BINDERS[name])
    res = elaborate.elab_source(SHARED_BINDERS[name])
    expected = reference.evaluate(res.sig, res.term)
    assert isinstance(expected, ev.Value)
    code, out, err = invoke("run", str(src))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == expected.value.value + "\n"


def test_run_trace_logs_rules():
    code, out, err = invoke(
        "run", str(CORPUS / "threads_precise.greff"), "--trace"
    )
    assert code == cli.EXIT_OK
    assert out.strip() == "1a2b"
    assert len(err.splitlines()) > 50


@pytest.mark.parametrize(
    "source, n", [(capture_walk_source, 256), (cast_loop_source, 64)], ids=["capture-walk", "cast-loop"]
)
def test_traced_probe_runs_print_their_value(tmp_path, source, n):
    src = tmp_path / "probe.greff"
    src.write_text(source(n))
    code, out, err = invoke("run", str(src), "--trace")
    assert code == cli.EXIT_OK
    assert out == "a" * n + "\n"
    assert err.startswith("fix dbl#0\nlet dbl#0\nfix walk#1\nlet walk#1\nbeta acc\nvalue (lam (q (queue str)) ")
    # a collecting trace changes neither the outcome nor the step count
    res = elaborate.elab_source(source(n))
    lines = []
    traced = ev.run(res.sig, res.term, trace=lambda rule, detail: lines.append(rule))
    assert traced == ev.run(res.sig, res.term)
    assert len(lines) == len(err.splitlines())


def test_the_capture_walk_at_2048_runs_within_the_default_fuel(tmp_path):
    # each print raise reaches its handler in one step, however many
    # concats it captures, so the walk takes about 13 steps per element
    src = tmp_path / "walk.greff"
    src.write_text(capture_walk_source(2048))
    code, out, err = invoke("run", str(src))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == "a" * 2048 + "\n"


# ---------------------------------------------------------------------------
# check / elab


def test_check_prints_the_typing():
    code, out, _ = invoke("check", str(CORPUS / "threads_precise.greff"))
    assert code == cli.EXIT_OK
    assert out.strip() == "[] ! str"


def test_check_reports_the_annotated_row_above_the_core_terms(tmp_path):
    # an ascribed row is the program's row, though the core term, a
    # value, raises nothing: check prints a supertype of its core typing
    src = tmp_path / "ascribed.greff"
    src.write_text(
        "module Main where\n"
        "effect print : str ~> 1\n\n"
        'define main : str = "x" :: [print]\n'
    )
    code, out, _ = invoke("check", str(src))
    assert code == cli.EXIT_OK
    assert out == "[print] ! str\n"
    res = elaborate.elab_source(src.read_text())
    assert core.typecheck(res.sig, {}, res.term) == (EMPTY, Str())


def test_check_rejects_bad_import():
    code, _, err = invoke("check", str(CORPUS / "bad_import.greff"))
    assert code == cli.EXIT_STATIC
    assert "ping" in err


def test_elab_prints_core():
    code, out, _ = invoke("elab", str(CORPUS / "bad_downcast.greff"))
    assert code == cli.EXIT_OK
    assert "(handle" in out and "(vdn" in out


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_is_usage():
    code, _, _ = invoke("frobnicate")
    assert code == cli.EXIT_USAGE


def test_missing_file_is_usage():
    code, _, err = invoke("run", "/no/such/file.greff")
    assert code == cli.EXIT_USAGE
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["check", "elab", "run", "graduality"])
def test_a_file_that_is_not_utf8_is_usage(tmp_path, command):
    path = tmp_path / "latin1.greff"
    path.write_bytes('main "caf\xe9"'.encode("latin-1"))
    code, out, err = invoke(command, str(path))
    assert (code, out) == (cli.EXIT_USAGE, "")
    why = "not UTF-8 (invalid continuation byte at byte 9)"
    assert err == f"usage error: cannot read {path}: {why}\n"


def test_nonpositive_fuel_is_usage():
    code, _, _ = invoke("run", str(CORPUS / "threads_precise.greff"), "--fuel", "0")
    assert code == cli.EXIT_USAGE


def test_the_argument_parser_is_built_once(monkeypatch):
    path = str(CORPUS / "threads_precise.greff")
    calls = [("check", path), ("run", "--fuel", "x", path), ("run", path), ("check", path)]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(invoke(*argv))
    assert [code for code, _, _ in fresh] == [0, cli.EXIT_USAGE, 0, 0]

    built = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    building_calls = 0
    reused = []
    for argv in calls + calls[:1] * 6:  # 10 calls in all
        before = built
        reused.append(invoke(*argv))
        building_calls += built > before
    assert reused[: len(calls)] == fresh
    assert building_calls <= 1


@pytest.mark.parametrize("flag", ["--cases", "--fuel"])
@pytest.mark.parametrize("command", ["graduality", "conformance"])
def test_nonpositive_cases_or_fuel_is_usage(command, flag):
    path = (str(CORPUS / "threads_precise.greff"),) if command == "graduality" else ()
    code, out, err = invoke(command, *path, flag, "0")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("usage error:")


# ---------------------------------------------------------------------------
# deep input

DEEP_TERMS = {
    "parentheses": lambda n: "(" * n + '"a"' + ")" * n,
    "let": lambda n: 'let x = "a" in ' * n + "x",
    "lambda": lambda n: "lambda x : 1. " * n + '"a"',
    "concat": lambda n: " ++ ".join(['"a"'] * n),
}


def _deep_program(shape: str, n: int) -> str:
    return f"main {{\n{DEEP_TERMS[shape](n)}\n}}\n"


def _deepest_accepted(shape: str) -> int:
    lo, hi = 1, 10_000  # the parser accepts depth lo and rejects depth hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            surface.parse_program(_deep_program(shape, mid))
            lo = mid
        except surface.ParseError:
            hi = mid
    return lo


@pytest.mark.parametrize("shape", DEEP_TERMS)
def test_a_term_nested_10000_deep_is_a_static_error(tmp_path, shape):
    path = tmp_path / "deep.greff"
    path.write_text(_deep_program(shape, 10_000))
    message = rf"static error: 2:\d+: nested more than {surface.MAX_DEPTH} levels deep\n"
    for command in ("check", "elab", "run"):
        code, out, err = invoke(command, str(path))
        assert (code, out) == (cli.EXIT_STATIC, "")
        assert re.fullmatch(message, err)


@pytest.mark.parametrize("shape", DEEP_TERMS)
def test_the_deepest_accepted_term_checks_elaborates_and_runs(tmp_path, shape):
    assert sys.getrecursionlimit() == 1000  # the interpreter's default
    n = _deepest_accepted(shape)
    assert n > surface.MAX_DEPTH // 3  # a pair of parentheses costs two levels
    path = tmp_path / "deep.greff"
    path.write_text(_deep_program(shape, n))
    for command in ("check", "elab", "run"):
        code, _, err = invoke(command, str(path))
        assert (code, err) == (cli.EXIT_OK, "")


# ---------------------------------------------------------------------------
# fuzzed input

# every outcome a file can cause, not counting 70, an internal error
FILE_EXITS = {
    cli.EXIT_OK,
    cli.EXIT_STATIC,
    cli.EXIT_CAST_ERROR,
    cli.EXIT_FUEL,
    cli.EXIT_UNCAUGHT,
    cli.EXIT_USAGE,
}


def _token_starts(src: str) -> list[int]:
    """The offset of each token, the end of input last."""
    line_starts = [0] + [i + 1 for i, c in enumerate(src) if c == "\n"]
    return [line_starts[t.line - 1] + t.col - 1 for t in surface.tokenize(src)]


@st.composite
def fuzzed_sources(draw) -> bytes:
    """A generated program printed back, mutated by tokens, nested past
    MAX_DEPTH, or random bytes."""
    how = draw(st.sampled_from(["printed", "mutated", "deep", "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=300))
    src = surface.pretty_program(gen.gen_surface_program(draw(st.integers(0, 10_000))))
    if how == "mutated":
        for _ in range(draw(st.integers(1, 3))):
            starts = _token_starts(src)
            i = draw(st.integers(0, len(starts) - 2))
            a, b = starts[i], starts[i + 1]  # the token and the blanks after it
            src = src[:a] + src[b:] if draw(st.booleans()) else src[:b] + src[a:]
    elif how == "deep":
        # parentheses around one token: a pair costs two levels
        starts = _token_starts(src)
        i = draw(st.integers(0, len(starts) - 2))
        a, b = starts[i], starts[i + 1]
        n = draw(st.integers(surface.MAX_DEPTH // 2 - 5, 2 * surface.MAX_DEPTH))
        src = src[:a] + "(" * n + src[a:b] + ")" * n + " " + src[b:]
    return src.encode("utf-8")


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(fuzzed_sources())
def test_fuzzed_input_never_is_an_internal_error(tmp_path, data):
    # each example writes a new file and removes it: overwriting the same
    # file in place costs tens of milliseconds a time on some disks
    path = tmp_path / "fuzz.greff"
    path.write_bytes(data)
    try:
        for argv in (("check", str(path)), ("run", "--fuel", "20000", str(path))):
            code, _, err = invoke(*argv)
            assert code in FILE_EXITS and "internal error" not in err, (argv, code, err)
    finally:
        path.unlink()


# ---------------------------------------------------------------------------
# internal errors


@pytest.mark.parametrize(
    "exc, line",
    [
        (ev.StuckState("no rule for this"), "internal error: StuckState: no rule for this"),
        (RuntimeError("two\nlines"), "internal error: RuntimeError: two lines"),
    ],
)
def test_internal_error_is_one_line(monkeypatch, exc, line):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(ev, "run", broken)
    code, out, err = invoke("run", str(CORPUS / "threads_precise.greff"))
    assert (code, out, err) == (70, "", line + "\n")
    assert cli.EXIT_INTERNAL == 70


def test_a_closed_pipe_returns_141_and_writes_nothing_more():
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = io.StringIO()
    code = cli.main(["run", str(CORPUS / "threads_precise.greff")], out=Closed(), err=err)
    assert (code, err.getvalue()) == (cli.EXIT_PIPE, "")
    assert cli.EXIT_PIPE == 141


# ---------------------------------------------------------------------------
# batches


def test_graduality_on_corpus_file():
    code, out, err = invoke(
        "graduality", str(CORPUS / "threads_precise.greff"), "--cases", "5"
    )
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        rec = json.loads(line)
        assert rec["check"] == "graduality"
        assert rec["verdict"] in ("holds", "inconclusive")
    assert "0 violations" in err


def test_graduality_is_deterministic():
    args = ("graduality", str(CORPUS / "threads_imprecise.greff"), "--cases", "4")
    one = invoke(*args)
    two = invoke(*args)
    assert one == two


def test_graduality_without_sites(tmp_path):
    src = tmp_path / "pure.greff"
    src.write_text("main {\ntrue\n}\n")
    code, out, err = invoke("graduality", str(src))
    assert code == cli.EXIT_OK
    assert out == ""
    assert "no effect annotation sites" in err


def test_conformance_batch():
    code, out, err = invoke("conformance", "--cases", "2", "--seed", "9")
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2 * 8
    checks = {json.loads(line)["check"] for line in lines}
    assert "factorization" in checks and "graduality" in checks
    assert "0 violations" in err


def test_a_side_that_crashes_is_recorded_and_the_batch_goes_on(monkeypatch):
    from greff import conformance as conf

    args = ("conformance", "--cases", "2", "--seed", "0")
    code, plain, _ = invoke(*args)
    assert code == cli.EXIT_OK
    seed = conf.case_seed(0, 1)
    crashing, run = conf.LAWS["retraction"](seed).right, ev.run

    def run_or_crash(sig, term, **kw):
        if term == crashing:
            raise ev.StuckState("planted")
        return run(sig, term, **kw)

    monkeypatch.setattr(ev, "run", run_or_crash)
    code, out, err = invoke(*args)
    assert code == cli.EXIT_VIOLATION
    assert "16 cases, 1 violations" in err
    changed = [(a, b) for a, b in zip(plain.splitlines(), out.splitlines()) if a != b]
    assert len(out.splitlines()) == 16 and len(changed) == 1
    before, after = map(json.loads, changed[0])
    assert after == {
        **before, "verdict": "violated", "right": "crash StuckState: planted", "steps_right": 0,
    }
    assert (after["check"], after["seed"]) == ("retraction", seed)


def test_conformance_out_of_fuel_is_inconclusive():
    code, out, err = invoke("conformance", "--cases", "2", "--fuel", "3")
    assert code == cli.EXIT_OK
    assert "0 violations" in err
    ran = [r for r in map(json.loads, out.splitlines()) if r["left"] != "static"]
    assert ran
    assert {r["verdict"] for r in ran} == {"inconclusive"}


# ---------------------------------------------------------------------------
# the module entry point


def test_module_invocation_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "greff.cli", "run", str(CORPUS / "threads_imprecise.greff")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1a2b"


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_module_invocation_into_a_closed_pipe(buffered):
    # the reader is gone before greff writes a byte.  Unbuffered, the first
    # record fails; buffered, the flush after the summary line does, and the
    # interpreter's own flush at exit must not report it again
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = ["-m", "greff.cli", "conformance", "--cases", "2", "--fuel", "5"]
    proc = subprocess.run(
        [sys.executable, *([] if buffered else ["-u"]), *argv],
        stdout=write, stderr=subprocess.PIPE, env=env, text=True,
    )
    os.close(write)
    summary = "16 cases, 0 violations\n" if buffered else ""
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, summary)

"""Command line driver.

Subcommands cover the whole pipeline: `check` reports a program's
typing, `elab` prints its cast-calculus elaboration, `run` evaluates it
on the frame machine, and `graduality` / `conformance` drive the
randomized metatheory batches.

Exit codes are part of the interface and depend only on the input file,
the flags, and the seed:

    0   success (a run ends in a value)
    1   static error: lexing, parsing (a term nested too deeply among
        them), elaboration, or typechecking
    2   the machine stopped with a cast error
    3   fuel ran out
    4   a conformance or graduality batch found a violation
    5   an operation reached the top level unhandled
    64  bad invocation or unreadable input
    70  internal error: a bug in greff, reported on one line
    141 the reader closed the output early (128 + SIGPIPE); nothing
        more is written
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import core
from . import elaborate
from . import eval as ev
from . import surface
from .surface import ParseError

EXIT_OK = 0
EXIT_STATIC = 1
EXIT_CAST_ERROR = 2
EXIT_FUEL = 3
EXIT_VIOLATION = 4
EXIT_UNCAUGHT = 5
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # EX_SOFTWARE
EXIT_PIPE = 141  # 128 + SIGPIPE


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2; invocation problems must map to 64
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        where = f"{e.reason} at byte {e.start}"
        raise _UsageError(f"cannot read {path}: not UTF-8 ({where})")


def _elab(path: str) -> elaborate.ElabResult:
    return elaborate.elab_source(_read(path))


def cmd_check(path: str, out=sys.stdout) -> int:
    res = _elab(path)
    print(f"{res.eff} ! {res.val}", file=out)
    return EXIT_OK


def cmd_elab(path: str, out=sys.stdout) -> int:
    res = _elab(path)
    print(core.pretty(res.term), file=out)
    return EXIT_OK


def cmd_run(path: str, fuel: int, tracing: bool, out=sys.stdout, err=sys.stderr) -> int:
    res = _elab(path)
    trace = None
    if tracing:

        def trace(rule: str, detail: str) -> None:
            line = f"{rule} {detail}" if detail else rule
            print(line, file=err)

    result = ev.run(res.sig, res.term, fuel=fuel, trace=trace)
    o = result.outcome
    if isinstance(o, ev.Value):
        if isinstance(o.value, core.StrLit):
            print(o.value.value, file=out)
        else:
            print(core.pretty(o.value), file=out)
        return EXIT_OK
    if isinstance(o, ev.Error):
        print("cast error", file=err)
        return EXIT_CAST_ERROR
    if isinstance(o, ev.UncaughtRaise):
        print(f"uncaught operation: {o.op}", file=err)
        return EXIT_UNCAUGHT
    print(f"out of fuel after {o.steps} steps", file=err)
    return EXIT_FUEL


def cmd_graduality(
    path: str, fuel: int, seed: int, cases: int, out=sys.stdout, err=sys.stderr
) -> int:
    """Blur the file's effect annotations and compare against the original."""
    import random  # imported here, so that check, elab and run start without them
    from . import conformance as conf
    program = surface.parse_program(_read(path))
    if conf.count_effect_sites(program) == 0:
        print("no effect annotation sites to blur", file=err)
        return EXIT_OK
    violations = 0
    for i in range(cases):
        case = conf.case_seed(seed, i)
        pair = conf.imprecisify(program, random.Random(case))
        assert pair is not None
        rec = conf.graduality_record(case, pair, fuel=fuel)
        print(rec.to_json(), file=out)
        if rec.verdict == "violated":
            violations += 1
    print(f"{cases} cases, {violations} violations", file=err)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_conformance(fuel: int, seed: int, cases: int, out=sys.stdout, err=sys.stderr) -> int:
    from . import conformance as conf
    report = conf.run_conformance(
        seed=seed,
        cases_per_law=cases,
        fuel=fuel,
        emit=lambda line: print(line, file=out),
    )
    bad = report.violations
    print(f"{len(report.records)} cases, {len(bad)} violations", file=err)
    return EXIT_VIOLATION if bad else EXIT_OK


def _at_least_1(text: str) -> int:
    """argparse's type for --fuel and --cases."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


@functools.cache  # built on the first call and reused: parse_args keeps no state
def _build_parser() -> _Parser:
    p = _Parser(prog="greff", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="typecheck a program and print its typing")
    c.add_argument("file")

    e = sub.add_parser("elab", help="print a program's cast-calculus elaboration")
    e.add_argument("file")

    r = sub.add_parser("run", help="evaluate a program on the frame machine")
    r.add_argument("file")
    r.add_argument("--fuel", type=_at_least_1, default=ev.DEFAULT_FUEL)
    r.add_argument("--trace", action="store_true")

    g = sub.add_parser("graduality", help="blur a file's annotations and compare")
    g.add_argument("file")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--cases", type=_at_least_1, default=25)
    g.add_argument("--fuel", type=_at_least_1, default=200_000)

    k = sub.add_parser("conformance", help="run the randomized law batches")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--cases", type=_at_least_1, default=25)
    k.add_argument("--fuel", type=_at_least_1, default=200_000)

    return p


def _command(ns: argparse.Namespace, out, err) -> int:
    if ns.command == "check":
        return cmd_check(ns.file, out=out)
    if ns.command == "elab":
        return cmd_elab(ns.file, out=out)
    if ns.command == "run":
        return cmd_run(ns.file, ns.fuel, ns.trace, out=out, err=err)
    if ns.command == "graduality":
        return cmd_graduality(ns.file, ns.fuel, ns.seed, ns.cases, out=out, err=err)
    return cmd_conformance(ns.fuel, ns.seed, ns.cases, out=out, err=err)


def main(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    parser = _build_parser()
    try:
        code = _command(parser.parse_args(argv), out, err)
        out.flush()  # a closed pipe must fail here, not in the flush at exit
        return code
    except _UsageError as e:
        print(f"usage error: {e}", file=err)
        return EXIT_USAGE
    except (ParseError, elaborate.ElabError, core.TypeCheckError) as e:
        print(f"static error: {e}", file=err)
        return EXIT_STATIC
    except BrokenPipeError:
        # the reader is gone: write nothing more, and send the interpreter's
        # flush at exit to devnull instead of the closed pipe
        for stream in {out, err} & {sys.stdout, sys.stderr}:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return EXIT_PIPE
    except Exception as e:  # StuckState, ReferenceBug, or a crash: all bugs
        message = f"{type(e).__name__}: {e}".replace("\n", " ")
        print(f"internal error: {message}", file=err)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Programs that several tests run: surface programs built at a chosen
size, and core terms that exercise resumptions."""

from greff.core import (
    UNIT, App, CaseQueue, Clause, Concat, EmptyQueue, Enqueue, Handle, Lam, Let,
    Raise, StrLit, ValDowncast, ValUpcast, Var,
)
from greff.typesys import DYN, EMPTY, Arrow, Concrete, OpSig, QueueOf, Signature, Str, Unit


_DBL = """define dbl : Queue str -[]> Queue str -[]> Queue str =
  lambda acc. lambda q. match q with
    empty -> acc
    dequeue(x, q') -> dbl (enqueue (enqueue acc x) x) q'
"""


def _doubled(n: int, elem: str) -> str:
    """An expression for a queue of n copies of elem, built by doubling;
    n must be a power of two."""
    k = n.bit_length() - 1
    if n != 1 << k:
        raise ValueError(f"queue size {n} is not a power of two")
    q = f'enqueue empty "{elem}"'
    for _ in range(k):
        q = f"dbl empty ({q})"
    return q


def _print_walk(walk: str, main: str) -> str:
    """Two modules: Ops declares print, and Main imports it and defines
    dbl, then walk and main as given."""
    return f"""module Ops where
effect print : str ~> 1

module Main where
import Ops.print : str ~> 1

{_DBL}
{walk}
{main}"""


def queue_walk_source(n: int, row: str = "print", elem: str = "a") -> str:
    """Walk a queue of n copies of elem, raising print once per element.

    The raises run under a deep handler whose clause is `(k ()) ++ s`, so
    the program prints elem n times.  The queue is built by doubling, so
    n must be a power of two; row is the walker's effect row, `print` or
    `?`.
    """
    return _print_walk(
        f"""define walk : Queue str -[{row}]> 1 =
  lambda q. match q with
    empty -> ()
    dequeue(x, q') -> print(x); walk q'
""",
        f"""define main : str =
  handle [] str (walk ({_doubled(n, elem)})) with
    ret _ -> ""
    print(s, k) -> (k ()) ++ s
""",
    )


def capture_walk_source(n: int) -> str:
    """Walk a queue of n copies of "a" without tail calls: each element
    is concatenated onto the rest of the walk, so every print raise
    captures the frames of the concats around it.  The deep handler
    resumes with `k ()`, and the program prints "a" n times."""
    return _print_walk(
        """define walk : Queue str -[print]> str =
  lambda q. match q with
    empty -> ""
    dequeue(x, q') -> x ++ (print(x); walk q')
""",
        f"""define main : str =
  handle [] str (walk ({_doubled(n, "a")})) with
    ret s -> s
    print(s, k) -> k ()
""",
    )


def cast_loop_source(n: int) -> str:
    """The queue walk at the dynamic row, calling itself through an
    ascription to `Queue str -[print]> 1`, so every round trip adds an
    arrow cast and every print raise crosses the effect casts it left.
    The program prints "a" n times."""
    return _print_walk(
        """define walk : Queue str -[?]> 1 =
  lambda q. match q with
    empty -> ()
    dequeue(x, q') -> print(x); (walk :: Queue str -[print]> 1) q'
""",
        f"""define main : str =
  handle [] str (walk ({_doubled(n, "a")})) with
    ret _ -> ""
    print(s, k) -> (k ()) ++ s
""",
    )


def queue_source(n: int, elem: str = "a") -> str:
    """A program whose value is a queue of n copies of elem, built by
    doubling; n must be a power of two."""
    return f"""module Main where

{_DBL}
define main : Queue str = {_doubled(n, elem)}
"""


def resumption_cases():
    """(name, signature, core term) for handled raises whose resumptions
    resume every kind of captured frame.

    A raise in a queue element, a queue, under arrow casts, in a
    function argument or a concat's right operand; resumptions applied
    twice, returned as the result, and stored in a queue.  Every term
    typechecks.
    """
    s, u = Str(), Unit()
    qs = QueueOf(s)
    fn, fn_dyn = Arrow(s, EMPTY, s), Arrow(s, DYN, s)
    sig = Signature({"ask": OpSig(u, s), "getf": OpSig(u, fn_dyn), "getq": OpSig(u, qs)})
    ask = Raise("ask", u, s, UNIT)
    asks = Concrete({"ask": OpSig(u, s)})

    def handle(body, op, resp, clause, ty, deep=True, eff=EMPTY, ret=None):
        c = Clause(op, "p", "k", clause, u, resp)
        return Handle(body, "x", ret or Var("x"), (c,), eff, ty, deep)

    def twice(a, b, keep):
        return Let(App(Var("k"), StrLit(a)), "r1", Let(App(Var("k"), StrLit(b)), "r2", Var(keep)))

    x_ask_z = Enqueue(Enqueue(Enqueue(EmptyQueue(s), StrLit("x")), ask), StrLit("z"))
    get_q = Raise("getq", u, qs, UNIT)
    w = App(Var("k"), Enqueue(EmptyQueue(s), StrLit("w")))
    cases = {
        "enqueue-elem-first-shot": handle(x_ask_z, "ask", s, twice("a", "b", "r1"), qs),
        "enqueue-elem-second-shot": handle(x_ask_z, "ask", s, twice("a", "b", "r2"), qs),
        "enqueue-elem-replayed": handle(
            Enqueue(Enqueue(EmptyQueue(s), StrLit("x")), Concat(StrLit("a"), ask)),
            "ask", s, twice("b", "c", "r1"), qs,
        ),
        "enqueue-queue": handle(
            Enqueue(Enqueue(get_q, StrLit("y")), StrLit("z")), "getq", qs, w, qs
        ),
        "enqueue-queue-replayed": handle(
            Enqueue(get_q, Concat(StrLit("y"), StrLit("z"))), "getq", qs, w, qs
        ),
        "arrow-casts": handle(
            App(ValDowncast(fn, fn_dyn, ValUpcast(fn, fn_dyn, Raise("getf", u, fn, UNIT))), StrLit("x")),
            "getf", fn, App(Var("k"), Lam("s", s, Concat(Var("s"), StrLit("!")))), s,
        ),
        "argument-and-concat": handle(
            Concat(StrLit("pre"), App(Lam("s", s, Concat(Var("s"), StrLit("?"))), ask)),
            "ask", s, Concat(App(Var("k"), StrLit("a")), App(Var("k"), StrLit("b"))), s,
        ),
        "returned": handle(
            Concat(StrLit("pre"), ask), "ask", s, Var("k"), Arrow(s, asks, s),
            deep=False, ret=Lam("y", s, Var("x")),
        ),
        "shallow-twice": handle(
            Concat(ask, ask), "ask", s, Concat(App(Var("k"), StrLit("a")), StrLit("|")), s,
            deep=False, eff=asks,
        ),
        "stored-in-queue": handle(
            Concat(StrLit("a"), ask), "ask", s,
            CaseQueue(Enqueue(EmptyQueue(fn), Var("k")), StrLit("none"), "f", "r",
                      App(Var("f"), StrLit("b"))),
            s,
        ),
    }
    return [(name, sig, term) for name, term in cases.items()]

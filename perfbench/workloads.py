"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs every
operation once per ``run_pass`` through greff's public entry points, and
in ``expected`` works out, from a source other than the frame machine,
what each operation must return; ``ok`` checks one output against it.
Operations are timed one by one and their times scaled by a
``HostClock``; an operation that raises is recorded as a ``Crash`` and
the pass goes on.
"""

from __future__ import annotations

import io
import json
import random
import string
import time
from dataclasses import dataclass
from pathlib import Path

from hostclock import HostClock

# Queue sizes for queue-loop.  N=1024 is left out on purpose: at this
# commit `greff run` spends about 4.6 s on it and then dies with a
# RecursionError in core.subst (exit 1), so a timed run would mostly
# measure the road to that crash.  Add it once the machine runs it to a
# value.
QUEUE_SIZES = (64, 128, 256)
QUEUE_ROWS = ("print", "?")
SCHEDULER_ITEMS = 32
MIXES = tuple(a + b + c for a in "IP" for b in "IP" for c in "IP")
CONFORMANCE_CASES = 300  # per family; 8 families
CONFORMANCE_FUEL = 200_000
FRONTEND_PROGRAMS = 1000


@dataclass(frozen=True)
class Crash:
    """An operation raised instead of returning."""

    error: str


class Workload:
    name = ""

    def __init__(self, greff, root: Path, work: Path, seed: int, scale: float = 1.0):
        self.g = greff  # namespace of greff modules
        self.root = root
        self.work = work  # where generated programs are written
        self.seed = seed
        self.scale = scale  # the self-test shrinks workloads with this
        self.ops: list[tuple[str, object]] = []  # (label, input)
        self.clock = HostClock()

    def sized(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> list[tuple[str, float, object]]:
        """Run each operation once: (label, scaled seconds, output) per operation."""
        out = []
        before = self.clock.tick()
        for label, arg in self.ops:
            if tracer is not None:
                tracer.label = label
            t0 = time.perf_counter()
            try:
                got = self.op(arg)
            except Exception as e:  # any crash is a failed operation
                got = Crash(f"{type(e).__name__}: {e}"[:200])
            dt = time.perf_counter() - t0
            after = self.clock.tick()
            out.append((label, dt * (before + after) / 2, got))
            before = after
        return out

    def op(self, arg) -> object:
        raise NotImplementedError

    def expected(self) -> dict[str, object]:
        """label -> the output the operation must give; None = always wrong."""
        raise NotImplementedError

    def prepare_check(self) -> None:
        """Work out the expected outputs; runs once, outside the timing."""
        self.want = self.expected()

    def ok(self, label: str, got) -> bool:
        want = self.want.get(label)
        return not isinstance(got, Crash) and want is not None and got == want

    # -- shared helpers ---------------------------------------------------

    def _write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        rc = self.g.cli.main(argv, out=out, err=err)
        return rc, out.getvalue()

    def _reference_output(self, path: str):
        """What `greff run` must print, by the direct-style evaluator."""
        g = self.g
        res = g.elaborate.elab_source(Path(path).read_text(encoding="utf-8"))
        o = g.reference.evaluate(res.sig, res.term)
        if isinstance(o, g.eval.Value) and isinstance(o.value, g.core.StrLit):
            return 0, o.value.value + "\n"
        return None


class QueueLoop(Workload):
    """A recursive walk over a Queue str that prints once per element
    under a deep handler; eval and core.subst do nearly all the work."""

    name = "queue-loop"

    def setup(self) -> None:
        self.elem = random.Random(self.seed).choice(string.ascii_lowercase)
        self.ops = []
        for nominal in QUEUE_SIZES:
            n = self.sized(nominal)
            for row in QUEUE_ROWS:
                label = f"n{nominal}-{'dyn' if row == '?' else row}"
                path = self._write(f"{label}.greff", queue_program(n, row, self.elem))
                self.ops.append((label, (path, n)))

    def op(self, arg):
        return self._cli(["run", arg[0]])

    def expected(self):
        want = {}
        for label, (path, n) in self.ops:
            ref = self._reference_output(path)
            want[label] = ref if ref == (0, self.elem * n + "\n") else None
        return want


def queue_program(n: int, row: str, elem: str) -> str:
    """Walk a queue of n copies of elem, raising print once per element.

    The queue is built by doubling, so n must be a power of two.
    """
    k = n.bit_length() - 1
    if n != 1 << k:
        raise ValueError(f"queue size {n} is not a power of two")
    q = f'enqueue empty "{elem}"'
    for _ in range(k):
        q = f"dbl empty ({q})"
    return f"""module Ops where
effect print : str ~> 1

module Main where
import Ops.print : str ~> 1

define dbl : Queue str -[]> Queue str -[]> Queue str =
  lambda acc. lambda q. match q with
    empty -> acc
    dequeue(x, q') -> dbl (enqueue (enqueue acc x) x) q'

define walk : Queue str -[{row}]> 1 =
  lambda q. match q with
    empty -> ()
    dequeue(x, q') -> print(x); walk q'

define main : str =
  handle [] str (walk ({q})) with
    ret _ -> ""
    print(s, k) -> (k ()) ++ s
"""


class Scheduler(Workload):
    """The corpus round-robin scheduler in all 8 precision mixes, with a
    generated Main whose two threads print and yield over their items."""

    name = "scheduler"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        n = self.sized(SCHEDULER_ITEMS)
        items = [
            ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 3))) for _ in range(n)]
            for _ in range(2)
        ]
        self.ops = []
        for mix in MIXES:
            text = (self.root / "corpus" / f"combo_{mix}.greff").read_text(encoding="utf-8")
            head = text[: text.index("module Main where")]
            path = self._write(f"{mix}.greff", head + scheduler_main(mix[2] == "P", *items))
            self.ops.append((mix, path))

    def op(self, path):
        return self._cli(["run", path])

    def expected(self):
        refs = {mix: self._reference_output(path) for mix, path in self.ops}
        agreed = set(refs.values())
        return {mix: ref if len(agreed) == 1 else None for mix, ref in refs.items()}


def scheduler_main(precise: bool, left: list[str], right: list[str]) -> str:
    """Main module: `right` forks `left`, then both print and yield per item."""

    def queue(items):
        q = "empty"
        for x in items:
            q = f'(enqueue {q} "{x}")'
        return q

    def row(ops):
        return ops if precise else "?"

    return f"""module Main where
import Operations.print : str ~> 1
import Operations.yield : 1 ~> 1
import Operations.fork : (1 -[{row("print,yield")}]> 1) ~> 1
import Scheduler.scheduler : (1 -[{row("fork,print,yield")}]> 1) -[{row("")}]> str

define walk : Queue str -[{row("print,yield")}]> 1 =
  lambda q. match q with
    empty -> ()
    dequeue(x, q') -> print(x); yield(); walk q'

define left : 1 -[{row("print,yield")}]> 1 =
  lambda _. walk {queue(left)}

define right : 1 -[{row("fork,print,yield")}]> 1 =
  lambda _. fork(left); walk {queue(right)}

define main : str =
  scheduler(right)
"""


class Conformance(Workload):
    """One seed's run_conformance batch: thousands of tiny programs, so
    fixed per-call costs dominate.  An operation is one case; its time
    runs from the previous record's emission to its own, and the clock
    calibrates between cases."""

    name = "conformance"

    def setup(self) -> None:
        self.cases = self.sized(CONFORMANCE_CASES)

    def run_pass(self, tracer=None):
        out = []
        before = self.clock.tick()
        last = time.perf_counter()

        def emit(line: str) -> None:
            nonlocal last, before
            dt = time.perf_counter() - last
            after = self.clock.tick()
            out.append((f"case-{len(out)}", dt * (before + after) / 2, json.loads(line)))
            before = after
            last = time.perf_counter()

        if tracer is not None:
            tracer.label = "batch"
        try:
            self.g.conformance.run_conformance(
                seed=self.seed, cases_per_law=self.cases, fuel=CONFORMANCE_FUEL, emit=emit
            )
        except Exception as e:  # the rest of the batch is lost: one failure
            out.append((f"case-{len(out)}", (time.perf_counter() - last) * before,
                        Crash(f"{type(e).__name__}: {e}"[:200])))
        return out

    def expected(self):
        return {}

    def ok(self, label, got):
        """A violated verdict fails, and so does a record that differs
        from the same case's record in the first pass."""
        first = self.want.setdefault(label, got)
        return not isinstance(got, Crash) and got["verdict"] != "violated" and got == first


class Frontend(Workload):
    """`greff check` over generated programs printed back to source, plus
    the 8 corpus mixes: the lexer and parser do about half the work."""

    name = "frontend"

    def setup(self) -> None:
        g = self.g
        base = self.seed * 100_003
        self.ops = []
        for i in range(self.sized(FRONTEND_PROGRAMS)):
            text = g.surface.pretty_program(g.gen.gen_surface_program(base + i))
            self.ops.append((f"gen-{i:04d}", self._write(f"gen-{i:04d}.greff", text)))
        for mix in MIXES:
            self.ops.append((f"corpus-{mix}", str(self.root / "corpus" / f"combo_{mix}.greff")))

    def op(self, path):
        return self._cli(["check", path])

    def expected(self):
        """The elaborator's typing, which core.typecheck must reproduce."""
        g = self.g
        want = {}
        for label, path in self.ops:
            res = g.elaborate.elab_source(Path(path).read_text(encoding="utf-8"))
            agrees = g.core.typecheck(res.sig, {}, res.term) == (res.eff, res.val)
            want[label] = (0, f"{res.eff} ! {res.val}\n") if agrees else None
        return want


WORKLOADS = {w.name: w for w in (QueueLoop, Scheduler, Conformance, Frontend)}

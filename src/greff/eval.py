"""Frame-stack interpreter for core terms: an environment machine.

Evaluation is small-step over a machine state: a control (a term being
evaluated in an environment, a runtime value being returned, or an
operation being raised) plus a persistent stack of frames, one per
evaluation-context layer.  Most frames are a Ctx: the compound core
term whose first operand is being evaluated, with the environment that
closes it, so core.FIELDS says which field is the hole and which
binders cover the rest.  The others hold a value already computed or a
cast.  Binding extends an environment; nothing is substituted while
the machine runs, so a step costs the same however large the program
or its data.  After Felleisen & Friedman's CEK machine.

Runtime values are the literals themselves, closures, queues backed by
shared lists, arrow-cast proxies and resumptions.  A recursive function
binds its own name to a fix-closure, which is not a value: looking it
up unrolls the fixpoint again.

A raised operation walks the stack one frame per step; frames that
neither handle nor intercept the operation are captured, and when a
handler with a matching clause is found the captured frames become a
resumption bound to the clause's resumption variable.  Deep handlers
add themselves as the outermost captured frame, shallow ones do not.
Applying a resumption pushes its frames back onto the stack and returns
the argument to them, all in one step.

Effect casts are transparent to returning values.  A raise crossing an
upcast is re-raised with its payload cast between the two rows'
typings; crossing a downcast does the same when the target row
mentions the operation and stops the program with a cast error when
the source row is dynamic and the target omits it.  Casts between
arrow types are inert proxy values that fire at application, casting
the argument one way and the effects and result the other.  A cast
frame whose ends are equal does nothing, so none is ever pushed: not
for a proxy's effects or result, nor for the response of a raise that
crossed an effect cast.

The machine runs on three registers, frames, a and b, and builds no
state object per step: each rule returns the next three as a tuple,
(frames, term, env) to evaluate, (frames, RETURN, value) to return,
(frames, RAISE, raising) to raise, or (frames, HALT, outcome) at the
end.  Registers hold chains: the frames register is None when empty or
a pair (innermost frame, rest), so a push allocates one tuple and a pop
unpacks one, and a raise's captured frames are two such chains.  Only
run's sample hook sees a MachineState, built from the registers by
_state, and reify reads it back.  A sampled state shows every chain as
a tuple, innermost first, and its control is a Ctx while a term is
evaluated, a Raising while an operation is raised, or the value itself
(never a Ctx or a Raising) while it is returned.  A trace line is
built only when tracing is on: each rule tests for a trace before it
spells its detail, and run prints the value line after an eval step
that returned a value.

Every state still denotes a closed term: reify reads it back by
substituting environments into the terms they close over, which is
done only when asked for (a final value, a sampled state, a stuck
state's message).  A traced `value` line spells its value without
reading it back, and shows a resumption as `<resume %rN: K frames>`.
That term does not always typecheck.  Read back at every
step, states of 8 of the 11 corpus programs that elaborate fail
core.typecheck: a shallow handler whose scrutinee has become a value
types its resumption k at the row [] (combo_III, combo_IIP, combo_PII,
combo_PIP, threads_imprecise), `raise fork` sits under a narrower row
(combo_IIP, combo_PIP, combo_IPI, combo_PPI), and a failed downcast
leaves `err` as a handler's scrutinee, where the checker has no typing
to give it (bad_downcast); ROADMAP item 9 tracks all three, and
test_readback_typing_failures_are_the_three_known in test_eval.py reads
back every state of those 11 programs and pins exactly these failures.
The direct-style evaluator in reference.py implements the same
semantics with none of this machinery and serves as the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Union

from . import core
from .typesys import (
    Arrow,
    Dyn,
    EffectType,
    OpSig,
    QueueOf,
    Signature,
    ValueType,
)

DEFAULT_FUEL = 1_000_000

_record = dataclass(slots=True, eq=False)


class StuckState(Exception):
    """No rule applies: an interpreter bug, unreachable on typechecked input."""


# ---------------------------------------------------------------------------
# Outcomes


@dataclass(frozen=True)
class Value:
    value: object


@dataclass(frozen=True)
class Error:
    """The program stopped with a cast error."""


@dataclass(frozen=True)
class UncaughtRaise:
    op: str


@dataclass(frozen=True)
class FuelExhausted:
    steps: int


Outcome = Union[Value, Error, UncaughtRaise, FuelExhausted]


# ---------------------------------------------------------------------------
# Chains of frames: None, or a cell (frame, rest)

Env = Mapping[str, object]
NO_ENV: Env = MappingProxyType({})
Cells = Optional[tuple]


def _cells(cells: Cells):
    """The frames of a chain, first cell first."""
    while cells is not None:
        f, cells = cells
        yield f


class Captured:
    """The frames a raise has walked past; frames() lists them innermost first.

    Frames walked past join the outer chain; the response casts that
    effect casts add, where the two typings differ, join the inner one.
    Both joins are O(1).
    """

    __slots__ = ("inner", "outer")

    def __init__(self, inner: Cells = None, outer: Cells = None):
        self.inner = inner  # innermost first
        self.outer = outer  # outermost first

    def frames(self) -> tuple:
        return tuple(_cells(self.inner)) + tuple(_cells(self.outer))[::-1]


# ---------------------------------------------------------------------------
# Runtime values (literals are their own runtime values)


@_record
class Closure:
    lam: core.Lam
    env: Env
    term: Optional[core.Term] = None  # the read-back, filled on demand


@_record
class FixClosure:
    """fix f. lam in its environment.  Bound to f in the body's
    environment but never a value: evaluating f unrolls it again."""

    fix: core.Fix
    env: Env
    body_env: Env = field(init=False)
    term: Optional[core.Term] = None

    def __post_init__(self):
        self.body_env = {**self.env, self.fix.var: self}


@_record
class QueueVal:
    """A queue: the window buf[start:end], oldest first.

    Queues are persistent and share their lists.  A window is never
    written inside; enqueueing appends in place when the window ends at
    the list's end, so no other window can see the new element, and
    copies the window otherwise.  Enqueue and dequeue are O(1) on a
    queue that is used once.
    """

    elem: ValueType  # the annotation of the queue's empty end
    buf: list
    start: int
    end: int

    def items(self) -> list:
        return self.buf[self.start : self.end]

    def enqueue(self, x: object) -> "QueueVal":
        buf, start = self.buf, self.start
        if len(buf) != self.end:
            buf, start = buf[start : self.end], 0
        buf.append(x)
        return QueueVal(self.elem, buf, start, len(buf))


@_record
class Proxy:
    """A function value wrapped in an arrow cast, fired at application."""

    up: bool
    lo: Arrow
    hi: Arrow
    fn: object


@_record
class Resumption:
    """The frames a handled raise captured, innermost first.

    Applying it to y pushes them back onto the stack and returns y.
    """

    var: str  # the fresh name its read-back binds
    resp: ValueType
    frames: tuple
    term: Optional[core.Term] = None


# ---------------------------------------------------------------------------
# Frames: one per evaluation-context layer.  A compound term waiting for
# its first operand is its own frame, a Ctx; the other frames hold a
# value already computed, or a cast that proxies and raises add.


@_record
class Ctx:
    term: core.Term  # its first field in core.FIELDS is the hole
    env: Env  # closes its other fields


@_record
class AppArg:
    fn: object  # a value


@_record
class ConcatRight:
    left: core.StrLit  # a value


@_record
class EnqueueElem:
    queue: QueueVal  # a value


@_record
class ValCastFrame:  # like Proxy: lo to hi when up, hi to lo otherwise
    up: bool
    lo: ValueType
    hi: ValueType


@_record
class EffCastFrame:
    up: bool
    lo: EffectType
    hi: EffectType


Frame = Union[Ctx, AppArg, ConcatRight, EnqueueElem, ValCastFrame, EffCastFrame]


# ---------------------------------------------------------------------------
# Machine states


@_record
class Raising:
    """An operation searching outward for its handler.

    req and resp are the payload's current typings; effect casts crossed
    on the way out rewrite them along with the payload.  captured holds
    the frames walked so far, all apart from op: a Captured in the
    register, a tuple innermost first in a sampled state.
    """

    op: str
    req: ValueType
    resp: ValueType
    payload: object
    captured: Union[Captured, tuple]


@_record
class MachineState:
    """The registers as run's sample hook sees them: every chain a tuple."""

    frames: tuple  # innermost first
    control: object  # a Ctx, a Raising, or the value being returned


# what the machine's second register holds when it is not a term
RETURN, RAISE, HALT = object(), object(), object()


# ---------------------------------------------------------------------------
# Values of value terms

_ATOMS = frozenset({core.BoolLit, core.UnitLit, core.StrLit, core.Lam, core.EmptyQueue})


def _value(t: core.Term, env: Env) -> object:
    """The runtime value of t closed by env, or None when t is not a
    syntactic value.  An enqueue whose element turns out not to be a value
    may have appended its queue's own enqueues already, past the end of
    every window that reads the list, so no value sees them."""
    tt = type(t)
    if tt is core.Var:
        v = env.get(t.name)
        return None if type(v) is FixClosure else v
    if tt is core.Lam:
        return Closure(t, env)
    if tt is core.EmptyQueue:
        return QueueVal(t.elem, [], 0, 0)
    if tt in _ATOMS:
        return t  # a literal
    if tt is core.Enqueue:
        q = _value(t.queue, env)
        x = None if q is None else _value(t.elem, env)
        return None if x is None else q.enqueue(x)
    if tt is core.ValUpcast or tt is core.ValDowncast:
        # casts between arrow types wrap values into proxies
        if isinstance(t.lo, Arrow) and isinstance(t.hi, Arrow):
            v = _value(t.body, env)
            if v is not None:
                return Proxy(t.up, t.lo, t.hi, v)
    return None


def cast_value(v: object, up: bool, lo: ValueType, hi: ValueType) -> object:
    """Apply a value cast to a value; takes lo to hi when up, hi to lo otherwise.

    Ground casts dissolve, queue casts distribute over the elements, and
    arrow casts wrap the value into a proxy that fires at application.
    """
    if lo == hi:
        return v
    if isinstance(lo, QueueOf) and isinstance(hi, QueueOf):
        if not isinstance(v, QueueVal):
            raise StuckState(f"queue cast over a non-queue: {v!r}")
        items = [cast_value(x, up, lo.elem, hi.elem) for x in v.items()]
        return QueueVal(hi.elem if up else lo.elem, items, 0, len(items))
    if isinstance(lo, Arrow) and isinstance(hi, Arrow):
        return Proxy(up, lo, hi, v)
    # base types are only precision-related to themselves
    return v


# ---------------------------------------------------------------------------
# Read-back: states as the closed terms they denote


def _back(v: object) -> core.Term:
    """The closed value term a runtime value stands for."""
    tv = type(v)
    if tv is QueueVal:
        out: core.Term = core.EmptyQueue(v.elem)
        for x in v.items():
            out = core.Enqueue(out, _back(x))
        return out
    if tv is Proxy:
        return (core.ValUpcast if v.up else core.ValDowncast)(v.lo, v.hi, _back(v.fn))
    if tv is Closure or tv is FixClosure or tv is Resumption:
        if v.term is None:
            if tv is Resumption:
                body = reify_frames(v.frames, core.Var(v.var))
                v.term = core.Lam(v.var, v.resp, body)
            else:
                v.term = _close(v.lam if tv is Closure else v.fix, v.env)
        return v.term
    return v  # a literal


def _close(t: core.Term, env: Env, bound: tuple[str, ...] = ()) -> core.Term:
    """t with env substituted for its free names, except those in bound."""
    for name, v in env.items():
        if name not in bound:
            t = core.subst(t, name, _back(v))
    return t


def _spelled(x) -> object:
    """The layout by which the value trace line prints x, a runtime value
    or a (term, env) pair standing for the term closed by env: that of
    its read-back, except that a resumption shows as a tag.  Nothing is
    read back, and the printer stops after 60 characters, so a queue's
    head costs only its length and a closure only what is printed."""
    tx = type(x)
    if tx is tuple:
        t, env = x
        if type(t) is core.Var and t.name in env:
            return _spelled(env[t.name])
        layout = core._LAYOUT[type(t)](t)
        if type(layout) is str:
            return layout
        envs = []  # the environment closing each subterm, in layout order
        for name, binders in core.FIELDS[type(t)].items():
            inner = env
            if binders:
                bound = {getattr(t, b) for b in binders}
                if not bound.isdisjoint(env):
                    inner = {k: v for k, v in env.items() if k not in bound}
            v = getattr(t, name)
            envs += [inner] * (len(v) if type(v) is tuple else 1)
        envs = iter(envs)
        return [p if type(p) is str else (p, next(envs)) for p in layout]
    if tx is QueueVal:
        items = islice(x.buf, x.start, x.end)
        return chain(
            repeat("(enq ", x.end - x.start),
            (f"(emptyq {core.pretty_type(x.elem)})",),
            chain.from_iterable((" ", v, ")") for v in items),
        )
    if tx is Proxy:
        lo, hi = core.pretty_type(x.lo), core.pretty_type(x.hi)
        return (f"({'vup' if x.up else 'vdn'} {lo} {hi} ", x.fn, ")")
    if tx is Closure or tx is FixClosure:
        return _spelled((x.lam if tx is Closure else x.fix, x.env))
    if tx is Resumption:
        return f"<resume {x.var}: {len(x.frames)} frames>"
    return core._LAYOUT[tx](x)  # a literal


def _wrap(f: Frame, hole: core.Term) -> core.Term:
    """Rebuild the term layer a frame stands for, with hole plugged in."""
    tf = type(f)
    if tf is Ctx:
        t, env = f.term, f.env
        fields = iter(core.FIELDS[type(t)].items())
        changed = {next(fields)[0]: hole}
        for name, binders in fields:
            bound = tuple(getattr(t, b) for b in binders)
            v = getattr(t, name)
            if type(v) is tuple:
                changed[name] = tuple(_close(x, env, bound) for x in v)
            else:
                changed[name] = _close(v, env, bound)
        return replace(t, **changed)
    if tf is AppArg:
        return core.App(_back(f.fn), hole)
    if tf is ConcatRight:
        return core.Concat(f.left, hole)
    if tf is EnqueueElem:
        return core.Enqueue(_back(f.queue), hole)
    if tf is ValCastFrame:
        return (core.ValUpcast if f.up else core.ValDowncast)(f.lo, f.hi, hole)
    if tf is EffCastFrame:
        return (core.EffUpcast if f.up else core.EffDowncast)(f.lo, f.hi, hole)
    raise StuckState(f"not a frame: {f!r}")


def reify_frames(frames: Iterable[Frame], hole: core.Term) -> core.Term:
    """Plug hole into a sequence of frames given innermost first."""
    for f in frames:
        hole = _wrap(f, hole)
    return hole


def reify(state: MachineState) -> core.Term:
    """Read the whole state back as the closed term it denotes."""
    c = state.control
    if isinstance(c, Ctx):
        inner = _close(c.term, c.env)
    elif isinstance(c, Raising):
        raise_node = core.Raise(c.op, c.req, c.resp, _back(c.payload))
        inner = reify_frames(c.captured, raise_node)
    else:
        inner = _back(c)
    return reify_frames(state.frames, inner)


# ---------------------------------------------------------------------------
# Helpers


def _mentions(eff: EffectType, op: str, sig: Signature) -> bool:
    # the dynamic row mentions every operation the signature declares
    return op in sig if isinstance(eff, Dyn) else op in eff


def _typing(eff: EffectType, op: str, sig: Signature) -> OpSig:
    got = (sig if isinstance(eff, Dyn) else eff).get(op)
    if got is None:
        raise StuckState(f"no typing for {op} in {eff}")
    return got


def apart(sig: Signature, frames: Iterable[Frame], op: str) -> bool:
    """True when no frame handles or cast-intercepts op.

    An effect cast intercepts op when its upper row mentions it: by
    precision the lower row mentions nothing the upper row does not.
    """
    for f in frames:
        if type(f) is Ctx and type(f.term) is core.Handle and f.term.clause(op) is not None:
            return False
        if isinstance(f, EffCastFrame) and _mentions(f.hi, op, sig):
            return False
    return True


# ---------------------------------------------------------------------------
# The step function


class Machine:
    def __init__(self, sig: Signature, trace: Optional[Callable[[str, str], None]] = None):
        self.sig = sig
        self.trace = trace
        self._fresh = 0

    def fresh_resume(self) -> str:
        self._fresh += 1
        return f"%r{self._fresh}"

    def _step_eval(self, frames: Cells, t, env: Env) -> tuple:
        tt = type(t)
        if tt is core.Var:
            v = env.get(t.name)
            if type(v) is FixClosure:
                if self.trace is not None:
                    self.trace("fix", v.fix.var)
                return frames, v.fix.body, v.body_env
            if v is None:
                raise StuckState(f"cannot evaluate {core._brief(t)}")
            return frames, RETURN, v
        if tt in _ATOMS:
            return frames, RETURN, _value(t, env)
        if tt is core.App:
            return (Ctx(t, env), frames), t.fn, env
        if tt is core.Let:
            return (Ctx(t, env), frames), t.bound, env
        if tt is core.CaseQueue:
            return (Ctx(t, env), frames), t.scrutinee, env
        if tt is core.Fix:
            if self.trace is not None:
                self.trace("fix", t.var)
            return frames, t.body, FixClosure(t, env).body_env
        if tt is core.Concat:
            return (Ctx(t, env), frames), t.left, env
        if tt is core.If:
            return (Ctx(t, env), frames), t.cond, env
        if tt is core.Raise:
            return (Ctx(t, env), frames), t.payload, env
        if tt is core.Handle:
            return (Ctx(t, env), frames), t.scrutinee, env
        if tt is core.Enqueue or tt is core.ValUpcast or tt is core.ValDowncast:
            v = _value(t, env)
            if v is not None:
                return frames, RETURN, v
            if tt is core.Enqueue:
                return (Ctx(t, env), frames), t.queue, env
            f = ValCastFrame(t.up, t.lo, t.hi)
            return (f, frames), t.body, env
        if tt is core.EffUpcast or tt is core.EffDowncast:
            f = EffCastFrame(t.up, t.lo, t.hi)
            return (f, frames), t.body, env
        if tt is core.Err:
            if self.trace is not None:
                self.trace("err", "")
            return frames, HALT, Error()
        raise StuckState(f"cannot evaluate {t!r}")

    def _apply(self, frames: Cells, fn: object, arg: object) -> tuple:
        tf = type(fn)
        if tf is Closure:
            lam = fn.lam
            if self.trace is not None:
                self.trace("beta", lam.var)
            return frames, lam.body, {**fn.env, lam.var: arg}
        if tf is Resumption:
            if self.trace is not None:
                self.trace("beta", fn.var)
            for f in reversed(fn.frames):
                frames = (f, frames)
            return frames, RETURN, arg
        if tf is Proxy:
            up, lo, hi = fn.up, fn.lo, fn.hi
            if self.trace is not None:
                self.trace("fun-upcast" if up else "fun-downcast", "")
            if lo.cod != hi.cod:
                frames = (ValCastFrame(up, lo.cod, hi.cod), frames)
            if lo.eff != hi.eff:
                frames = (EffCastFrame(up, lo.eff, hi.eff), frames)
            arg = cast_value(arg, not up, lo.dom, hi.dom)
            return (AppArg(fn.fn), frames), RETURN, arg
        raise StuckState(f"applied a non-function: {core._brief(_back(fn))}")

    def _step_return(self, frames: Cells, v: object) -> tuple:
        if frames is None:
            return frames, HALT, Value(_back(v))
        f, frames = frames
        tf = type(f)
        if tf is Ctx:
            t, env = f.term, f.env
            tt = type(t)
            if tt is core.App:
                return (AppArg(v), frames), t.arg, env
            if tt is core.Let:
                if self.trace is not None:
                    self.trace("let", t.var)
                return frames, t.body, {**env, t.var: v}
            if tt is core.CaseQueue:
                if type(v) is not QueueVal:
                    raise StuckState(f"not a queue value: {v!r}")
                if v.start == v.end:
                    if self.trace is not None:
                        self.trace("case-empty", "")
                    return frames, t.empty_body, env
                if self.trace is not None:
                    self.trace("case-dequeue", "")
                # the rest wins when both binders share a name
                rest = QueueVal(v.elem, v.buf, v.start + 1, v.end)
                env = {**env, t.head_var: v.buf[v.start], t.rest_var: rest}
                return frames, t.cons_body, env
            if tt is core.Concat:
                return (ConcatRight(v), frames), t.right, env
            if tt is core.Raise:
                if self.trace is not None:
                    self.trace("raise", t.op)
                return frames, RAISE, Raising(t.op, t.req, t.resp, v, Captured())
            if tt is core.Handle:
                if self.trace is not None:
                    self.trace("handle-value", "")
                return frames, t.ret_body, {**env, t.ret_var: v}
            if tt is core.If:
                if type(v) is not core.BoolLit:
                    raise StuckState(f"if on a non-boolean: {core._brief(_back(v))}")
                if self.trace is not None:
                    self.trace("if-true" if v.value else "if-false", "")
                return frames, t.then if v.value else t.els, env
            if tt is core.Enqueue:
                return (EnqueueElem(v), frames), t.elem, env
        if tf is AppArg:
            return self._apply(frames, f.fn, v)
        if tf is EffCastFrame:
            if self.trace is not None:
                self.trace("eff-upcast-value" if f.up else "eff-downcast-value", "")
            return frames, RETURN, v
        if tf is ConcatRight:
            if type(f.left) is not core.StrLit or type(v) is not core.StrLit:
                raise StuckState("concat on non-strings")
            if self.trace is not None:
                self.trace("concat", "")
            return frames, RETURN, core.StrLit(f.left.value + v.value)
        if tf is ValCastFrame:
            if self.trace is not None:
                self.trace("val-upcast" if f.up else "val-downcast", "")
            return frames, RETURN, cast_value(v, f.up, f.lo, f.hi)
        if tf is EnqueueElem:
            if self.trace is not None:
                self.trace("enqueue", "")
            return frames, RETURN, f.queue.enqueue(v)
        raise StuckState(f"not a frame: {f!r}")

    def _step_raise(self, frames: Cells, r: Raising) -> tuple:
        if frames is None:
            if self.trace is not None:
                self.trace("uncaught", r.op)
            return frames, HALT, UncaughtRaise(r.op)
        f, frames = frames
        tf = type(f)
        if tf is Ctx and type(f.term) is core.Handle:
            clause = f.term.clause(r.op)
            if clause is not None:
                return self._handler_beta(frames, f, clause, r)
        elif tf is EffCastFrame:
            up = f.up
            # the raise crosses when the row it goes out to mentions op
            if _mentions(f.hi if up else f.lo, r.op, self.sig):
                if self.trace is not None:
                    self.trace("eff-upcast-raise" if up else "eff-downcast-raise", r.op)
                lo = _typing(f.lo, r.op, self.sig)
                hi = _typing(f.hi, r.op, self.sig)
                payload = cast_value(r.payload, up, lo.req, hi.req)
                inner = r.captured.inner
                if lo.resp != hi.resp:
                    inner = (ValCastFrame(not up, lo.resp, hi.resp), inner)
                captured = Captured(inner, (f, r.captured.outer))
                out = hi if up else lo
                return frames, RAISE, Raising(r.op, out.req, out.resp, payload, captured)
            if not up and isinstance(f.hi, Dyn):
                # the dynamic row let the operation out; the target traps it
                if self.trace is not None:
                    self.trace("bad-downcast", r.op)
                return frames, core.Err(), NO_ENV
        if self.trace is not None:
            self.trace("capture", r.op)
        captured = Captured(r.captured.inner, (f, r.captured.outer))
        return frames, RAISE, Raising(r.op, r.req, r.resp, r.payload, captured)

    def _handler_beta(self, frames, f: Ctx, clause, r: Raising) -> tuple:
        h = f.term
        if self.trace is not None:
            self.trace("handler-beta", f"{r.op} deep" if h.deep else r.op)
        captured = r.captured.frames() + ((f,) if h.deep else ())
        k = Resumption(self.fresh_resume(), clause.resp, captured)
        # the resumption wins when both binders share a name
        env = {**f.env, clause.payload_var: r.payload, clause.resume_var: k}
        return frames, clause.body, env


def _state(frames: Cells, a, b) -> MachineState:
    """The MachineState that the registers frames, a, b stand for."""
    if a is RAISE:
        control = Raising(b.op, b.req, b.resp, b.payload, b.captured.frames())
    else:
        control = b if a is RETURN else Ctx(a, b)
    return MachineState(tuple(_cells(frames)), control)


# ---------------------------------------------------------------------------
# Driving


@dataclass(frozen=True)
class RunResult:
    outcome: Outcome
    steps: int


def run(
    sig: Signature,
    term: core.Term,
    fuel: int = DEFAULT_FUEL,
    trace: Optional[Callable[[str, str], None]] = None,
    sample: Optional[Callable[[MachineState], None]] = None,
    sample_every: int = 97,
) -> RunResult:
    """Step up to fuel times, reporting the outcome and steps used.

    sample, when given, sees the machine state every sample_every steps;
    the soundness suite uses it to retypecheck intermediate states.
    """
    machine = Machine(sig, trace)
    step_eval, step_return, step_raise = (
        machine._step_eval, machine._step_return, machine._step_raise
    )
    frames, a, b = None, term, NO_ENV
    for n in range(1, fuel + 1):
        if a is RETURN:
            frames, a, b = step_return(frames, b)
        elif a is RAISE:
            frames, a, b = step_raise(frames, b)
        else:
            frames, a, b = step_eval(frames, a, b)
            if trace is not None and a is RETURN:
                trace("value", core._brief(b, _spelled))
        if a is HALT:
            return RunResult(b, n)
        if sample is not None and n % sample_every == 0:
            sample(_state(frames, a, b))
    return RunResult(FuelExhausted(fuel), fuel)

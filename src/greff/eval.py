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

An operand that is a syntactic value is consumed in the step that needs
it, so no frame is pushed for it only to be popped again: `v w` is one
beta (or one proxy or resumption application), `let x = v in N` one
let, `v ++ w` one concat, `handle v ...` one handle-value, and `if v`
and `match v` one branch step, both when the term is first met and when
a value returned to a frame leaves a value as the next operand.  A
variable naming a recursive function is such a value, so a call `f v`
through the name is one beta that also unfolds the fixpoint.  After
Danvy & Nielsen's refocusing, which compresses such corridor
transitions of a machine.

Runtime values are the literals themselves, closures, queues backed by
shared lists, arrow-cast proxies and resumptions.  Evaluating a fix
node is one fix step: it builds a fix-closure, which builds the
function's one closure, and returns that closure.  The fix-closure is
only ever the binding of the function's own name in the closure's
environment.  Reading the name reads the closure, and read back, the
name stands for the fix term, so the closure reads back unrolled.

`raise op v` walks the stack in the step that raises it, as the paper
contracts `handle E[raise op v]` in one step: frames that neither handle
nor intercept op are captured, and at a handler with a clause for op
they become a resumption bound to the clause's resumption variable, in
one handler-beta step.  The walk pauses only just past an effect cast
it crosses, and the next step walks on.  Deep handlers add themselves
as the outermost captured frame, shallow ones do not.  Applying a
resumption pushes its frames back onto the stack and returns the
argument to them, all in one step.

Effect casts are transparent to returning values.  A raise crossing an
upcast is re-raised with its payload cast between the two rows'
typings; crossing a downcast does the same when the target row
mentions the operation and stops the program with a cast error when
the source row is dynamic and the target omits it.  Casts between
arrow types are inert proxy values that fire at application, casting
the argument one way and the effects and result the other.  No cast
frame whose ends are equal is ever pushed: not for a proxy's effects or
result, nor for the response of a raise that crossed an effect cast.

The machine runs on three registers, frames, a and b, and builds no
state object per step.  Each rule returns the next three: (frames, term,
env) to evaluate, (frames, RETURN, value) to return, (frames, RAISE,
paused) to walk on a paused raise, or (frames, HALT, outcome) at the
end.  The frames register is None or a pair (innermost frame, rest), so
a push allocates one tuple and a pop unpacks one; a paused raise is a
tuple whose captured frames are two such chains.  Each step is one
lookup in a table built at import: by the term's class to evaluate, by
the frame's class to return, by the waiting term's class for a Ctx.
Only run's sample hook sees a MachineState, built by _state: every
chain a tuple, innermost first, and a Ctx, a Raising or the returned
value as its control.  A trace line is built only when tracing is on,
and a step prints at most one: its rule's, or an eval step's value line.

Every state denotes a closed term: reify reads it back by substituting
environments into the terms they close over, only when asked (a final
value, a sampled state, a stuck state's message).  A traced `value`
line spells its value without reading it back, and shows a resumption
as `<resume %rN: K frames>`.  Not every state read back typechecks
yet: ROADMAP item 9 tracks the three reasons, and
test_readback_typing_failures_are_the_three_known pins them.
The direct-style evaluator in reference.py implements the same
semantics with none of this machinery and serves as the cross-check.
"""

from __future__ import annotations

from dataclasses import field, replace
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Union

from . import core
from .record import record
from .typesys import Arrow, Dyn, EffectType, QueueOf, Signature, ValueType

DEFAULT_FUEL = 1_000_000

_record = record(frozen=False, eq=False, slots=True)


class StuckState(Exception):
    """No rule applies: an interpreter bug, unreachable on typechecked input."""


# ---------------------------------------------------------------------------
# Outcomes


@record
class Value:
    value: object


@record
class Error:
    """The program stopped with a cast error."""


@record
class UncaughtRaise:
    op: str


@record
class FuelExhausted:
    steps: int


Outcome = Union[Value, Error, UncaughtRaise, FuelExhausted]


# ---------------------------------------------------------------------------
# Chains of frames: None, or a cell (frame, rest)

Env = Mapping[str, object]
NO_ENV: Env = MappingProxyType({})
Cells = Optional[tuple]


def _frames(inner: Cells, outer: Cells = None) -> tuple:
    """The frames of inner, first cell first, then those of outer, last cell first."""
    frames, rest = [], []
    while inner is not None:
        f, inner = inner
        frames.append(f)
    while outer is not None:
        f, outer = outer
        rest.append(f)
    rest.reverse()
    return tuple(frames + rest)


# ---------------------------------------------------------------------------
# Runtime values (literals are their own runtime values)


@_record
class Closure:
    lam: core.Lam
    env: Env
    term: Optional[core.Term] = None  # the read-back, filled on demand


@_record
class FixClosure:
    """fix f. lam in its environment: only ever the binding of f in the
    body's environment, where reading f reads the closure it built."""

    fix: core.Fix
    env: Env
    closure: Closure = field(init=False)  # the unrolled lambda
    term: Optional[core.Term] = None

    def __post_init__(self):
        self.closure = Closure(self.fix.body, {**self.env, self.fix.var: self})


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
    """A raise paused just past an effect cast it crossed, as the sample
    hook sees it.  req and resp are the payload's current typings, and
    captured holds the frames walked so far, innermost first: the casts
    crossed, the response casts they added, and frames that neither
    handle nor intercept op."""

    op: str
    req: ValueType
    resp: ValueType
    payload: object
    captured: tuple


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
# the classes of the terms that may be syntactic values
_VALUE_FORMS = _ATOMS | {core.Var, core.Enqueue, core.ValUpcast, core.ValDowncast}


def _value(t: core.Term, env: Env) -> object:
    """The runtime value of t closed by env, or None when t is not a
    syntactic value.  An enqueue whose element turns out not to be a value
    may have appended its queue's own enqueues already, past the end of
    every window that reads the list, so no value sees them."""
    tt = type(t)
    if tt is core.Var:
        v = env.get(t.name)
        return v.closure if type(v) is FixClosure else v
    if tt not in _VALUE_FORMS:
        return None
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
    # a value cast: one between arrow types wraps a value into a proxy
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
# The rules: one function per class of term or frame


class Machine:
    """A run's signature, trace hook and resumption count.  Its methods
    are the rules; _EVAL, _FILL and _RETURN below pick one per step."""

    def __init__(self, sig: Signature, trace: Optional[Callable[[str, str], None]] = None):
        self.sig = sig
        self.trace = trace
        self._fresh = 0

    # -- term rules, t closed by env.  A node with a hole reads its first
    # operand in place and waits in a Ctx only for one that is no value.
    # Given v, the rule plugs v into the hole, and a next operand that is
    # a value is consumed in the same step.

    def _eval_value(self, frames: Cells, t, env: Env) -> tuple:
        v = _value(t, env)  # a variable, a literal, a lambda or an empty queue
        if v is None:
            raise StuckState(f"cannot evaluate {core._brief(t)}")
        return self._returns(frames, v)

    def _returns(self, frames: Cells, v: object) -> tuple:
        if self.trace is not None:
            self.trace("value", core._brief(v, _spelled))
        return frames, RETURN, v

    def _eval_app(self, frames: Cells, t: core.App, env: Env, v: object = None) -> tuple:
        if v is None:
            x = t.fn
            v = env.get(x.name) if type(x) is core.Var else _value(x, env)
            if v is None:
                return (Ctx(t, env), frames), x, env
            v = v.closure if type(v) is FixClosure else v
        x = t.arg
        w = env.get(x.name) if type(x) is core.Var else _value(x, env)
        if w is None:
            return (AppArg(v), frames), x, env
        return self._apply(frames, v, w.closure if type(w) is FixClosure else w)

    def _eval_let(self, frames: Cells, t: core.Let, env: Env, v: object = None) -> tuple:
        if v is None:
            x = t.bound
            v = env.get(x.name) if type(x) is core.Var else _value(x, env)
            if v is None:
                return (Ctx(t, env), frames), x, env
            v = v.closure if type(v) is FixClosure else v
        if self.trace is not None:
            self.trace("let", t.var)
        return frames, t.body, {**env, t.var: v}

    def _eval_if(self, frames: Cells, t: core.If, env: Env, v: object = None) -> tuple:
        if v is None and (v := _value(t.cond, env)) is None:
            return (Ctx(t, env), frames), t.cond, env
        if type(v) is not core.BoolLit:
            raise StuckState(f"if on a non-boolean: {core._brief(_back(v))}")
        if self.trace is not None:
            self.trace("if-true" if v.value else "if-false", "")
        return frames, t.then if v.value else t.els, env

    def _eval_concat(self, frames: Cells, t: core.Concat, env: Env, v: object = None) -> tuple:
        if v is None and (v := _value(t.left, env)) is None:
            return (Ctx(t, env), frames), t.left, env
        w = _value(t.right, env)
        if w is None:
            return (ConcatRight(v), frames), t.right, env
        return self._concat(frames, v, w)

    def _eval_enqueue(self, frames: Cells, t: core.Enqueue, env: Env, q: object = None) -> tuple:
        if q is None:
            if (v := _value(t, env)) is not None:
                return self._returns(frames, v)
            if (q := _value(t.queue, env)) is None:
                return (Ctx(t, env), frames), t.queue, env
        w = _value(t.elem, env)
        if w is None:
            return (EnqueueElem(q), frames), t.elem, env
        return self._enqueue(frames, q, w)

    def _eval_case(self, frames: Cells, t: core.CaseQueue, env: Env, v: object = None) -> tuple:
        if v is None:
            x = t.scrutinee
            v = env.get(x.name) if type(x) is core.Var else _value(x, env)
            if v is None:
                return (Ctx(t, env), frames), x, env
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
        return frames, t.cons_body, {**env, t.head_var: v.buf[v.start], t.rest_var: rest}

    def _eval_raise(self, frames: Cells, t: core.Raise, env: Env, v: object = None) -> tuple:
        if v is None:
            x = t.payload
            v = env.get(x.name) if type(x) is core.Var else _value(x, env)
            if v is None:
                return (Ctx(t, env), frames), x, env
            v = v.closure if type(v) is FixClosure else v
        return self._raise(frames, t.op, t.req, t.resp, v)

    def _eval_handle(self, frames: Cells, t: core.Handle, env: Env, v: object = None) -> tuple:
        if v is None and (v := _value(t.scrutinee, env)) is None:
            return (Ctx(t, env), frames), t.scrutinee, env
        if self.trace is not None:
            self.trace("handle-value", "")
        return frames, t.ret_body, {**env, t.ret_var: v}

    def _eval_fix(self, frames: Cells, t: core.Fix, env: Env) -> tuple:
        if type(t.body) is not core.Lam:
            raise StuckState(f"cannot evaluate {core._brief(t)}")
        if self.trace is not None:
            self.trace("fix", t.var)
        return frames, RETURN, FixClosure(t, env).closure  # the one closure it built

    def _eval_val_cast(self, frames: Cells, t: core.ValCast, env: Env) -> tuple:
        v = _value(t, env)  # a proxy, when its ends are arrows and its body a value
        if v is not None:
            return self._returns(frames, v)
        return (ValCastFrame(t.up, t.lo, t.hi), frames), t.body, env

    def _eval_eff_cast(self, frames: Cells, t: core.EffCast, env: Env) -> tuple:
        return (EffCastFrame(t.up, t.lo, t.hi), frames), t.body, env

    def _eval_err(self, frames: Cells, t: core.Err, env: Env) -> tuple:
        if self.trace is not None:
            self.trace("err", "")
        return frames, HALT, Error()

    # -- return steps to a cast frame, and what fills share with returns

    def _return_val_cast(self, frames: Cells, f: ValCastFrame, v: object) -> tuple:
        if self.trace is not None:
            self.trace("val-upcast" if f.up else "val-downcast", "")
        return frames, RETURN, cast_value(v, f.up, f.lo, f.hi)

    def _return_eff_cast(self, frames: Cells, f: EffCastFrame, v: object) -> tuple:
        if self.trace is not None:
            self.trace("eff-upcast-value" if f.up else "eff-downcast-value", "")
        return frames, RETURN, v

    def _concat(self, frames: Cells, v: object, w: object) -> tuple:
        if type(v) is not core.StrLit or type(w) is not core.StrLit:
            raise StuckState("concat on non-strings")
        if self.trace is not None:
            self.trace("concat", "")
        return frames, RETURN, core.StrLit(v.value + w.value)

    def _enqueue(self, frames: Cells, q: QueueVal, x: object) -> tuple:
        if self.trace is not None:
            self.trace("enqueue", "")
        return frames, RETURN, q.enqueue(x)

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

    # -- raise steps

    def _raise(
        self, frames: Cells, op: str, req: ValueType, resp: ValueType, payload: object,
        inner: Cells = None, outer: Cells = None,
    ) -> tuple:
        """Walk a raise of op out through frames in one step.  Frames that
        neither handle nor intercept op join outer, outermost first, and the
        response casts that crossings add join inner.  The walk ends at the
        first handler with a clause for op, at the top, at a downcast that
        traps op, or just past an effect cast it crosses, where it pauses
        as (op, req, resp, payload, inner, outer) for the next step."""
        sig, handle = self.sig, core.Handle
        while frames is not None:
            f, frames = frames
            tf = type(f)
            if tf is Ctx and type(f.term) is handle:
                h = f.term
                clause = h.clause(op)
                if clause is not None:
                    if self.trace is not None:
                        self.trace("handler-beta", f"{op} deep" if h.deep else op)
                    self._fresh += 1
                    # a deep handler is its resumption's outermost frame
                    captured = _frames(inner, (f, outer) if h.deep else outer)
                    k = Resumption(f"%r{self._fresh}", clause.resp, captured)
                    # the resumption wins when both binders share a name
                    env = {**f.env, clause.payload_var: payload, clause.resume_var: k}
                    return frames, clause.body, env
            elif tf is EffCastFrame:
                up = f.up
                # each row's typing of op, the signature's for the dynamic row
                lo = (sig if type(f.lo) is Dyn else f.lo).get(op)
                hi = (sig if type(f.hi) is Dyn else f.hi).get(op)
                # the raise crosses when the row it goes out to mentions op
                if (hi if up else lo) is not None:
                    if self.trace is not None:
                        self.trace("eff-upcast-raise" if up else "eff-downcast-raise", op)
                    if lo is None or hi is None:
                        raise StuckState(f"no typing for {op} in {f.lo if lo is None else f.hi}")
                    if lo.req is not hi.req and lo.req != hi.req:
                        payload = cast_value(payload, up, lo.req, hi.req)
                    if lo.resp is not hi.resp and lo.resp != hi.resp:
                        inner = (ValCastFrame(not up, lo.resp, hi.resp), inner)
                    out = hi if up else lo
                    return frames, RAISE, (op, out.req, out.resp, payload, inner, (f, outer))
                if not up and type(f.hi) is Dyn:
                    # the dynamic row let the operation out; the target traps it
                    if self.trace is not None:
                        self.trace("bad-downcast", op)
                    return frames, core.Err(), NO_ENV
            outer = (f, outer)
        if self.trace is not None:
            self.trace("uncaught", op)
        return frames, HALT, UncaughtRaise(op)


def _stuck(machine: Machine, frames: Cells, x: object, *rest) -> tuple:
    raise StuckState(f"no rule for a {type(x).__name__}")


# the rule for each step: an eval step's by its term's class, a return's by
# the frame's class or, for a Ctx, by its term's class
_EVAL = {
    **dict.fromkeys((core.Var, core.BoolLit, core.UnitLit, core.StrLit), Machine._eval_value),
    core.Lam: Machine._eval_value, core.EmptyQueue: Machine._eval_value,
    core.App: Machine._eval_app, core.Let: Machine._eval_let, core.If: Machine._eval_if,
    core.Concat: Machine._eval_concat, core.Enqueue: Machine._eval_enqueue,
    core.CaseQueue: Machine._eval_case, core.Raise: Machine._eval_raise,
    core.Handle: Machine._eval_handle, core.Fix: Machine._eval_fix, core.Err: Machine._eval_err,
    **dict.fromkeys((core.ValUpcast, core.ValDowncast), Machine._eval_val_cast),
    **dict.fromkeys((core.EffUpcast, core.EffDowncast), Machine._eval_eff_cast),
}
# the nodes that wait in a Ctx, whose rules take the operand's value as v
_FILL = {tt: _EVAL[tt] for tt in (
    core.App, core.Let, core.If, core.Concat, core.Enqueue, core.CaseQueue, core.Raise, core.Handle
)}
_RETURN = {
    AppArg: lambda m, frames, f, v: m._apply(frames, f.fn, v),
    ConcatRight: lambda m, frames, f, v: m._concat(frames, f.left, v),
    EnqueueElem: lambda m, frames, f, v: m._enqueue(frames, f.queue, v),
    ValCastFrame: Machine._return_val_cast,
    EffCastFrame: Machine._return_eff_cast,
}


def _state(frames: Cells, a, b) -> MachineState:
    """The MachineState that the registers frames, a, b stand for."""
    if a is RAISE:
        op, req, resp, payload, inner, outer = b
        control = Raising(op, req, resp, payload, _frames(inner, outer))
    else:
        control = b if a is RETURN else Ctx(a, b)
    return MachineState(_frames(frames), control)


# ---------------------------------------------------------------------------
# Driving


@record
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
    eval_rule, fill_rule, return_rule = _EVAL.get, _FILL.get, _RETURN.get
    walk = machine._raise
    frames, a, b = None, term, NO_ENV
    for n in range(1, fuel + 1):
        if a is RETURN:
            if frames is None:
                return RunResult(Value(_back(b)), n)
            f, frames = frames
            if type(f) is Ctx:
                t = f.term
                frames, a, b = fill_rule(type(t), _stuck)(machine, frames, t, f.env, b)
            else:
                frames, a, b = return_rule(type(f), _stuck)(machine, frames, f, b)
        elif a is RAISE:
            frames, a, b = walk(frames, *b)
        else:
            frames, a, b = eval_rule(type(a), _stuck)(machine, frames, a, b)
        if a is HALT:
            return RunResult(b, n)
        if sample is not None and n % sample_every == 0:
            sample(_state(frames, a, b))
    return RunResult(FuelExhausted(fuel), fuel)

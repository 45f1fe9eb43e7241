"""Direct-style reference evaluator for core terms.

A recursive interpreter whose values are host objects (closures carry
Python environments) and whose raised operations propagate as explicit
results carrying a host-level resumption function.  It shares nothing
with the frame machine in eval.py beyond the term grammar and the
Outcome type, so the two implementations cross-check each other: a
semantic bug has to be made twice, in two styles, to go unnoticed.

Casts follow the oblique discipline: effect casts are invisible to
values and rewrap the payload and resumption of any operation that
crosses them, a downcast out of the dynamic row stops operations the
target row does not mention, and casts between arrow types build
proxies that cast arguments and results at application time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from . import core
from .eval import DEFAULT_FUEL, Error, FuelExhausted, Outcome, UncaughtRaise, Value
from .typesys import (
    Arrow,
    Dyn,
    EffectType,
    OpSig,
    QueueOf,
    Signature,
    ValueType,
)


class ReferenceBug(Exception):
    """No case applies: unreachable on typechecked closed input."""


@dataclass(frozen=True)
class DepthExhausted:
    """The host stack ran out after steps units of fuel: an outcome of
    this evaluator only, since the machine keeps its stack on the heap."""

    steps: int


class _OutOfFuel(Exception):
    pass


# ---------------------------------------------------------------------------
# Values

_UNIT = object()


@dataclass(frozen=True)
class Closure:
    var: str
    body: core.Term
    env: Mapping[str, object]


@dataclass(frozen=True)
class RecClosure:
    """fix f. lam with its environment; unrolls once per application."""

    fix: core.Fix
    env: Mapping[str, object]


@dataclass(frozen=True)
class QueueVal:
    elem: ValueType
    items: tuple[object, ...]  # oldest first


@dataclass(frozen=True)
class FunProxy:
    """A function value wrapped in an arrow cast, fired at application."""

    up: bool
    lo: Arrow
    hi: Arrow
    fn: object


@dataclass(frozen=True)
class Resumption:
    """Captured continuation handed to a handler clause."""

    resume: Callable[[object], "Result"]


@dataclass(frozen=True)
class Opaque:
    """Placeholder for non-ground results in Outcomes."""

    kind: str


# ---------------------------------------------------------------------------
# Results of evaluating one subterm


@dataclass(frozen=True)
class Done:
    value: object


@dataclass(frozen=True)
class Raised:
    op: str
    payload: object
    resume: Callable[[object], "Result"]


@dataclass(frozen=True)
class Failed:
    pass


Result = Union[Done, Raised, Failed]

_FAILED = Failed()


def _bind(res: Result, k: Callable[[object], Result]) -> Result:
    if isinstance(res, Done):
        return k(res.value)
    if isinstance(res, Raised):
        return Raised(res.op, res.payload, lambda v: _bind(res.resume(v), k))
    return res


# ---------------------------------------------------------------------------
# Casts


def _typing(eff: EffectType, op: str, sig: Signature) -> OpSig:
    got = (sig if isinstance(eff, Dyn) else eff).get(op)
    if got is None:
        raise ReferenceBug(f"no typing for {op} in {eff}")
    return got


def _mentions(eff: EffectType, op: str, sig: Signature) -> bool:
    # the dynamic row mentions every operation the signature declares
    return op in sig if isinstance(eff, Dyn) else op in eff


def _vcast(v: object, up: bool, lo: ValueType, hi: ValueType) -> object:
    """Apply a value cast; takes lo to hi when up, hi to lo otherwise."""
    if lo == hi:
        return v
    if isinstance(lo, QueueOf) and isinstance(hi, QueueOf):
        assert isinstance(v, QueueVal)
        elem = hi.elem if up else lo.elem
        return QueueVal(elem, tuple(_vcast(x, up, lo.elem, hi.elem) for x in v.items))
    if isinstance(lo, Arrow) and isinstance(hi, Arrow):
        return FunProxy(up, lo, hi, v)
    # base types are only precision-related to themselves
    return v


class _Ref:
    def __init__(self, sig: Signature, fuel: int):
        self.sig = sig
        self.left = fuel

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _OutOfFuel()

    def _effcast(self, up: bool, lo: EffectType, hi: EffectType, res: Result) -> Result:
        """Push a result through an effect cast between lo and hi (lo below hi).

        Values pass untouched.  A raised operation is re-raised with its
        payload cast between the two rows' request typings, its response
        cast back the other way, and the cast rewrapped around the rest
        of the computation, so later raises are intercepted too.
        """
        if not isinstance(res, Raised):
            return res
        op, sig = res.op, self.sig
        rewrap = lambda r: self._effcast(up, lo, hi, r)
        if up:
            if not _mentions(hi, op, sig):
                # apart: an upcast's endpoints both omit the operation
                return Raised(op, res.payload, lambda v: rewrap(res.resume(v)))
            inner, outer = _typing(lo, op, sig), _typing(hi, op, sig)
            payload = _vcast(res.payload, True, inner.req, outer.req)
            return Raised(
                op,
                payload,
                lambda y: rewrap(res.resume(_vcast(y, False, inner.resp, outer.resp))),
            )
        if _mentions(lo, op, sig):
            inner, outer = _typing(lo, op, sig), _typing(hi, op, sig)
            payload = _vcast(res.payload, False, inner.req, outer.req)
            return Raised(
                op,
                payload,
                lambda y: rewrap(res.resume(_vcast(y, True, inner.resp, outer.resp))),
            )
        if isinstance(hi, Dyn):
            return _FAILED  # downcast traps an operation outside its target row
        return Raised(op, res.payload, lambda v: rewrap(res.resume(v)))

    def _apply(self, f: object, a: object) -> Result:
        self.spend()
        if isinstance(f, Closure):
            return self._eval(f.body, {**f.env, f.var: a})
        if isinstance(f, RecClosure):
            lam = f.fix.body
            env = {**f.env, f.fix.var: f}
            return self._eval(lam.body, {**env, lam.var: a})
        if isinstance(f, Resumption):
            return f.resume(a)
        if isinstance(f, FunProxy):
            dom_lo, dom_hi = f.lo.dom, f.hi.dom
            arg = _vcast(a, not f.up, dom_lo, dom_hi)
            res = self._effcast(f.up, f.lo.eff, f.hi.eff, self._apply(f.fn, arg))
            return _bind(res, lambda v: Done(_vcast(v, f.up, f.lo.cod, f.hi.cod)))
        raise ReferenceBug(f"applied a non-function: {f!r}")

    def _dispatch(self, h: core.Handle, res: Result, env: Mapping[str, object]) -> Result:
        if isinstance(res, Failed):
            return res
        if isinstance(res, Done):
            return self._eval(h.ret_body, {**env, h.ret_var: res.value})
        clause = h.clause(res.op)
        if clause is None:
            # forwarded: the handler stays installed around the resumption
            return Raised(
                res.op,
                res.payload,
                lambda v: self._dispatch(h, res.resume(v), env),
            )
        if h.deep:
            k = Resumption(lambda v: self._dispatch(h, res.resume(v), env))
        else:
            k = Resumption(res.resume)
        return self._eval(
            clause.body,
            {**env, clause.payload_var: res.payload, clause.resume_var: k},
        )

    def _eval(self, t: core.Term, env: Mapping[str, object]) -> Result:
        self.spend()
        if isinstance(t, core.Var):
            if t.name not in env:
                raise ReferenceBug(f"unbound variable {t.name}")
            return Done(env[t.name])
        if isinstance(t, (core.BoolLit, core.StrLit)):
            return Done(t.value)
        if isinstance(t, core.UnitLit):
            return Done(_UNIT)
        if isinstance(t, core.Lam):
            return Done(Closure(t.var, t.body, env))
        if isinstance(t, core.Fix):
            return Done(RecClosure(t, env))
        if isinstance(t, core.App):
            return _bind(
                self._eval(t.fn, env),
                lambda f: _bind(self._eval(t.arg, env), lambda a: self._apply(f, a)),
            )
        if isinstance(t, core.Let):
            return _bind(
                self._eval(t.bound, env),
                lambda v: self._eval(t.body, {**env, t.var: v}),
            )
        if isinstance(t, core.If):
            return _bind(
                self._eval(t.cond, env),
                lambda b: self._eval(t.then if b else t.els, env),
            )
        if isinstance(t, core.Concat):
            return _bind(
                self._eval(t.left, env),
                lambda l: _bind(self._eval(t.right, env), lambda r: Done(l + r)),
            )
        if isinstance(t, core.EmptyQueue):
            return Done(QueueVal(t.elem, ()))
        if isinstance(t, core.Enqueue):
            return _bind(
                self._eval(t.queue, env),
                lambda q: _bind(
                    self._eval(t.elem, env),
                    lambda v: Done(QueueVal(q.elem, q.items + (v,))),
                ),
            )
        if isinstance(t, core.CaseQueue):
            def branch(q: QueueVal) -> Result:
                if not q.items:
                    return self._eval(t.empty_body, env)
                rest = QueueVal(q.elem, q.items[1:])
                return self._eval(
                    t.cons_body, {**env, t.head_var: q.items[0], t.rest_var: rest}
                )

            return _bind(self._eval(t.scrutinee, env), branch)
        if isinstance(t, core.Raise):
            return _bind(
                self._eval(t.payload, env),
                lambda v: Raised(t.op, v, Done),
            )
        if isinstance(t, core.Handle):
            return self._dispatch(t, self._eval(t.scrutinee, env), env)
        if isinstance(t, core.Err):
            return _FAILED
        if isinstance(t, core.ValCast):
            return _bind(self._eval(t.body, env), lambda v: Done(_vcast(v, t.up, t.lo, t.hi)))
        if isinstance(t, core.EffCast):
            return self._effcast(t.up, t.lo, t.hi, self._eval(t.body, env))
        raise ReferenceBug(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Entry point


def _reify(v: object) -> object:
    """Read a result back as a core value term where that is faithful."""
    if v is _UNIT:
        return core.UNIT
    if isinstance(v, bool):
        return core.BoolLit(v)
    if isinstance(v, str):
        return core.StrLit(v)
    if isinstance(v, QueueVal):
        out: core.Term = core.EmptyQueue(v.elem)
        for x in v.items:
            out = core.Enqueue(out, _reify(x))
        return out
    return Opaque("function")


def evaluate(
    sig: Signature, term: core.Term, fuel: int = DEFAULT_FUEL
) -> Union[Outcome, DepthExhausted]:
    """Run a closed term to an Outcome, spending one fuel per subterm visited.

    The host stack bounds this evaluator too, at a recursion limit of at
    least 100,000.  A term nested too deeply for it, such as a long
    chain of ++, ends in DepthExhausted with the fuel spent so far, not
    in FuelExhausted: it would have needed more stack, not more fuel, and
    the machine, whose stack is on the heap, may well finish it.
    """
    ref = _Ref(sig, fuel)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        res = ref._eval(term, {})
    except _OutOfFuel:
        return FuelExhausted(fuel)
    except RecursionError:
        return DepthExhausted(fuel - ref.left)
    finally:
        sys.setrecursionlimit(limit)
    if isinstance(res, Done):
        return Value(_reify(res.value))
    if isinstance(res, Raised):
        return UncaughtRaise(res.op)
    return Error()

"""The cast calculus: syntax, algorithmic typechecking, substitution, printing.

Terms carry enough type information to make checking syntax-directed: lambdas
and fixpoints are annotated, raises carry the local operation typing eps@A~>B,
handlers carry their result effect/type and per-clause operation typings, and
casts carry both endpoints.  Casts come in four forms: value upcasts/downcasts
<A |> B> / <A <| B> and effect upcasts/downcasts <s |> t> / <s <| t>, each
requiring the left endpoint to be more precise than the right.

The checker synthesizes a minimal typing and admits subsumption by checking
<= at elimination sites.  A term's ambient effect is represented as None while
it is still value-like (typeable at every ambient effect) and becomes a real
effect type at the first raise or latent-effect application.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .typesys import (
    Arrow,
    Bool,
    Concrete,
    Dyn,
    EMPTY,
    EffectType,
    JoinUndefined,
    OpSig,
    QueueOf,
    Signature,
    Str,
    Unit,
    ValueType,
    erase,
    is_effect_type,
    is_value_type,
    lub,
    ops_of,
    precision,
    subtype,
    wellformed,
)


class TypeCheckError(Exception):
    pass


class WellFormednessError(TypeCheckError):
    pass


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class UnitLit:
    pass


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class Lam:
    var: str
    ann: ValueType
    body: "Term"


@dataclass(frozen=True)
class Fix:
    """Recursive value: fix f : A. (lam ...); unrolls one step when evaluated."""

    var: str
    ann: ValueType
    body: "Lam"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Let:
    bound: "Term"
    var: str
    body: "Term"


@dataclass(frozen=True)
class If:
    cond: "Term"
    then: "Term"
    els: "Term"


@dataclass(frozen=True)
class Concat:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class EmptyQueue:
    elem: ValueType


@dataclass(frozen=True)
class Enqueue:
    queue: "Term"
    elem: "Term"


@dataclass(frozen=True)
class CaseQueue:
    scrutinee: "Term"
    empty_body: "Term"
    head_var: str
    rest_var: str
    cons_body: "Term"


@dataclass(frozen=True)
class Raise:
    op: str
    req: ValueType
    resp: ValueType
    payload: "Term"


@dataclass(frozen=True)
class Clause:
    op: str
    payload_var: str
    resume_var: str
    body: "Term"
    req: ValueType
    resp: ValueType


@dataclass(frozen=True)
class Handle:
    scrutinee: "Term"
    ret_var: str
    ret_body: "Term"
    clauses: tuple[Clause, ...]
    result_eff: EffectType
    result_type: ValueType
    deep: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "clauses", tuple(sorted(self.clauses, key=lambda c: c.op))
        )

    def clause(self, op: str) -> Optional[Clause]:
        for c in self.clauses:
            if c.op == op:
                return c
        return None


@dataclass(frozen=True)
class Err:
    pass


def _check_precision(lo, hi, what):
    if not precision(lo, hi):
        raise TypeCheckError(f"{what} endpoints not precision-related: {lo} vs {hi}")


@dataclass(frozen=True)
class ValUpcast:
    lo: ValueType
    hi: ValueType
    body: "Term"

    def __post_init__(self):
        _check_precision(self.lo, self.hi, "value upcast")


@dataclass(frozen=True)
class ValDowncast:
    lo: ValueType
    hi: ValueType
    body: "Term"

    def __post_init__(self):
        _check_precision(self.lo, self.hi, "value downcast")


@dataclass(frozen=True)
class EffUpcast:
    lo: EffectType
    hi: EffectType
    body: "Term"

    def __post_init__(self):
        _check_precision(self.lo, self.hi, "effect upcast")


@dataclass(frozen=True)
class EffDowncast:
    lo: EffectType
    hi: EffectType
    body: "Term"

    def __post_init__(self):
        _check_precision(self.lo, self.hi, "effect downcast")


Term = Union[
    Var, BoolLit, UnitLit, StrLit, Lam, Fix, App, Let, If, Concat,
    EmptyQueue, Enqueue, CaseQueue, Raise, Handle, Err,
    ValUpcast, ValDowncast, EffUpcast, EffDowncast,
]

TRUE = BoolLit(True)
FALSE = BoolLit(False)
UNIT = UnitLit()


# ---------------------------------------------------------------------------
# Substitution


def subst(t: Term, name: str, value: Term) -> Term:
    """t[value/name].  The replacement must be closed (evaluation only
    substitutes closed values), so binders never capture."""
    if isinstance(t, Var):
        return value if t.name == name else t
    if isinstance(t, (BoolLit, UnitLit, StrLit, EmptyQueue, Err)):
        return t
    if isinstance(t, Lam):
        if t.var == name:
            return t
        return Lam(t.var, t.ann, subst(t.body, name, value))
    if isinstance(t, Fix):
        if t.var == name:
            return t
        return Fix(t.var, t.ann, subst(t.body, name, value))
    if isinstance(t, App):
        return App(subst(t.fn, name, value), subst(t.arg, name, value))
    if isinstance(t, Let):
        bound = subst(t.bound, name, value)
        body = t.body if t.var == name else subst(t.body, name, value)
        return Let(bound, t.var, body)
    if isinstance(t, If):
        return If(
            subst(t.cond, name, value),
            subst(t.then, name, value),
            subst(t.els, name, value),
        )
    if isinstance(t, Concat):
        return Concat(subst(t.left, name, value), subst(t.right, name, value))
    if isinstance(t, Enqueue):
        return Enqueue(subst(t.queue, name, value), subst(t.elem, name, value))
    if isinstance(t, CaseQueue):
        cons = (
            t.cons_body
            if name in (t.head_var, t.rest_var)
            else subst(t.cons_body, name, value)
        )
        return CaseQueue(
            subst(t.scrutinee, name, value),
            subst(t.empty_body, name, value),
            t.head_var,
            t.rest_var,
            cons,
        )
    if isinstance(t, Raise):
        return Raise(t.op, t.req, t.resp, subst(t.payload, name, value))
    if isinstance(t, Handle):
        ret = t.ret_body if t.ret_var == name else subst(t.ret_body, name, value)
        clauses = tuple(
            c
            if name in (c.payload_var, c.resume_var)
            else replace(c, body=subst(c.body, name, value))
            for c in t.clauses
        )
        return Handle(
            subst(t.scrutinee, name, value),
            t.ret_var,
            ret,
            clauses,
            t.result_eff,
            t.result_type,
            t.deep,
        )
    if isinstance(t, (ValUpcast, ValDowncast, EffUpcast, EffDowncast)):
        return replace(t, body=subst(t.body, name, value))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Typechecking

# ambient effect None = typeable at every ambient effect (value-like)
Ambient = Optional[EffectType]
Expected = Optional[tuple[Ambient, Optional[ValueType]]]


def _combine(*effs: Ambient) -> Ambient:
    out: Ambient = None
    try:
        for e in effs:
            if e is None:
                continue
            out = e if out is None else lub(out, e)
    except JoinUndefined as exc:
        raise TypeCheckError(f"operand effects have no upper bound: {exc}") from exc
    return out


def _eff_le(sub: Ambient, sup: Ambient) -> bool:
    if sub is None:
        return True
    if sup is None:
        return isinstance(sub, Concrete) and not sub.ops
    return subtype(sub, sup)


def typecheck(
    sig: Signature,
    gamma: dict[str, ValueType],
    term: Term,
    expected: Expected = None,
    casts: Optional[dict[int, ValueType]] = None,
) -> tuple[EffectType, ValueType]:
    """Synthesize a typing; raise TypeCheckError if the term is ill-typed.

    `expected` optionally bounds the result: the synthesized value type must
    be <=-below the expected one and the ambient effect below the expected
    effect.  The error term has no typing of its own and needs the bound.
    A `casts` dict is filled with the value type of each effect cast's
    body, keyed by the id of the cast node.
    """
    eff, val = _synth(sig, gamma, term, expected, casts)
    return (EMPTY if eff is None else eff, val)


def _expect(sig, term, eff: Ambient, val: ValueType, expected: Expected):
    if expected is None:
        return eff, val
    exp_eff, exp_val = expected
    if exp_val is not None and not subtype(val, exp_val):
        raise TypeCheckError(f"{_brief(term)}: has type {val}, expected <= {exp_val}")
    if exp_eff is not None and not _eff_le(eff, exp_eff):
        raise TypeCheckError(
            f"{_brief(term)}: ambient effect {eff}, expected <= {exp_eff}"
        )
    return eff, val


def _wf(sig, t, what):
    if not wellformed(t, sig):
        raise WellFormednessError(f"{what} is not wellformed under the signature: {t}")


def _synth(
    sig: Signature,
    gamma: dict[str, ValueType],
    term: Term,
    expected: Expected,
    casts: Optional[dict[int, ValueType]] = None,
) -> tuple[Ambient, ValueType]:
    exp_eff = expected[0] if expected else None

    if isinstance(term, Var):
        if term.name not in gamma:
            raise TypeCheckError(f"unbound variable {term.name}")
        return _expect(sig, term, None, gamma[term.name], expected)

    if isinstance(term, BoolLit):
        return _expect(sig, term, None, Bool(), expected)
    if isinstance(term, UnitLit):
        return _expect(sig, term, None, Unit(), expected)
    if isinstance(term, StrLit):
        return _expect(sig, term, None, Str(), expected)

    if isinstance(term, Err):
        if expected is None or expected[1] is None:
            raise TypeCheckError("the error term needs an expected typing")
        return (expected[0], expected[1])

    if isinstance(term, Lam):
        _wf(sig, term.ann, "lambda annotation")
        inner = gamma | {term.var: term.ann}
        body_eff, body_val = _synth(sig, inner, term.body, None, casts)
        latent = EMPTY if body_eff is None else body_eff
        return _expect(sig, term, None, Arrow(term.ann, latent, body_val), expected)

    if isinstance(term, Fix):
        _wf(sig, term.ann, "fixpoint annotation")
        if not isinstance(term.ann, Arrow):
            raise TypeCheckError("fixpoint annotation must be an arrow type")
        _, val = _synth(
            sig, gamma | {term.var: term.ann}, term.body, (None, term.ann), casts
        )
        return _expect(sig, term, None, term.ann, expected)

    if isinstance(term, App):
        fn_eff, fn_val = _synth(sig, gamma, term.fn, (exp_eff, None), casts)
        if not isinstance(fn_val, Arrow):
            raise TypeCheckError(f"applied term has non-arrow type {fn_val}")
        arg_eff, _ = _synth(sig, gamma, term.arg, (exp_eff, fn_val.dom), casts)
        eff = _combine(fn_eff, arg_eff, fn_val.eff)
        return _expect(sig, term, eff, fn_val.cod, expected)

    if isinstance(term, Let):
        bound_eff, bound_val = _synth(sig, gamma, term.bound, (exp_eff, None), casts)
        body_eff, body_val = _synth(
            sig, gamma | {term.var: bound_val}, term.body, expected, casts
        )
        eff = _combine(bound_eff, body_eff)
        return _expect(sig, term, eff, body_val, expected)

    if isinstance(term, If):
        cond_eff, cond_val = _synth(sig, gamma, term.cond, (exp_eff, Bool()), casts)
        then_eff, then_val = _synth(sig, gamma, term.then, expected, casts)
        else_eff, else_val = _synth(sig, gamma, term.els, expected, casts)
        try:
            val = lub(then_val, else_val)
        except JoinUndefined as exc:
            raise TypeCheckError(f"branch types have no upper bound: {exc}") from exc
        eff = _combine(cond_eff, then_eff, else_eff)
        return _expect(sig, term, eff, val, expected)

    if isinstance(term, Concat):
        left_eff, _ = _synth(sig, gamma, term.left, (exp_eff, Str()), casts)
        right_eff, _ = _synth(sig, gamma, term.right, (exp_eff, Str()), casts)
        return _expect(sig, term, _combine(left_eff, right_eff), Str(), expected)

    if isinstance(term, EmptyQueue):
        _wf(sig, term.elem, "queue element annotation")
        return _expect(sig, term, None, QueueOf(term.elem), expected)

    if isinstance(term, Enqueue):
        q_eff, q_val = _synth(sig, gamma, term.queue, (exp_eff, None), casts)
        if not isinstance(q_val, QueueOf):
            raise TypeCheckError(f"enqueue target has non-queue type {q_val}")
        e_eff, _ = _synth(sig, gamma, term.elem, (exp_eff, q_val.elem), casts)
        return _expect(sig, term, _combine(q_eff, e_eff), q_val, expected)

    if isinstance(term, CaseQueue):
        s_eff, s_val = _synth(sig, gamma, term.scrutinee, (exp_eff, None), casts)
        if not isinstance(s_val, QueueOf):
            raise TypeCheckError(f"queue match scrutinee has type {s_val}")
        e_eff, e_val = _synth(sig, gamma, term.empty_body, expected, casts)
        inner = gamma | {term.head_var: s_val.elem, term.rest_var: s_val}
        c_eff, c_val = _synth(sig, inner, term.cons_body, expected, casts)
        try:
            val = lub(e_val, c_val)
        except JoinUndefined as exc:
            raise TypeCheckError(f"branch types have no upper bound: {exc}") from exc
        return _expect(sig, term, _combine(s_eff, e_eff, c_eff), val, expected)

    if isinstance(term, Raise):
        declared = sig.get(term.op)
        if declared is None:
            raise WellFormednessError(f"operation {term.op} is not declared")
        if erase(term.req) != declared.req or erase(term.resp) != declared.resp:
            raise WellFormednessError(
                f"raise {term.op} local typing {term.req} ~> {term.resp} "
                f"does not erase to the declared {declared}"
            )
        _wf(sig, term.req, "raise request type")
        _wf(sig, term.resp, "raise response type")
        pay_eff, _ = _synth(sig, gamma, term.payload, (exp_eff, term.req), casts)
        own = Concrete({term.op: OpSig(term.req, term.resp)})
        return _expect(sig, term, _combine(pay_eff, own), term.resp, expected)

    if isinstance(term, Handle):
        _wf(sig, term.result_eff, "handler result effect")
        _wf(sig, term.result_type, "handler result type")
        scr_eff, scr_val = _synth(sig, gamma, term.scrutinee, None, casts)
        result = (term.result_eff, term.result_type)
        _synth(sig, gamma | {term.ret_var: scr_val}, term.ret_body, result, casts)
        raised = {} if scr_eff is None else ops_of(scr_eff, sig)
        handled = {c.op for c in term.clauses}
        out_ops = ops_of(term.result_eff, sig)
        for op, entry in raised.items():
            if op in handled:
                continue
            if op not in out_ops:
                raise TypeCheckError(
                    f"unhandled operation {op} missing from result effect {term.result_eff}"
                )
            out = out_ops[op]
            if not (subtype(entry.req, out.req) and subtype(out.resp, entry.resp)):
                raise TypeCheckError(
                    f"unhandled operation {op} at {entry} does not fit result entry {out}"
                )
        for c in term.clauses:
            declared = sig.get(c.op)
            if declared is None:
                raise WellFormednessError(f"operation {c.op} is not declared")
            if erase(c.req) != declared.req or erase(c.resp) != declared.resp:
                raise WellFormednessError(
                    f"clause for {c.op} carries {c.req} ~> {c.resp}, "
                    f"which does not erase to the declared {declared}"
                )
            if isinstance(scr_eff, Concrete) and c.op in scr_eff:
                entry = scr_eff.get(c.op)
                if OpSig(c.req, c.resp) != entry:
                    raise TypeCheckError(
                        f"clause for {c.op} carries {c.req} ~> {c.resp} "
                        f"but the scrutinee raises it at {entry}"
                    )
            if term.deep:
                k_type = Arrow(c.resp, term.result_eff, term.result_type)
            else:
                k_type = Arrow(c.resp, EMPTY if scr_eff is None else scr_eff, scr_val)
            inner = gamma | {c.payload_var: c.req, c.resume_var: k_type}
            _synth(sig, inner, c.body, result, casts)
        return _expect(sig, term, term.result_eff, term.result_type, expected)

    if isinstance(term, ValUpcast) or isinstance(term, ValDowncast):
        if not (is_value_type(term.lo) and is_value_type(term.hi)):
            raise TypeCheckError("value cast endpoints must be value types")
        _wf(sig, term.lo, "cast endpoint")
        _wf(sig, term.hi, "cast endpoint")
        source = term.lo if isinstance(term, ValUpcast) else term.hi
        target = term.hi if isinstance(term, ValUpcast) else term.lo
        eff, _ = _synth(sig, gamma, term.body, (exp_eff, source), casts)
        return _expect(sig, term, eff, target, expected)

    if isinstance(term, EffUpcast) or isinstance(term, EffDowncast):
        if not (is_effect_type(term.lo) and is_effect_type(term.hi)):
            raise TypeCheckError("effect cast endpoints must be effect types")
        _wf(sig, term.lo, "cast endpoint")
        _wf(sig, term.hi, "cast endpoint")
        source = term.lo if isinstance(term, EffUpcast) else term.hi
        target = term.hi if isinstance(term, EffUpcast) else term.lo
        body_eff, body_val = _synth(sig, gamma, term.body, (source, None), casts)
        if casts is not None and casts.setdefault(id(term), body_val) != body_val:
            seen = casts[id(term)]
            raise TypeCheckError(f"{_brief(term)}: body typed {seen} and {body_val}")
        return _expect(sig, term, target, body_val, expected)

    raise TypeError(f"not a term: {term!r}")


def _brief(term: Term) -> str:
    s = pretty(term)
    return s if len(s) <= 60 else s[:57] + "..."


# ---------------------------------------------------------------------------
# Printer (s-expressions)


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def pretty_type(t) -> str:
    if isinstance(t, Bool):
        return "bool"
    if isinstance(t, Unit):
        return "unit"
    if isinstance(t, Str):
        return "str"
    if isinstance(t, QueueOf):
        return f"(queue {pretty_type(t.elem)})"
    if isinstance(t, Arrow):
        return f"(arrow {pretty_type(t.dom)} {pretty_type(t.eff)} {pretty_type(t.cod)})"
    if isinstance(t, Dyn):
        return "dyn"
    if isinstance(t, Concrete):
        inner = " ".join(
            f"({name} {pretty_type(op.req)} {pretty_type(op.resp)})"
            for name, op in t.ops
        )
        return f"(eff {inner})" if inner else "(eff)"
    raise TypeError(f"not a type: {t!r}")


_CAST_TAGS = {ValUpcast: "vup", ValDowncast: "vdn", EffUpcast: "eup", EffDowncast: "edn"}


def pretty(t: Term) -> str:
    if isinstance(t, Var):
        return f"(var {t.name})"
    if isinstance(t, BoolLit):
        return "true" if t.value else "false"
    if isinstance(t, UnitLit):
        return "unit"
    if isinstance(t, StrLit):
        return f"(str {_q(t.value)})"
    if isinstance(t, Lam):
        return f"(lam ({t.var} {pretty_type(t.ann)}) {pretty(t.body)})"
    if isinstance(t, Fix):
        return f"(fix {t.var} {pretty_type(t.ann)} {pretty(t.body)})"
    if isinstance(t, App):
        return f"(app {pretty(t.fn)} {pretty(t.arg)})"
    if isinstance(t, Let):
        return f"(let {t.var} {pretty(t.bound)} {pretty(t.body)})"
    if isinstance(t, If):
        return f"(if {pretty(t.cond)} {pretty(t.then)} {pretty(t.els)})"
    if isinstance(t, Concat):
        return f"(concat {pretty(t.left)} {pretty(t.right)})"
    if isinstance(t, EmptyQueue):
        return f"(emptyq {pretty_type(t.elem)})"
    if isinstance(t, Enqueue):
        # down the spine by iteration: a queue's length must not be a depth
        elems = []
        while isinstance(t, Enqueue):
            elems.append(t.elem)
            t = t.queue
        closes = "".join(f" {pretty(e)})" for e in reversed(elems))
        return "(enq " * len(elems) + pretty(t) + closes
    if isinstance(t, CaseQueue):
        return (
            f"(caseq {pretty(t.scrutinee)} {pretty(t.empty_body)} "
            f"({t.head_var} {t.rest_var} {pretty(t.cons_body)}))"
        )
    if isinstance(t, Raise):
        return (
            f"(raise {t.op} {pretty_type(t.req)} {pretty_type(t.resp)} "
            f"{pretty(t.payload)})"
        )
    if isinstance(t, Handle):
        kind = "deep" if t.deep else "shallow"
        clauses = " ".join(
            f"({c.op} {c.payload_var} {c.resume_var} {pretty_type(c.req)} "
            f"{pretty_type(c.resp)} {pretty(c.body)})"
            for c in t.clauses
        )
        return (
            f"(handle {kind} {pretty(t.scrutinee)} "
            f"(ret {t.ret_var} {pretty(t.ret_body)}) ({clauses}) "
            f"{pretty_type(t.result_eff)} {pretty_type(t.result_type)})"
        )
    if isinstance(t, Err):
        return "err"
    tag = _CAST_TAGS.get(type(t))
    if tag is not None:
        return f"({tag} {pretty_type(t.lo)} {pretty_type(t.hi)} {pretty(t.body)})"
    raise TypeError(f"not a term: {t!r}")

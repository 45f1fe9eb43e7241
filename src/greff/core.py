"""The cast calculus: syntax, algorithmic typechecking, substitution, printing.

Substitution and the other structural walks map over one field table
(FIELDS); the printer runs on an explicit stack.

Terms carry enough type information to make checking syntax-directed: lambdas
and fixpoints are annotated, raises carry the local operation typing eps@A~>B,
handlers carry their result effect/type and per-clause operation typings, and
casts carry both endpoints.  A cast is a value cast <A |> B> / <A <| B> or an
effect cast <s |> t> / <s <| t>, and an upcast or a downcast; either way the
left endpoint must be more precise than the right.  The checker has one rule
per construct, the casts' included.

The checker synthesizes a minimal typing and admits subsumption by checking
<= at elimination sites.  A term's ambient effect is represented as None while
it is still value-like (typeable at every ambient effect) and becomes a real
effect type at the first raise or latent-effect application.
"""

from __future__ import annotations

import operator
from dataclasses import field, replace
from typing import Optional, Union

from .record import record
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
    Type,
    Unit,
    ValueType,
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


@record
class _Node:
    """A node's source position, left out of equality, hash and repr; the
    surface parser sets it on each node it builds."""

    pos: Optional[tuple] = field(default=None, compare=False, repr=False, kw_only=True)


# the positioned classes are surface forms as well: the surface writes
# every one of their fields


@record
class Var(_Node):
    name: str


@record
class BoolLit(_Node):
    value: bool


@record
class UnitLit(_Node):
    pass


@record
class StrLit(_Node):
    value: str


@record
class Lam(_Node):
    var: str
    ann: Optional[ValueType]  # None only in a surface tree, where it may be left out
    body: "Term"


@record
class Fix:
    """Recursive value: fix f : A. (lam ...); unrolls one step when evaluated."""

    var: str
    ann: ValueType
    body: "Lam"


@record
class App(_Node):
    fn: "Term"
    arg: "Term"


@record
class Let(_Node):
    bound: "Term"
    var: str
    body: "Term"


@record
class If(_Node):
    cond: "Term"
    then: "Term"
    els: "Term"


@record
class Concat(_Node):
    left: "Term"
    right: "Term"


@record
class EmptyQueue:
    elem: ValueType


@record
class Enqueue(_Node):
    queue: "Term"
    elem: "Term"


@record
class CaseQueue(_Node):
    scrutinee: "Term"
    empty_body: "Term"
    head_var: str
    rest_var: str
    cons_body: "Term"


@record
class Raise:
    op: str
    req: ValueType
    resp: ValueType
    payload: "Term"


@record
class Clause:
    op: str
    payload_var: str
    resume_var: str
    body: "Term"
    req: ValueType
    resp: ValueType


@record
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


@record
class Err:
    pass


@record
class _Cast:
    """A cast between lo and hi, lo the more precise: an upcast takes a
    term from lo to hi, a downcast from hi to lo.  Each leaf class sets
    the kind and the direction."""

    lo: Type
    hi: Type
    body: "Term"

    def __post_init__(self):
        if not precision(self.lo, self.hi):
            how = "up" if self.up else "down"
            raise TypeCheckError(
                f"{self.kind} {how}cast endpoints not precision-related: {self.lo} vs {self.hi}"
            )


class ValCast(_Cast):
    kind = "value"


class EffCast(_Cast):
    kind = "effect"


class ValUpcast(ValCast):
    up = True


class ValDowncast(ValCast):
    up = False


class EffUpcast(EffCast):
    up = True


class EffDowncast(EffCast):
    up = False


Term = Union[
    Var, BoolLit, UnitLit, StrLit, Lam, Fix, App, Let, If, Concat,
    EmptyQueue, Enqueue, CaseQueue, Raise, Handle, Err,
    ValUpcast, ValDowncast, EffUpcast, EffDowncast,
]

TRUE = BoolLit(True)
FALSE = BoolLit(False)
UNIT = UnitLit()


# ---------------------------------------------------------------------------
# The field table: every structural walk over terms reads its shape here


# each node class's term-valued fields, in order, with the fields naming
# the variables bound over each; a handler's clauses are Clause nodes
FIELDS: dict[type, dict[str, tuple[str, ...]]] = {
    **dict.fromkeys((Var, BoolLit, UnitLit, StrLit, EmptyQueue, Err), {}),
    Lam: {"body": ("var",)},
    Fix: {"body": ("var",)},
    App: {"fn": (), "arg": ()},
    Let: {"bound": (), "body": ("var",)},
    If: {"cond": (), "then": (), "els": ()},
    Concat: {"left": (), "right": ()},
    Enqueue: {"queue": (), "elem": ()},
    CaseQueue: {"scrutinee": (), "empty_body": (), "cons_body": ("head_var", "rest_var")},
    Raise: {"payload": ()},
    Handle: {"scrutinee": (), "ret_body": ("ret_var",), "clauses": ()},
    Clause: {"body": ("payload_var", "resume_var")},
    **dict.fromkeys((ValUpcast, ValDowncast, EffUpcast, EffDowncast), {"body": ()}),
}


def map_children(t, f, *args, keep: str = ""):
    """t with each term-valued child c replaced by f(c, *args).

    A child under a binder of the name keep stays as it is.  t itself
    comes back when no child changed, so a walk copies only the paths to
    what it changed.
    """
    changed = {}
    for name, binders in FIELDS[type(t)].items():
        if binders and keep in [getattr(t, b) for b in binders]:
            continue
        v = getattr(t, name)
        if type(v) is tuple:
            w = tuple([f(x, *args) for x in v])
            if any(map(operator.is_not, w, v)):
                changed[name] = w
        elif (w := f(v, *args)) is not v:
            changed[name] = w
    return replace(t, **changed) if changed else t


def subst(t: Term, name: str, value: Term) -> Term:
    """t[value/name], t itself when name is not free in it.  The replacement
    must be closed (evaluation only substitutes closed values), so binders
    never capture."""
    if type(t) is Var:
        return value if t.name == name else t
    return map_children(t, subst, name, value, keep=name)


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
    body, keyed by the id of the cast node.  A term nested deeper than
    the host stack allows is a TypeCheckError too.
    """
    try:
        eff, val = _synth(sig, gamma, term, expected, casts)
    except RecursionError:
        raise TypeCheckError(f"{_brief(term)}: nested too deeply to typecheck") from None
    return (EMPTY if eff is None else eff, val)


def _expect(term, eff: Ambient, val: ValueType, expected: Expected):
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


_LITERALS = {BoolLit: Bool(), UnitLit: Unit(), StrLit: Str()}


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
        return _expect(term, None, gamma[term.name], expected)

    if type(term) in _LITERALS:
        return _expect(term, None, _LITERALS[type(term)], expected)

    if isinstance(term, Err):
        if expected is None or expected[1] is None:
            raise TypeCheckError("the error term needs an expected typing")
        return (expected[0], expected[1])

    if isinstance(term, Lam):
        _wf(sig, term.ann, "lambda annotation")
        inner = gamma | {term.var: term.ann}
        body_eff, body_val = _synth(sig, inner, term.body, None, casts)
        latent = EMPTY if body_eff is None else body_eff
        return _expect(term, None, Arrow(term.ann, latent, body_val), expected)

    if isinstance(term, Fix):
        _wf(sig, term.ann, "fixpoint annotation")
        if not isinstance(term.ann, Arrow):
            raise TypeCheckError("fixpoint annotation must be an arrow type")
        if not isinstance(term.body, Lam):
            raise TypeCheckError("fixpoint body must be a lambda")
        _, val = _synth(
            sig, gamma | {term.var: term.ann}, term.body, (None, term.ann), casts
        )
        return _expect(term, None, term.ann, expected)

    if isinstance(term, App):
        fn_eff, fn_val = _synth(sig, gamma, term.fn, (exp_eff, None), casts)
        if not isinstance(fn_val, Arrow):
            raise TypeCheckError(f"applied term has non-arrow type {fn_val}")
        arg_eff, _ = _synth(sig, gamma, term.arg, (exp_eff, fn_val.dom), casts)
        eff = _combine(fn_eff, arg_eff, fn_val.eff)
        return _expect(term, eff, fn_val.cod, expected)

    if isinstance(term, Let):
        bound_eff, bound_val = _synth(sig, gamma, term.bound, (exp_eff, None), casts)
        body_eff, body_val = _synth(
            sig, gamma | {term.var: bound_val}, term.body, expected, casts
        )
        eff = _combine(bound_eff, body_eff)
        return _expect(term, eff, body_val, expected)

    if isinstance(term, If):
        cond_eff, _ = _synth(sig, gamma, term.cond, (exp_eff, Bool()), casts)
        then = _synth(sig, gamma, term.then, expected, casts)
        els = _synth(sig, gamma, term.els, expected, casts)
        return _branches(term, cond_eff, then, els, expected)

    if isinstance(term, Concat):
        left_eff, _ = _synth(sig, gamma, term.left, (exp_eff, Str()), casts)
        right_eff, _ = _synth(sig, gamma, term.right, (exp_eff, Str()), casts)
        return _expect(term, _combine(left_eff, right_eff), Str(), expected)

    if isinstance(term, EmptyQueue):
        _wf(sig, term.elem, "queue element annotation")
        return _expect(term, None, QueueOf(term.elem), expected)

    if isinstance(term, Enqueue):
        q_eff, q_val = _synth(sig, gamma, term.queue, (exp_eff, None), casts)
        if not isinstance(q_val, QueueOf):
            raise TypeCheckError(f"enqueue target has non-queue type {q_val}")
        e_eff, _ = _synth(sig, gamma, term.elem, (exp_eff, q_val.elem), casts)
        return _expect(term, _combine(q_eff, e_eff), q_val, expected)

    if isinstance(term, CaseQueue):
        s_eff, s_val = _synth(sig, gamma, term.scrutinee, (exp_eff, None), casts)
        if not isinstance(s_val, QueueOf):
            raise TypeCheckError(f"queue match scrutinee has type {s_val}")
        empty = _synth(sig, gamma, term.empty_body, expected, casts)
        inner = gamma | {term.head_var: s_val.elem, term.rest_var: s_val}
        cons = _synth(sig, inner, term.cons_body, expected, casts)
        return _branches(term, s_eff, empty, cons, expected)

    if isinstance(term, Raise):
        own = Concrete({term.op: OpSig(term.req, term.resp)})
        _wf(sig, own, "raise typing")
        pay_eff, _ = _synth(sig, gamma, term.payload, (exp_eff, term.req), casts)
        return _expect(term, _combine(pay_eff, own), term.resp, expected)

    if isinstance(term, Handle):
        _wf(sig, term.result_eff, "handler result effect")
        _wf(sig, term.result_type, "handler result type")
        scr_eff, scr_val = _synth(sig, gamma, term.scrutinee, None, casts)
        result = (term.result_eff, term.result_type)
        _synth(sig, gamma | {term.ret_var: scr_val}, term.ret_body, result, casts)
        if scr_eff is not None:
            unhandled = Concrete(
                {op: e for op, e in ops_of(scr_eff, sig).items() if term.clause(op) is None}
            )
            if not subtype(unhandled, Concrete(ops_of(term.result_eff, sig))):
                raise TypeCheckError(
                    f"unhandled operations {unhandled} do not fit the result effect "
                    f"{term.result_eff}"
                )
        for c in term.clauses:
            typing = OpSig(c.req, c.resp)
            _wf(sig, Concrete({c.op: typing}), "clause typing")
            entry = scr_eff.get(c.op) if isinstance(scr_eff, Concrete) else None
            if entry is not None and entry != typing:
                raise TypeCheckError(
                    f"clause for {c.op} carries {typing} but the scrutinee raises it at {entry}"
                )
            if term.deep:
                k_type = Arrow(c.resp, term.result_eff, term.result_type)
            else:
                k_type = Arrow(c.resp, EMPTY if scr_eff is None else scr_eff, scr_val)
            inner = gamma | {c.payload_var: c.req, c.resume_var: k_type}
            _synth(sig, inner, c.body, result, casts)
        return _expect(term, term.result_eff, term.result_type, expected)

    if isinstance(term, _Cast):
        value = isinstance(term, ValCast)
        is_kind = is_value_type if value else is_effect_type
        if not (is_kind(term.lo) and is_kind(term.hi)):
            raise TypeCheckError(f"{term.kind} cast endpoints must be {term.kind} types")
        _wf(sig, term.lo, "cast endpoint")
        _wf(sig, term.hi, "cast endpoint")
        source, target = (term.lo, term.hi) if term.up else (term.hi, term.lo)
        if value:
            eff, _ = _synth(sig, gamma, term.body, (exp_eff, source), casts)
            return _expect(term, eff, target, expected)
        _, val = _synth(sig, gamma, term.body, (source, None), casts)
        if casts is not None and casts.setdefault(id(term), val) != val:
            raise TypeCheckError(f"{_brief(term)}: body typed {casts[id(term)]} and {val}")
        return _expect(term, target, val, expected)

    raise TypeError(f"not a term: {term!r}")


def _branches(term, eff: Ambient, left, right, expected: Expected):
    """The typing of a two-way branch after a first operand at eff: the
    lub of the branches' typings."""
    try:
        val = lub(left[1], right[1])
    except JoinUndefined as exc:
        raise TypeCheckError(f"branch types have no upper bound: {exc}") from exc
    return _expect(term, _combine(eff, left[0], right[0]), val, expected)


def _brief(term: Term, layout=None) -> str:
    s = pretty(term, 60, layout)
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


# each node class's printed form: a leaf's string, or literal strings and
# subterms in order
_LAYOUT = {
    Var: lambda t: f"(var {t.name})",
    BoolLit: lambda t: "true" if t.value else "false",
    UnitLit: lambda t: "unit",
    StrLit: lambda t: f"(str {_q(t.value)})",
    Lam: lambda t: (f"(lam ({t.var} {pretty_type(t.ann)}) ", t.body, ")"),
    Fix: lambda t: (f"(fix {t.var} {pretty_type(t.ann)} ", t.body, ")"),
    App: lambda t: ("(app ", t.fn, " ", t.arg, ")"),
    Let: lambda t: (f"(let {t.var} ", t.bound, " ", t.body, ")"),
    If: lambda t: ("(if ", t.cond, " ", t.then, " ", t.els, ")"),
    Concat: lambda t: ("(concat ", t.left, " ", t.right, ")"),
    EmptyQueue: lambda t: f"(emptyq {pretty_type(t.elem)})",
    Enqueue: lambda t: ("(enq ", t.queue, " ", t.elem, ")"),
    CaseQueue: lambda t: (
        "(caseq ", t.scrutinee, " ", t.empty_body,
        f" ({t.head_var} {t.rest_var} ", t.cons_body, "))",
    ),
    Raise: lambda t: (
        f"(raise {t.op} {pretty_type(t.req)} {pretty_type(t.resp)} ", t.payload, ")"
    ),
    Clause: lambda c: (
        f"({c.op} {c.payload_var} {c.resume_var} {pretty_type(c.req)} "
        f"{pretty_type(c.resp)} ", c.body, ")",
    ),
    Handle: lambda t: (
        f"(handle {'deep' if t.deep else 'shallow'} ", t.scrutinee,
        f" (ret {t.ret_var} ", t.ret_body, ") (", *[p for c in t.clauses for p in (" ", c)][1:],
        f") {pretty_type(t.result_eff)} {pretty_type(t.result_type)})",
    ),
    Err: lambda t: "err",
    **dict.fromkeys(_CAST_TAGS, lambda t: (
        f"({_CAST_TAGS[type(t)]} {pretty_type(t.lo)} {pretty_type(t.hi)} ", t.body, ")"
    )),
}


def pretty(t: Term, limit: Optional[int] = None, layout=None) -> str:
    """t as an s-expression, printed from an explicit stack, so a term's
    depth is never the host's.  With a limit, printing stops once the
    output is longer than limit: the result is then a prefix of the whole.
    A layout, when given, spells each item in place of _LAYOUT: as a
    string, or as strings and further items in order."""
    x = _LAYOUT[type(t)](t) if layout is None else layout(t)
    if type(x) is str:
        return x
    out, n, stack = [], 0, [iter(x)]
    while stack:
        for x in stack[-1]:
            if type(x) is not str:
                x = _LAYOUT[type(x)](x) if layout is None else layout(x)
                if type(x) is not str:
                    stack.append(iter(x))
                    break
            out.append(x)
            if limit is not None:
                n += len(x)
                if n > limit:
                    return "".join(out)
        else:
            stack.pop()
    return "".join(out)

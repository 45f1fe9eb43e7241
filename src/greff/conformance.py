"""Executable checks that the calculus behaves the way its laws promise.

Four families of checks, all driven by seeded generators and decided by
running both sides of an equation to an outcome:

  - cast/handler agreement: a primitive effect cast runs exactly like
    the deep handler that re-raises each operation across value casts,
    and a function cast runs exactly like its eta-expansion;
  - cast laws: retraction (up then down is identity), decomposition of
    a cast through an intermediate type, commutation of value casts
    with effect casts, and explicit forwarding clauses;
  - factorization: a cast between gradual-subtype-related types splits
    into an upcast followed by a downcast in four equivalent ways;
  - graduality: making a program's annotations less precise never
    changes a successful outcome, checked on generated program pairs.

Semantic comparison is observational and therefore an approximation:
two terms count as equal when closing harnesses drive them to the same
ground outcome within the fuel budget.  Verdicts say so: a fuel-starved
side makes a case inconclusive, never violated.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import core
from . import elaborate
from . import eval as ev
from . import gen
from . import surface as s
from .typesys import (
    DYN,
    EMPTY,
    Arrow,
    Bool,
    Concrete,
    Dyn,
    OpSig,
    QueueOf,
    Signature,
    Str,
    Unit,
    ValueType,
    erase,
    gradual_subtype,
    ops_of,
)


class DecompositionFailed(Exception):
    """Raised when cast factorization is asked for unrelated types."""


# ---------------------------------------------------------------------------
# Verdicts


def describe_outcome(o: ev.Outcome) -> str:
    if isinstance(o, ev.Value):
        return f"value {core.pretty(o.value)}"
    if isinstance(o, ev.Error):
        return "error"
    if isinstance(o, ev.UncaughtRaise):
        return f"uncaught {o.op}"
    return f"fuel ({o.steps})"


def outcomes_equal(left: ev.Outcome, right: ev.Outcome) -> bool:
    return left == right


def verdict(outcomes: Sequence[ev.Outcome], ordered: bool = False) -> str:
    """Judge a case: "holds", "violated" or "inconclusive".

    Every outcome must equal the first.  With `ordered` the first side is
    the more precise one, which may stop with a cast error where the
    others succeed, never the other way around.  A side out of fuel
    decides nothing, so it makes the case inconclusive.
    """
    first = outcomes[0]
    if ordered and isinstance(first, ev.Error):
        return "holds"
    if any(isinstance(o, ev.FuelExhausted) for o in outcomes):
        return "inconclusive"
    if all(outcomes_equal(first, o) for o in outcomes[1:]):
        return "holds"
    return "violated"


# ---------------------------------------------------------------------------
# Effect casts are handlers


def _re_raise(
    op: str,
    payload_var: str,
    send: OpSig,
    recv: OpSig,
    up: bool,
    result_eff,
) -> core.Term:
    """The clause body re-raising op across value casts, feeding the resume.

    `send` is the typing the clause receives the payload at, `recv` the
    typing of the re-raise.  The payload crosses in the cast's direction
    and the response comes back the other way.
    """
    lo, hi = (send, recv) if up else (recv, send)
    pay = (core.ValUpcast if up else core.ValDowncast)(lo.req, hi.req, core.Var(payload_var))
    raised = core.Raise(op, recv.req, recv.resp, pay)
    out: core.Term = (core.ValDowncast if up else core.ValUpcast)(lo.resp, hi.resp, raised)
    if isinstance(result_eff, Dyn):
        # a bare raise has a concrete one-operation row, which no typing
        # rule lets sit directly under a dynamic ambient; the identity
        # upcast stays primitive and dissolves into identity value casts
        out = core.EffUpcast(Concrete({op: OpSig(recv.req, recv.resp)}), DYN, out)
    return out


def expand_effect_cast(
    sig: Signature,
    cast: core.EffCast,
    result_type: ValueType,
    fresh: Callable[[str], str],
) -> core.Handle:
    """The deep handler a primitive effect cast is equivalent to.

    It handles every operation its source row can raise (the lower row
    of an upcast, the higher row of a downcast), re-raising each at the
    target row's typing and erroring on those the target omits; an
    upcast's target omits none.
    """
    source, target = (cast.lo, cast.hi) if cast.up else (cast.hi, cast.lo)
    target_ops = ops_of(target, sig)
    clauses = []
    for op, send in ops_of(source, sig).items():
        x, k = fresh("x"), fresh("k")
        recv = target_ops.get(op)
        if recv is None:
            body: core.Term = core.Err()
        else:
            body = core.App(core.Var(k), _re_raise(op, x, send, recv, cast.up, target))
        clauses.append(core.Clause(op, x, k, body, send.req, send.resp))
    rv = fresh("x")
    return core.Handle(
        cast.body,
        rv,
        core.Var(rv),
        tuple(clauses),
        target,
        result_type,
        deep=True,
    )


def expand_fun_cast(cast: core.ValCast, fresh: Callable[[str], str]) -> core.Term:
    """The eta-expansion a function cast is equivalent to.

    The argument crosses the cast against the direction of the result;
    the latent effect row is cast on the way out.
    """
    lo, hi, up = cast.lo, cast.hi, cast.up
    assert isinstance(lo, Arrow) and isinstance(hi, Arrow)
    g, x = fresh("g"), fresh("x")
    arg = (core.ValDowncast if up else core.ValUpcast)(lo.dom, hi.dom, core.Var(x))
    inner = (core.EffUpcast if up else core.EffDowncast)(
        lo.eff, hi.eff, core.App(core.Var(g), arg)
    )
    body = (core.ValUpcast if up else core.ValDowncast)(lo.cod, hi.cod, inner)
    return core.Let(cast.body, g, core.Lam(x, hi.dom if up else lo.dom, body))


def _fresh_counter(prefix: str = "%c") -> Callable[[str], str]:
    n = [0]

    def fresh(base: str) -> str:
        n[0] += 1
        return f"{prefix}{base}{n[0]}"

    return fresh


def expand_casts(
    sig: Signature, term: core.Term, effect: bool = True, function: bool = False
) -> core.Term:
    """Replace a closed term's primitive casts by their expansions, bottom-up.

    With `effect`, every effect cast becomes the equivalent deep handler;
    with `function`, every value cast between arrow types becomes the
    equivalent wrapper lambda.  The handler's result type is the value
    type of the cast body, read from one typecheck of the input: an
    expansion has its cast's typing, so expanding beneath a cast never
    changes that type.
    """
    body_types: Optional[dict[int, ValueType]] = None
    if effect:
        body_types = {}
        core.typecheck(sig, {}, term, casts=body_types)
    return _expand(term, sig, body_types, function, _fresh_counter())


def _expand(t, sig, body_types, function, fresh) -> core.Term:
    """Expand below t; `body_types` is None when effect casts stay primitive.
    A subtree without a cast to expand comes back as the same object."""
    out = core.map_children(t, _expand, sig, body_types, function, fresh)
    if function and isinstance(t, core.ValCast) and type(t.lo) is type(t.hi) is Arrow:
        return expand_fun_cast(out, fresh)
    if body_types is not None and isinstance(t, core.EffCast):
        return expand_effect_cast(sig, out, body_types[id(t)], fresh)
    return out


# ---------------------------------------------------------------------------
# Cast factorization


@dataclass(frozen=True)
class Factorization:
    """The corners of the square a cast from a to b factors through.

    a goes up to either upper type and back down to either of b's side:
    up_lo and down_lo sit at the source's precision, up_hi and down_hi
    at the target's, with up_* above both in precision.
    """

    up_hi: object  # A_h: the source widened, target-shaped
    mid_hi: object  # D_h: the upper, less precise middle
    mid_lo: object  # D_l: the lower, more precise middle
    down_lo: object  # B_l: the target narrowed, source-shaped


def factor(a, b) -> Factorization:
    """Split evidence for a <~ b into subtyping and precision parts.

    Yields types with a <= up_hi |_ mid_hi, a |_ mid_lo <= mid_hi and
    down_lo <= b with down_lo |_ mid_lo, b |_ mid_hi: the four ways of
    writing the cast as up-then-down all agree.
    """
    if not gradual_subtype(a, b):
        raise DecompositionFailed(f"{a} is not a gradual subtype of {b}")
    return _factor(a, b)


def _factor(a, b) -> Factorization:
    if isinstance(a, (Bool, Unit, Str)) and a == b:
        return Factorization(a, a, a, a)
    if isinstance(a, QueueOf) and isinstance(b, QueueOf):
        e = _factor(a.elem, b.elem)
        return Factorization(
            QueueOf(e.up_hi), QueueOf(e.mid_hi), QueueOf(e.mid_lo), QueueOf(e.down_lo)
        )
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        d = _factor(b.dom, a.dom)  # contravariant: evidence runs backwards
        f = _factor(a.eff, b.eff)
        c = _factor(a.cod, b.cod)
        return Factorization(
            Arrow(d.down_lo, f.up_hi, c.up_hi),
            Arrow(d.mid_lo, f.mid_hi, c.mid_hi),
            Arrow(d.mid_hi, f.mid_lo, c.mid_lo),
            Arrow(d.up_hi, f.down_lo, c.down_lo),
        )
    if isinstance(a, Dyn) or isinstance(b, Dyn):
        if isinstance(a, Dyn) and isinstance(b, Dyn):
            return Factorization(DYN, DYN, DYN, DYN)
        if isinstance(a, Dyn):
            return Factorization(DYN, DYN, DYN, b)
        return Factorization(a, DYN, DYN, DYN)
    if isinstance(a, Concrete) and isinstance(b, Concrete):
        up_hi, mid_hi = {}, {}
        mid_lo, down_lo = {}, {}
        for op, bs in b.ops:
            asig = a.get(op)
            if asig is None:
                up_hi[op] = bs
                mid_hi[op] = bs
                continue
            rq = _factor(asig.req, bs.req)
            rs = _factor(bs.resp, asig.resp)  # contravariant again
            up_hi[op] = OpSig(rq.up_hi, rs.down_lo)
            mid_hi[op] = OpSig(rq.mid_hi, rs.mid_lo)
            mid_lo[op] = OpSig(rq.mid_lo, rs.mid_hi)
            down_lo[op] = OpSig(rq.down_lo, rs.up_hi)
        return Factorization(
            Concrete(up_hi), Concrete(mid_hi), Concrete(mid_lo), Concrete(down_lo)
        )
    raise DecompositionFailed(f"no factorization of {a} against {b}")


def cast_factorizations(
    a: ValueType, b: ValueType, m: core.Term
) -> tuple[core.Term, ...]:
    """Four equivalent up-then-down spellings of the cast from a to b."""
    f = factor(a, b)
    shared = erase(a)
    if erase(b) != shared:
        raise DecompositionFailed(f"{a} and {b} have different erasures")
    return (
        core.ValDowncast(b, f.mid_hi, core.ValUpcast(f.up_hi, f.mid_hi, m)),
        core.ValDowncast(b, f.mid_hi, core.ValUpcast(a, f.mid_lo, m)),
        core.ValDowncast(f.down_lo, f.mid_lo, core.ValUpcast(a, f.mid_lo, m)),
        core.ValDowncast(b, shared, core.ValUpcast(a, shared, m)),
    )


# ---------------------------------------------------------------------------
# Surface precision: sites, the imprecisifier, syntactic precision


# declarations and imports: their typings are interface facts, not
# annotations of the program under them
_INTERFACE = (s.SEffectDecl, s.SImportEffect, s.SImportValue)


def count_effect_sites(node) -> int:
    """The number of concrete row annotations, the sites imprecisify may blur."""
    return _count_sites(node, {})


# what holds no site: no node, an interface, or a leaf other than SNames
_BARREN = frozenset(
    {type(None), *_INTERFACE, *(t for t, f in s.FIELDS.items() if not f and t is not s.SNames)}
)


def _count_sites(node, counts: dict[int, int]) -> int:
    """The number of sites under node, recorded in counts under the id of
    node and of every node below it that may hold one."""
    tn = type(node)
    if tn in _BARREN:
        return 0
    n = int(tn is s.SNames)
    for name in s.FIELDS[tn]:
        v = getattr(node, name)
        for x in v if type(v) is tuple else (v,):
            if type(x) not in _BARREN:
                n += _count_sites(x, counts)
    counts[id(node)] = n
    return n


def _blur(node, counts: dict[int, int], first: int, chosen: list[int]):
    """node, whose sites are numbered from first, with the sites in chosen
    (sorted) turned to ?.  Only subtrees that hold a chosen site are
    walked and rebuilt; every other subtree comes back as the same object.
    """
    if isinstance(node, s.SNames):
        return DYN
    changed = {}
    for name in s.FIELDS[type(node)]:
        v = getattr(node, name)
        kids, hit = list(v) if type(v) is tuple else [v], False
        for j, x in enumerate(kids):
            n = counts.get(id(x), 0)
            i = bisect.bisect_left(chosen, first)
            if i < len(chosen) and chosen[i] < first + n:
                kids[j], hit = _blur(x, counts, first, chosen), True
            first += n
        if hit:
            changed[name] = tuple(kids) if type(v) is tuple else kids[0]
    return dataclasses.replace(node, **changed)


@dataclass(frozen=True)
class PrecisionPair:
    precise: s.SProgram
    imprecise: s.SProgram
    sites: tuple[int, ...]  # indices of the annotations turned dynamic


def imprecisify(p: s.SProgram, rng: random.Random) -> Optional[PrecisionPair]:
    """Turn a random nonempty set of row annotations into ?; None if none."""
    counts: dict[int, int] = {}
    n = _count_sites(p, counts)
    if n == 0:
        return None
    chosen = sorted(rng.sample(range(n), rng.randint(1, n)))
    return PrecisionPair(p, _blur(p, counts, 0, chosen), tuple(chosen))


def syntactic_precision(a, b) -> bool:
    """Structural equality except annotations may be ? on the right."""
    if isinstance(b, Dyn):
        return isinstance(a, (s.SNames, Dyn))
    if type(a) is not type(b) or type(a) not in s.FIELDS:
        return a == b
    kids = s.FIELDS[type(a)]
    for name in kids:
        va, vb = getattr(a, name), getattr(b, name)
        if type(va) is tuple:
            if len(va) != len(vb) or not all(map(syntactic_precision, va, vb)):
                return False
        elif not syntactic_precision(va, vb):
            return False
    return dataclasses.replace(a, **{name: getattr(b, name) for name in kids}) == b


# ---------------------------------------------------------------------------
# Law cases: each builds (sig, left, right) closed ground terms


def _resuming_clause(g: gen._CoreGen, op: str) -> core.Clause:
    """A clause for op that resumes with a canned response."""
    decl = g.sig.get(op)
    assert decl is not None
    p, k = g.name("p"), g.name("k")
    resp = g.value(decl.resp, frozenset(), {}, 1)
    return core.Clause(op, p, k, core.App(core.Var(k), resp), decl.req, decl.resp)


def _handler_clauses(g: gen._CoreGen) -> tuple[core.Clause, ...]:
    """One resuming clause per declared operation."""
    return tuple(_resuming_clause(g, op) for op in sorted(g.sig.names()))


def _observe(g: gen._CoreGen, ty: ValueType, t: core.Term) -> core.Term:
    """A str-typed observation of a value of any type.

    Functions are applied to canonical arguments (through a row-erased
    view so nested latent rows never mix), queues are peeked, grounds
    are printed.
    """
    if isinstance(ty, Str):
        return t
    if isinstance(ty, Bool):
        return core.If(t, core.StrLit("t"), core.StrLit("f"))
    if isinstance(ty, Unit):
        return core.Let(t, g.name("u"), core.StrLit("u"))
    if isinstance(ty, QueueOf):
        h, r = g.name("h"), g.name("r")
        return core.CaseQueue(
            t, core.StrLit("mt"), h, r, _observe(g, ty.elem, core.Var(h))
        )
    if isinstance(ty, Arrow):
        loose = Arrow(ty.dom, DYN, ty.cod)
        fn = core.ValUpcast(ty, loose, t) if ty != loose else t
        arg = g.value(ty.dom, frozenset(g.sig.names()), {}, 1)
        return _observe(g, ty.cod, core.App(fn, arg))
    raise TypeError(f"not a value type: {ty}")


def _ground_harness_ctx(
    g: gen._CoreGen, ty: ValueType
) -> Callable[[core.Term], core.Term]:
    """A reusable str-typed observation context for terms of type ty.

    Canonical arguments and handler responses are drawn once, so the
    terms a law compares are observed under the exact same context.
    """
    x = g.name("v")
    obs = _observe(g, ty, core.Var(x))
    clauses = _handler_clauses(g)
    rv = g.name("r")

    def wrap(t: core.Term) -> core.Term:
        return core.Handle(
            core.Let(t, x, obs), rv, core.Var(rv), clauses, EMPTY, Str(), True
        )

    return wrap


@dataclass(frozen=True)
class LawCase:
    sig: Signature
    left: core.Term
    right: core.Term


def _gen_ctx(seed: int) -> tuple[random.Random, gen._CoreGen]:
    rng = random.Random(seed)
    return rng, gen._CoreGen(rng, gen.gen_signature(rng))


def case_effect_cast_vs_handler(seed: int) -> LawCase:
    """A primitive up/down effect cast against its handler expansion."""
    rng, g = _gen_ctx(seed)
    names = sorted(g.sig.names())
    lo = g.sig.at(rng.sample(names, rng.randint(0, len(names))))
    body = g.term(gen.STR, frozenset(lo.names()), {}, 3)
    up = core.EffUpcast(lo, DYN, body)
    if rng.random() < 0.5:
        # a matching downcast on top: raises cross both, or trap when the
        # lower row loses operations
        back = g.sig.at(rng.sample(names, rng.randint(0, len(names))))
        cast: core.Term = core.EffDowncast(back, DYN, up)
    else:
        cast = up
    primitive = _ground_harness_ctx(g, gen.STR)(cast)
    expanded = expand_casts(g.sig, primitive, effect=True)
    return LawCase(g.sig, primitive, expanded)


def case_fun_cast_vs_wrapper(seed: int) -> LawCase:
    """A function-type value cast against its eta-expansion."""
    rng, g = _gen_ctx(seed)
    row = gen.gen_row(rng, g.sig)
    ty = Arrow(rng.choice(gen.GROUND), row, rng.choice(gen.GROUND))
    hi = gen.loosen(rng, ty, p=0.7)
    fn = g.value(ty, frozenset(row.names()), {}, 2)
    cast: core.Term = core.ValUpcast(ty, hi, fn)
    roll = rng.random()
    if roll < 0.35:
        cast = core.ValDowncast(ty, hi, cast)
        out_ty: ValueType = ty
    elif roll < 0.6 and isinstance(hi.eff, Dyn):
        # down to a different row: applying the result can trap, and the
        # proxy and its expansion must trap alike
        out_ty = Arrow(ty.dom, gen.gen_row(rng, g.sig), ty.cod)
        cast = core.ValDowncast(out_ty, hi, cast)
    else:
        out_ty = hi
    primitive = _ground_harness_ctx(g, out_ty)(cast)
    expanded = expand_casts(g.sig, primitive, effect=False, function=True)
    return LawCase(g.sig, primitive, expanded)


def case_retraction(seed: int) -> LawCase:
    """Casting up and straight back down is the identity."""
    rng, g = _gen_ctx(seed)
    if rng.random() < 0.5:
        row = gen.gen_row(rng, g.sig)
        m = g.term(gen.STR, frozenset(row.names()), {}, 3)
        wrapped: core.Term = core.EffDowncast(row, DYN, core.EffUpcast(row, DYN, m))
        ty: ValueType = gen.STR
    else:
        row = gen.gen_row(rng, g.sig)
        ty = Arrow(rng.choice(gen.GROUND), row, rng.choice(gen.GROUND))
        hi = gen.loosen(rng, ty, p=0.7)
        m = g.value(ty, frozenset(row.names()), {}, 2)
        wrapped = core.ValDowncast(ty, hi, core.ValUpcast(ty, hi, m))
    ctx = _ground_harness_ctx(g, ty)
    return LawCase(g.sig, ctx(m), ctx(wrapped))


def case_decomposition(seed: int) -> LawCase:
    """An upcast equals going up through an intermediate precision."""
    rng, g = _gen_ctx(seed)
    row = gen.gen_row(rng, g.sig)
    ty = Arrow(rng.choice(gen.GROUND), row, rng.choice(gen.GROUND))
    mid = gen.loosen(rng, ty, p=0.5)
    top = gen.loosen(rng, mid, p=0.8)
    m = g.value(ty, frozenset(row.names()), {}, 2)
    one_step = core.ValUpcast(ty, top, m)
    two_step = core.ValUpcast(mid, top, core.ValUpcast(ty, mid, m))
    if rng.random() < 0.5:
        # and back down, in one step against two
        left: core.Term = core.ValDowncast(ty, top, one_step)
        right: core.Term = core.ValDowncast(
            ty, mid, core.ValDowncast(mid, top, two_step)
        )
        out_ty: ValueType = ty
    else:
        left, right, out_ty = one_step, two_step, top
    ctx = _ground_harness_ctx(g, out_ty)
    return LawCase(g.sig, ctx(left), ctx(right))


def case_commutation(seed: int) -> LawCase:
    """Value casts and effect casts slide past each other."""
    rng, g = _gen_ctx(seed)
    row = gen.gen_row(rng, g.sig)
    ty = Arrow(rng.choice(gen.GROUND), gen.gen_row(rng, g.sig), rng.choice(gen.GROUND))
    hi = gen.loosen(rng, ty, p=0.7)
    m = g.term(ty, frozenset(row.names()), {}, 2)
    left = core.ValUpcast(ty, hi, core.EffUpcast(row, DYN, m))
    right = core.EffUpcast(row, DYN, core.ValUpcast(ty, hi, m))
    ctx = _ground_harness_ctx(g, hi)
    return LawCase(g.sig, ctx(left), ctx(right))


def case_forwarding(seed: int) -> LawCase:
    """Forwarding an operation explicitly equals not handling it at all."""
    rng, g = _gen_ctx(seed)
    names = sorted(g.sig.names())
    if len(names) < 2:
        fwd = names[0]
        handled: list[str] = []
    else:
        fwd = rng.choice(names)
        rest = [n for n in names if n != fwd]
        handled = rng.sample(rest, rng.randint(0, len(rest)))
    scope = frozenset(names)
    m = g.term(gen.STR, scope, {}, 3)
    decl_f = g.sig.get(fwd)
    assert decl_f is not None
    # force at least one raise of the forwarded operation
    m = core.Let(
        core.Raise(fwd, decl_f.req, decl_f.resp, g.value(decl_f.req, scope, {}, 1)),
        g.name(),
        m,
    )
    result_eff = g.sig.at(sorted(scope))
    base = tuple(_resuming_clause(g, op) for op in handled)
    p, k = g.name("p"), g.name("k")
    fwd_clause = core.Clause(
        fwd,
        p,
        k,
        core.App(core.Var(k), core.Raise(fwd, decl_f.req, decl_f.resp, core.Var(p))),
        decl_f.req,
        decl_f.resp,
    )
    rv = g.name("r")

    def inner(with_clause: bool) -> core.Term:
        clauses = base + ((fwd_clause,) if with_clause else ())
        return core.Handle(m, rv, core.Var(rv), clauses, result_eff, gen.STR, True)

    ctx = _ground_harness_ctx(g, gen.STR)
    return LawCase(g.sig, ctx(inner(False)), ctx(inner(True)))


def case_factorization(seed: int) -> Optional[tuple[Signature, tuple[core.Term, ...]]]:
    """Four spellings of one factored cast, each in the same harness."""
    rng, g = _gen_ctx(seed)
    row = gen.gen_row(rng, g.sig)
    a: ValueType = Arrow(
        rng.choice(gen.GROUND), row, rng.choice((gen.STR, gen.BOOL, QueueOf(gen.STR)))
    )
    # widen rows (subtyping), then loosen sites (precision): a <~ b
    b = gen.loosen(rng, _widen(rng, g.sig, a), p=0.5)
    if not gradual_subtype(a, b):
        return None
    m = g.value(a, frozenset(row.names()), {}, 2)
    variants = cast_factorizations(a, b, m)
    ctx = _ground_harness_ctx(g, b)
    return g.sig, tuple(ctx(v) for v in variants)


def _widen(rng: random.Random, sig: Signature, t: ValueType) -> ValueType:
    """A supertype of t: rows may gain operations, structure is kept."""
    if isinstance(t, (Bool, Unit, Str)):
        return t
    if isinstance(t, QueueOf):
        return QueueOf(_widen(rng, sig, t.elem))
    if isinstance(t, Arrow):
        eff = t.eff
        if isinstance(eff, Concrete):
            extra = [n for n in sig.names() if n not in eff and rng.random() < 0.5]
            eff = Concrete(dict(eff.ops) | {n: sig.get(n) for n in extra})
        return Arrow(t.dom, eff, _widen(rng, sig, t.cod))
    return t


# ---------------------------------------------------------------------------
# Batches and the report


LAWS: dict[str, Callable[[int], LawCase]] = {
    "effect-cast-handler": case_effect_cast_vs_handler,
    "fun-cast-wrapper": case_fun_cast_vs_wrapper,
    "retraction": case_retraction,
    "decomposition": case_decomposition,
    "commutation": case_commutation,
    "forwarding": case_forwarding,
}


@dataclass(frozen=True)
class CaseRecord:
    check: str
    seed: int
    verdict: str
    left: str
    right: str
    steps_left: int
    steps_right: int

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def _record(
    check: str,
    seed: int,
    sig: Signature,
    terms: Sequence[core.Term],
    fuel: int,
    ordered: bool = False,
) -> CaseRecord:
    """Run every term and judge the outcomes against the first one's."""
    runs = [ev.run(sig, t, fuel=fuel) for t in terms]
    outs = [r.outcome for r in runs]
    return CaseRecord(
        check,
        seed,
        verdict(outs, ordered),
        describe_outcome(outs[0]),
        "; ".join(describe_outcome(o) for o in outs[1:]),
        runs[0].steps,
        max(r.steps for r in runs[1:]),
    )


def run_law_case(law: str, seed: int, fuel: int = 200_000) -> CaseRecord:
    case = LAWS[law](seed)
    return _record(law, seed, case.sig, (case.left, case.right), fuel)


def run_factorization_case(seed: int, fuel: int = 200_000) -> Optional[CaseRecord]:
    got = case_factorization(seed)
    if got is None:
        return None
    sig, variants = got
    return _record("factorization", seed, sig, variants, fuel)


def run_graduality_case(seed: int, fuel: int = 200_000) -> Optional[CaseRecord]:
    rng = random.Random(seed)
    program = gen.gen_surface_program(seed)
    pair = imprecisify(program, rng)
    if pair is None:
        return None
    return graduality_record(seed, pair, fuel=fuel)


def graduality_record(seed: int, pair: PrecisionPair, fuel: int) -> CaseRecord:
    """Check one precision pair and record it under the seed that drew it.

    If the precise program elaborates, the imprecise one must too; at
    runtime the imprecise outcome must refine the precise one.
    """
    try:
        pres = elaborate.elab_program(pair.precise)
    except elaborate.ElabError:
        return CaseRecord("graduality", seed, "holds", "static", "static", 0, 0)
    try:
        impr = elaborate.elab_program(pair.imprecise)
    except elaborate.ElabError:
        return CaseRecord("graduality", seed, "violated", "static", "static", 0, 0)
    terms = (pres.term, impr.term)
    return _record("graduality", seed, pres.sig, terms, fuel, ordered=True)


def case_seed(seed: int, i: int) -> int:
    """The seed of case i in a batch drawn from one master seed."""
    return seed * 100_003 + i


@dataclass
class ConformanceReport:
    records: list[CaseRecord] = field(default_factory=list)

    @property
    def violations(self) -> list[CaseRecord]:
        return [r for r in self.records if r.verdict == "violated"]


def run_conformance(
    seed: int = 0,
    cases_per_law: int = 25,
    fuel: int = 200_000,
    emit: Optional[Callable[[str], None]] = None,
) -> ConformanceReport:
    """Run every law batch from one master seed; verdicts never lie.

    Each case derives its seed from the master seed, so the whole report
    is reproducible from a single number.  Factorization and graduality
    skip seeds that draw no case, up to four times as many draws.
    """
    report = ConformanceReport()

    def record(r: CaseRecord):
        report.records.append(r)
        if emit is not None:
            emit(r.to_json())

    for law in LAWS:
        for i in range(cases_per_law):
            record(run_law_case(law, case_seed(seed, i), fuel=fuel))
    for run_case in (run_factorization_case, run_graduality_case):
        drawn = (run_case(case_seed(seed, i), fuel) for i in range(4 * cases_per_law))
        for r in itertools.islice(filter(None, drawn), cases_per_law):
            record(r)
    return report

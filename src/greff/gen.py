"""Seeded generators for surface programs, core terms, and random types.

Everything is type-directed: terms are grown against a target type and a
set of operations the term may let escape, so the output elaborates
(surface) or typechecks (core) by construction, and raising at runtime
only ever happens under a handler for the raised operation.  All
randomness flows through one random.Random per artifact, making every
output a pure function of its seed.

Bounds are fixed: term nesting up to DEPTH, at most three declared
operations, two modules (declarations plus a main block).  An effect
annotation is left as ? rather than spelled out with chance DYN_BIAS, and
a core subterm is wrapped in a cast retraction with chance CAST_RATE.
"""

from __future__ import annotations

import random
from typing import Mapping

from . import core
from . import surface as s
from .record import record
from .typesys import (
    BOOL,
    DYN,
    EMPTY,
    STR,
    UNIT,
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
)

OP_NAMES = ("ask", "tick", "emit")
GROUND = (BOOL, UNIT, STR)
STRINGS = ("a", "b", "c", "d")
DEPTH = 4
DYN_BIAS = 0.5  # chance an effect annotation is left dynamic
CAST_RATE = 0.2  # chance a core subterm gets wrapped in casts


# ---------------------------------------------------------------------------
# Surface programs

_NONE: frozenset[str] = frozenset()

# env maps a variable to its surface type and the operations its row
# mentions statically (a superset of what using it can actually raise)
_SEnv = Mapping[str, tuple[s.SType, frozenset[str]]]


@record(frozen=False)
class _SurfaceGen:
    rng: random.Random
    ops: dict[str, tuple[s.SType, s.SType]]  # name -> (req, resp)
    fresh: int = 0

    def name(self, base: str = "v") -> str:
        self.fresh += 1
        return f"{base}{self.fresh}"

    def row_ann(self, used: frozenset[str], limit: frozenset[str]) -> s.SEffect:
        """An annotation covering used, padded only from limit, or left ?."""
        if self.rng.random() < DYN_BIAS:
            return DYN
        extra = [o for o in sorted(limit - used) if self.rng.random() < 0.3]
        return s.SNames(tuple(sorted(used | set(extra))))

    def value(self, ty: s.SType) -> s.STerm:
        rng = self.rng
        if isinstance(ty, Bool):
            return core.BoolLit(rng.random() < 0.5)
        if isinstance(ty, Unit):
            return core.UnitLit()
        if isinstance(ty, Str):
            return core.StrLit(rng.choice(STRINGS))
        raise ValueError(f"no surface value at {ty}")

    def term(
        self, ty: s.SType, allowed: frozenset[str], env: _SEnv, depth: int
    ) -> tuple[s.STerm, frozenset[str]]:
        """A term of type ty; raises stay within allowed.

        Returns the term together with the operations its effect row can
        mention, so enclosing annotations can be made to cover it.
        """
        out, used = self._node(ty, allowed, env, depth)
        rng = self.rng
        if depth > 0 and rng.random() < 0.15:
            out = s.SAscribeType(out, ty)
        if depth > 0 and rng.random() < 0.15:
            if rng.random() < DYN_BIAS:
                out = s.SAscribeEff(out, DYN)
            else:
                out = s.SAscribeEff(out, s.SNames(tuple(sorted(used))))
        return out, used

    def _node(
        self, ty: s.SType, allowed: frozenset[str], env: _SEnv, depth: int
    ) -> tuple[s.STerm, frozenset[str]]:
        rng = self.rng
        # a class test first: == between records of two classes costs two
        # __eq__ calls that both answer NotImplemented
        cls = type(ty)
        matches = [n for n, (t, _) in env.items() if type(t) is cls and (t is ty or t == ty)]
        matches.sort()
        choices = ["value"]
        if matches:
            choices += ["var"] * 2
        if depth > 0:
            raisable = [
                o for o, (_, r) in self.ops.items() if o in allowed and type(r) is cls and r == ty
            ]
            raisable.sort()
            callable_ = [
                n for n, (t, used) in env.items()
                if type(t) is Arrow and type(t.cod) is cls and t.cod == ty and used <= allowed
            ]
            callable_.sort()
            choices += ["if", "let", "handle"]
            if isinstance(ty, Str):
                choices.append("concat")
            if raisable:
                choices += ["raise"] * 2
            if callable_:
                choices += ["call"] * 2
        pick = rng.choice(choices)
        if pick == "value":
            return self.value(ty), _NONE
        if pick == "var":
            return core.Var(rng.choice(matches)), _NONE
        if pick == "if":
            c, u1 = self.term(BOOL, allowed, env, depth - 1)
            t, u2 = self.term(ty, allowed, env, depth - 1)
            e, u3 = self.term(ty, allowed, env, depth - 1)
            return core.If(c, t, e), u1 | u2 | u3
        if pick == "let":
            x = self.name()
            bty = rng.choice(GROUND)
            b, u1 = self.term(bty, allowed, env, depth - 1)
            body, u2 = self.term(ty, allowed, {**env, x: (bty, _NONE)}, depth - 1)
            return core.Let(b, x, body), u1 | u2
        if pick == "concat":
            l, u1 = self.term(STR, allowed, env, depth - 1)
            r, u2 = self.term(STR, allowed, env, depth - 1)
            return core.Concat(l, r), u1 | u2
        if pick == "raise":
            op = rng.choice(raisable)
            payload, u = self.term(self.ops[op][0], allowed, env, depth - 1)
            return s.SRaise(op, payload), u | {op}
        if pick == "call":
            fname = rng.choice(callable_)
            fty, fused = env[fname]
            assert isinstance(fty, Arrow)
            arg, u = self.term(fty.dom, allowed, env, depth - 1)
            return core.App(core.Var(fname), arg), u | fused
        return self._handle(ty, allowed, env, depth)

    def _handle(
        self, ty: s.SType, allowed: frozenset[str], env: _SEnv, depth: int
    ) -> tuple[s.STerm, frozenset[str]]:
        rng = self.rng
        handled = rng.sample(sorted(self.ops), rng.randint(1, len(self.ops)))
        scr, used = self.term(ty, allowed | set(handled), env, depth - 1)
        escaping = used - set(handled)
        # the result annotation is fixed before the ret and clause bodies
        # are grown, and those are budgeted by its names, so it never needs
        # widening (widening would falsify rows already recorded for
        # resume variables bound along the way)
        eff_ann = self.row_ann(escaping, allowed)
        inner = (
            frozenset(eff_ann.names) if isinstance(eff_ann, s.SNames) else allowed
        )
        rv = self.name()
        ret, u_ret = self.term(ty, inner, {**env, rv: (ty, _NONE)}, depth - 1)
        clauses = []
        clause_used: frozenset[str] = frozenset()
        for op in handled:
            req, resp = self.ops[op]
            p, k = self.name("p"), self.name("k")
            resume_ty = Arrow(resp, eff_ann, ty)
            cenv = {**env, p: (req, _NONE), k: (resume_ty, inner)}
            if rng.random() < 0.7:
                resp_term, u_c = self.term(resp, inner, cenv, depth - 1)
                body: s.STerm = core.App(core.Var(k), resp_term)
                u_c |= inner
            else:
                body, u_c = self.term(ty, inner, cenv, depth - 1)
            clauses.append(s.SClause(op, p, k, body))
            clause_used |= u_c
        total = (
            frozenset(eff_ann.names)
            if isinstance(eff_ann, s.SNames)
            else escaping | u_ret | clause_used
        )
        return s.SHandle(True, eff_ann, ty, scr, rv, ret, tuple(clauses)), total

    def program(self, depth: int) -> s.SProgram:
        rng = self.rng
        decls = tuple(
            s.SEffectDecl(op, req, resp) for op, (req, resp) in self.ops.items()
        )
        main_decls: list[s.SDecl] = [
            s.SImportEffect("Ops", op, req, resp)
            for op, (req, resp) in self.ops.items()
        ]
        env: dict[str, tuple[s.SType, frozenset[str]]] = {}
        for _ in range(rng.randint(0, 2)):
            fname = self.name("f")
            dom, cod = rng.choice(GROUND), rng.choice(GROUND)
            may_raise = frozenset(o for o in self.ops if rng.random() < 0.5)
            arg = self.name("a")
            body, used = self.term(
                cod, may_raise, {**env, arg: (dom, _NONE)}, depth - 1
            )
            row = self.row_ann(used, may_raise)
            ann = Arrow(dom, row, cod)
            main_decls.append(s.SDefine(fname, ann, core.Lam(arg, dom, body)))
            static = frozenset(row.names) if isinstance(row, s.SNames) else used
            env[fname] = (ann, static)
        ty = rng.choice((BOOL, STR))
        term, _ = self.term(ty, frozenset(), env, depth)
        return s.SProgram((s.SModule("Ops", decls),), tuple(main_decls), term)


def gen_surface_program(seed: int) -> s.SProgram:
    """A closed two-module surface program of ground type.

    Raises only happen under a handler for the operation, so a drawn
    program runs to a ground value (casts aside) as well as typechecking.
    """
    rng = random.Random(seed)
    n = rng.randint(1, len(OP_NAMES))
    ops = {op: (rng.choice(GROUND), rng.choice(GROUND)) for op in OP_NAMES[:n]}
    return _SurfaceGen(rng, ops).program(DEPTH)


# ---------------------------------------------------------------------------
# Types: random signatures, rows, values; precision loosening


def gen_signature(rng: random.Random, higher_order: bool = False) -> Signature:
    n = rng.randint(1, 3)
    ops = {op: OpSig(rng.choice(GROUND), rng.choice(GROUND)) for op in OP_NAMES[:n]}
    if higher_order and rng.random() < 0.5:
        ops["call"] = OpSig(Arrow(UNIT, DYN, STR), STR)
    return Signature(ops)


def gen_row(rng: random.Random, sig: Signature) -> Concrete:
    names = rng.sample(sorted(sig.names()), rng.randint(0, len(sig.names())))
    return sig.at(names)


def gen_value_type(rng: random.Random, sig: Signature, depth: int = 2) -> ValueType:
    kinds = ["ground"] * 3 + (["queue", "arrow"] if depth > 0 else [])
    kind = rng.choice(kinds)
    if kind == "ground":
        return rng.choice(GROUND)
    if kind == "queue":
        return QueueOf(gen_value_type(rng, sig, depth - 1))
    dom = gen_value_type(rng, sig, depth - 1)
    cod = gen_value_type(rng, sig, depth - 1)
    eff = DYN if rng.random() < 0.4 else gen_row(rng, sig)
    return Arrow(dom, eff, cod)


def loosen(rng: random.Random, t, p: float = 0.5):
    """A type above t in precision: each row site may turn dynamic."""
    if isinstance(t, (Bool, Unit, Str, Dyn)):
        return t
    if isinstance(t, QueueOf):
        return QueueOf(loosen(rng, t.elem, p))
    if isinstance(t, Arrow):
        return Arrow(
            loosen(rng, t.dom, p), loosen(rng, t.eff, p), loosen(rng, t.cod, p)
        )
    if isinstance(t, Concrete):
        if rng.random() < p:
            return DYN
        return Concrete(
            {op: OpSig(loosen(rng, o.req, p), loosen(rng, o.resp, p)) for op, o in t.ops}
        )
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Core terms
#
# The invariants the grower maintains, so that the output typechecks and
# never raises an unhandled operation:
#   - the synthesized effect of term(ty, allowed, ...) is a concrete row
#     whose names lie within allowed, at signature typings;
#   - its value type is <= ty, and exactly ty when ty is ground;
#   - arrows with a dynamic row are minted exactly, by upcasting the
#     body's row, and are never applied.


@record(frozen=False)
class _CoreGen:
    rng: random.Random
    sig: Signature
    fresh: int = 0

    def name(self, base: str = "x") -> str:
        self.fresh += 1
        return f"{base}{self.fresh}"

    def _vtype(self, allowed: frozenset[str], depth: int = 1) -> ValueType:
        """A type usable inside generated terms: rows concrete, within allowed."""
        rng = self.rng
        kinds = ["ground"] * 3 + (["queue", "arrow"] if depth > 0 else [])
        kind = rng.choice(kinds)
        if kind == "ground":
            return rng.choice(GROUND)
        if kind == "queue":
            return QueueOf(self._vtype(allowed, depth - 1))
        names = rng.sample(sorted(allowed), rng.randint(0, len(allowed)))
        return Arrow(
            self._vtype(allowed, depth - 1),
            self.sig.at(names),
            self._vtype(allowed, depth - 1),
        )

    def value(
        self,
        ty: ValueType,
        allowed: frozenset[str],
        env: Mapping[str, ValueType],
        depth: int,
    ) -> core.Term:
        rng = self.rng
        if isinstance(ty, Bool):
            return core.BoolLit(rng.random() < 0.5)
        if isinstance(ty, Unit):
            return core.UNIT
        if isinstance(ty, Str):
            return core.StrLit(rng.choice(STRINGS))
        if isinstance(ty, QueueOf):
            out: core.Term = core.EmptyQueue(ty.elem)
            for _ in range(rng.randint(0, 2) if depth > 0 else 0):
                out = core.Enqueue(out, self.value(ty.elem, allowed, env, depth - 1))
            return out
        if isinstance(ty, Arrow):
            x = self.name()
            if isinstance(ty.eff, Dyn):
                inner = allowed
            else:
                inner = allowed & set(ty.eff.names())
            body = self.term(ty.cod, inner, {**env, x: ty.dom}, max(depth - 1, 0))
            if isinstance(ty.eff, Dyn):
                body = core.EffUpcast(self.sig.at(sorted(inner)), DYN, body)
            return core.Lam(x, ty.dom, body)
        raise ValueError(f"no value at {ty}")

    def term(
        self,
        ty: ValueType,
        allowed: frozenset[str],
        env: Mapping[str, ValueType],
        depth: int,
    ) -> core.Term:
        rng = self.rng
        cls, get = type(ty), self.sig.get  # classes first, as in _SurfaceGen._node
        matches = [n for n, t in env.items() if type(t) is cls and (t is ty or t == ty)]
        matches.sort()
        choices = ["value"] * 2
        if matches:
            choices += ["var"] * 2
        if depth > 0:
            raisable = [
                o for o in allowed
                if (d := get(o)) is not None and type(d.resp) is cls and d.resp == ty
            ]
            raisable.sort()
            choices += ["if", "let", "apply", "handle"]
            if isinstance(ty, Str):
                choices += ["concat", "fold"]
            if raisable:
                choices += ["raise"] * 2
        pick = rng.choice(choices)
        out: core.Term
        if pick == "value":
            out = self.value(ty, allowed, env, depth)
        elif pick == "var":
            out = core.Var(rng.choice(matches))
        elif pick == "if":
            out = core.If(
                self.term(BOOL, allowed, env, depth - 1),
                self.term(ty, allowed, env, depth - 1),
                self.term(ty, allowed, env, depth - 1),
            )
        elif pick == "let":
            x = self.name()
            bty = self._vtype(allowed)
            out = core.Let(
                self.term(bty, allowed, env, depth - 1),
                x,
                self.term(ty, allowed, {**env, x: bty}, depth - 1),
            )
        elif pick == "concat":
            out = core.Concat(
                self.term(STR, allowed, env, depth - 1),
                self.term(STR, allowed, env, depth - 1),
            )
        elif pick == "raise":
            op = rng.choice(raisable)
            decl = self.sig.get(op)
            assert decl is not None
            out = core.Raise(
                op, decl.req, decl.resp, self.term(decl.req, allowed, env, depth - 1)
            )
        elif pick == "apply":
            dom = self._vtype(allowed)
            row = self.sig.at(sorted(allowed))
            fn = self.value(Arrow(dom, row, ty), allowed, env, depth - 1)
            out = core.App(fn, self.term(dom, allowed, env, depth - 1))
        elif pick == "fold":
            out = self._fold_queue(allowed, env, depth)
        else:
            out = self._handle(ty, allowed, env, depth)
        if depth > 0 and rng.random() < CAST_RATE:
            out = self._wrap_casts(out, ty, allowed)
        return out

    def _handle(
        self,
        ty: ValueType,
        allowed: frozenset[str],
        env: Mapping[str, ValueType],
        depth: int,
    ) -> core.Term:
        rng = self.rng
        names = sorted(self.sig.names())
        handled = rng.sample(names, rng.randint(1, len(names)))
        scr = self.term(ty, allowed | set(handled), env, depth - 1)
        if rng.random() < 0.6:
            # make sure the handler actually fields a raise now and then
            op0 = rng.choice(handled)
            decl0 = self.sig.get(op0)
            assert decl0 is not None
            pay = self.value(decl0.req, allowed | set(handled), env, 1)
            scr = core.Let(
                core.Raise(op0, decl0.req, decl0.resp, pay), self.name(), scr
            )
        result_eff = self.sig.at(sorted(allowed))
        rv = self.name()
        ret = self.term(ty, allowed, {**env, rv: ty}, depth - 1)
        clauses = []
        for op in handled:
            decl = self.sig.get(op)
            assert decl is not None
            p, k = self.name("p"), self.name("k")
            cenv = {**env, p: decl.req, k: Arrow(decl.resp, result_eff, ty)}
            if rng.random() < 0.7:
                body: core.Term = core.App(
                    core.Var(k), self.term(decl.resp, allowed, cenv, depth - 1)
                )
            else:
                body = self.term(ty, allowed, cenv, depth - 1)
            clauses.append(core.Clause(op, p, k, body, decl.req, decl.resp))
        return core.Handle(scr, rv, ret, tuple(clauses), result_eff, ty, deep=True)

    def _wrap_casts(
        self, t: core.Term, ty: ValueType, allowed: frozenset[str]
    ) -> core.Term:
        """Wrap in a retraction: up into a looser type, straight back down."""
        rng = self.rng
        if rng.random() < 0.5:
            hi = loosen(rng, ty)
            if hi != ty:
                return core.ValDowncast(ty, hi, core.ValUpcast(ty, hi, t))
            return t
        row = self.sig.at(sorted(allowed))
        return core.EffDowncast(row, DYN, core.EffUpcast(row, DYN, t))

    def _fold_queue(
        self, allowed: frozenset[str], env: Mapping[str, ValueType], depth: int
    ) -> core.Term:
        """Concatenate a literal queue of strings by structural recursion."""
        f, q, h, r = self.name("f"), self.name("q"), self.name("h"), self.name("r")
        fold = core.Fix(
            f,
            Arrow(QueueOf(STR), EMPTY, STR),
            core.Lam(
                q,
                QueueOf(STR),
                core.CaseQueue(
                    core.Var(q),
                    core.StrLit(""),
                    h,
                    r,
                    core.Concat(core.Var(h), core.App(core.Var(f), core.Var(r))),
                ),
            ),
        )
        return core.App(fold, self.value(QueueOf(STR), allowed, env, depth - 1))


def gen_core_term(
    rng: random.Random,
    sig: Signature,
    ty: ValueType,
    allowed: frozenset[str] = frozenset(),
) -> core.Term:
    """A closed core term of type ty letting at most `allowed` escape."""
    return _CoreGen(rng, sig).term(ty, allowed, {}, DEPTH)


def gen_core_program(seed: int) -> tuple[Signature, core.Term, ValueType]:
    """A closed well-typed core term with no operation escaping."""
    rng = random.Random(seed)
    sig = gen_signature(rng)
    ty = rng.choice((BOOL, STR))
    return sig, gen_core_term(rng, sig, ty), ty

"""Elaboration from the surface language into the cast calculus.

Elaboration typechecks a surface program and inserts casts at every point
where typing information of different precision meets.  Each module is
processed against its own local typing of effect names (declared or
imported); modules turn into a chain of let-bindings over mangled names
(`x#3`), so definitions with the same surface name in different modules
cannot collide.  The final term of the main block closes the chain.

Inserted casts are oblique: a cast goes up to the erasure of its source
and down from the erasure of its target, and since a row erases to the
dynamic effect type, one rule serves value types and rows alike.
Identity components are elided, so a cast between equal types disappears
entirely.

Wherever subterm effect rows meet (let, if, ++, enqueue, match, raise,
application, the module chain) one method, `_Elab.sequence`, combines
them into their gradual join, in which the dynamic row absorbs: as soon
as one operand is dynamic the whole position is dynamic, and the concrete
operands are upcast into it.  A value-like operand at the row [] stays
uncast, as an effect cast is the identity on a value, and a raise binds
its payload with a let only when the payload is not such a value.
Checks are deferred to the places that demand a concrete row (handler
boundaries, annotations, imports) rather than planted around every
dynamic subterm, so mixing precision never introduces failure points
that the fully dynamic program lacks.

Handlers cast their scrutinee so that every effect it may raise is either
caught by a clause or present in the result row.  With a concrete scrutinee
row and a dynamic result row, uncaught operations are upcast to their
erased typings; with a dynamic scrutinee row and a concrete result, the
scrutinee is downcast to caught-plus-result; when both are concrete the
uncaught operations must already sit in the result row.
"""

from __future__ import annotations

from typing import Optional

from . import core, surface as s
from .record import record
from .typesys import (
    BOOL, DYN, EMPTY, STR, UNIT, Arrow, Concrete, EffectType, JoinUndefined, OpSig,
    QueueOf, Signature, ValueType, compatible, erase, gradual_join, gradual_subtype,
    is_effect_type, subtype,
)


class ElabError(Exception):
    def __init__(self, message: str, pos: Optional[tuple] = None):
        if pos is not None:
            message = f"{pos[0]}:{pos[1]}: {message}"
        super().__init__(message)
        self.pos = pos


@record
class ModuleExports:
    """What one module makes visible: effect typings and value bindings
    (surface name to mangled core name and local type)."""

    effects: dict[str, tuple[ValueType, ValueType]]
    values: dict[str, tuple[str, ValueType]]


@record
class ElabResult:
    sig: Signature
    term: "core.Term"
    eff: EffectType
    val: ValueType


# ---------------------------------------------------------------------------
# self-reference (to detect recursive definitions)


def occurs_free(name: str, t: s.STerm) -> bool:
    """Whether the variable `name` occurs free in t: a walk over the
    node-valued fields s.FIELDS names that skips every field binding name;
    type and row fields hold no variable."""
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is core.Var:
            if node.name == name:
                return True
            continue
        for field, binders in s.FIELDS[type(node)].items():
            if binders and name in [getattr(node, b) for b in binders]:
                continue
            v = getattr(node, field)
            if type(v) is tuple:
                stack += v
            elif v is not None:  # an unannotated lambda
                stack.append(v)
    return False


# ---------------------------------------------------------------------------
# the elaborator


# core terms that core.typecheck types at every ambient row, besides
# enqueues and value casts of such terms: an effect cast is the identity
# on them, since a value raises nothing
_VALUES = frozenset({
    core.Var, core.BoolLit, core.UnitLit, core.StrLit, core.Lam, core.Fix, core.EmptyQueue,
})


def _value_like(t: core.Term) -> bool:
    tt = type(t)
    if tt in _VALUES:
        return True
    if tt is core.Enqueue:
        return _value_like(t.queue) and _value_like(t.elem)
    if isinstance(t, core.ValCast):
        return _value_like(t.body)
    return False


class _Elab:
    def __init__(self):
        self.sig = Signature({})
        self.delta: dict[str, ModuleExports] = {}
        self.bindings: list[tuple[str, core.Term, EffectType]] = []
        self._fresh = 0
        # written rows by their names, for the gamma_eff they were read in
        # (held, so no later module's dict can pass for it)
        self._rows_of, self._rows = None, {}

    def fresh(self) -> str:
        name = f"%{self._fresh}"
        self._fresh += 1
        return name

    def mangle(self, name: str) -> str:
        return f"{name}#{len(self.bindings)}"

    # -- types

    def elab_type(self, ty, gamma_eff):
        """A written value type or row, each set of names a concrete row at
        the names' typings in gamma_eff; ? and ground types stand as written."""
        if isinstance(ty, s.SNames):
            if gamma_eff is not self._rows_of:  # a new module or main block
                self._rows_of, self._rows = gamma_eff, {}
            row = self._rows.get(ty.names)
            if row is None:
                ops = {}
                for name in ty.names:
                    if name not in gamma_eff:
                        raise ElabError(f"unknown effect {name}", ty.pos)
                    ops[name] = OpSig(*gamma_eff[name])
                row = self._rows[ty.names] = Concrete(ops)
            return row
        if isinstance(ty, QueueOf):
            return QueueOf(self.elab_type(ty.elem, gamma_eff))
        if isinstance(ty, Arrow):
            elab = self.elab_type
            return Arrow(elab(ty.dom, gamma_eff), elab(ty.eff, gamma_eff), elab(ty.cod, gamma_eff))
        return ty

    # -- the oblique cast.  A cast is emitted only when the endpoints differ
    # in precision; endpoints related by plain subtyping need no cast because
    # the core checker subsumes along <= wherever elaboration widens.

    def cast(self, target, source, term, pos, what=None) -> core.Term:
        """term cast from the value type or row source to target: up to the
        erasure of source, then down from the erasure of target (a row
        erases to ?).  A source not coercible to target is an ElabError,
        worded with `what` as the subject when it is given."""
        if target is source or target == source or subtype(source, target):
            return term
        row = is_effect_type(target)
        if not gradual_subtype(source, target):
            if what is not None:
                has = "effects" if row else "type"
                raise ElabError(f"{what} has {has} {source}, not coercible to {target}", pos)
            are = f"effects {source} are" if row else f"{source} is"
            raise ElabError(f"{are} not coercible to {target}", pos)
        up, down = erase(source), erase(target)
        if source != up:
            term = (core.EffUpcast if row else core.ValUpcast)(source, up, term)
        if target != down:
            term = (core.EffDowncast if row else core.ValDowncast)(target, down, term)
        return term

    def sequence(self, pos, *operands, latent=()) -> list:
        """The sequencing rule.  Each operand is a (term, row) pair; `latent`
        rows (a function's, at a call) join in without a term.  Returns the
        gradual join of all the rows, then each term cast up to it, except
        a value-like term at the row [], which needs no cast."""
        sigma = operands[0][1]
        try:
            for row in [row for _, row in operands[1:]] + [*latent]:
                # [] is the join's unit, and a row joined with itself is that row
                if row is not sigma and row is not EMPTY:
                    sigma = row if sigma is EMPTY else gradual_join(sigma, row)
        except JoinUndefined as exc:
            raise ElabError(f"cannot combine effect rows: {exc}", pos) from exc
        out = [sigma]
        for term, row in operands:
            if row is not sigma and not (_value_like(term) and row == EMPTY):
                term = self.cast(sigma, row, term, pos)
            out.append(term)
        return out

    def branches(self, pos, left, lval, right, rval) -> tuple:
        """The gradual join of two branches' value types, each branch cast to it."""
        try:
            out = gradual_join(lval, rval)
        except JoinUndefined as exc:
            raise ElabError(f"branches do not agree: {exc}", pos) from exc
        return out, self.cast(out, lval, left, pos), self.cast(out, rval, right, pos)

    # -- terms

    def elab_term(self, t: s.STerm, gamma_eff, gamma_val, hint=None):
        """Returns (core term, effect type, value type).  The hint is a
        checking-mode value type used to annotate bare lambdas and empty
        queues; it never replaces the synthesized type."""
        elab = _TERMS.get(type(t))
        if elab is None:
            raise TypeError(f"not a surface term: {t!r}")
        return elab(self, t, gamma_eff, gamma_val, hint)

    # one method per surface term class, each called as elab_term is

    def _elab_var(self, t: core.Var, gamma_eff, gamma_val, hint):
        if t.name not in gamma_val:
            if t.name in gamma_eff:
                raise ElabError(f"effect {t.name} used as a value", t.pos)
            raise ElabError(f"unbound variable {t.name}", t.pos)
        name, ty = gamma_val[t.name]
        return core.Var(name), EMPTY, ty

    def _elab_empty(self, t: s.SEmptyQueue, gamma_eff, gamma_val, hint):
        if not isinstance(hint, QueueOf):
            raise ElabError(
                "cannot determine the element type of empty here; ascribe it",
                t.pos,
            )
        return core.EmptyQueue(hint.elem), EMPTY, QueueOf(hint.elem)

    def _elab_lam(self, t: core.Lam, gamma_eff, gamma_val, hint):
        if t.ann is not None:
            dom = self.elab_type(t.ann, gamma_eff)
        elif isinstance(hint, Arrow):
            dom = hint.dom
        else:
            raise ElabError(f"parameter {t.var} needs a type annotation", t.pos)
        body_hint = hint.cod if isinstance(hint, Arrow) else None
        inner = dict(gamma_val)
        inner[t.var] = (t.var, dom)
        body, beff, bval = self.elab_term(t.body, gamma_eff, inner, body_hint)
        return core.Lam(t.var, dom, body), EMPTY, Arrow(dom, beff, bval)

    def _elab_app(self, t: core.App, gamma_eff, gamma_val, hint):
        fn, feff, fval = self.elab_term(t.fn, gamma_eff, gamma_val)
        if not isinstance(fval, Arrow):
            raise ElabError(f"cannot apply a term of type {fval}", t.pos)
        arg, aeff, aval = self.elab_term(t.arg, gamma_eff, gamma_val, fval.dom)
        if not gradual_subtype(aval, fval.dom):
            raise ElabError(
                f"argument has type {aval}, not coercible to {fval.dom}", t.pos
            )
        sigma, fn, arg = self.sequence(
            t.pos, (fn, feff), (arg, aeff), latent=(fval.eff,)
        )
        # widen the latent row to the combined row so the call itself is
        # typeable at sigma; the join absorbs ?, so this is always an upcast
        fn = self.cast(Arrow(fval.dom, sigma, fval.cod), fval, fn, t.pos)
        arg = self.cast(fval.dom, aval, arg, t.pos)
        return core.App(fn, arg), sigma, fval.cod

    def _elab_let(self, t: core.Let, gamma_eff, gamma_val, hint):
        bound, beff, bval = self.elab_term(t.bound, gamma_eff, gamma_val)
        inner = dict(gamma_val)
        inner[t.var] = (t.var, bval)
        body, neff, nval = self.elab_term(t.body, gamma_eff, inner, hint)
        sigma, bound, body = self.sequence(t.pos, (bound, beff), (body, neff))
        return core.Let(bound, t.var, body), sigma, nval

    def _elab_if(self, t: core.If, gamma_eff, gamma_val, hint):
        cond, ceff, cval = self.elab_term(t.cond, gamma_eff, gamma_val)
        if cval != BOOL:
            raise ElabError(f"condition has type {cval}, not bool", t.pos)
        then, teff, tval = self.elab_term(t.then, gamma_eff, gamma_val, hint)
        els, eeff, eval_ = self.elab_term(t.els, gamma_eff, gamma_val, hint)
        out_val, then, els = self.branches(t.pos, then, tval, els, eval_)
        sigma, cond, then, els = self.sequence(
            t.pos, (cond, ceff), (then, teff), (els, eeff)
        )
        return core.If(cond, then, els), sigma, out_val

    def _elab_concat(self, t: core.Concat, gamma_eff, gamma_val, hint):
        left, leff, lval = self.elab_term(t.left, gamma_eff, gamma_val)
        right, reff, rval = self.elab_term(t.right, gamma_eff, gamma_val)
        if lval != STR or rval != STR:
            raise ElabError(f"++ needs str operands, got {lval} and {rval}", t.pos)
        sigma, left, right = self.sequence(t.pos, (left, leff), (right, reff))
        return core.Concat(left, right), sigma, STR

    def _elab_enqueue(self, t: core.Enqueue, gamma_eff, gamma_val, hint):
        q_hint = hint if isinstance(hint, QueueOf) else None
        q, qeff, qval = self.elab_term(t.queue, gamma_eff, gamma_val, q_hint)
        if not isinstance(qval, QueueOf):
            raise ElabError(f"enqueue needs a queue, got {qval}", t.pos)
        v, veff, vval = self.elab_term(t.elem, gamma_eff, gamma_val, qval.elem)
        sigma, q, v = self.sequence(t.pos, (q, qeff), (v, veff))
        v = self.cast(qval.elem, vval, v, t.pos)
        return core.Enqueue(q, v), sigma, qval

    def _elab_match(self, t: core.CaseQueue, gamma_eff, gamma_val, hint):
        scr, seff, sval = self.elab_term(t.scrutinee, gamma_eff, gamma_val)
        if not isinstance(sval, QueueOf):
            raise ElabError(f"match needs a queue, got {sval}", t.pos)
        empty, eeff, eval_ = self.elab_term(t.empty_body, gamma_eff, gamma_val, hint)
        inner = dict(gamma_val)
        inner[t.head_var] = (t.head_var, sval.elem)
        inner[t.rest_var] = (t.rest_var, sval)
        cons, ceff, cval = self.elab_term(t.cons_body, gamma_eff, inner, hint)
        out_val, empty, cons = self.branches(t.pos, empty, eval_, cons, cval)
        sigma, scr, empty, cons = self.sequence(
            t.pos, (scr, seff), (empty, eeff), (cons, ceff)
        )
        cases = core.CaseQueue(scr, empty, t.head_var, t.rest_var, cons)
        return cases, sigma, out_val

    def _elab_raise(self, t: s.SRaise, gamma_eff, gamma_val, hint):
        if t.op not in gamma_eff:
            raise ElabError(f"unknown effect {t.op}", t.pos)
        req, resp = gamma_eff[t.op]
        payload, peff, pval = self.elab_term(t.payload, gamma_eff, gamma_val, req)
        if not gradual_subtype(pval, req):
            raise ElabError(
                f"{t.op} expects a request of type {req}, got {pval}", t.pos
            )
        own = Concrete({t.op: OpSig(req, resp)})
        if _value_like(payload) and peff == EMPTY:
            payload = self.cast(req, pval, payload, t.pos)
            return core.Raise(t.op, req, resp, payload), own, resp
        x = self.fresh()
        raised = core.Raise(t.op, req, resp, self.cast(req, pval, core.Var(x), t.pos))
        sigma, payload, raised = self.sequence(t.pos, (payload, peff), (raised, own))
        return core.Let(payload, x, raised), sigma, resp

    def _elab_ascribe_type(self, t: s.SAscribeType, gamma_eff, gamma_val, hint):
        ann = self.elab_type(t.ann, gamma_eff)
        inner, eff, val = self.elab_term(t.term, gamma_eff, gamma_val, ann)
        return self.cast(ann, val, inner, t.pos, "term"), eff, ann

    def _elab_ascribe_eff(self, t: s.SAscribeEff, gamma_eff, gamma_val, hint):
        ann = self.elab_type(t.ann, gamma_eff)
        inner, eff, val = self.elab_term(t.term, gamma_eff, gamma_val, hint)
        return self.cast(ann, eff, inner, t.pos, "term"), ann, val

    def _scrutinee_row(self, seff, sigma, caught: tuple[str, ...], gamma_eff, pos):
        """The row the handler scrutinee is cast to, so that everything it
        may raise is either caught or present in the result row."""
        if isinstance(sigma, Concrete):
            if isinstance(seff, Concrete):
                leftover = set(seff.names()) - set(sigma.names()) - set(caught)
                if leftover:
                    raise ElabError(
                        f"operations {sorted(leftover)} escape the handler but are "
                        f"not in the result row",
                        pos,
                    )
            return Concrete({**dict(sigma.ops), **{e: OpSig(*gamma_eff[e]) for e in caught}})
        if isinstance(seff, Concrete):
            return Concrete({
                name: op if name in caught else OpSig(*map(erase, gamma_eff[name]))
                for name, op in seff.ops
            })
        return DYN

    def _conform(self, what: str, elaborated, sigma, out_val, pos) -> core.Term:
        """Cast an elaborated body (a handler's return clause or clause, or a
        recursive define's) to the annotated row and type."""
        body, eff, val = elaborated
        return self.cast(sigma, eff, self.cast(out_val, val, body, pos, what), pos, what)

    def _elab_handle(self, t: s.SHandle, gamma_eff, gamma_val, hint):
        sigma = self.elab_type(t.eff_ann, gamma_eff)
        out_val = self.elab_type(t.type_ann, gamma_eff)
        scr, seff, sval = self.elab_term(t.scrutinee, gamma_eff, gamma_val)
        caught = tuple(c.op for c in t.clauses)
        if len(set(caught)) != len(caught):
            raise ElabError("duplicate handler clauses", t.pos)
        for c in t.clauses:
            if c.op not in gamma_eff:
                raise ElabError(f"unknown effect {c.op}", c.pos)
        scr_row = self._scrutinee_row(seff, sigma, caught, gamma_eff, t.pos)
        scr_cast = self.cast(scr_row, seff, scr, t.pos)

        inner = dict(gamma_val)
        inner[t.ret_var] = (t.ret_var, sval)
        ret = self.elab_term(t.ret_body, gamma_eff, inner, out_val)
        ret_cast = self._conform("return clause", ret, sigma, out_val, t.pos)

        clauses = []
        for c in t.clauses:
            req, resp = gamma_eff[c.op]
            if t.deep:
                k_type = Arrow(resp, sigma, out_val)
            else:
                k_type = Arrow(resp, scr_row, sval)
            cinner = dict(gamma_val)
            cinner[c.payload_var] = (c.payload_var, req)
            cinner[c.resume_var] = (c.resume_var, k_type)
            body = self.elab_term(c.body, gamma_eff, cinner, out_val)
            body_cast = self._conform(f"clause {c.op}", body, sigma, out_val, c.pos)
            clauses.append(
                core.Clause(c.op, c.payload_var, c.resume_var, body_cast, req, resp)
            )
        handle = core.Handle(
            scr_cast, t.ret_var, ret_cast, tuple(clauses), sigma, out_val, t.deep
        )
        return handle, sigma, out_val

    # -- declarations

    def elab_decl(self, d: s.SDecl, gamma_eff, gamma_val):
        if isinstance(d, s.SEffectDecl):
            if d.name in self.sig:
                raise ElabError(f"effect {d.name} is already declared", d.pos)
            req = self.elab_type(d.req, gamma_eff)
            resp = self.elab_type(d.resp, gamma_eff)
            self.sig = self.sig.extend(d.name, OpSig(erase(req), erase(resp)))
            gamma_eff[d.name] = (req, resp)
            return
        if isinstance(d, s.SImportEffect):
            exports = self.delta.get(d.module)
            if exports is None:
                raise ElabError(f"unknown module {d.module}", d.pos)
            if d.name not in exports.effects:
                raise ElabError(f"module {d.module} has no effect {d.name}", d.pos)
            if d.name in gamma_eff:
                raise ElabError(f"effect {d.name} is already in scope", d.pos)
            dreq, dresp = exports.effects[d.name]
            req = self.elab_type(d.req, gamma_eff)
            resp = self.elab_type(d.resp, gamma_eff)
            if not (compatible(req, dreq) and compatible(resp, dresp)):
                raise ElabError(
                    f"import of {d.name} at {req} ~> {resp} is incompatible with "
                    f"its declaration at {dreq} ~> {dresp}",
                    d.pos,
                )
            gamma_eff[d.name] = (req, resp)
            return
        if isinstance(d, s.SImportValue):
            exports = self.delta.get(d.module)
            if exports is None:
                raise ElabError(f"unknown module {d.module}", d.pos)
            if d.name not in exports.values:
                raise ElabError(f"module {d.module} has no value {d.name}", d.pos)
            source_name, source_ty = exports.values[d.name]
            ann = self.elab_type(d.ann, gamma_eff)
            mangled = self.mangle(d.alias)
            what = f"{d.module}.{d.name}"
            bound = self.cast(ann, source_ty, core.Var(source_name), d.pos, what)
            self.bindings.append((mangled, bound, EMPTY))
            gamma_val[d.alias] = (mangled, ann)
            return
        if isinstance(d, s.SDefine):
            ann = self.elab_type(d.ann, gamma_eff)
            mangled = self.mangle(d.name)
            if occurs_free(d.name, d.body):
                bound, eff = self._elab_recursive(d, ann, mangled, gamma_eff, gamma_val)
            else:
                body, eff, val = self.elab_term(d.body, gamma_eff, gamma_val, ann)
                bound = self.cast(ann, val, body, d.pos, d.name)
            self.bindings.append((mangled, bound, eff))
            gamma_val[d.name] = (mangled, ann)
            return
        raise TypeError(f"not a declaration: {d!r}")

    def _elab_recursive(self, d: s.SDefine, ann, mangled, gamma_eff, gamma_val):
        """A self-referential define becomes a fix whose body is a lambda; the
        body is cast so the lambda carries exactly the annotated arrow type."""
        if not isinstance(ann, Arrow):
            raise ElabError(
                f"recursive definition {d.name} needs an arrow annotation", d.pos
            )
        if not isinstance(d.body, core.Lam):
            raise ElabError(
                f"recursive definition {d.name} must be a function", d.pos
            )
        lam = d.body
        if lam.ann is not None:
            dom = self.elab_type(lam.ann, gamma_eff)
            if not subtype(ann.dom, dom):
                raise ElabError(
                    f"parameter annotation {dom} does not cover the declared "
                    f"domain {ann.dom}",
                    lam.pos,
                )
        else:
            dom = ann.dom
        inner = dict(gamma_val)
        inner[d.name] = (mangled, ann)
        inner[lam.var] = (lam.var, dom)
        body = self.elab_term(lam.body, gamma_eff, inner, ann.cod)
        body_cast = self._conform(d.name, body, ann.eff, ann.cod, d.pos)
        return core.Fix(mangled, ann, core.Lam(lam.var, dom, body_cast)), EMPTY

    # -- programs

    def elab_program(self, p: s.SProgram) -> ElabResult:
        for m in p.modules:
            if m.name in self.delta:
                raise ElabError(f"duplicate module {m.name}", m.pos)
            gamma_eff: dict = {}
            gamma_val: dict = {}
            for d in m.decls:
                self.elab_decl(d, gamma_eff, gamma_val)
            self.delta[m.name] = ModuleExports(dict(gamma_eff), dict(gamma_val))
        gamma_eff, gamma_val = {}, {}
        for d in p.main_decls:
            self.elab_decl(d, gamma_eff, gamma_val)
        term, eff, val = self.elab_term(p.main_term, gamma_eff, gamma_val)
        for name, bound, beff in reversed(self.bindings):
            eff, bound, term = self.sequence(None, (bound, beff), (term, eff))
            term = core.Let(bound, name, term)
        return ElabResult(self.sig, term, eff, val)


# elab_term's dispatch: each surface term class to the method for it; a
# literal is a core term as it stands
_TERMS = {
    core.Var: _Elab._elab_var,
    core.BoolLit: lambda self, t, *_: (t, EMPTY, BOOL),
    core.UnitLit: lambda self, t, *_: (t, EMPTY, UNIT),
    core.StrLit: lambda self, t, *_: (t, EMPTY, STR),
    s.SEmptyQueue: _Elab._elab_empty,
    core.Lam: _Elab._elab_lam,
    core.App: _Elab._elab_app,
    core.Let: _Elab._elab_let,
    core.If: _Elab._elab_if,
    core.Concat: _Elab._elab_concat,
    core.Enqueue: _Elab._elab_enqueue,
    core.CaseQueue: _Elab._elab_match,
    s.SRaise: _Elab._elab_raise,
    s.SHandle: _Elab._elab_handle,
    s.SAscribeType: _Elab._elab_ascribe_type,
    s.SAscribeEff: _Elab._elab_ascribe_eff,
}


def elab_program(p: s.SProgram) -> ElabResult:
    return _Elab().elab_program(p)


def elab_source(src: str) -> ElabResult:
    return elab_program(s.parse_program(src))

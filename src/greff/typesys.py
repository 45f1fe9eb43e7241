"""Value types, effect types, and the relations between them.

Value types are bool, 1 (unit), str, Queue A, and effectful arrows
A -[sigma]> B.  An effect type sigma is either the dynamic effect ? or a
finite map from operation names to request/response typings eps@A~>B.
A signature Sigma gives every declared operation a non-tracking typing
(every effect annotation inside is ?); |t| erases a type down to it.

Four relations are implemented:

  subtype          A <= B     width/depth subtyping; ? <= ? only
  precision        A |_ B     more-precise-than; sigma |_ ? for any sigma
  gradual_subtype  A <~ B     subtyping up to precision (adds ? axioms)
  compatible       A ~ B      gradual subtyping in both directions

plus the gradual join/meet used when elaboration combines branch types
and the least upper bound in <= used by the core typechecker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union


class JoinUndefined(Exception):
    """Raised when a join/meet/lub does not exist."""


class SignatureError(Exception):
    """Raised for malformed signatures or unknown operations."""


# ---------------------------------------------------------------------------
# Syntax of types


@dataclass(frozen=True)
class Bool:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class Unit:
    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True)
class Str:
    def __str__(self) -> str:
        return "str"


@dataclass(frozen=True)
class QueueOf:
    elem: "ValueType"

    def __str__(self) -> str:
        return f"Queue {_atom(self.elem)}"


@dataclass(frozen=True)
class Arrow:
    dom: "ValueType"
    eff: "EffectType"
    cod: "ValueType"

    def __str__(self) -> str:
        return f"{_atom(self.dom)} -{self.eff}> {self.cod}"


@dataclass(frozen=True)
class OpSig:
    """Request/response typing of one operation: eps@req ~> resp."""

    req: "ValueType"
    resp: "ValueType"

    def __str__(self) -> str:
        return f"{self.req} ~> {self.resp}"


@dataclass(frozen=True)
class Dyn:
    """The dynamic effect ?."""

    def __str__(self) -> str:
        return "[?]"


@dataclass(frozen=True)
class _OpTable:
    """A finite map from operation names to typings, kept name-sorted."""

    ops: tuple[tuple[str, OpSig], ...]

    def __init__(self, ops: Union[Mapping[str, OpSig], Iterable[tuple[str, OpSig]]]):
        object.__setattr__(self, "ops", tuple(sorted(dict(ops).items())))

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.ops)

    def get(self, name: str) -> Optional[OpSig]:
        return dict(self.ops).get(name)

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.ops)


@dataclass(frozen=True, init=False)
class Concrete(_OpTable):
    """A concrete effect type: the operations it may raise, at their typings."""

    def __str__(self) -> str:
        return "[" + ",".join(self.names()) + "]"


ValueType = Union[Bool, Unit, Str, QueueOf, Arrow]
EffectType = Union[Dyn, Concrete]
Type = Union[ValueType, EffectType]

DYN = Dyn()
EMPTY = Concrete({})


def _atom(t: ValueType) -> str:
    s = str(t)
    return f"({s})" if isinstance(t, (Arrow, QueueOf)) else s


def is_value_type(t: Type) -> bool:
    return isinstance(t, (Bool, Unit, Str, QueueOf, Arrow))


def is_effect_type(t: Type) -> bool:
    return isinstance(t, (Dyn, Concrete))


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True, init=False)
class Signature(_OpTable):
    """Declared operations at their non-tracking (fully erased) typings."""

    def __init__(self, ops: Union[Mapping[str, OpSig], Iterable[tuple[str, OpSig]]]):
        super().__init__(ops)
        for name, sig in self.ops:
            if sig.req != erase(sig.req) or sig.resp != erase(sig.resp):
                raise SignatureError(f"signature typing of {name} is not erased: {sig}")

    def at(self, names: Iterable[str]) -> Concrete:
        """The concrete effect giving `names` their signature typings."""
        table = dict(self.ops)
        missing = [n for n in names if n not in table]
        if missing:
            raise SignatureError(f"operations not in signature: {missing}")
        return Concrete({n: table[n] for n in names})

    def extend(self, name: str, sig: OpSig) -> "Signature":
        if name in self:
            raise SignatureError(f"operation {name} already declared")
        return Signature(dict(self.ops) | {name: sig})


def ops_of(eff: EffectType, sig: Signature) -> dict[str, OpSig]:
    """The operations an effect may raise; ? means every declared operation."""
    if isinstance(eff, Dyn):
        return dict(sig.ops)
    return dict(eff.ops)


# ---------------------------------------------------------------------------
# Erasure


def erase(t: Type) -> Type:
    """Replace every effect annotation inside t with ?."""
    if isinstance(t, (Bool, Unit, Str)):
        return t
    if isinstance(t, QueueOf):
        return QueueOf(erase(t.elem))
    if isinstance(t, Arrow):
        return Arrow(erase(t.dom), DYN, erase(t.cod))
    if isinstance(t, Dyn):
        return DYN
    if isinstance(t, Concrete):
        return DYN
    raise TypeError(f"not a type: {t!r}")


def wellformed(t: Type, sig: Signature) -> bool:
    """Every operation mentioned in t is declared and erases to its signature typing."""
    if isinstance(t, (Bool, Unit, Str, Dyn)):
        return True
    if isinstance(t, QueueOf):
        return wellformed(t.elem, sig)
    if isinstance(t, Arrow):
        return wellformed(t.dom, sig) and wellformed(t.eff, sig) and wellformed(t.cod, sig)
    if isinstance(t, Concrete):
        for name, op in t.ops:
            declared = sig.get(name)
            if declared is None:
                return False
            if erase(op.req) != declared.req or erase(op.resp) != declared.resp:
                return False
            if not (wellformed(op.req, sig) and wellformed(op.resp, sig)):
                return False
        return True
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Subtyping (width/depth; the dynamic effect is only below itself)


def subtype(t: Type, u: Type) -> bool:
    if isinstance(t, (Bool, Unit, Str)):
        return t == u
    if isinstance(t, QueueOf):
        return isinstance(u, QueueOf) and subtype(t.elem, u.elem)
    if isinstance(t, Arrow):
        return (
            isinstance(u, Arrow)
            and subtype(u.dom, t.dom)
            and subtype(t.eff, u.eff)
            and subtype(t.cod, u.cod)
        )
    if isinstance(t, Dyn):
        return isinstance(u, Dyn)
    if isinstance(t, Concrete):
        if not isinstance(u, Concrete):
            return False
        table = dict(u.ops)
        for name, op in t.ops:
            wider = table.get(name)
            if wider is None:
                return False
            # requests covariant, responses contravariant
            if not (subtype(op.req, wider.req) and subtype(wider.resp, op.resp)):
                return False
        return True
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Precision (covariant everywhere; concrete effects need equal domains)


def precision(t: Type, u: Type) -> bool:
    if isinstance(t, (Bool, Unit, Str)):
        return t == u
    if isinstance(t, QueueOf):
        return isinstance(u, QueueOf) and precision(t.elem, u.elem)
    if isinstance(t, Arrow):
        return (
            isinstance(u, Arrow)
            and precision(t.dom, u.dom)
            and precision(t.eff, u.eff)
            and precision(t.cod, u.cod)
        )
    if is_effect_type(t):
        if isinstance(u, Dyn):
            return True
        if isinstance(t, Dyn):
            return False
        assert isinstance(t, Concrete) and isinstance(u, Concrete)
        if t.names() != u.names():
            return False
        return all(
            precision(a.req, b.req) and precision(a.resp, b.resp)
            for (_, a), (_, b) in zip(t.ops, u.ops)
        )
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Gradual subtyping and compatibility


def gradual_subtype(t: Type, u: Type) -> bool:
    if isinstance(t, (Bool, Unit, Str)):
        return t == u
    if isinstance(t, QueueOf):
        return isinstance(u, QueueOf) and gradual_subtype(t.elem, u.elem)
    if isinstance(t, Arrow):
        return (
            isinstance(u, Arrow)
            and gradual_subtype(u.dom, t.dom)
            and gradual_subtype(t.eff, u.eff)
            and gradual_subtype(t.cod, u.cod)
        )
    if is_effect_type(t):
        # ? is gradually below and above every effect type
        if isinstance(t, Dyn) or isinstance(u, Dyn):
            return True
        assert isinstance(t, Concrete) and isinstance(u, Concrete)
        table = dict(u.ops)
        for name, op in t.ops:
            wider = table.get(name)
            if wider is None:
                return False
            if not (gradual_subtype(op.req, wider.req) and gradual_subtype(wider.resp, op.resp)):
                return False
        return True
    raise TypeError(f"not a type: {t!r}")


def compatible(t: Type, u: Type) -> bool:
    return gradual_subtype(t, u) and gradual_subtype(u, t)


# ---------------------------------------------------------------------------
# Gradual join/meet (used when elaboration merges branch/operand types)


def gradual_join(t: Type, u: Type) -> Type:
    return _gradual_bound(t, u, True)


def gradual_meet(t: Type, u: Type) -> Type:
    return _gradual_bound(t, u, False)


def _gradual_bound(t: Type, u: Type, up: bool) -> Type:
    """The gradual join of t and u when up, their meet otherwise; domains flip up."""
    if isinstance(t, (Bool, Unit, Str)) and t == u:
        return t
    if isinstance(t, QueueOf) and isinstance(u, QueueOf):
        return QueueOf(_gradual_bound(t.elem, u.elem, up))
    if isinstance(t, Arrow) and isinstance(u, Arrow):
        return Arrow(
            _gradual_bound(t.dom, u.dom, not up),
            _gradual_bound(t.eff, u.eff, up),
            _gradual_bound(t.cod, u.cod, up),
        )
    if is_effect_type(t) and is_effect_type(u):
        # ? absorbs on join: merging a dynamic row with anything yields the
        # dynamic row, so mixed-precision merges defer checks to casts rather
        # than committing the result to one side's concrete row.  (Committing
        # would plant a concrete downcast around the dynamic subterm, which
        # errors on effects the other side never mentioned.)  Dually ? is the
        # identity on meet, and the concrete side wins.
        if isinstance(t, Dyn) or isinstance(u, Dyn):
            return DYN if up else (u if isinstance(t, Dyn) else t)
        # join: union of domains; meet: intersection.  Shared names must carry
        # one typing (elaboration merges types from one module context).
        left, right = dict(t.ops), dict(u.ops)
        out: dict[str, OpSig] = {}
        for name in set(left) | set(right):
            a, b = left.get(name), right.get(name)
            if a is not None and b is not None:
                if a != b:
                    raise JoinUndefined(f"operation {name} carries {a} and {b}")
                out[name] = a
            elif up:
                out[name] = a if a is not None else b  # type: ignore[assignment]
        return Concrete(out)
    raise JoinUndefined(f"{t} {'join' if up else 'meet'} {u}")


# ---------------------------------------------------------------------------
# Least upper/greatest lower bounds in <= (core typechecker; no ? axioms)


def lub(t: Type, u: Type) -> Type:
    return _bound(t, u, True)


def glb(t: Type, u: Type) -> Type:
    return _bound(t, u, False)


def _bound(t: Type, u: Type, up: bool) -> Type:
    """The lub of t and u in <= when up, their glb otherwise; domains and responses flip up."""
    if isinstance(t, (Bool, Unit, Str)) and t == u:
        return t
    if isinstance(t, QueueOf) and isinstance(u, QueueOf):
        return QueueOf(_bound(t.elem, u.elem, up))
    if isinstance(t, Arrow) and isinstance(u, Arrow):
        return Arrow(
            _bound(t.dom, u.dom, not up), _bound(t.eff, u.eff, up), _bound(t.cod, u.cod, up)
        )
    if is_effect_type(t) and is_effect_type(u):
        if isinstance(t, Dyn) and isinstance(u, Dyn):
            return DYN
        if isinstance(t, Dyn) or isinstance(u, Dyn):
            raise JoinUndefined("? has no common bound with a concrete effect in <=")
        # lub: union of domains; glb: intersection
        left, right = dict(t.ops), dict(u.ops)
        out: dict[str, OpSig] = {}
        for name in (set(left) | set(right)) if up else (set(left) & set(right)):
            a, b = left.get(name), right.get(name)
            if a is not None and b is not None:
                out[name] = OpSig(_bound(a.req, b.req, up), _bound(a.resp, b.resp, not up))
            else:
                out[name] = a if a is not None else b  # type: ignore[assignment]
        return Concrete(out)
    raise JoinUndefined(f"{t} {'lub' if up else 'glb'} {u}")

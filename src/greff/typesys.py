"""Value types, effect types, and the relations between them.

Value types are bool, 1 (unit), str, Queue A, and effectful arrows
A -[sigma]> B.  An effect type sigma is either the dynamic effect ? or a
finite map from operation names to request/response typings eps@A~>B.
A signature Sigma gives every declared operation a non-tracking typing
(every effect annotation inside is ?); |t| erases a type down to it.

The surface writes these same types, except that a row stays a set of
operation names (surface.SNames) until elaboration gives them typings.

One walk, `_below`, implements the three orders:

  subtype          A <= B     width/depth subtyping
  precision        A |_ B     more-precise-than
  gradual_subtype  A <~ B     subtyping up to precision

and compatible (A ~ B) is <~ in both directions.  The orders differ at
three points.  <= and <~ flip at arrow domains and operation responses;
|_ is covariant.  In <= the dynamic effect ? is below only itself, in |_
every effect type is below ?, and in <~ ? is below and above every
effect type.  Under <= and <~ a concrete row may gain operations going
up; under |_ both rows name the same operations.  No value type is
related to an effect type.

One walk, `_bound`, implements the two kinds of bound: the gradual
join/meet, which elaboration uses to merge branch and operand types, and
the lub/glb in <=, which the core typechecker uses.  Both take the union
of two rows' operations going up and their intersection going down, and
flip at arrow domains.  They differ at two points.  The gradual join
absorbs ? and the gradual meet treats it as the identity, so a merge of
mixed precision defers its checks to casts instead of planting a
concrete downcast around the dynamic side; in <= ? bounds only itself.
At an operation both rows carry, a gradual bound requires one typing
(elaboration merges types from one module context); in <= the two
typings are bounded in turn, with the response flipped.
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
        return f"Queue {atom(self.elem)}"


@dataclass(frozen=True)
class Arrow:
    dom: "ValueType"
    eff: "EffectType"
    cod: "ValueType"

    def __str__(self) -> str:
        return f"{atom(self.dom)} -{self.eff}> {self.cod}"


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
    """A finite map from operation names to typings, kept name-sorted.

    Lookups read _table, a dict built once from ops; it is not a field,
    so equality, hashing and repr see only ops.
    """

    ops: tuple[tuple[str, OpSig], ...]

    def __init__(self, ops: Union[Mapping[str, OpSig], Iterable[tuple[str, OpSig]]]):
        table = dict(sorted(dict(ops).items()))
        object.__setattr__(self, "ops", tuple(table.items()))
        object.__setattr__(self, "_table", table)

    def names(self) -> tuple[str, ...]:
        return tuple(self._table)

    def get(self, name: str) -> Optional[OpSig]:
        return self._table.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._table


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
BOOL, UNIT, STR = Bool(), Unit(), Str()


def atom(t: ValueType) -> str:
    """t printed as an operand: a queue or arrow type in parentheses."""
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
        table = self._table
        missing = [n for n in names if n not in table]
        if missing:
            raise SignatureError(f"operations not in signature: {missing}")
        return Concrete({n: table[n] for n in names})

    def extend(self, name: str, sig: OpSig) -> "Signature":
        if name in self:
            raise SignatureError(f"operation {name} already declared")
        return Signature(self._table | {name: sig})


def ops_of(eff: EffectType, sig: Signature) -> dict[str, OpSig]:
    """The operations an effect may raise; ? means every declared operation."""
    return dict((sig if isinstance(eff, Dyn) else eff)._table)


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
    if isinstance(t, (Dyn, Concrete)):
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
# The three orders and the two kinds of bound

_SUB, _PREC, _GRAD = "<=", "|_", "<~"


def _below(t: Type, u: Type, rel: str) -> bool:
    """t rel u, for rel one of _SUB, _PREC and _GRAD."""
    if isinstance(t, (Bool, Unit, Str)):
        return t == u
    if isinstance(t, QueueOf):
        return isinstance(u, QueueOf) and _below(t.elem, u.elem, rel)
    flip = rel is not _PREC
    if isinstance(t, Arrow):
        return (
            isinstance(u, Arrow)
            and (_below(u.dom, t.dom, rel) if flip else _below(t.dom, u.dom, rel))
            and _below(t.eff, u.eff, rel)
            and _below(t.cod, u.cod, rel)
        )
    if not isinstance(t, (Dyn, Concrete)):
        raise TypeError(f"not a type: {t!r}")
    if isinstance(u, Dyn):
        return rel is not _SUB or isinstance(t, Dyn)
    if not isinstance(u, Concrete):
        return False
    if isinstance(t, Dyn):
        return rel is _GRAD
    if rel is _PREC and len(t.ops) != len(u.ops):
        return False
    table = u._table
    for name, a in t.ops:
        b = table.get(name)
        if b is None or not _below(a.req, b.req, rel):
            return False
        if not (_below(b.resp, a.resp, rel) if flip else _below(a.resp, b.resp, rel)):
            return False
    return True


def subtype(t: Type, u: Type) -> bool:
    return _below(t, u, _SUB)


def precision(t: Type, u: Type) -> bool:
    return _below(t, u, _PREC)


def gradual_subtype(t: Type, u: Type) -> bool:
    return _below(t, u, _GRAD)


def compatible(t: Type, u: Type) -> bool:
    return gradual_subtype(t, u) and gradual_subtype(u, t)


def gradual_join(t: Type, u: Type) -> Type:
    return _bound(t, u, True, True)


def gradual_meet(t: Type, u: Type) -> Type:
    return _bound(t, u, False, True)


def lub(t: Type, u: Type) -> Type:
    return _bound(t, u, True, False)


def glb(t: Type, u: Type) -> Type:
    return _bound(t, u, False, False)


def _bound(t: Type, u: Type, up: bool, gradual: bool) -> Type:
    """The join of t and u when up, their meet otherwise; gradual or in <=."""
    if isinstance(t, (Bool, Unit, Str)) and t == u:
        return t
    if isinstance(t, QueueOf) and isinstance(u, QueueOf):
        return QueueOf(_bound(t.elem, u.elem, up, gradual))
    if isinstance(t, Arrow) and isinstance(u, Arrow):
        return Arrow(
            _bound(t.dom, u.dom, not up, gradual),
            _bound(t.eff, u.eff, up, gradual),
            _bound(t.cod, u.cod, up, gradual),
        )
    if is_effect_type(t) and is_effect_type(u):
        if isinstance(t, Dyn) or isinstance(u, Dyn):
            if gradual:
                return DYN if up else (u if isinstance(t, Dyn) else t)
            if t != u:
                raise JoinUndefined("? has no common bound with a concrete effect in <=")
            return DYN
        left, right = t._table, u._table
        out: dict[str, OpSig] = {}
        for name in sorted(left.keys() | right.keys()):
            a, b = left.get(name), right.get(name)
            if a is None or b is None:
                if up:
                    out[name] = a or b  # type: ignore[assignment]
            elif gradual:
                if a != b:
                    raise JoinUndefined(f"operation {name} carries {a} and {b}")
                out[name] = a
            else:
                out[name] = OpSig(
                    _bound(a.req, b.req, up, False), _bound(a.resp, b.resp, not up, False)
                )
        return Concrete(out)
    how = ("join", "meet") if gradual else ("lub", "glb")
    raise JoinUndefined(f"{t} {how[not up]} {u}")

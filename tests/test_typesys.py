"""Type relations: subtyping, precision, gradual subtyping, joins."""

import dataclasses
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from greff import core, gen
from greff.typesys import (
    Arrow,
    Bool,
    Concrete,
    DYN,
    Dyn,
    EMPTY,
    JoinUndefined,
    OpSig,
    QueueOf,
    Signature,
    Str,
    Unit,
    compatible,
    erase,
    glb,
    gradual_join,
    gradual_meet,
    gradual_subtype,
    lub,
    ops_of,
    precision,
    subtype,
    wellformed,
)

BOOL, UNIT, STR = Bool(), Unit(), Str()

# the scheduler example's operations at their non-tracking typings
SIG = Signature(
    {
        "print": OpSig(STR, UNIT),
        "yield": OpSig(UNIT, UNIT),
        "fork": OpSig(Arrow(UNIT, DYN, UNIT), UNIT),
    }
)

THUNK_DYN = Arrow(UNIT, DYN, UNIT)
PY = Concrete({"print": OpSig(STR, UNIT), "yield": OpSig(UNIT, UNIT)})
FPY = Concrete(
    {
        "fork": OpSig(Arrow(UNIT, PY, UNIT), UNIT),
        "print": OpSig(STR, UNIT),
        "yield": OpSig(UNIT, UNIT),
    }
)
THUNK_FPY = Arrow(UNIT, FPY, UNIT)


# ---------------------------------------------------------------------------
# strategies: types wellformed under SIG


def _decorations_of(erased):
    """Concrete effects usable at positions whose erasure is SIG's typing."""
    return st.sampled_from(
        [
            DYN,
            EMPTY,
            Concrete({"print": OpSig(STR, UNIT)}),
            PY,
            Concrete({"yield": OpSig(UNIT, UNIT)}),
            FPY,
            Concrete({"fork": OpSig(THUNK_DYN, UNIT)}),
        ]
    )


effect_types = _decorations_of(None)


def value_types(max_depth=3):
    base = st.sampled_from([BOOL, UNIT, STR])
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(QueueOf, inner),
            st.builds(Arrow, inner, effect_types, inner),
        ),
        max_leaves=max_depth * 2,
    )


any_types = st.one_of(value_types(), effect_types)


@st.composite
def same_shape_pairs(draw):
    """Two types with one skeleton whose rows are drawn independently."""

    def redecorate(t):
        if isinstance(t, QueueOf):
            return QueueOf(redecorate(t.elem))
        if isinstance(t, Arrow):
            return Arrow(redecorate(t.dom), draw(effect_types), redecorate(t.cod))
        if isinstance(t, (Dyn, Concrete)):
            return draw(effect_types)
        return t

    t = draw(any_types)
    return redecorate(t), redecorate(t)


# ---------------------------------------------------------------------------
# erasure


def test_erase_examples():
    assert erase(Arrow(UNIT, PY, UNIT)) == THUNK_DYN
    assert erase(FPY) == DYN
    assert erase(QueueOf(Arrow(STR, EMPTY, BOOL))) == QueueOf(Arrow(STR, DYN, BOOL))


@given(any_types)
def test_erase_idempotent(t):
    assert erase(erase(t)) == erase(t)


@given(any_types)
def test_erased_types_are_wellformed(t):
    assert wellformed(erase(t), SIG)
    assert wellformed(t, SIG)


# ---------------------------------------------------------------------------
# subtyping


def test_subtype_width():
    assert subtype(PY, FPY)
    assert not subtype(FPY, PY)


def test_subtype_depth_response_contravariant():
    rich = Concrete({"fork": OpSig(THUNK_DYN, Arrow(UNIT, PY, UNIT))})
    plain = Concrete({"fork": OpSig(THUNK_DYN, Arrow(UNIT, EMPTY, UNIT))})
    # the supertype's response must be below the subtype's
    assert subtype(rich, plain)
    assert not subtype(plain, rich)


def test_subtype_depth_request_covariant():
    narrow = Concrete({"fork": OpSig(Arrow(UNIT, EMPTY, UNIT), UNIT)})
    wide = Concrete({"fork": OpSig(Arrow(UNIT, PY, UNIT), UNIT)})
    assert subtype(narrow, wide) == subtype(Arrow(UNIT, EMPTY, UNIT), Arrow(UNIT, PY, UNIT))
    assert subtype(narrow, wide)
    assert not subtype(wide, narrow)


def test_subtype_dyn_only_below_itself():
    assert subtype(DYN, DYN)
    assert not subtype(DYN, FPY)
    assert not subtype(FPY, DYN)
    assert not subtype(Arrow(UNIT, DYN, UNIT), Arrow(UNIT, FPY, UNIT))


def test_subtype_arrow_contravariant_domain():
    f = Arrow(THUNK_FPY, EMPTY, STR)
    g = Arrow(Arrow(UNIT, PY, UNIT), EMPTY, STR)
    # PY-thunks are a subset of FPY-thunks, so f accepts more than g
    assert subtype(f, g)
    assert not subtype(g, f)


@given(any_types)
def test_subtype_reflexive(t):
    assert subtype(t, t)


# ---------------------------------------------------------------------------
# precision


def test_precision_examples():
    assert precision(PY, DYN)
    assert precision(DYN, DYN)
    assert not precision(DYN, PY)
    assert not precision(PY, FPY), "concrete precision needs equal domains"
    assert precision(Arrow(UNIT, PY, UNIT), THUNK_DYN)
    assert precision(FPY, Concrete(dict(SIG.at(["fork", "print", "yield"]).ops)))
    # an effect and a signature with the same operations stay different things
    assert SIG != Concrete(SIG.ops) and Concrete(SIG.ops) != SIG


@given(any_types)
def test_precision_reflexive(t):
    assert precision(t, t)


@given(any_types)
def test_erasure_is_upper_bound(t):
    assert precision(t, erase(t))


@given(value_types())
def test_precision_implies_compatible(t):
    u = erase(t)
    assert compatible(t, u)


# ---------------------------------------------------------------------------
# gradual subtyping


def test_boundary_check():
    # the imprecise thunk against the precisely typed thunk, both directions
    assert gradual_subtype(THUNK_DYN, THUNK_FPY)
    assert gradual_subtype(THUNK_FPY, THUNK_DYN)
    assert compatible(THUNK_DYN, THUNK_FPY)


def test_gradual_subtype_width_still_required():
    assert gradual_subtype(PY, FPY)
    assert not gradual_subtype(FPY, PY)
    assert gradual_subtype(DYN, PY)
    assert gradual_subtype(PY, DYN)


@given(any_types, any_types)
def test_gradual_subtype_extends_subtype(t, u):
    if (
        isinstance(t, (Dyn, Concrete)) == isinstance(u, (Dyn, Concrete))
        and subtype(t, u)
    ):
        assert gradual_subtype(t, u)


def test_incompatible():
    assert not compatible(BOOL, STR)
    assert not compatible(BOOL, Arrow(BOOL, DYN, BOOL))
    assert not gradual_subtype(STR, UNIT)


# ---------------------------------------------------------------------------
# joins and meets


def test_join_dyn_absorbs_meet_dyn_yields():
    assert gradual_join(DYN, PY) == DYN
    assert gradual_join(PY, DYN) == DYN
    assert gradual_join(DYN, DYN) == DYN
    assert gradual_meet(DYN, PY) == PY
    assert gradual_meet(PY, DYN) == PY
    assert gradual_meet(DYN, DYN) == DYN


def test_join_concrete_union():
    only_fork = Concrete({"fork": OpSig(THUNK_DYN, UNIT)})
    joined = gradual_join(PY, only_fork)
    assert isinstance(joined, Concrete)
    assert joined.names() == ("fork", "print", "yield")
    met = gradual_meet(PY, only_fork)
    assert met == EMPTY


def test_join_arrow_meets_domain():
    f = Arrow(THUNK_FPY, EMPTY, STR)
    g = Arrow(THUNK_DYN, DYN, STR)
    # domain meets (concrete wins over ?), effect and codomain join (? wins)
    assert gradual_join(f, g) == Arrow(THUNK_FPY, DYN, STR)
    assert gradual_meet(f, g) == Arrow(THUNK_DYN, EMPTY, STR)


def test_join_undefined_on_head_mismatch():
    with pytest.raises(JoinUndefined):
        gradual_join(BOOL, STR)
    with pytest.raises(JoinUndefined):
        gradual_join(BOOL, Arrow(BOOL, DYN, BOOL))


@given(any_types)
def test_join_idempotent(t):
    assert gradual_join(t, t) == t
    assert gradual_meet(t, t) == t


@given(value_types())
def test_join_with_erasure(t):
    j = gradual_join(t, erase(t))
    assert gradual_subtype(t, j) or subtype(t, j) or precision(j, erase(t))


# ---------------------------------------------------------------------------
# <=-bounds used by the core checker


def test_lub_rejects_mixed_dyn():
    with pytest.raises(JoinUndefined):
        lub(DYN, PY)
    with pytest.raises(JoinUndefined):
        glb(DYN, PY)
    assert lub(DYN, DYN) == DYN


def test_lub_union_glb_intersection():
    only_fork = Concrete({"fork": OpSig(THUNK_DYN, UNIT)})
    assert lub(PY, only_fork).names() == ("fork", "print", "yield")
    assert glb(PY, only_fork) == EMPTY
    assert subtype(PY, lub(PY, only_fork))
    assert subtype(only_fork, lub(PY, only_fork))


# the two bounds of rows whose print and yield typings both clash
CLASHING_JOIN = """
from greff.typesys import Concrete, JoinUndefined, OpSig, Str, Unit, gradual_join, lub
left = Concrete({"print": OpSig(Str(), Unit()), "yield": OpSig(Unit(), Unit())})
right = Concrete({"print": OpSig(Unit(), Unit()), "yield": OpSig(Str(), Unit())})
for bound in (gradual_join, lub):
    try:
        bound(left, right)
    except JoinUndefined as e:
        print(e)
"""


@pytest.mark.parametrize("hash_seed", ["1", "3"])
def test_a_bound_names_the_first_clash_whatever_the_hash_seed(hash_seed):
    # string hashes order a set of names; the bounds visit names in sorted order
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(
        [sys.executable, "-c", CLASHING_JOIN], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "operation print carries str ~> 1 and 1 ~> 1\nstr lub 1\n"


def test_no_value_type_is_related_to_an_effect_type():
    pairs = [(EMPTY, BOOL), (PY, UNIT), (DYN, STR), (EMPTY, THUNK_DYN), (PY, QueueOf(STR))]
    for rel in (subtype, precision, gradual_subtype, compatible):
        for t, u in pairs + [(u, t) for t, u in pairs]:
            assert not rel(t, u), (rel.__name__, t, u)
    with pytest.raises(core.TypeCheckError):
        core.ValUpcast(EMPTY, BOOL, core.UNIT)


@given(same_shape_pairs())
def test_defined_bounds_bound_both_inputs(pair):
    # an arrow's domain and an operation's response flip the bound, so
    # pairs of one shape reach the contravariant positions
    t, u = pair
    for bound, above, below in (
        (lub, True, subtype),
        (glb, False, subtype),
        (gradual_join, True, gradual_subtype),
        (gradual_meet, False, gradual_subtype),
    ):
        try:
            b = bound(t, u)
        except JoinUndefined:
            continue
        for x in (t, u):
            assert below(x, b) if above else below(b, x), (bound.__name__, t, u, b)


def test_the_operation_table_is_invisible():
    # rows and signatures look operations up in a dict built from ops;
    # lookups follow ops, and equality, hashing and repr see ops alone
    for seed in range(100):
        rng = random.Random(seed)
        sig = gen.gen_signature(rng, higher_order=True)
        row, other = gen.gen_row(rng, sig), gen.gen_row(rng, sig)
        for table in (sig, row):
            ops = dict(table.ops)
            for name in [*ops, "undeclared"]:
                assert table.get(name) == ops.get(name)
                assert (name in table) == (name in ops)
            assert table.names() == tuple(ops)
            again = type(table)(reversed(table.ops))
            assert again == table and hash(again) == hash(table)
            assert repr(again) == repr(table)
        moved = dataclasses.replace(row, ops=other.ops)
        assert moved == other
        for name in [*sig.names(), "undeclared"]:
            assert moved.get(name) == other.get(name)
            assert (name in moved) == (name in other)
        assert moved.names() == other.names()
        for eff, table in ((row, row), (DYN, sig)):
            before = (table.ops, table.names(), [table.get(n) for n in sig.names()])
            got = ops_of(eff, sig)
            got.clear()
            got["undeclared"] = OpSig(UNIT, UNIT)
            assert (table.ops, table.names(), [table.get(n) for n in sig.names()]) == before
            assert "undeclared" not in table

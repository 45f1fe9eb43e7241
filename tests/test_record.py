"""greff's class builder against stdlib dataclasses.

greff.record builds every node and record class without dataclasses'
per-method code generation.  Here each such class is rebuilt from its own
source with dataclasses.dataclass and the same options, and the two
classes must agree on signature, fields, repr, ==, hash, replace and
frozenness, on sample instances of both.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys

import pytest

import greff
from greff import core, record, surface
from greff import eval as ev
from greff.typesys import BOOL, DYN, EMPTY, UNIT, OpSig

MODULES = [importlib.import_module(f"greff.{m.name}") for m in pkgutil.iter_modules(greff.__path__)]


def _stdlib_record(cls=None, /, *, frozen=True, eq=True, slots=False):
    return dataclasses.dataclass(cls, frozen=frozen, eq=eq, slots=slots)


@functools.cache
def _twins(module) -> dict[str, type]:
    """The module's dataclasses, rebuilt from their source by stdlib
    dataclasses: its record calls run as dataclass calls, and each class
    subclasses the twins of its bases, a base from another greff module
    among them (stdlib dataclasses derives no frozen class from a
    record-built one)."""
    ns = dict(vars(module), record=_stdlib_record)
    names = []
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.ClassDef):
            if not dataclasses.is_dataclass(ns[node.name]):
                continue
            names.append(node.name)
            for base in node.bases:
                home = sys.modules[getattr(ns[base.id], "__module__", "")]
                if home is not module and home.__name__.startswith("greff."):
                    ns[base.id] = _twins(home)[base.id]
        elif not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", None) == "record"):
            continue
        code = ast.Module([node], type_ignores=[])
        exec(compile(code, module.__file__, "exec", flags=module.annotations.compiler_flag), ns)
    return {name: ns[name] for name in names}


CLASSES = [
    (getattr(module, name), twin)
    for module in MODULES
    for name, twin in _twins(module).items()
]
IDS = [f"{c.__module__.removeprefix('greff.')}.{c.__name__}" for c, _ in CLASSES]

LAM = core.Lam("x", UNIT, core.Var("x"))


def _value(cls, name: str, k: int):
    """A field value that every class's __post_init__ accepts."""
    special = {
        "ops": {f"op{k}": OpSig(BOOL, UNIT)},
        "names": (f"b{k}", "a"),
        "clauses": (),
        "env": {},
        "fix": core.Fix(f"f{k}", UNIT, LAM),
        "lo": DYN if getattr(cls, "kind", "") == "effect" else UNIT,
        "hi": DYN if getattr(cls, "kind", "") == "effect" else UNIT,
    }
    return special.get(name, (name, k))


def _args(cls, k: int) -> dict:
    return {f.name: _value(cls, f.name, k) for f in dataclasses.fields(cls) if f.init}


def _outcome(thunk):
    try:
        return repr(thunk())
    except Exception as e:  # the twin must raise the same error with the same text
        return f"{type(e).__name__}: {e}"


def test_every_dataclass_of_greff_has_a_twin():
    found = {
        c for m in MODULES for c in vars(m).values()
        if isinstance(c, type) and c.__module__ == m.__name__ and dataclasses.is_dataclass(c)
    }
    assert len(found) > 80 and found == {c for c, _ in CLASSES}


@pytest.mark.parametrize("cls, twin", CLASSES, ids=IDS)
def test_the_builder_matches_stdlib_dataclasses(cls, twin):
    assert twin is not cls and twin.__qualname__ == cls.__qualname__
    assert inspect.signature(cls) == inspect.signature(twin)

    def shape(c):
        return [(f.name, f.type, f.init, f.compare, f.repr, f.kw_only, f.default)
                for f in dataclasses.fields(c)]

    assert shape(cls) == shape(twin)
    mine = [cls(**_args(cls, k)) for k in (0, 1, 0)]
    theirs = [twin(**_args(twin, k)) for k in (0, 1, 0)]
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    assert (cls.__hash__ is object.__hash__) == (twin.__hash__ is object.__hash__)
    for a, b in zip(mine, theirs):
        assert repr(a) == repr(b)
        if cls.__hash__ not in (None, object.__hash__):
            assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(b))
    for i, j in ((0, 1), (0, 2), (1, 2), (0, 0)):
        assert (mine[i] == mine[j]) == (theirs[i] == theirs[j])
        assert (mine[i] != mine[j]) == (theirs[i] != theirs[j])
    changes = {f.name: _value(cls, f.name, 1) for f in dataclasses.fields(cls)[:1] if f.init}
    assert repr(dataclasses.replace(mine[0], **changes)) == repr(
        dataclasses.replace(theirs[0], **changes))
    for name in (f.name for f in dataclasses.fields(cls)):
        assert _outcome(lambda: setattr(mine[2], name, 1)) == _outcome(
            lambda: setattr(theirs[2], name, 1))
        assert _outcome(lambda: delattr(mine[1], name)) == _outcome(
            lambda: delattr(theirs[1], name))


def test_a_handle_sorts_its_clauses_also_on_replace():
    def clause(op):
        return core.Clause(op, "x", "k", core.UNIT, UNIT, UNIT)

    h = core.Handle(core.UNIT, "r", core.UNIT, (clause("b"), clause("a")), EMPTY, UNIT)
    assert [c.op for c in h.clauses] == ["a", "b"]
    moved = dataclasses.replace(h, clauses=(clause("d"), clause("c")))
    assert [c.op for c in moved.clauses] == ["c", "d"]


def test_a_fix_closure_prints_itself_as_dots():
    fix = core.Fix("f", UNIT, LAM)
    closure = ev.FixClosure(fix, {})
    assert closure.closure.env["f"] is closure
    text = repr(closure)
    assert text.endswith("env={'f': ...}, term=None), term=None)")
    (twin,) = [t for c, t in CLASSES if c is ev.FixClosure]
    assert text == repr(twin(fix, {}))


def test_no_class_gets_generated_methods_from_dataclasses():
    # a plain @dataclass would bring back the per-method code generation
    # that made up most of greff's import time
    for cls, _ in CLASSES:
        assert cls.__repr__ is record._repr, cls.__qualname__


def test_a_node_stores_its_position_only_when_given():
    # an unpositioned node reads the class default, so nodes that gen, the
    # elaborator and substitution build carry no position slot of their own
    bare = core.App(core.Var("f"), core.UNIT)
    assert "pos" not in vars(bare) and bare.pos is None
    assert "pos" not in vars(dataclasses.replace(bare, arg=core.Var("x")))
    placed = core.App(core.Var("f"), core.UNIT, pos=(3, 7))
    assert vars(placed)["pos"] == (3, 7)
    moved = dataclasses.replace(placed, arg=core.Var("x"))
    assert moved.pos == (3, 7) and moved == core.App(core.Var("f"), core.Var("x"))


def test_an_unpositioned_row_annotation_stores_no_position():
    # a written row sorts its names in __post_init__ and stores a position
    # only when given one, like every other node
    bare = surface.SNames(("b", "a"))
    assert vars(bare) == {"names": ("a", "b")} and bare.pos is None
    placed = surface.SNames(("b", "a"), pos=(1, 2))
    assert vars(placed) == {"names": ("a", "b"), "pos": (1, 2)} and placed == bare

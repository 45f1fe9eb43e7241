"""The benchmark's tracer names greff functions that must keep existing.

perfbench/tracer.py wraps greff functions by (module, attribute) name,
counts typesys calls where other modules import them, and reads machine
states as they pass; perfbench/run.py counts core casts by class name.
A deletion or rename in greff that drops one of those names would break
only the benchmark run, so this test resolves every name up front.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from greff.surface import ParseError
from programs import capture_walk_source, cast_loop_source, queue_walk_source

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    path_before = list(sys.path)  # run.py puts perfbench/ first on the path
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.path[:] = path_before
    return module


def _load_tracer():
    return _load(TRACER)


def _greff(name: str):
    return importlib.import_module(f"greff.{name}")


def test_every_span_names_a_python_function():
    tracer = _load_tracer()
    for mod_name, attr, _key in tracer.SPANS:
        owner = _greff(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert inspect.isfunction(owner), f"{mod_name}.{attr}"


def test_every_counter_names_a_python_function_where_it_is_imported():
    tracer = _load_tracer()
    typesys = _greff("typesys")
    for name, importers, _counter in tracer.COUNTERS:
        fn = getattr(typesys, name)
        assert inspect.isfunction(fn), f"typesys.{name}"
        for mod_name in importers:
            assert getattr(_greff(mod_name), name) is fn, f"{mod_name}.{name}"


def test_every_counted_cast_names_a_core_class():
    # read the script's constant without running the script
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (casts,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CASTS" for t in node.targets)
    ]
    core = _greff("core")
    assert casts
    for name in casts:
        assert dataclasses.is_dataclass(getattr(core, name)), f"core.{name}"


def test_the_state_hook_reads_machine_fields():
    ev = _greff("eval")
    assert {"frames", "control"} <= {f.name for f in dataclasses.fields(ev.MachineState)}
    assert "captured" in {f.name for f in dataclasses.fields(ev.Raising)}
    assert {"trace", "sample", "sample_every"} <= set(inspect.signature(ev.run).parameters)


def test_subst_recurses_by_its_own_name():
    # the tracer treats a function as recursive when it names itself, and
    # lets its inner calls bypass the wrapper; recursion through another
    # name would pay a span per call
    core = _greff("core")
    assert "subst" in core.subst.__code__.co_names


def test_the_state_hook_counts_depths_of_sampled_states():
    # the benchmark's eval.peak_frames and eval.max_captured come from this
    # hook seeing every state; a change to how a state shows its frames
    # must leave these counts as they are
    tracer = _load_tracer()
    ev = _greff("eval")
    elaborate = _greff("elaborate")
    cases = [
        (queue_walk_source(64), (1010, 66, 1)),
        (queue_walk_source(64, "?"), (1270, 68, 3)),
        (capture_walk_source(64), (3090, 66, 65)),
        (cast_loop_source(64), (5432, 195, 129)),
    ]
    for source, expected in cases:
        res = elaborate.elab_source(source)
        bucket = tracer.Bucket()
        hook = tracer.Tracer({"eval": ev})._state_hook(bucket, None, 1)
        steps = ev.run(res.sig, res.term, sample=hook, sample_every=1).steps
        counts = bucket.counts
        assert (steps, counts["eval.peak_frames"], counts["eval.max_captured"]) == expected


def test_the_node_count_walks_every_core_node_of_the_corpus():
    # the benchmark's elaborate.core_nodes and elaborate.casts walk each
    # node's __dataclass_fields__; a change to how node classes are built
    # must leave both counts as they are, and equal to a walk over
    # core.FIELDS, which names every term-valued field
    core, elaborate = _greff("core"), _greff("elaborate")
    terms = []
    for path in sorted((ROOT / "corpus").glob("*.greff")):
        try:
            terms.append(elaborate.elab_source(path.read_text(encoding="utf-8")).term)
        except (ParseError, elaborate.ElabError):
            assert path.name == "bad_import.greff"
    assert len(terms) == 11
    assert _load(PERFBENCH / "run.py").count_nodes(terms, core) == (783, 31)
    nodes = casts = 0
    stack = list(terms)
    while stack:
        t = stack.pop()
        nodes += not isinstance(t, core.Clause)
        casts += isinstance(t, (core.ValCast, core.EffCast))
        for name in core.FIELDS[type(t)]:
            v = getattr(t, name)
            stack.extend(v if type(v) is tuple else (v,))
    assert (nodes, casts) == (783, 31)

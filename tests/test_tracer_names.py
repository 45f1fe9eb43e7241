"""The benchmark's tracer names greff functions that must keep existing.

perfbench/tracer.py wraps greff functions by (module, attribute) name and
counts typesys calls where other modules import them.  A deletion or
rename in greff that drops one of those names would break only the
traced benchmark run, so this test resolves every name up front.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


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

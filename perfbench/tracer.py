"""Timing spans and call counters around greff's public functions.

The tracer wraps functions from the outside: it rebinds each listed
function in its defining module, and in every other greff module or
module-level dict that holds the same function object (names imported
with ``from .typesys import ...``, the ``conformance.LAWS`` table).
``uninstall`` puts every original back.  Nothing in greff is edited.

A span covers one call.  Its self time is its duration minus the
durations of the spans opened inside it, so layer self times add up to
the traced time without double counting.  A recursive function is
timed once per outermost call: while it runs, its defining module's
name points back at the original, so the recursion pays no overhead.

Spans aggregate into the current ``Bucket`` (one per phase of a traced
run); no span is recorded while no bucket is open.
"""

from __future__ import annotations

import collections
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# (module, attribute, span key); attribute "Class.method" wraps a method
SPANS = (
    ("surface", "tokenize", "surface.lex"),
    ("surface", "parse_program", "surface.parse"),
    ("surface", "parse_term", "surface.parse"),
    ("surface", "parse_type", "surface.parse"),
    ("elaborate", "elab_source", "elaborate.elab"),
    ("elaborate", "elab_program", "elaborate.elab"),
    ("core", "typecheck", "core.typecheck"),
    ("core", "subst", "core.subst"),
    ("core", "pretty", "core.pretty"),
    ("eval", "run", "eval.machine"),
    ("reference", "evaluate", "reference.eval"),
    ("gen", "gen_surface_program", "gen.program"),
    ("gen", "gen_core_program", "gen.program"),
    ("gen", "gen_core_term", "gen.program"),
    ("gen", "_CoreGen.term", "gen.program"),
    ("gen", "gen_signature", "gen.types"),
    ("gen", "gen_row", "gen.types"),
    ("gen", "gen_value_type", "gen.types"),
    ("gen", "loosen", "gen.types"),
    ("conformance", "run_conformance", "conformance.run"),
    ("conformance", "case_effect_cast_vs_handler", "conformance.build"),
    ("conformance", "case_fun_cast_vs_wrapper", "conformance.build"),
    ("conformance", "case_retraction", "conformance.build"),
    ("conformance", "case_decomposition", "conformance.build"),
    ("conformance", "case_commutation", "conformance.build"),
    ("conformance", "case_forwarding", "conformance.build"),
    ("conformance", "case_factorization", "conformance.build"),
    ("conformance", "imprecisify", "conformance.build"),
    ("cli", "main", "cli.main"),
)

# typesys functions counted where core (the cast constructors) and the
# elaborator call them: (typesys name, importing modules, counter)
COUNTERS = (
    ("precision", ("core",), "typesys.precision_calls"),
    ("subtype", ("elaborate",), "typesys.subtype_calls"),
    ("gradual_subtype", ("elaborate",), "typesys.subtype_calls"),
)

# keys whose outermost spans also total into a shared group: a case's
# construction is its conformance rewriting plus the generation under it
GROUPS = {
    "conformance.build": ("construction",),
    "gen.program": ("construction",),
    "gen.types": ("construction",),
}


@dataclass
class Bucket:
    """What one phase of a traced run recorded."""

    self_s: collections.Counter = field(default_factory=collections.Counter)
    total_s: collections.Counter = field(default_factory=collections.Counter)
    calls: collections.Counter = field(default_factory=collections.Counter)
    counts: collections.Counter = field(default_factory=collections.Counter)
    rules: collections.Counter = field(default_factory=collections.Counter)
    # (op label, seconds, steps) per eval.run call
    machine_runs: list = field(default_factory=list)
    elab_terms: list = field(default_factory=list)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> greff module
        self.bucket: Optional[Bucket] = None
        self.hooks = False  # pass trace/sample hooks into eval.run
        self.label = ""  # current operation, for per-op machine runs
        self._stack: list[list[float]] = []  # child time of each open span
        self._active: collections.Counter = collections.Counter()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- installing and restoring -------------------------------------

    def install(self) -> None:
        for mod_name, attr, key in SPANS:
            owner, name = self.modules[mod_name], attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = getattr(owner, name)
            recursive = name in orig.__code__.co_names
            wrapper = self._span(key, orig, owner, name, recursive)
            self._rebind(orig, wrapper, owner, name)
        typesys = self.modules["typesys"]
        for name, importers, counter in COUNTERS:
            orig = getattr(typesys, name)
            wrapper = self._counter(counter, orig)
            for mod_name in importers:
                self._patch(self.modules[mod_name], name, wrapper, False)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig, is_item = self._patches.pop()
            if is_item:
                owner[name] = orig
            else:
                setattr(owner, name, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name, value, is_item: bool) -> None:
        orig = owner[name] if is_item else getattr(owner, name)
        self._patches.append((owner, name, orig, is_item))
        if is_item:
            owner[name] = value
        else:
            setattr(owner, name, value)

    def _rebind(self, orig, wrapper, owner, name) -> None:
        self._patch(owner, name, wrapper, False)
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, wrapper, False)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._patch(value, k, wrapper, True)

    # -- wrappers -------------------------------------------------------

    def _counter(self, counter: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.bucket is not None:
                tracer.bucket.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, key, fn, owner, name, recursive) -> Callable:
        tracer = self
        groups = (key,) + GROUPS.get(key, ())
        after = {
            "surface.lex": self._after_lex,
            "elaborate.elab": self._after_elab,
        }.get(key)
        call = self._machine_call(fn) if key == "eval.machine" else fn

        def wrapper(*args, **kwargs):
            bucket = tracer.bucket
            if bucket is None:
                return fn(*args, **kwargs)
            outer = [g for g in groups if not tracer._active[g]]
            for g in groups:
                tracer._active[g] += 1
            child = [0.0]
            tracer._stack.append(child)
            if recursive:
                setattr(owner, name, fn)
            t0 = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                if recursive:
                    setattr(owner, name, wrapper)
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += d
                for g in groups:
                    tracer._active[g] -= 1
                bucket.self_s[key] += d - child[0]
                for g in outer:
                    bucket.total_s[g] += d
                    bucket.calls[g] += 1
            if after is not None and key in outer:
                after(bucket, result)
            return result

        return wrapper

    @staticmethod
    def _after_lex(bucket: Bucket, tokens) -> None:
        bucket.counts["surface.tokens"] += len(tokens)

    @staticmethod
    def _after_elab(bucket: Bucket, result) -> None:
        bucket.elab_terms.append(result.term)

    def _machine_call(self, fn: Callable) -> Callable:
        """eval.run, recording steps and, with hooks on, rule counts,
        stack depth and captured-continuation size at every step."""
        signature = inspect.signature(fn)
        tracer = self

        def call(*args, **kwargs):
            bucket = tracer.bucket
            t0 = time.perf_counter()
            if tracer.hooks:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                a["trace"] = tracer._rule_hook(bucket, a["trace"])
                a["sample"] = tracer._state_hook(bucket, a["sample"], a["sample_every"])
                a["sample_every"] = 1
                result = fn(*bound.args, **bound.kwargs)
            else:
                result = fn(*args, **kwargs)
            d = time.perf_counter() - t0
            bucket.counts["eval.steps"] += result.steps
            bucket.machine_runs.append((tracer.label, d, result.steps))
            return result

        return call

    @staticmethod
    def _rule_hook(bucket: Bucket, inner):
        rules = bucket.rules

        def trace(rule, detail):
            rules[rule] += 1
            if inner is not None:
                inner(rule, detail)

        return trace

    def _state_hook(self, bucket: Bucket, inner, every: int):
        counts = bucket.counts
        raising = self.modules["eval"].Raising
        n = 0

        def sample(state):
            nonlocal n
            n += 1
            if len(state.frames) > counts["eval.peak_frames"]:
                counts["eval.peak_frames"] = len(state.frames)
            c = state.control
            if isinstance(c, raising) and len(c.captured) > counts["eval.max_captured"]:
                counts["eval.max_captured"] = len(c.captured)
            if inner is not None and n % every == 0:
                inner(state)

        return sample

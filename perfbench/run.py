#!/usr/bin/env python3
"""greff's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload queue-loop --seed 1 --seconds 20 --trace 0

Run from the root of a greff checkout.  The workload is generated from
the seed.  For --seconds, two timed set-ups and a pass of every
operation alternate; setup_s is the median of the set-ups, and each
pass's outputs are checked as the pass ends.  Times are scaled to a
host of fixed speed by a calibration (hostclock.HostClock).  --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it print every
metric by name with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostclock import CAL_NOMINAL_S  # noqa: E402
from tracer import Bucket, Tracer  # noqa: E402
from workloads import QUEUE_SIZES, WORKLOADS, Workload  # noqa: E402

MODULES = ("typesys", "surface", "core", "elaborate", "eval", "reference", "gen",
           "conformance", "cli")
WORK_DIR = ".bench_work"  # generated programs, one directory per run
SETUPS_PER_PASS = 2  # a set-up is noisier than a pass, and shorter
# Times greff's import in a child interpreter, which may run on the other
# CPU, and calibrates the host clock in that child just before and after.
IMPORT_PROBE = (
    f"import sys, time; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
    + "import hostclock as h; sys.path[0] = 'src'; "
    + "c = [h.calibration_s() for _ in range(3)]; t = time.perf_counter(); "
    + "; ".join(f"import greff.{m}" for m in MODULES)
    + "; t = time.perf_counter() - t; c += [h.calibration_s() for _ in range(3)]; "
    + "print(t, h.median(c))"
)
FAMILIES = ("effect-cast-handler", "fun-cast-wrapper", "retraction", "decomposition",
            "commutation", "forwarding", "factorization", "graduality")
RULES = ("value", "fix", "beta", "fun-upcast", "fun-downcast", "let", "if-true",
         "if-false", "concat", "enqueue", "case-empty", "case-dequeue", "raise",
         "handle-value", "val-upcast", "val-downcast", "eff-upcast-value",
         "eff-downcast-value", "eff-upcast-raise", "eff-downcast-raise", "bad-downcast",
         "capture", "handler-beta", "err", "uncaught")
CASTS = ("ValUpcast", "ValDowncast", "EffUpcast", "EffDowncast")

# name -> (unit, better); the end-to-end set is what --trace 0 prints
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "surface.lex_s": ("s", "lower"),
    "surface.parse_s": ("s", "lower"),
    "surface.tokens": ("count", "lower"),
    "surface.tokens_per_s": ("tokens/s", "higher"),
    "elaborate.elab_s": ("s", "lower"),
    "elaborate.core_nodes": ("count", "lower"),
    "elaborate.casts": ("count", "lower"),
    "core.typecheck_s": ("s", "lower"),
    "core.subst_calls": ("count", "lower"),
    "core.subst_s": ("s", "lower"),
    "core.pretty_calls": ("count", "lower"),
    "core.pretty_s": ("s", "lower"),
    "typesys.precision_calls": ("count", "lower"),
    "typesys.subtype_calls": ("count", "lower"),
    "eval.machine_s": ("s", "lower"),
    "eval.self_s": ("s", "lower"),
    "eval.steps": ("count", "lower"),
    "eval.us_per_step": ("us/step", "lower"),
    **{f"eval.us_per_step.n{n}": ("us/step", "lower") for n in QUEUE_SIZES},
    "eval.us_per_step_growth": ("ratio", "lower"),
    "eval.peak_frames": ("count", "lower"),
    "eval.max_captured": ("count", "lower"),
    **{f"eval.rule.{r}": ("count", "lower") for r in RULES},
    "reference.eval_s": ("s", "lower"),
    "reference.machine_ratio": ("ratio", "lower"),
    "gen.gen_s": ("s", "lower"),
    "gen.programs": ("count", "lower"),
    "conformance.build_s": ("s", "lower"),
    "conformance.exec_s": ("s", "lower"),
    **{f"conformance.{f}.cases_per_s": ("cases/s", "higher") for f in FAMILIES},
    "conformance.steps_max": ("count", "lower"),
    "conformance.inconclusive_ratio": ("ratio", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def load_greff(root: Path) -> types.SimpleNamespace:
    sys.path.insert(0, str(root / "src"))
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"greff.{m}") for m in MODULES}
    )


def import_seconds(root: Path) -> float:
    """Import time of greff in a fresh interpreter, scaled by the host clock."""
    got = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, capture_output=True,
        text=True, check=True, timeout=120,
    )
    t, cal = map(float, got.stdout.split()[-2:])
    return t * CAL_NOMINAL_S / cal


@contextlib.contextmanager
def fresh_heap():
    """Run the collector, then freeze everything alive, so that
    collections inside the block scan only what it allocates, as in a
    fresh process, and not what earlier passes left behind."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def timed_setup(w: Workload) -> float:
    """One set-up in scaled seconds: greff's import, then the workload's
    own set-up, with the clock calibrated just before and after it."""
    t = import_seconds(w.root)
    before = w.clock.calibrate()
    with fresh_heap():
        t0 = time.perf_counter()
        w.setup()
        dt = time.perf_counter() - t0
    return t + dt * (before + w.clock.calibrate()) / 2


@dataclass
class Measured:
    """Per-operation times of every pass, and how many operations failed."""

    setups: list = field(default_factory=list)  # scaled seconds of each timed set-up
    scales: list = field(default_factory=list)  # host clock scale after each pass
    times: list = field(default_factory=list)  # per pass: [(label, seconds)]
    first: list = field(default_factory=list)  # first pass: [(label, seconds, output)]
    buckets: list = field(default_factory=list)  # per traced pass
    attempted: int = 0
    failed: int = 0

    def medians(self) -> dict[str, float]:
        """Each operation's median time over the passes."""
        samples: dict[str, list[float]] = {}
        for results in self.times:
            for label, dt in results:
                samples.setdefault(label, []).append(dt)
        return {label: statistics.median(v) for label, v in samples.items()}


def measure(w: Workload, seconds: float, m: Measured) -> None:
    """Timed set-ups, then a pass, until `seconds` have gone by.

    The set-ups are spread over the run like the passes, so that setup_s,
    their median, sees the same drift in host speed as run_s.
    """
    deadline = time.perf_counter() + seconds
    while not m.times or time.perf_counter() < deadline:
        m.setups += [timed_setup(w) for _ in range(SETUPS_PER_PASS)]
        one_pass(w, m)


def one_pass(w: Workload, m: Measured, tracer=None) -> None:
    """Run and check one pass, recording it in m.

    Outputs are checked as the pass ends and then dropped, so memory
    does not grow with the number of passes.
    """
    with fresh_heap():
        try:
            if tracer is not None:
                tracer.bucket = Bucket()
                m.buckets.append(tracer.bucket)
            results = w.run_pass(tracer)
        finally:
            if tracer is not None:
                tracer.bucket = None
    if not m.first:
        m.first = results
    m.times.append([(label, dt) for label, dt, _ in results])
    m.scales.append(w.clock.scale)
    m.attempted += len(results)
    stray = threading.active_count() > 1  # a thread would slow the calibration too
    m.failed += sum(stray or not w.ok(label, got) for label, _, got in results)


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(w: Workload, m: Measured):
    """The gated metrics and the same numbers under the names each
    workload's users know them by (check_per_s, case_p99_ms, ...)."""
    values = sorted(m.medians().values())
    run_s = sum(values)
    p50, p99 = percentile(values, 50) * 1e3, percentile(values, 99) * 1e3
    gated = {
        "setup_s": statistics.median(m.setups),
        "run_s": run_s,
        "op_p50_ms": p50,
        "op_p99_ms": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = {"error_rate": (m.failed / m.attempted, "failed/attempted")}
    if w.name == "frontend":
        named.update(check_per_s=(len(values) / run_s, "programs/s"),
                     check_p50_ms=(p50, "ms"), check_p99_ms=(p99, "ms"))
    elif w.name == "conformance":
        named.update(cases_per_s=(len(values) / run_s, "cases/s"),
                     case_p50_ms=(p50, "ms"), case_p99_ms=(p99, "ms"),
                     inconclusive_ratio=(inconclusive_ratio(m), "inconclusive/decided"))
    named["samples"] = (len(values), f"ops, median of {len(m.times)} passes each, "
                                     f"{len(m.setups)} set-ups")
    named["host_scale"] = (statistics.median(m.scales), "scaled s per wall s")
    return gated, named


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run


def count_nodes(terms, core) -> tuple[int, int]:
    """(core term nodes, cast nodes) over elaborated terms."""
    casts = tuple(getattr(core, c) for c in CASTS)
    n_nodes = n_casts = 0
    stack = list(terms)
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif hasattr(x, "__dataclass_fields__"):
            if type(x).__module__ == core.__name__ and not isinstance(x, core.Clause):
                n_nodes += 1
                n_casts += isinstance(x, casts)
            stack.extend(getattr(x, f) for f in x.__dataclass_fields__)
    return n_nodes, n_casts


def us_per_step(runs) -> float:
    steps = sum(r[2] for r in runs)
    return sum(r[1] for r in runs) * 1e6 / steps if steps else 0.0


def pass_layers(b: Bucket, core) -> dict[str, float]:
    """Per-layer values that one traced pass gives."""
    lex, parse = b.self_s["surface.lex"], b.self_s["surface.parse"]
    machine = b.total_s["eval.machine"]
    nodes, casts = count_nodes(b.elab_terms, core)
    by_n = {n: [r for r in b.machine_runs if r[0].startswith(f"n{n}-")] for n in QUEUE_SIZES}
    n_lo, n_hi = us_per_step(by_n[QUEUE_SIZES[0]]), us_per_step(by_n[QUEUE_SIZES[-1]])
    return {
        "surface.lex_s": lex,
        "surface.parse_s": parse,
        "surface.tokens": b.counts["surface.tokens"],
        "surface.tokens_per_s": b.counts["surface.tokens"] / (lex + parse) if lex + parse else 0.0,
        "elaborate.elab_s": b.self_s["elaborate.elab"],
        "elaborate.core_nodes": nodes,
        "elaborate.casts": casts,
        "core.typecheck_s": b.self_s["core.typecheck"],
        "core.subst_calls": b.calls["core.subst"],
        "core.subst_s": b.self_s["core.subst"],
        "core.pretty_calls": b.calls["core.pretty"],
        "core.pretty_s": b.self_s["core.pretty"],
        "typesys.precision_calls": b.counts["typesys.precision_calls"],
        "typesys.subtype_calls": b.counts["typesys.subtype_calls"],
        "eval.machine_s": machine,
        "eval.self_s": b.self_s["eval.machine"],
        "eval.steps": b.counts["eval.steps"],
        "eval.us_per_step": us_per_step(b.machine_runs),
        **{f"eval.us_per_step.n{n}": us_per_step(by_n[n]) for n in QUEUE_SIZES},
        "eval.us_per_step_growth": n_hi / n_lo if n_lo else 0.0,
        "gen.gen_s": b.self_s["gen.program"] + b.self_s["gen.types"],
        "gen.programs": b.calls["gen.program"],
        "conformance.build_s": b.self_s["conformance.build"],
        "conformance.exec_s": b.total_s["conformance.run"] - b.total_s["construction"],
        "cli.self_s": b.self_s["cli.main"],
    }


def per_layer(g, base: Measured, traced: Measured, setup_b: Bucket,
              hooks_b: Bucket, gate_b: Bucket) -> dict[str, float]:
    per_pass = [pass_layers(b, g.core) for b in traced.buckets]
    out = {}
    for name in per_pass[0]:
        if PER_LAYER[name][0] == "count":
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
    out["gen.gen_s"] += setup_b.self_s["gen.program"] + setup_b.self_s["gen.types"]
    out["gen.programs"] += setup_b.calls["gen.program"]
    out["eval.peak_frames"] = hooks_b.counts["eval.peak_frames"]
    out["eval.max_captured"] = hooks_b.counts["eval.max_captured"]
    for r in RULES:
        out[f"eval.rule.{r}"] = hooks_b.rules[r]
    ref = gate_b.self_s["reference.eval"]
    out["reference.eval_s"] = ref
    out["reference.machine_ratio"] = out["eval.machine_s"] / ref if ref else 0.0

    records = conformance_records(base)
    med = base.medians()
    for f in FAMILIES:
        times = [med[label] for label, got in records if got["check"] == f]
        out[f"conformance.{f}.cases_per_s"] = len(times) / sum(times) if times else 0.0
    out["conformance.steps_max"] = max(
        (max(got["steps_left"], got["steps_right"]) for _, got in records), default=0)
    out["conformance.inconclusive_ratio"] = inconclusive_ratio(base)
    out["trace.overhead_s"] = sum(traced.medians().values()) - sum(med.values())
    return out


def conformance_records(m: Measured) -> list[tuple[str, dict]]:
    """(label, case record) for each case of the first pass, if any."""
    return [(label, got) for label, _, got in m.first if isinstance(got, dict)]


def inconclusive_ratio(m: Measured) -> float:
    verdicts = [got["verdict"] for _, got in conformance_records(m)]
    decided = sum(v != "inconclusive" for v in verdicts)
    return (len(verdicts) - decided) / decided if decided else 0.0


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        scale: float = 1.0) -> dict:
    g = load_greff(root)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / WORK_DIR))
    try:
        return _run(WORKLOADS[workload](g, root, work, seed, scale), g, trace, seconds)
    finally:
        shutil.rmtree(work)


def _run(w: Workload, g, trace: bool, seconds: float) -> dict:
    if not trace:
        m = Measured(setups=[timed_setup(w)])
        w.prepare_check()
        measure(w, seconds, m)
        metrics, named = end_to_end(w, m)
        table = END_TO_END
    else:
        with Tracer(vars(g)) as tracer:
            tracer.bucket = setup_b = Bucket()
            w.setup()
            tracer.bucket = gate_b = Bucket()
            w.prepare_check()
            tracer.bucket = None
        # untraced and traced passes alternate, so host noise hits both alike
        base, traced, hooked = Measured(), Measured(), Measured()
        deadline = time.perf_counter() + seconds
        while not traced.times or time.perf_counter() < deadline:
            one_pass(w, base)
            with Tracer(vars(g)) as tracer:
                one_pass(w, traced, tracer)
        with Tracer(vars(g)) as tracer:
            tracer.hooks = True
            one_pass(w, hooked, tracer)
        m = Measured(attempted=base.attempted + traced.attempted + hooked.attempted,
                     failed=base.failed + traced.failed + hooked.failed)
        metrics = per_layer(g, base, traced, setup_b, hooked.buckets[0], gate_b)
        named = {}
        table = PER_LAYER
    return {
        "workload": w.name,
        "seed": w.seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "named": named,
        "result": {
            "correct": m.failed == 0,
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {k: {"value": metrics[k], "unit": table[k][0]} for k in table},
        },
    }


def report_lines(out: dict) -> list[str]:
    """Every metric by name with its unit, then the JSON result line."""
    res = out["result"]
    lines = [f"workload {out['workload']}  seed {out['seed']}  python {out['python']}  "
             f"cpus {out['cpus']}  attempted {res['attempted']}  failed {res['failed']}"]
    for name, (value, unit) in out["named"].items():
        lines.append(f"  {name:34s} {value:>14.6g} {unit}")
    for name, m in res["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    lines.append(json.dumps(res))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "greff" / "__init__.py").is_file():
        print(f"benchmark: no greff sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print("\n".join(report_lines(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

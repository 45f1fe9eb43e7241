"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is printed with its unit,
that a seed reproduces every count exactly, that the traced run puts
back every function it wrapped, and that wrong or crashing operations
show up as failures instead of stopping the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostclock  # noqa: E402
import run as bench  # noqa: E402
from tracer import Bucket, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCALE = 1 / 16
SECONDS = 0.2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload: str, trace: bool, seed: int = 3) -> dict:
    return bench.run(workload, seed, SECONDS, trace, ROOT, scale=SCALE)


def test_spec_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == table


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = tiny(workload, trace)
    lines = bench.report_lines(out)
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(res["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_seed_reproduces_every_count(workload):
    counts = [
        {k: v["value"] for k, v in tiny(workload, True)["result"]["metrics"].items()
         if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_host_clock_scales_by_the_median_calibration(monkeypatch):
    nominal = hostclock.CAL_NOMINAL_S
    times = iter([2 * nominal, 4 * nominal, 2 * nominal, 1 * nominal, 3 * nominal, 1 * nominal])
    monkeypatch.setattr(hostclock, "calibration_s", lambda: next(times))
    clock = hostclock.HostClock()
    assert clock.tick() == 0.5  # median of 2x, 4x and 2x
    assert clock.tick() == 0.5  # not due yet: no new calibration
    assert clock.calibrate() == 1.0  # median of 1x, 3x and 1x


def test_traced_run_restores_every_function():
    g = bench.load_greff(ROOT)
    before = {m: dict(vars(mod)) for m, mod in vars(g).items()}
    laws = dict(g.conformance.LAWS)
    term = g.gen._CoreGen.term
    tiny("conformance", True)
    for m, mod in vars(g).items():
        assert {k: v for k, v in vars(mod).items() if k in before[m]} == before[m], m
    assert g.conformance.LAWS == laws
    assert g.gen._CoreGen.term is term


def test_self_time_excludes_nested_spans():
    g = bench.load_greff(ROOT)
    src = (ROOT / "corpus" / "combo_PPP.greff").read_text()
    with Tracer(vars(g)) as tracer:
        tracer.bucket = b = Bucket()
        g.elaborate.elab_source(src)
        tracer.bucket = None
    inner = b.self_s["surface.lex"] + b.self_s["surface.parse"]
    assert inner > 0 and b.self_s["elaborate.elab"] > 0
    # elab_source parses, then calls elab_program: one outermost span
    assert b.calls["elaborate.elab"] == 1 and len(b.elab_terms) == 1
    total = b.total_s["elaborate.elab"]
    assert abs(b.self_s["elaborate.elab"] + inner - total) < 1e-6 * total + 1e-9


def test_tracer_sees_names_imported_from_typesys():
    out = tiny("scheduler", True)["result"]["metrics"]
    assert out["typesys.precision_calls"]["value"] > 0
    assert out["typesys.subtype_calls"]["value"] > 0
    assert out["elaborate.casts"]["value"] > 0
    assert out["eval.rule.handler-beta"]["value"] > 0


def test_a_wrong_result_raises_the_error_rate(monkeypatch):
    g = bench.load_greff(ROOT)
    real = g.eval.run

    def wrong(*args, **kwargs):
        got = real(*args, **kwargs)
        value = g.core.StrLit(got.outcome.value.value + "!")
        return g.eval.RunResult(g.eval.Value(value), got.steps)

    monkeypatch.setattr(g.eval, "run", wrong)
    out = tiny("queue-loop", False)
    assert out["named"]["error_rate"][0] == 1.0
    assert not out["result"]["correct"]


def test_a_crash_counts_as_a_failure_and_the_run_goes_on(monkeypatch):
    g = bench.load_greff(ROOT)
    real = g.cli.main

    def crash_on_one(argv, **kwargs):
        if argv[-1].endswith("PPP.greff"):
            raise RecursionError("maximum recursion depth exceeded")
        return real(argv, **kwargs)

    monkeypatch.setattr(g.cli, "main", crash_on_one)
    res = tiny("scheduler", False)["result"]
    assert res["attempted"] >= 8
    assert res["failed"] * 8 == res["attempted"]  # one mix of eight, every pass


def test_a_crashing_conformance_batch_is_a_failure(monkeypatch):
    g = bench.load_greff(ROOT)

    def crash(**kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(g.conformance, "run_conformance", crash)
    res = tiny("conformance", False)["result"]
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]


def test_a_violated_verdict_is_a_failure(monkeypatch):
    g = bench.load_greff(ROOT)
    monkeypatch.setattr(g.conformance, "outcomes_equal", lambda a, b: False)
    res = tiny("conformance", False)["result"]
    assert res["failed"] > 0


def test_without_sources_it_fails_without_a_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in Path(bench.__file__).parent.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queue-loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert '"correct"' not in got.stdout

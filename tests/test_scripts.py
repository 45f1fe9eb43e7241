"""scripts/soak.py, scripts/bench_pairs.py and scripts/profile_workload.py."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_soak_prints_a_row_per_family(capsys):
    assert _script("soak").main(["--cases", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:5] == ["check", "cases", "holds", "inconc", "viol"]
    rows = lines[1:lines.index("")]
    assert len(rows) == 8
    for row in rows:
        check, cases, holds, inconclusive, violated = row.split()[:5]
        assert int(cases) == int(holds) + int(inconclusive) and violated == "0", row


@pytest.mark.parametrize("flag", ["--cases", "--fuel"])
def test_soak_rejects_a_count_below_1(flag, capsys):
    with pytest.raises(SystemExit) as stop:
        _script("soak").main([flag, "0"])
    assert stop.value.code == 2
    assert f"argument {flag}: must be at least 1, not 0" in capsys.readouterr().err


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": {"t": p}, "change": {"t": c}} for p, c in zip(parent, change)]


def _rule(parent: list[float], change: list[float], better: str = "lower"):
    return _script("bench_pairs").summary(_pairs(parent, change), {"t": better})["t"]


def test_the_claim_rule_needs_ten_pairs():
    got = _rule([1.0] * 9, [0.5] * 9)
    assert got["change_better_in"] == 9 and got["pairs"] == 9
    assert got["rule_holds"] is None
    assert _rule([1.0] * 10, [0.5] * 10)["rule_holds"] is True


def test_the_claim_rule_needs_nine_wins_in_ten():
    parent = [1.0] * 10
    assert _rule(parent, [0.5] * 9 + [1.5])["rule_holds"] is True
    got = _rule(parent, [0.5] * 8 + [1.5] * 2)
    assert got["change_better_in"] == 8 and got["rule_holds"] is False
    # a tie is no win
    assert _rule(parent, [0.5] * 8 + [1.0] * 2)["rule_holds"] is False


def test_the_claim_rule_needs_a_median_gap_above_the_parent_iqr():
    parent = [1.0, 1.2, 1.4, 1.6, 1.8] * 2  # median 1.4, quartiles 1.2 and 1.6
    got = _rule(parent, [p - 0.3 for p in parent])
    assert got["parent"]["iqr"] == pytest.approx(0.4)
    assert got["change_better_in"] == 10 and got["rule_holds"] is False
    assert _rule(parent, [p - 0.5 for p in parent])["rule_holds"] is True


def test_the_claim_rule_reads_the_better_direction():
    got = _rule([1.0] * 10, [2.0] * 10, better="higher")
    assert got["change_better_in"] == 10 and got["rule_holds"] is True
    assert got["median_change_pct"] == pytest.approx(100.0)
    assert _rule([1.0] * 10, [2.0] * 10)["rule_holds"] is False


def test_traced_runs_alternate_and_report_medians_and_wins(tmp_path, monkeypatch, capsys):
    bench_pairs = _script("bench_pairs")
    runs, machine_s = [], {"parent": [1.0, 1.1, 1.2], "change": [0.9, 1.2, 1.0]}

    def export(root, rev, dest):
        dest.mkdir(parents=True)
        return rev.ljust(40, "0")

    def run_once(copy, command, workload, seed, seconds, trace):
        runs.append((copy.name, trace))
        side = copy.name
        metrics = {"eval.steps": 100 if side == "parent" else 60,
                   "eval.machine_s": machine_s[side][sum(r[0] == side for r in runs) - 1]}
        values = {name: metrics.get(name, 0) for name in per_layer}
        return {"metrics": {k: {"value": v} for k, v in values.items()},
                "failed": 0, "attempted": 1}

    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    monkeypatch.setattr(bench_pairs, "toplevel", lambda: ROOT)
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(ROOT)
    out = tmp_path / "bench.json"
    args = ["--parent", "HEAD", "--workload", "queue-loop", "--seed", "1", "--out", str(out)]
    assert bench_pairs.main([*args, "--trace", "3"]) == 0
    assert runs == [("parent", 1), ("change", 1), ("change", 1), ("parent", 1),
                    ("parent", 1), ("change", 1)]
    entry = json.loads(out.read_text())["traced"]["queue-loop seed 1"]
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
    assert set(entry["summary"]) == set(per_layer)
    steps, machine = entry["summary"]["eval.steps"], entry["summary"]["eval.machine_s"]
    assert (steps["parent"]["median"], steps["change"]["median"]) == (100, 60)
    assert steps["change_better_in"] == 3 and steps["rule_holds"] is None
    assert (machine["parent"]["median"], machine["change"]["median"]) == (1.1, 1.0)
    assert machine["change_better_in"] == 2
    assert "eval.steps: 100 -> 60, change better in 3/3" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        bench_pairs.main([*args, "--trace", "-1"])


@pytest.mark.parametrize("workload, scale", [("conformance", 0.01), ("frontend", 0.002)])
def test_profile_workload_prints_module_and_function_self_times(workload, scale, capsys):
    assert _script("profile_workload").main(["--workload", workload], scale=scale) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("self time ") and lines[2].split() == ["module", "self", "s", "share"]
    gap = lines.index("", 3)
    modules = {row.split()[0] for row in lines[3:gap]}
    assert {"greff.surface", "greff.elaborate", "(other)"} <= modules
    assert lines[gap + 1].split() == ["self", "s", "calls", "function"]
    top = lines[gap + 2:]
    assert len(top) == 25 and any("greff.elaborate:" in row for row in top)

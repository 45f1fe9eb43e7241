#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against HEAD, into one JSON file.

    python3 scripts/bench_pairs.py --parent REV --workload queue-loop --seed 1 \\
        --pairs 10 --out BENCH_N.json

Run from anywhere inside a greff checkout.  `git archive` writes the
committed files of REV and of HEAD into two temporary copies, which are
removed at the end.  Each pair runs BENCHMARK.json's command
(perfbench/run.py, unchanged) once on each copy, one run at a time, for
BENCHMARK.json's run_seconds; odd pairs run the parent first and even
pairs the change.  Before every run the
copy's src/greff/__pycache__ is removed, and PYTHONDONTWRITEBYTECODE=1
keeps it from coming back.

With --trace 0 the pairs are added to the output file under
"pairs" / "WORKLOAD seed SEED", after any pairs already there, and the
entry's summary is recomputed: per end-to-end metric, each side's
median and quartiles, how many pairs the change won, and whether the
claim rule holds (at least 10 pairs, the change wins at least 9 in
10, and the two medians are further apart than the parent's
interquartile range); below 10 pairs the rule reads null.  The file is
rewritten after every pair, so an interrupted batch keeps the pairs it
finished.

    python3 scripts/bench_pairs.py --parent REV --workload queue-loop --seed 1 \\
        --trace 10 --out BENCH_N.json

With --trace N (N >= 1) the pairs are N traced runs per side, in the
same alternating order, and hold BENCHMARK.json's per-layer metrics; they
go under "traced" / "WORKLOAD seed SEED" with the same summary per
metric: each side's median, how many runs the change won, and the claim
rule from 10 runs on.  A single traced run per side carries the host's
drift into every per-layer timing; alternating runs spread it over both
sides.

This script imports nothing from greff.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RULE_WINS = 0.9  # the share of pairs the change must win
RULE_PAIRS = 10  # the fewest pairs the rule is judged on


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def toplevel() -> Path:
    """The root of the git checkout the script runs in."""
    return Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))


def export(root: Path, rev: str, dest: Path) -> str:
    """Write rev's committed files into dest; return the full commit id."""
    commit = _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", commit], cwd=root, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)
    return commit


def run_once(copy: Path, command: list[str], workload: str, seed: int,
             seconds: int, trace: int) -> dict:
    """One benchmark run on a copy: the JSON result line, parsed."""
    shutil.rmtree(copy / "src" / "greff" / "__pycache__", ignore_errors=True)
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    got = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if got.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} exited {got.returncode}\n{got.stderr}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def side_summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: both sides' spread, the change's wins and the claim rule."""
    out = {}
    for name, better in metrics.items():
        sign = 1 if better == "lower" else -1
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        a, b = side_summary(parent), side_summary(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        gap = sign * (a["median"] - b["median"])
        out[name] = {
            "parent": a,
            "change": b,
            "median_change_pct": (b["median"] / a["median"] - 1) * 100 if a["median"] else 0.0,
            "change_better_in": wins,
            "pairs": len(pairs),
            "rule_holds": (wins >= RULE_WINS * len(pairs) and gap > a["iqr"]
                           if len(pairs) >= RULE_PAIRS else None),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the revision HEAD is compared with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, help="the pairs to add; required with --trace 0")
    ap.add_argument("--out", type=Path, required=True, help="the JSON file to add the pairs to")
    ap.add_argument("--trace", type=int, default=0, metavar="N",
                    help="0 for untraced pairs, or N >= 1 traced runs per side")
    args = ap.parse_args(argv)
    if args.trace < 0:
        ap.error(f"--trace must be at least 0, not {args.trace}")
    if not args.trace and not args.pairs:
        ap.error("--pairs is required with --trace 0")

    root = toplevel()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    kind, count, trace = ("traced", args.trace, 1) if args.trace else ("pairs", args.pairs, 0)
    metrics = {m["name"]: m["better"] for m in bench["per_layer" if trace else "end_to_end"]}
    out_path = args.out if args.out.is_absolute() else Path.cwd() / args.out
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        copies = {"parent": tmp / "parent", "change": tmp / "change"}
        commits = {side: export(root, rev, copies[side])
                   for side, rev in (("parent", args.parent), ("change", "HEAD"))}
        doc.setdefault("what", f"{' '.join(bench['command'])} on the parent commit "
                       f"{commits['parent'][:7]} and on the change {commits['change'][:7]}, "
                       "each a fresh git archive copy, same host, same benchmark code")
        doc.setdefault("command", " ".join(bench["command"])
                       + " --workload W --seed S --seconds T --trace 0|1")
        doc.setdefault("python", platform.python_version())
        doc.setdefault("cpus", os.cpu_count())
        doc.setdefault("procedure", "scripts/bench_pairs.py: runs one at a time; "
                       "src/greff/__pycache__ removed before each run; "
                       "PYTHONDONTWRITEBYTECODE=1; odd pairs run the parent first")
        entry = doc.setdefault(kind, {}).setdefault(
            f"{args.workload} seed {args.seed}",
            {"workload": args.workload, "seed": args.seed, "seconds": seconds, "pairs": []},
        )
        done = len(entry["pairs"])
        for n in range(done + 1, done + count + 1):
            order = ("parent", "change") if n % 2 else ("change", "parent")
            got = {side: run_once(copies[side], bench["command"], args.workload,
                                  args.seed, seconds, trace) for side in order}
            pair = {"pair": f"pair{n}", "first": order[0]}
            for side in ("parent", "change"):
                res = got[side]
                pair[side] = {name: res["metrics"][name]["value"] for name in metrics}
                pair[side].update(failed=res["failed"], attempted=res["attempted"])
            entry["pairs"].append(pair)
            entry["summary"] = summary(entry["pairs"], metrics)
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"pair {n - done}/{count} done", file=sys.stderr)
        for name, got in entry["summary"].items():
            print(f"{name}: {got['parent']['median']:.6g} -> {got['change']['median']:.6g}, "
                  f"change better in {got['change_better_in']}/{got['pairs']}")
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())

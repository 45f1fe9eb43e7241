#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload frontend --seeds 1-10

Each run lasts BENCHMARK.json's run_seconds with --trace 0, as the
bounds assume.  For every end-to-end metric it prints the median over
the seeds and the spread: the distance between the first and third
quartiles as a share of the median, which must stay within the metric's
bound in BENCHMARK.json (a third of it to be safe).  Runs go one after
another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        got = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
        res = json.loads(got.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} failed", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)

    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0], v[0], v[0]]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds[name]
        flag = "" if spread < bound / 3 else "  <-- over a third of the bound"
        print(f"{name:34s} {med:12.6g} {spread:8.4f} {bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

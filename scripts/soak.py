#!/usr/bin/env python3
"""Long-running conformance soak: bigger batches than the test suite runs.

Prints one summary row per check family plus any violating records in
full, and exits nonzero if a violation turned up.  Reports are a pure
function of --seed, so a failing row can be rerun exactly.  Throughput
is timed between the batch's record callbacks, so a case's time covers
drawing, building and running it, and any draws skipped before it.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
import time

from greff import conformance as conf
from greff.cli import _at_least_1


def _rate(cases: int, seconds: float) -> str:
    return f"{cases / seconds:.1f}" if seconds else "-"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cases", type=_at_least_1, default=300, help="cases per check family")
    ap.add_argument("--fuel", type=_at_least_1, default=200_000)
    args = ap.parse_args(argv)

    seconds: dict[str, float] = collections.defaultdict(float)
    last = t0 = time.perf_counter()

    def emit(line: str) -> None:
        nonlocal last
        now = time.perf_counter()
        seconds[json.loads(line)["check"]] += now - last
        last = now

    report = conf.run_conformance(
        seed=args.seed, cases_per_law=args.cases, fuel=args.fuel, emit=emit
    )
    elapsed = time.perf_counter() - t0

    by_check: dict[str, list[conf.CaseRecord]] = collections.defaultdict(list)
    for r in report.records:
        by_check[r.check].append(r)

    print(f"{'check':24s} {'cases':>6s} {'holds':>6s} {'inconc':>6s} {'viol':>5s} "
          f"{'steps p50':>9s} {'steps max':>9s} {'cases/s':>8s}")
    for check, recs in sorted(by_check.items()):
        verdicts = collections.Counter(r.verdict for r in recs)
        steps = sorted(max(r.steps_left, r.steps_right) for r in recs) or [0]
        print(f"{check:24s} {len(recs):6d} {verdicts['holds']:6d} "
              f"{verdicts['inconclusive']:6d} {verdicts['violated']:5d} "
              f"{int(statistics.median(steps)):9d} {steps[-1]:9d} "
              f"{_rate(len(recs), seconds[check]):>8s}")

    n = len(report.records)
    print(f"\n{n} cases in {elapsed:.1f}s, {_rate(n, sum(seconds.values()))} cases/s "
          f"(seed {args.seed}, fuel {args.fuel})")
    for r in report.violations:
        print("VIOLATION", r.to_json())
    return 1 if report.violations else 0


if __name__ == "__main__":
    sys.exit(main())

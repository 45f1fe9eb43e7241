#!/usr/bin/env python3
"""One untraced pass of a perfbench workload under cProfile.

    python3 scripts/profile_workload.py --workload conformance [--seed 1]

Run from anywhere inside a greff checkout.  The workload is set up from
the seed as perfbench/run.py sets it up and one pass of its operations
runs under cProfile.  The output is the self time of each greff module
(everything else summed as "(other)"), then the 25 functions with the
most self time.  The workload's host clock is swapped for one that
never calibrates, since the calibration's tree walks would otherwise
fill the profile.  perfbench's modules are imported and nothing under
perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP = 25  # functions listed by self time

sys.path.insert(0, str(ROOT / "perfbench"))

from run import load_greff  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class _SteadyClock:
    """A host clock that never calibrates: every timing is left unscaled."""

    def tick(self) -> float:
        return 1.0


def _where(path: str) -> str:
    """The greff module a code object comes from, or "(other)"."""
    p = Path(path)
    return f"greff.{p.stem}" if p.parent == ROOT / "src" / "greff" else "(other)"


def profile(workload: str, seed: int, scale: float = 1.0) -> pstats.Stats:
    g = load_greff(ROOT)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-") as work:
        w = WORKLOADS[workload](g, ROOT, Path(work), seed, scale)
        w.clock = _SteadyClock()
        w.setup()
        prof = cProfile.Profile()
        prof.runcall(w.run_pass)
    return pstats.Stats(prof)


def report(stats: pstats.Stats) -> list[str]:
    rows = stats.stats  # (file, line, function) -> (calls, ncalls, self, cumulative, callers)
    total = sum(r[2] for r in rows.values()) or 1.0
    by_module: dict[str, float] = collections.defaultdict(float)
    for (path, _, _), r in rows.items():
        by_module[_where(path)] += r[2]
    lines = [f"self time {total:.3f} s", "", f"{'module':24s} {'self s':>8s} {'share':>6s}"]
    for mod, t in sorted(by_module.items(), key=lambda kv: -kv[1]):
        lines.append(f"{mod:24s} {t:8.3f} {t / total:6.1%}")
    lines += ["", f"{'self s':>8s} {'calls':>9s}  function"]
    top = sorted(rows.items(), key=lambda kv: -kv[1][2])[:TOP]
    for (path, line, func), r in top:
        lines.append(f"{r[2]:8.3f} {r[1]:9d}  {_where(path)}:{line}({func})")
    return lines


def main(argv=None, scale: float = 1.0) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print("\n".join(report(profile(args.workload, args.seed, scale))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

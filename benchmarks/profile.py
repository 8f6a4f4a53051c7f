#!/usr/bin/env python3
"""cProfile over one repeat of a whole-stack benchmark workload.

    python3 benchmarks/profile.py --workload chaos_reconfig --seed 7

Runs one plain repeat of ``WORKLOADS[W]`` from
``benchmarks/stack/workloads.py`` at full scale, the same code the
benchmark times, with the profiler on over the timed region only: set-up
and the checks after the run are not in the profile.  Prints the 25
functions with the most self time and the 25 with the most cumulative
time, and writes nothing.  The first stop for a hot-path investigation:
the per-layer numbers of ``benchmarks/stack/run.py`` say which layer is
slow, this says which function.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Run as a script, this file's directory heads the path, and its name
# would shadow the standard library's ``profile``, which cProfile imports.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "stack")]

import argparse  # noqa: E402
import cProfile  # noqa: E402
import pstats  # noqa: E402

import workloads  # noqa: E402

TOP = 25


def top_functions(workload, seed, scale=1.0):
    """Profile one plain repeat of ``workload``.

    Returns the repeat's problems (empty when its checks passed) and
    ``{"self": rows, "cumulative": rows}``, each the ``TOP`` rows
    ``(self_s, cumulative_s, calls, "file:line(function)")`` with the
    most time of that kind.
    """
    profiler = cProfile.Profile()
    rep = workloads.Repeat(profiler=profiler)
    workloads.WORKLOADS[workload](rep, seed, scale)
    rows = [
        (self_s, cumulative_s, calls,
         f"{Path(file).name}:{line}({function})")
        for (file, line, function), (_, calls, self_s, cumulative_s, _)
        in pstats.Stats(profiler).stats.items()
    ]
    return rep.record["problems"], {
        "self": sorted(rows, reverse=True)[:TOP],
        "cumulative": sorted(rows, key=lambda r: r[1], reverse=True)[:TOP],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    problems, tables = top_functions(args.workload, args.seed)
    for kind, rows in tables.items():
        print(f"{args.workload}, seed {args.seed}: top {TOP} by {kind} "
              f"time, timed region only")
        print(f"{'self_s':>9} {'cumul_s':>9} {'calls':>9}  function")
        for self_s, cumulative_s, calls, where in rows:
            print(f"{self_s:9.4f} {cumulative_s:9.4f} {calls:9d}  {where}")
        print()
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

    python3 benchmarks/pairs.py --a ../parent --b . \\
        --workload fs_cached --seed 23 --pairs 10

A is a checkout of the parent commit, B one of the change.  Each pair
runs ``benchmarks/stack/run.py --workload W --seed S --seconds N
--trace 0`` once in A and once in B -- each checkout runs its own copy
of the benchmark on its own ``src/``, for the ``run_seconds`` that A's
``BENCHMARK.json`` fixes -- in the order A B, B A, A B, ..., so a host
that warms up or flips between a fast and a slow mode favours neither.
A run whose result is not ``correct`` or in which an operation failed
stops everything: a gain measured on wrong answers is not one.

Per end-to-end metric of ``BENCHMARK.json`` it prints every run made,
the median and quartiles of each side, in how many pairs B read better
(a tie -- the same reading to the last bit, whatever digits are printed
-- counts for neither side) and how far apart the medians are next to
A's interquartile range -- what a performance claim in CHANGES.md
has to show: at least ten pairs, B better in nine tenths of them, the
medians further apart than the parent's own spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNNER = Path("benchmarks") / "stack" / "run.py"


def summarise(a, b, better):
    """Compare paired readings of one metric.

    ``a[i]`` and ``b[i]`` are the parent's and the change's reading in
    pair ``i``; ``better`` is ``"higher"`` or ``"lower"``.  Returns the
    two medians, the two ``(Q1, Q3)``, the number of pairs in which B
    read better and in which the two read the same, the distance
    between the medians and A's interquartile range.
    """
    if len(a) != len(b) or not a:
        raise ValueError(f"unpaired readings: {len(a)} of A, {len(b)} of B")
    sign = {"higher": 1, "lower": -1}[better]

    def quartiles(values):
        if len(values) < 2:
            return values[0], values[0]
        q1, _median, q3 = statistics.quantiles(values, n=4)
        return q1, q3

    median_a, median_b = statistics.median(a), statistics.median(b)
    q_a = quartiles(a)
    return {
        "median_a": median_a,
        "median_b": median_b,
        "quartiles_a": q_a,
        "quartiles_b": quartiles(b),
        "b_better": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
        "ties": sum(x == y for x, y in zip(a, b)),
        "apart": abs(median_b - median_a),
        "iqr_a": q_a[1] - q_a[0],
    }


def measure(checkout, workload, seed, seconds):
    """One run of the benchmark in ``checkout``: ``{metric: value}``."""
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"error: run in {checkout} exited {done.returncode}:\n"
                 f"{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"error: run in {checkout} is not usable: correct="
                 f"{result['correct']}, failed={result['failed']} of "
                 f"{result['attempted']}")
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def report(metric, runs_a, runs_b) -> str:
    s = summarise(runs_a, runs_b, metric["better"])

    def side(label, runs, median, quartiles):
        return (f"  {label} {median:.6g} [{quartiles[0]:.6g}, "
                f"{quartiles[1]:.6g}]  runs: "
                + ", ".join(f"{value:.8g}" for value in runs))

    ties = f", {s['ties']} tied" if s["ties"] else ""
    return "\n".join((
        f"{metric['name']} ({metric['unit']}, {metric['better']} is better)",
        side("A", runs_a, s["median_a"], s["quartiles_a"]),
        side("B", runs_b, s["median_b"], s["quartiles_b"]),
        f"  B better in {s['b_better']}/{len(runs_a)} pairs{ties}; medians "
        f"{s['apart']:.6g} apart, A's interquartile range {s['iqr_a']:.6g}",
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--b", required=True, type=Path,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    schema = json.loads(
        (args.a / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = schema["run_seconds"]
    sides = {"A": args.a, "B": args.b}
    runs = {"A": [], "B": []}
    for pair in range(args.pairs):
        for label in ("AB" if pair % 2 == 0 else "BA"):
            reading = measure(sides[label], args.workload, args.seed, seconds)
            runs[label].append(reading)
            print(f"pair {pair + 1}/{args.pairs} {label}: " + ", ".join(
                f"{name} {value:.6g}" for name, value in reading.items()
            ), file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s, --trace 0; A = {args.a.resolve()}, "
          f"B = {args.b.resolve()}")
    for metric in schema["end_to_end"]:
        name = metric["name"]
        print(report(metric, [r[name] for r in runs["A"]],
                     [r[name] for r in runs["B"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Serial kernel throughput: events/sec through the simulator hot path.

Every experiment in this repository bottoms out in the serial
engine->network->protocol->device message loop, so this benchmark is the
yardstick every kernel change is measured against.  It times three
workloads on fixed seeds:

* ``scheduler``       -- the bare discrete-event engine: a rolling
  window of self-rescheduling timers with a cancellation mix (the
  schedule/fire/cancel path and nothing else);
* ``protocol``        -- a full simulated workload: a voting replica
  group under a Poisson open loop with failures and repairs (tracing
  off, the default);
* ``protocol-traced`` -- the same workload with the span tracer ON,
  which keeps the observability layer's tracing-*on* overhead measured
  at the protocol level (``benchmarks/stack``'s ``block_mcv_obs`` does
  the same through the whole device stack).

Each invocation appends one labelled record to the committed trajectory
``BENCH_kernel.json`` (``--label before`` / ``--label after``); an
``after`` record also reports its speedup against the most recent
``before`` at the same workload sizes.  ``make bench-kernel`` runs the
full sizes; ``--smoke`` runs tiny sizes and schema-checks the record
(the CI step).

Usage::

    python benchmarks/bench_kernel.py --label after
    python benchmarks/bench_kernel.py --smoke --out /tmp/kernel.json
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.device.cluster import ClusterConfig, ReplicatedCluster  # noqa: E402
from repro.obs.wiring import observe_cluster  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.types import SchemeName  # noqa: E402
from repro.workload.generator import WorkloadSpec  # noqa: E402
from repro.workload.runner import WorkloadRunner  # noqa: E402

TRAJECTORY = REPO_ROOT / "BENCH_kernel.json"

#: Record schema: required keys of one trajectory entry.
RECORD_KEYS = (
    "bench", "label", "utc", "python", "machine", "workloads",
    "tracing_on_overhead_pct",
)
WORKLOAD_KEYS = ("size", "seconds", "events_per_sec")

#: Each workload runs this many times and the fastest run is recorded:
#: the container's throughput drifts ~10% between invocations, and the
#: minimum wall time is the standard noise-resistant estimator.
DEFAULT_REPEATS = 3


# -- workload 1: the bare engine ----------------------------------------------

def bench_scheduler(events: int) -> dict:
    """Fire ``events`` callbacks through a rolling timer window.

    Each timer reschedules itself; every fourth firing also schedules a
    decoy and cancels it, so the cancelled-entry skip path stays on the
    clock.  The reported rate counts only real firings.
    """
    sim = Simulator()
    window = 1_000
    fired = 0
    done = events

    def tick(period: float) -> None:
        nonlocal fired
        fired += 1
        if fired % 4 == 0:
            sim.schedule(period * 3.0, _noop).cancel()
        if fired < done:
            sim.schedule(period, tick, period)

    def _noop() -> None:  # pragma: no cover - cancelled before firing
        pass

    for i in range(window):
        sim.schedule((i % 7) * 0.5 + 0.25, tick, (i % 7) * 0.5 + 0.25)
    start = time.perf_counter()
    sim.run()
    seconds = time.perf_counter() - start
    return {
        "size": events,
        "fired": fired,
        "seconds": round(seconds, 4),
        "events_per_sec": round(fired / seconds),
    }


# -- workloads 2 and 3: the full message loop ---------------------------------

def bench_protocol(operations: int, traced: bool) -> dict:
    """A Poisson workload against a voting group, failures running.

    ``operations`` sets the expected op count (rate x horizon); the
    reported rate divides the *attempted* operations by the wall time
    of the run.  ``traced`` turns the span tracer on, measuring the
    observability layer's tracing-on cost on the same seed.
    """
    cluster = ReplicatedCluster(ClusterConfig(
        scheme=SchemeName.VOTING,
        num_sites=5,
        num_blocks=64,
        failure_rate=0.02,
        repair_rate=1.0,
        seed=3,
    ))
    spans = 0
    obs = None
    if traced:
        obs = observe_cluster(cluster)
    runner = WorkloadRunner(
        cluster,
        WorkloadSpec(op_rate=2.0),
        metrics=obs.registry if obs is not None else None,
    )
    start = time.perf_counter()
    result = runner.run(duration=operations / 2.0)
    seconds = time.perf_counter() - start
    attempted = sum(result.attempted.values())
    if obs is not None:
        spans = len(obs.tracer.spans())
    return {
        "size": operations,
        "operations": attempted,
        "messages": cluster.meter.total,
        "spans": spans,
        "seconds": round(seconds, 4),
        "events_per_sec": round(attempted / seconds),
    }


# -- trajectory bookkeeping ---------------------------------------------------

def _best_of(repeats: int, run, *args) -> dict:
    """Fastest of ``repeats`` identical runs (each on the same seed).

    A full collection runs before each repeat so one repeat's garbage
    (the previous cluster, a traced run's span records) is not paid for
    by the next one's timed region; the collector still runs normally
    *inside* each repeat, so the measured rate includes the GC cost of
    the run's own allocations.
    """
    best = None
    for _ in range(repeats):
        gc.collect()
        result = run(*args)
        if best is None or result["events_per_sec"] > best["events_per_sec"]:
            best = result
    best["repeats"] = repeats
    return best


def measure(
    scheduler_events: int,
    protocol_ops: int,
    label: str,
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    workloads = {
        "scheduler": _best_of(repeats, bench_scheduler, scheduler_events),
        "protocol": _best_of(repeats, bench_protocol, protocol_ops, False),
        "protocol-traced": _best_of(
            repeats, bench_protocol, protocol_ops, True
        ),
    }
    off = workloads["protocol"]["events_per_sec"]
    on = workloads["protocol-traced"]["events_per_sec"]
    return {
        "bench": "kernel",
        "label": label,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": workloads,
        "tracing_on_overhead_pct": round(100.0 * (1.0 - on / off), 1),
    }


def _speedups(record: dict, history: list) -> dict:
    """events/sec ratios vs the latest same-sized ``before`` record."""
    for earlier in reversed(history):
        if earlier.get("label") != "before":
            continue
        ratios = {}
        for name, workload in record["workloads"].items():
            base = earlier.get("workloads", {}).get(name)
            if base and base.get("size") == workload["size"] \
                    and base.get("events_per_sec"):
                ratios[name] = round(
                    workload["events_per_sec"] / base["events_per_sec"], 2
                )
        if ratios:
            return ratios
    return {}


def validate_record(record: dict) -> list:
    """Schema-check one trajectory record; returns the violations."""
    problems = []
    for key in RECORD_KEYS:
        if key not in record:
            problems.append(f"missing key {key!r}")
    for name, workload in record.get("workloads", {}).items():
        for key in WORKLOAD_KEYS:
            if key not in workload:
                problems.append(f"workload {name!r} missing {key!r}")
        if workload.get("events_per_sec", 0) <= 0:
            problems.append(f"workload {name!r} has zero events/sec")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", default="after",
        help="trajectory label for this record (before / after / ...)",
    )
    parser.add_argument(
        "--out", type=Path, default=TRAJECTORY,
        help=f"trajectory file to append to (default {TRAJECTORY.name})",
    )
    parser.add_argument(
        "--scheduler-events", type=int, default=200_000,
        help="callbacks fired through the bare engine",
    )
    parser.add_argument(
        "--protocol-ops", type=int, default=4_000,
        help="expected operations of the protocol workloads",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="runs per workload; the fastest is recorded",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes + schema assertion (the CI step)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.scheduler_events = 2_000
        args.protocol_ops = 100
        args.repeats = 1

    record = measure(
        args.scheduler_events, args.protocol_ops, args.label, args.repeats
    )

    history = []
    if args.out.exists():
        history = json.loads(args.out.read_text(encoding="utf-8"))
    speedups = _speedups(record, history)
    if speedups:
        record["speedup_vs_before"] = speedups
    history.append(record)
    args.out.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )

    for name, workload in record["workloads"].items():
        line = (
            f"{name}: {workload['events_per_sec']:,} events/sec "
            f"({workload['seconds']}s)"
        )
        if name in speedups:
            line += f"  [{speedups[name]}x vs before]"
        print(line)
    print(
        f"tracing-on overhead: {record['tracing_on_overhead_pct']}%  "
        f"-> {args.out.name}"
    )

    problems = validate_record(record)
    if problems:
        print("SCHEMA PROBLEMS: " + "; ".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

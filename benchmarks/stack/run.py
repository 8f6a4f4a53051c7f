#!/usr/bin/env python3
"""Whole-stack benchmark: eight workloads, end to end and layer by layer.

One workload, as the benchmark driver calls it (last stdout line is the
result object; ``--trace 1`` gives the per-layer metrics instead of the
end-to-end ones)::

    python3 benchmarks/stack/run.py --workload fs_stream --seed 7 \\
        --seconds 12 --trace 0

Every workload, both passes, one record under ``benchmarks/stack/output/``::

    python3 benchmarks/stack/run.py [--seed N] [--smoke] [--out FILE]
    python3 benchmarks/stack/run.py compare A.json B.json

Metric names, units, directions and bounds are read from the root
``BENCHMARK.json``; see README.md in this directory for what they mean.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUTPUT = HERE / "output"

#: Floor on repeats per end-to-end run (and untraced repeats per traced run).
MIN_REPEATS, MIN_TRACE_REPEATS = 5, 3
SMOKE_SCALE = 0.02
#: A net span contains the reply handlers the network calls at each
#: destination (core closures over Site/BlockStore methods bound at
#: construction); none of that can be patched from outside, so net's
#: self time always comes from the profile attributor.
NO_LOWER_SEAM = {"net"}


def load_schema() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def prepare() -> None:
    """Put the program on the path and import what it depends on -- not
    the program itself: every child imports that on its own, so the time
    its modules take to load is part of each repeat's ``setup_s``."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: no program to measure under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    # About a second, nine tenths of it scipy.stats: too much to pay in
    # every child, and not the program's own code.
    import numpy  # noqa: F401
    import scipy.stats  # noqa: F401


# -- one repeat, in a child of its own

def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child and return its result.

    Forked, not spawned: a child forked after ``prepare`` has numpy and
    scipy loaded and otherwise starts from the same heap and GC state
    every time, which is what keeps repeats independent.  This process
    has no threads, so fork is safe."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def main():
        try:
            sender.send(("ok", fn(*args)))
        except BaseException:  # reported to the parent, which raises
            sender.send(("error", traceback.format_exc()))

    child = context.Process(target=main)
    child.start()
    sender.close()
    try:
        status, payload = receiver.recv()
    except EOFError:
        status, payload = "error", "child died without a result"
    child.join()
    if status != "ok":
        raise RuntimeError(f"repeat failed:\n{payload}")
    return payload


def one_repeat(name, seed, scale, mode="plain"):
    """``mode``: plain | spans | profile | reference (fs on a local disk)."""
    started = time.perf_counter()
    import spans
    import workloads  # the first import of the program in this process

    tracer = spans.SpanTracer() if mode == "spans" else None
    profiler = cProfile.Profile() if mode == "profile" else None
    rep = workloads.Repeat(tracer, profiler)
    imported = time.perf_counter() - started
    if mode == "reference":
        workloads.filesystem(
            rep, seed, scale, stream=name == "fs_stream", reference=True
        )
    else:
        workloads.WORKLOADS[name](rep, seed, scale)
    if tracer:
        OUTPUT.mkdir(exist_ok=True)
        tracer.dump(OUTPUT / f"spans-{name}.jsonl.gz")
    if profiler:
        seconds, calls = spans.bucket_profile(profiler)
        rep.record["profile_s"] = seconds
        rep.record["applies"] = (
            calls.get(("block.py", "read"), 0)
            + calls.get(("block.py", "write"), 0)
        )
    # Set-up has two phases; like the chunks of the timed region, each is
    # later taken at the fastest any repeat managed.
    rep.record["setup_s"] = [imported, rep.record["build_s"]]
    return rep.record


# -- end-to-end pass

def plain_repeats(name, seed, scale, seconds, floor):
    """Untraced repeats until ``seconds`` are used up, at least ``floor``."""
    records = []
    start = time.perf_counter()
    while True:
        records.append(in_child(one_repeat, name, seed, scale))
        spent = time.perf_counter() - start
        if len(records) >= floor and (
            spent + spent / len(records) > seconds
        ):
            return records


def check_repeats(name, seed, scale, records) -> list:
    """Every correctness problem of a set of repeats of one workload."""
    problems = [p for record in records for p in record["problems"]]
    if any(record["sim"] != records[0]["sim"] for record in records):
        problems.append(
            "non-deterministic: simulated counts differ between repeats"
        )
    if name.startswith("fs_"):
        reference = in_child(one_repeat, name, seed, scale, "reference")
        if reference["digest"] != records[0]["digest"]:
            problems.append("tree differs from the LocalBlockDevice run")
    return problems


def names(specs, values) -> list:
    """The declared metric names, which must be exactly the computed ones."""
    declared = [spec["name"] for spec in specs]
    if set(declared) != set(values):
        sys.exit(
            "error: BENCHMARK.json and run.py disagree on metrics: "
            f"{sorted(set(declared) ^ set(values))}"
        )
    return declared


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def fastest_chunks(records, key) -> list:
    """Per chunk of the timed region (or phase of set-up), the fastest
    execution any repeat saw.  Every repeat runs the same chunks (same
    seed, same ops), and the host flips between a fast and a ~35 % slower
    mode every second or so; the fastest of >= 5 executions of a 10 ms
    chunk is a far steadier estimate of its cost than any whole-repeat
    time."""
    return [min(column) for column in zip(*(r[key] for r in records))]


def in_workloads(function, *args):
    """Call a function of the ``workloads`` module (in a child, where the
    program may be imported)."""
    import workloads

    return getattr(workloads, function)(*args)


def end_to_end(records) -> dict:
    """The end-to-end metrics of a set of repeats of one workload.
    Simulated counts repeat exactly, so the first repeat's are used."""
    first = records[0]
    return {
        "ops_per_s": first["ops"] / sum(fastest_chunks(records, "chunk_s")),
        "op_p50_us": statistics.median(
            fastest_chunks(records, "chunk_p50_us")),
        "msgs_per_op": first["sim"]["msgs"] / first["ops"],
        "bytes_per_op": first["sim"]["bytes"] / first["ops"],
        "ok_op_share": first["ok"] / first["ok_of"],
        "setup_s": sum(fastest_chunks(records, "setup_s")),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }


def by_metric(subsets) -> dict:
    """Metric name -> its estimate from each subset of the repeats."""
    estimates = [end_to_end(subset) for subset in subsets]
    return {key: [e[key] for e in estimates] for key in estimates[0]}


# -- traced pass

def per_layer(name, seed, scale, plain, schema):
    """The per-layer metrics of one workload and how each was obtained.

    ``plain`` are untraced repeats; this adds one repeat under the span
    tracer, one under cProfile, and the few extra runs single layers need.
    """
    traced = in_child(one_repeat, name, seed, scale, "spans")
    profiled = in_child(one_repeat, name, seed, scale, "profile")
    ops, kops = traced["ops"], traced["ops"] / 1000.0
    rates = [r["ops"] / r["wall_s"] for r in plain]
    wall = sum(fastest_chunks(plain, "chunk_s"))
    # Counters a workload does not have (no cache, no view changes) read 0.
    count = collections.defaultdict(int, traced["counters"])
    stats, layers = traced["span_stats"], traced["layers_s"]
    shares = {
        layer: seconds / sum(profiled["profile_s"].values())
        for layer, seconds in profiled["profile_s"].items()
    }
    bypassed = {
        layer for seam, spans_say, counters_say, layers_hit
        in traced["seams"] if spans_say != counters_say
        for layer in layers_hit
    }
    mechanism = {}

    def self_us(layer, per=ops):
        """Self time of ``layer`` per ``per`` units, in microseconds: from
        spans where the layer has intact seams above and below, else from
        its share of the profile applied to the untraced wall time."""
        if not per or (layer not in layers and layer not in shares):
            return 0.0
        if layer in layers and layer not in bypassed | NO_LOWER_SEAM:
            mechanism[layer] = "spans"
            return layers[layer] / per * 1e6
        mechanism[layer] = (
            "profile (seam bypassed)" if layer in bypassed else "profile"
        )
        return shares.get(layer, 0.0) * wall / per * 1e6

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    transitions = count["transitions"]
    model = traced.get("model_msgs", 0.0)
    values = {
        "fs.self_us_per_op": self_us("fs"),
        "fs.dev_calls_per_op": ratio(count["driver.calls"], ops),
        "fs.dev_blocks_per_call": ratio(
            count["driver.blocks"], count["driver.calls"]),
        "device.driver.self_us_per_op": self_us("device.driver"),
        "device.driver.forwarded_per_op": ratio(
            count["driver.forwarded"], ops),
        "device.cache.self_us_per_op": self_us("device.cache"),
        "device.cache.hit_rate": ratio(
            count["cache.hits"], count["cache.accesses"]),
        "device.reliable.self_us_per_op": self_us("device.reliable"),
        "device.reliable.rounds_per_op": ratio(
            count["reliable.rounds"], ops),
        "device.reliable.retries_per_kop": ratio(
            count["reliable.retries"], kops),
        "device.reliable.failovers_per_kop": ratio(
            count["reliable.failovers"], kops),
        "device.reliable.op_p99_us": stats["reliable_p99_us"],
        "core.self_us_per_op": self_us("core"),
        "core.read_us_p50": stats["core_read_p50_us"],
        "core.write_us_p50": stats["core_write_p50_us"],
        "core.batch_blocks_per_round": ratio(
            stats["core_batch_blocks"], stats["core_batch_calls"]),
        "core.recovery_us_per_repair": ratio(
            stats["recovery_s"] * 1e6, stats["repairs"]),
        "core.recovery_msgs_per_repair": ratio(
            stats["recovery_msgs"], stats["repairs"]),
        "net.self_us_per_msg": self_us("net", count["msgs"]),
        "net.fanout_calls_per_op": ratio(stats["net_calls"], ops),
        "net.msgs_per_op": ratio(count["msgs"], ops),
        "net.bytes_per_op": ratio(count["bytes"], ops),
        "net.model_relerr": ratio(count["msgs"] - model, model),
        "device.site.self_us_per_apply": self_us(
            "device.site", profiled["applies"]),
        "device.site.applies_per_op": ratio(
            profiled["applies"], profiled["ops"]),
        "sim.engine.events_per_op": ratio(transitions, ops),
        "sim.engine.self_us_per_event": self_us("sim.engine", transitions),
        "sim.engine.sched_events_per_s": in_child(
            in_workloads, "scheduler_events_per_s",
            100_000 if scale >= 1.0 else 5_000),
        "sim.failures.transitions_per_s": ratio(transitions, wall),
        "sim.failures.self_us_per_transition": self_us(
            "sim.failures", transitions),
        "sim.avail_abs_err": traced.get("avail_abs_err", 0.0),
        "membership.view_changes": count["view_changes"],
        "membership.step_us_p50": stats["membership_step_p50_us"],
        "membership.catchup_msgs_per_change": ratio(
            count["catchup_msgs"], count["view_changes"]),
        "membership.stale_epoch_retries_per_kop": ratio(
            count["epoch_fences"], kops),
        "faults.injected_per_kop": ratio(count["injected"], kops),
        "faults.torn_per_kop": ratio(count["torn"], kops),
        "faults.checker_s": stats["checker_s"],
        "faults.scrub_s": stats["scrub_s"],
        "faults.violations": count["violations"],
        "obs.spans_per_op": ratio(traced.get("obs_spans", 0), ops),
        "obs.export_s": traced.get("obs_export_s", 0.0),
        "obs.trace_on_overhead_pct": 0.0,
        "exec.serial_overhead_pct": 0.0,
        "exec.speedup_jobs2": 0.0,
        "workload.gen_us_per_op": ratio(
            statistics.median(r["gen_s"] for r in plain) * 1e6, ops),
        "bench.span_overhead_pct": 100.0 * (
            1.0 - ratio(traced["ops"] / traced["wall_s"],
                        statistics.median(rates))),
        "bench.self_sum_pct": 100.0 * ratio(
            sum(layers.values()), traced["wall_s"]),
        "bench.noise_mad_pct": 100.0 * ratio(
            statistics.median(
                abs(rate - statistics.median(rates)) for rate in rates),
            statistics.median(rates)),
        "host.gc_collections_per_kop": ratio(
            statistics.median(r["gc"] for r in plain), kops),
        "setup.import_s": fastest_chunks(plain, "setup_s")[0],
        "setup.build_s": fastest_chunks(plain, "setup_s")[1],
    }
    flags = []
    if name == "block_mcv_obs":
        # The same op stream with observe_cluster() off.
        quiet = in_child(one_repeat, "block_mcv", seed, scale / 3.0)
        values["obs.trace_on_overhead_pct"] = 100.0 * (1.0 - ratio(
            statistics.median(rates), quiet["ops"] / quiet["wall_s"]))
    if name == "chaos_reconfig":
        timings = in_child(in_workloads, "chaos_exec", seed, scale)
        values["exec.serial_overhead_pct"] = 100.0 * (
            ratio(timings["jobs1_s"], timings["plain_s"]) - 1.0)
        values["exec.speedup_jobs2"] = ratio(
            timings["jobs1_s"], timings["jobs2_s"])
        if (os.cpu_count() or 1) < 2:
            flags.append("degraded_single_cpu")
    declared = names(schema["per_layer"], values)
    detail = {
        "span_self_s": layers,
        "profile_share": shares,
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": wall,
        "seams": [
            {"seam": seam, "spans": spans_say, "counters": counters_say,
             "ok": spans_say == counters_say}
            for seam, spans_say, counters_say, _ in traced["seams"]
        ],
        "mechanism": mechanism,
        "flags": flags,
        "problems": traced["problems"] + profiled["problems"],
    }
    return {key: float(values[key]) for key in declared}, detail


# -- reporting

def fingerprint() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def print_metrics(workload, specs, values) -> None:
    for spec in specs:
        bound = spec.get("bound")
        note = f"  bound {bound:.0%}" if bound is not None else ""
        print(
            f"{workload:15s} {spec['name']:40s} "
            f"{values[spec['name']]:>16.6g} {spec['unit']:6s} "
            f"{spec['better']} is better{note}"
        )


def print_detail(workload, detail) -> None:
    total = sum(detail["span_self_s"].values()) or 1.0
    for layer, seconds in sorted(
        detail["span_self_s"].items(), key=lambda item: -item[1]
    ):
        print(f"{workload:15s} span self  {layer:18s} {seconds:9.4f} s "
              f"{seconds / total:6.1%}")
    for layer, share in sorted(
        detail["profile_share"].items(), key=lambda item: -item[1]
    ):
        print(f"{workload:15s} profile    {layer:18s} {share:16.1%}")
    for seam in detail["seams"]:
        verdict = "ok" if seam["ok"] else "BYPASSED -> profile attributor"
        print(f"{workload:15s} seam  {seam['seam']}: spans "
              f"{seam['spans']} counters {seam['counters']}  {verdict}")
    for layer, how in sorted(detail["mechanism"].items()):
        print(f"{workload:15s} self time of {layer} from {how}")
    for flag in detail["flags"]:
        print(f"{workload:15s} flag  {flag}")


def run_workload(args, schema) -> int:
    """Driver contract: one workload, one pass, result object last."""
    name, scale = args.workload, SMOKE_SCALE if args.smoke else 1.0
    floor = 1 if args.smoke else (
        MIN_TRACE_REPEATS if args.trace else MIN_REPEATS
    )
    if args.trace:
        # Half the budget for untraced repeats; the traced and profiled
        # repeats and the single-layer extras take about the other half.
        plain = plain_repeats(
            name, args.seed, scale, args.seconds / 2.0, floor
        )
        metrics, detail = per_layer(name, args.seed, scale, plain, schema)
        problems = detail["problems"]
        print_detail(name, detail)
        specs = schema["per_layer"]
    else:
        plain = plain_repeats(name, args.seed, scale, args.seconds, floor)
        problems = []
        specs = schema["end_to_end"]
        metrics = end_to_end(plain)
        names(specs, metrics)
    problems += check_repeats(name, args.seed, scale, plain)
    print_metrics(name, specs, metrics)
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}")
    units = {spec["name"]: spec["unit"] for spec in specs}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["ops"] for r in plain),
        "failed": sum(r["failed"] for r in plain),
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }))
    return 1 if problems else 0


def run_all(args, schema) -> int:
    """Every workload, both passes; prints the tables, writes the record."""
    scale = SMOKE_SCALE if args.smoke else 1.0
    record = {
        "bench": "stack", "seed": args.seed, "scale": scale,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": fingerprint(), "workloads": {},
    }
    failed = []
    for workload in schema["workloads"]:
        name = workload["name"]
        floor = 1 if args.smoke else MIN_REPEATS
        seconds = 0.0 if args.smoke else args.seconds
        plain = plain_repeats(name, args.seed, scale, seconds, floor)
        problems = check_repeats(name, args.seed, scale, plain)
        values = end_to_end(plain)
        # Each repeat on its own is the raw measurement; all but one shows
        # how far a single repeat can move the estimate.
        alone = by_metric([[r] for r in plain])
        without = by_metric(
            [plain[:i] + plain[i + 1:] for i in range(len(plain))]
            if len(plain) > 1 else [plain]
        )
        layer_values, detail = per_layer(
            name, args.seed, scale, plain, schema
        )
        problems += detail["problems"]
        summary = {}
        for spec in schema["end_to_end"]:
            key = spec["name"]
            q1, median, q3 = quartiles(alone[key])
            summary[key] = {
                **spec, "value": values[key], "repeats": alone[key],
                "median": median, "q1": q1, "q3": q3,
                "leave_one_out": without[key],
            }
        print_metrics(name, schema["end_to_end"], values)
        print_metrics(name, schema["per_layer"], layer_values)
        print_detail(name, detail)
        for problem in problems:
            print(f"{name}: CHECK FAILED: {problem}")
            failed.append(name)
        record["workloads"][name] = {
            "why": workload["why"],
            "repeats": len(plain),
            "attempted": sum(r["ops"] for r in plain),
            "failed": sum(r["failed"] for r in plain),
            "correct": not problems,
            "problems": problems,
            "end_to_end": summary,
            "per_layer": layer_values,
            "attribution": detail,
        }
    record["summary"] = {
        "correct": not failed,
        "failed_workloads": sorted(set(failed)),
        "claim": None,
    }
    OUTPUT.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else (
        OUTPUT / f"record-{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record written to {out}")
    return 1 if failed else 0


# -- compare

def verdict(before, after) -> str:
    """better / worse / unchanged / unresolved for one metric x workload,
    by the rule of the choosing-metrics guide: unresolved when the spread
    exceeds the bound, unless the two sides do not overlap.  The spread of
    an estimate is the range of its leave-one-repeat-out values."""
    base, bound = before["value"], before["bound"]
    if after["value"] == base:
        return "unchanged"
    sign = 1.0 if before["better"] == "lower" else -1.0
    worsening = sign * (after["value"] - base) / abs(base)
    ours, theirs = before["leave_one_out"], after["leave_one_out"]
    apart = max(theirs) < min(ours) or min(theirs) > max(ours)
    spread = max(
        max(ours) - min(ours), max(theirs) - min(theirs)
    ) / abs(base)
    if spread > bound and not apart:
        return f"unresolved (spread {spread:.1%})"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "unchanged"


def compare(path_a, path_b) -> int:
    with open(path_a, encoding="utf-8") as a, \
            open(path_b, encoding="utf-8") as b:
        before, after = json.load(a), json.load(b)
    worse = 0
    for name, entry in before["workloads"].items():
        other = after["workloads"].get(name)
        if other is None:
            print(f"{name:15s} missing from {path_b}")
            continue
        cells = []
        for metric, cell in entry["end_to_end"].items():
            outcome = verdict(cell, other["end_to_end"][metric])
            worse += outcome == "worse"
            cells.append(
                f"{metric} {cell['value']:.6g}->"
                f"{other['end_to_end'][metric]['value']:.6g} {outcome}"
            )
        print(f"{name:15s} " + "; ".join(cells))
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    schema = load_schema()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in schema["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(schema["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, one repeat: checks the plumbing, not the speed")
    parser.add_argument("--out", help="record path (all-workloads mode)")
    args = parser.parse_args(argv)
    prepare()
    if args.workload:
        return run_workload(args, schema)
    return run_all(args, schema)


if __name__ == "__main__":
    sys.exit(main())

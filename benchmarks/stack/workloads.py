"""The eight workloads of the whole-stack benchmark.

Each workload function builds its slice of the stack (set-up), runs a
closed loop of generated operations against it (the timed region, inside
``rep.timed``), checks what came back, and fills in one repeat record.
Everything the program sees is generated from ``seed`` by this file; the
program's own generators (``repro.workload``) are not used.

With a :class:`spans.SpanTracer` the same code runs with a timing closure
at every seam reachable from outside (see ``trace_*`` below).
"""

from __future__ import annotations

import gc
import hashlib
import io
import random
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np

import repro.faults.chaos as chaos_module
from repro.analysis.availability import scheme_availability
from repro.analysis.traffic import traffic_model
from repro.device.cluster import ClusterConfig, ReplicatedCluster
from repro.device.driver import DeviceDriverStub
from repro.device.local import LocalBlockDevice
from repro.device.reliable import RetryPolicy
from repro.errors import DeviceError
from repro.exec import ParallelRunner
from repro.exec.seeding import derive_seed
from repro.faults.chaos import ChaosConfig, run_chaos, run_chaos_campaign
from repro.fs import FileSystem
from repro.obs.wiring import observe_cluster
from repro.sim.engine import Simulator
from repro.types import SchemeName

from spans import durations_us, percentile

clock = time.perf_counter

MCV = SchemeName.VOTING
AC = SchemeName.AVAILABLE_COPY
NAC = SchemeName.NAIVE_AVAILABLE_COPY

#: avail_mc fails its check above this |simulated - analytic| availability.
AVAIL_ABS_ERR_CEILING = 0.01

READ_WRITE_RATIO = 2.5


class Repeat:
    """One repeat: times set-up and the timed region, collects the record.

    A ``tracer`` records spans, a ``profiler`` runs, over the timed region
    only."""

    def __init__(self, tracer=None, profiler=None) -> None:
        self.tracer = tracer
        self.profiler = profiler
        self.record: dict = {
            "problems": [], "seams": [], "chunk_s": [], "chunk_p50_us": [],
        }
        self._started = self._mark = clock()

    @contextmanager
    def timed(self, counters=None):
        """The timed region.  ``counters()`` is sampled on entry and exit;
        the record keeps the differences, so set-up traffic is excluded."""
        tracer, profiler = self.tracer, self.profiler
        before = counters() if counters else {}
        collections = _gc_collections()
        self.record["build_s"] = clock() - self._started
        root = nullcontext()
        if tracer:
            tracer.live = True
            root = tracer.span("run", "bench")
        if profiler:
            profiler.enable()
        start = self._mark = clock()
        with root:
            yield
        self.record["wall_s"] = clock() - start
        if profiler:
            profiler.disable()
        if tracer:
            tracer.live = False
        self.record["rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        self.record["gc"] = _gc_collections() - collections
        after = counters() if counters else {}
        self.record["counters"] = {k: after[k] - before[k] for k in after}

    def chunk(self, latencies=None, ops=0) -> None:
        """Close one chunk of the timed region: a few milliseconds of ops,
        the same ops in every repeat.  The host alternates between a fast
        and a slow mode on a scale of seconds, so run.py rebuilds each
        timing from the fastest execution seen of every chunk.  Give the
        per-op ``latencies`` of the chunk, or its ``ops`` count where
        single ops cannot be timed."""
        now = clock()
        spent, self._mark = now - self._mark, now
        self.record["chunk_s"].append(spent)
        self.record["chunk_p50_us"].append(
            statistics.median(latencies) * 1e6 if latencies
            else spent / max(ops, 1) * 1e6
        )

    def problem(self, text: str) -> None:
        self.record["problems"].append(text)

    def seam(self, name, spans_say, counters_say, layers) -> None:
        """Span-vs-counter cross-check at one seam (traced pass only).
        ``layers`` are the ones whose span self time a mismatch voids."""
        self.record["seams"].append(
            (name, spans_say, counters_say, layers)
        )


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _transitions(cluster) -> int:
    """Failures plus repairs so far, from the sites' public counters."""
    failures = sum(site.failures for site in cluster.sites)
    down = sum(1 for site in cluster.sites if not site.is_reachable)
    return 2 * failures - down


# -- seams

def _blocks_moved(args, result):
    """Blocks one BlockDevice call moved, as ``DeviceStats`` counts them."""
    if isinstance(result, dict):  # read_blocks
        return len(result)
    if result is None and isinstance(args[0], dict):  # write_blocks
        return len(args[0])
    return 1


def _read_accesses(args, result):
    """Read accesses of one call, as ``CacheStats.accesses`` counts them."""
    if isinstance(result, dict):
        return len(args[0])
    return 0 if result is None else 1


DEVICE_CALLS = ("read_block", "write_block", "read_blocks", "write_blocks")
NETWORK_CALLS = (
    "broadcast_query", "broadcast_round", "broadcast_oneway",
    "unicast_query", "unicast_oneway",
)


def trace_device(tracer, device, layer, weigh=_blocks_moved, client=False):
    for call in DEVICE_CALLS:
        tracer.patch(device, call, layer, weigh=weigh, client=client)


def trace_protocol(tracer, protocol):
    """Spans on the protocol's operations and recovery hooks (``core``) and
    on every network entry point (``net``).  Batch operations weigh their
    blocks; recovery and network spans weigh transmissions."""
    meter = protocol.meter

    def sent():
        return meter.total

    for call in ("read", "write"):
        tracer.patch(protocol, call, "core")
    for call in ("read_batch", "write_batch"):
        tracer.patch(
            protocol, call, "core", weigh=lambda args, _: len(args[1])
        )
    for call in ("on_site_failed", "on_site_repaired"):
        tracer.patch(protocol, call, "core", gauge=sent)
    for call in NETWORK_CALLS:
        tracer.patch(protocol.network, call, "net", gauge=sent)


def _is_recovery(span) -> bool:
    return ".on_site_" in span[0]


def _check_protocol_seams(rep, counters):
    tracer = rep.tracer
    rep.seam(
        "reliable->core calls == FaultStats rounds",
        sum(1 for s in tracer.select("core") if not _is_recovery(s)),
        counters["reliable.rounds"],
        ("device.reliable", "core"),
    )
    _check_net_seam(rep, counters)


def _check_net_seam(rep, counters):
    rep.seam(
        "core->net transmissions == TrafficMeter.total",
        rep.tracer.weight("net", outermost=True),
        counters["msgs"],
        ("core", "net"),
    )


def _trace_summary(rep):
    """Layer self times and the span-derived numbers of the traced pass."""
    tracer = rep.tracer
    core = tracer.select("core")
    recovery = [s for s in core if _is_recovery(s)]
    batches = [s for s in core if s[0].endswith("_batch")]

    def seconds(spans):
        return sum(s[3] - s[2] for s in spans)

    rep.record["layers_s"] = tracer.self_seconds()
    rep.record["span_stats"] = {
        "reliable_p99_us": percentile(durations_us(
            tracer.select("device.reliable", outermost=True)), 0.99),
        "core_read_p50_us": percentile(durations_us(
            [s for s in core if ".read" in s[0]]), 0.5),
        "core_write_p50_us": percentile(durations_us(
            [s for s in core if ".write" in s[0]]), 0.5),
        "core_batch_calls": len(batches),
        "core_batch_blocks": sum(s[6] for s in batches),
        "recovery_s": seconds(recovery),
        "recovery_msgs": sum(s[6] for s in recovery),
        "repairs": sum(
            1 for s in recovery if s[0].endswith("on_site_repaired")),
        "net_calls": len(tracer.select("net", outermost=True)),
        # Most steps find no window open and return at once; the ones
        # that sent catch-up traffic are the ones worth a median.
        "membership_step_p50_us": percentile(durations_us(
            [s for s in tracer.select("membership") if s[6]]), 0.5),
        "checker_s": seconds(tracer.select("faults.checker")),
        "scrub_s": seconds(tracer.select("faults.scrub")),
    }


# -- block_* : single-block ops through the reliable device

def block(rep, seed, scale, scheme, observe=False, ops_full=60_000):
    """``ops_full * scale`` single-block reads and writes (2.5:1, uniform
    over 256 blocks) arriving at 20 per sim-time unit while sites fail
    (lambda=0.02) and repair (mu=1).  The device fails over and retries
    with sim-clock backoff, so a momentary quorum loss delays an op
    instead of failing it."""
    count = max(200, int(ops_full * scale))
    chunk_ops = ops_full // 100
    num_blocks, rate, lam = 256, 20.0, 0.02
    cluster = ReplicatedCluster(ClusterConfig(
        scheme=scheme, num_sites=5, num_blocks=num_blocks,
        failure_rate=lam, repair_rate=1.0, seed=seed,
    ))
    obs = observe_cluster(cluster) if observe else None
    device = cluster.device(
        retry=RetryPolicy(max_attempts=6, initial_delay=1.0)
    )
    if rep.tracer:
        trace_device(rep.tracer, device, "device.reliable", client=True)
        trace_protocol(rep.tracer, cluster.protocol)

    started = clock()
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, count)).tolist()
    is_write = (
        rng.random(count) < 1.0 / (1.0 + READ_WRITE_RATIO)
    ).tolist()
    blocks = rng.integers(0, num_blocks, count).tolist()
    payloads = [
        rng.bytes(device.block_size) for _ in range(16)
    ]
    ops = list(zip(arrivals, is_write, blocks))
    rep.record["gen_s"] = clock() - started

    cluster.start_failures()
    sim = cluster.sim
    advance = sim.run
    if rep.tracer:
        advance = rep.tracer.wrap(sim.run, "Simulator.run", "sim")
    read, write = device.read_block, device.write_block
    meter = cluster.meter

    def counters():
        faults, stats = device.fault_stats, device.stats
        return {
            "reliable.blocks": stats.reads + stats.writes,
            "reliable.rounds": faults.read_rounds + faults.write_rounds,
            "reliable.retries": faults.retries,
            "reliable.failovers": faults.failovers,
            "msgs": meter.total,
            "bytes": meter.total_bytes,
            "transitions": _transitions(cluster),
            "failures": sum(site.failures for site in cluster.sites),
        }

    shadow = [device.zero_block()] * num_blocks
    failed = wrong = 0
    with rep.timed(counters):
        for first in range(0, count, chunk_ops):
            latencies = []
            for index in range(first, min(first + chunk_ops, count)):
                arrival, writes, block_index = ops[index]
                if arrival > sim.now:
                    advance(until=arrival)
                start = clock()
                try:
                    if writes:
                        data = payloads[index & 15]
                        write(block_index, data)
                        shadow[block_index] = data
                    elif read(block_index) != shadow[block_index]:
                        wrong += shadow[block_index] is not None
                except DeviceError:
                    failed += 1
                    if writes:  # may have reached some sites: either value
                        shadow[block_index] = None
                latencies.append(clock() - start)
            rep.chunk(latencies)

    for index in range(num_blocks):
        if device.read_block(index) != shadow[index]:
            wrong += shadow[index] is not None
    if wrong:
        rep.problem(f"{wrong} reads did not return the latest write")
    counted = rep.record["counters"]
    repairs = counted["transitions"] - counted["failures"]
    model = traffic_model(scheme, 5, lam)
    write_share = sum(is_write) / count
    rep.record.update(
        ops=count, failed=failed + wrong, ok=count - failed - wrong,
        ok_of=count,
        model_msgs=(
            count * (write_share * model.write
                     + (1.0 - write_share) * model.read)
            + repairs * model.recovery
        ),
        sim={"ops": count, "failed": failed, "msgs": counted["msgs"],
             "bytes": counted["bytes"],
             "transitions": counted["transitions"]},
    )
    if obs is not None:
        rep.record["obs_spans"] = len(obs.tracer)
        if rep.tracer:
            # Traced pass only: serialising the records takes longer than
            # the run that made them.  Exported to memory, not to a file.
            start = clock()
            obs.tracer.export(io.StringIO())
            rep.record["obs_export_s"] = clock() - start
    if rep.tracer:
        _check_protocol_seams(rep, counted)
        rep.seam(
            "client->reliable blocks == DeviceStats blocks moved",
            rep.tracer.weight("device.reliable"),
            counted["reliable.blocks"],
            ("device.reliable",),
        )
        _trace_summary(rep)


# -- fs_* : the file system vertical

def _fs_cached_ops(rng, scale):
    """200 files of 300 B in 10 directories; 70% whole-file reads, 20%
    partial overwrites, 10% stats."""
    dirs = [f"/d{d}" for d in range(10)]
    paths = [f"{d}/f{f}" for d in dirs for f in range(20)]
    preload = [("mkdir", d, None, 0) for d in dirs]
    for path in paths:
        preload.append(("create", path, None, 0))
        preload.append(("write", path, rng.randbytes(300), 0))
    ops = []
    for _ in range(max(100, int(15_000 * scale))):
        draw, path = rng.random(), rng.choice(paths)
        if draw < 0.7:
            ops.append(("read", path, None, 0))
        elif draw < 0.9:
            offset = rng.randrange(0, 250)
            ops.append(
                ("write", path, rng.randbytes(rng.randrange(1, 50)), offset)
            )
        else:
            ops.append(("stat", path, None, 0))
    return preload, ops


def _fs_stream_ops(rng, scale, block_size):
    """Write 24 files of 64 KiB in 8-block calls, overwrite them in place,
    read them back twice."""
    files = max(1, int(24 * scale))
    chunk, per_file = 8 * block_size, 16
    paths = [f"/s{f}" for f in range(files)]
    preload = [("create", path, None, 0) for path in paths]
    ops = []
    for kind in ("write", "write", "read", "read"):
        for path in paths:
            for call in range(per_file):
                data = rng.randbytes(chunk) if kind == "write" else chunk
                ops.append((kind, path, data, call * chunk))
    return preload, ops


def filesystem(rep, seed, scale, stream, reference=False):
    """``FileSystem`` on ``DeviceDriverStub`` (+ ``BufferCache``) on the
    reliable device over MCV, n=5 -- or, as the reference, the same call
    list on a ``LocalBlockDevice``.  Every byte read, every stat and the
    final tree go into one digest that must match the reference's."""
    num_blocks, cache_blocks = (8192, 64) if stream else (1024, 256)
    cluster = ReplicatedCluster(ClusterConfig(
        scheme=MCV, num_sites=5, num_blocks=num_blocks,
        failure_rate=0.0, repair_rate=1.0, seed=seed,
    ))
    device = cluster.device()
    backing = (
        LocalBlockDevice(num_blocks, device.block_size) if reference
        else device
    )
    stub = DeviceDriverStub(backing, cache_blocks=cache_blocks)
    cache = stub.cache
    fs = FileSystem.format(stub, num_inodes=256)
    calls = {
        "read": fs.read_file, "write": fs.write_file, "stat": fs.stat,
        "create": fs.create, "mkdir": fs.mkdir,
    }
    tracer = rep.tracer
    if tracer:
        for kind in ("read", "write", "stat"):
            calls[kind] = tracer.wrap(
                calls[kind], f"FileSystem.{kind}", "fs", client=True
            )
        trace_device(tracer, stub, "device.driver")
        trace_device(tracer, cache, "device.cache", weigh=_read_accesses)
        trace_device(tracer, device, "device.reliable")
        trace_protocol(tracer, cluster.protocol)

    started = clock()
    rng = random.Random(seed)
    if stream:
        preload, ops = _fs_stream_ops(rng, scale, device.block_size)
    else:
        preload, ops = _fs_cached_ops(rng, scale)
    rep.record["gen_s"] = clock() - started
    for kind, path, data, offset in preload:
        if kind == "write":
            calls[kind](path, data, offset)
        else:
            calls[kind](path)

    # fs_cached takes the origin site down for a quarter of the run: the
    # device fails over, and the repaired origin serves from copies that
    # missed the writes in between (three of five sites stay up).
    protocol = cluster.protocol
    events = {}
    if not stream and not reference:
        events[len(ops) // 4] = lambda: protocol.on_site_failed(0)
        events[len(ops) // 2] = lambda: protocol.on_site_repaired(0)
    meter = cluster.meter

    def counters():
        stats, faults = stub.stats, device.fault_stats
        return {
            "driver.blocks": stats.reads + stats.writes,
            "driver.calls": (
                stats.reads - stats.batch_read_blocks + stats.batch_reads
                + stats.writes - stats.batch_write_blocks
                + stats.batch_writes
            ),
            "driver.forwarded": stub.forwarded,
            "cache.hits": cache.cache_stats.hits,
            "cache.accesses": cache.cache_stats.accesses,
            "reliable.blocks": device.stats.reads + device.stats.writes,
            "reliable.rounds": faults.read_rounds + faults.write_rounds,
            "reliable.retries": faults.retries,
            "reliable.failovers": faults.failovers,
            "msgs": meter.total,
            "bytes": meter.total_bytes,
        }

    digest = hashlib.sha256()
    failed = 0
    read_file, write_file, stat = calls["read"], calls["write"], calls["stat"]
    chunk_ops = 16 if stream else 150
    with rep.timed(counters):
        for first in range(0, len(ops), chunk_ops):
            latencies = []
            for index in range(first, min(first + chunk_ops, len(ops))):
                kind, path, data, offset = ops[index]
                if index in events:
                    events[index]()
                start = clock()
                try:
                    if kind == "read":
                        digest.update(read_file(path, offset, data))
                    elif kind == "write":
                        write_file(path, data, offset)
                    else:
                        found = stat(path)
                        digest.update(repr((
                            found.file_type.value, found.size, found.blocks
                        )).encode())
                except DeviceError:
                    failed += 1
                latencies.append(clock() - start)
            rep.chunk(latencies)

    for path in fs.walk("/"):
        found = fs.stat(path)
        digest.update(repr((path, found.is_directory, found.size)).encode())
        if not found.is_directory:
            digest.update(fs.read_file(path))
    counted = rep.record["counters"]
    rep.record.update(
        ops=len(ops), failed=failed, ok=len(ops) - failed, ok_of=len(ops),
        digest=digest.hexdigest(),
        sim={"ops": len(ops), "failed": failed, "msgs": counted["msgs"],
             "bytes": counted["bytes"], "digest": digest.hexdigest()},
    )
    if tracer:
        _check_protocol_seams(rep, counted)
        rep.seam(
            "fs->driver blocks == DeviceStats blocks moved",
            tracer.weight("device.driver"),
            counted["driver.blocks"],
            ("fs", "device.driver"),
        )
        rep.seam(
            "driver->cache read accesses == CacheStats.accesses",
            tracer.weight("device.cache"),
            counted["cache.accesses"],
            ("device.driver", "device.cache"),
        )
        rep.seam(
            "cache->reliable blocks == stub.forwarded",
            tracer.weight("device.reliable"),
            counted["driver.forwarded"],
            ("device.cache", "device.reliable"),
        )
        _trace_summary(rep)


# -- avail_mc : failure and repair processes only

def avail(rep, seed, scale):
    """No client ops: MCV, AC and NAC groups (n=5, lambda=0.2, mu=1) run to
    a fixed horizon; an op is one site transition.  Simulated availability
    must agree with the analytic value."""
    horizon, slices, lam = 12_000.0 * scale, 40, 0.2
    clusters = [
        ReplicatedCluster(ClusterConfig(
            scheme=scheme, num_sites=5, num_blocks=256,
            failure_rate=lam, repair_rate=1.0, seed=seed,
        ))
        for scheme in (MCV, AC, NAC)
    ]
    expected = [
        scheme_availability(c.config.scheme, 5, lam) for c in clusters
    ]
    runs = [c.run_until for c in clusters]
    if rep.tracer:
        for cluster in clusters:
            trace_protocol(rep.tracer, cluster.protocol)
        runs = [
            rep.tracer.wrap(run, "ReplicatedCluster.run_until", "sim")
            for run in runs
        ]
    rep.record["gen_s"] = 0.0

    def counters():
        return {
            "msgs": sum(c.meter.total for c in clusters),
            "bytes": sum(c.meter.total_bytes for c in clusters),
            "transitions": sum(_transitions(c) for c in clusters),
            "failures": sum(
                site.failures for c in clusters for site in c.sites
            ),
        }

    with rep.timed(counters):
        for cluster, run in zip(clusters, runs):
            seen = 0
            for index in range(1, slices + 1):
                run(horizon * index / slices)
                total = _transitions(cluster)
                rep.chunk(ops=total - seen)
                seen = total

    errors = [
        abs(c.availability() - want) for c, want in zip(clusters, expected)
    ]
    over = sum(1 for error in errors if error > AVAIL_ABS_ERR_CEILING)
    if scale < 1.0:
        over = 0  # a smoke horizon is too short to converge
    if over:
        rep.problem(
            f"availability off by {max(errors):.4f} "
            f"(ceiling {AVAIL_ABS_ERR_CEILING})"
        )
    counted = rep.record["counters"]
    repairs = counted["transitions"] - counted["failures"]
    rep.record.update(
        ops=counted["transitions"], failed=over,
        ok=counted["transitions"], ok_of=counted["transitions"],
        avail_abs_err=max(errors),
        model_msgs=repairs / 3.0 * sum(
            traffic_model(c.config.scheme, 5, lam).recovery
            for c in clusters
        ),
        sim={"ops": counted["transitions"], "msgs": counted["msgs"],
             "bytes": counted["bytes"],
             "availability": [c.availability() for c in clusters]},
    )
    if rep.tracer:
        _check_net_seam(rep, counted)
        _trace_summary(rep)


# -- chaos_reconfig : faults, retries, scrubs and view changes

CHAOS_RUNS = 8


def chaos_configs(seed, scale):
    """Two campaign cells, 8 derived seeds each, with batched steps and
    planned plus crash-triggered reconfigurations: NAC under the default
    fault mix, MCV under the default mix minus bit rot.

    MCV with bit rot *and* view changes returns a stale read about once in
    1 300 runs (README, Findings), and AC fails the checker outright; a
    workload on which ops fail cannot gate anything, so those cells wait
    for the fixes."""
    steps = max(100, int(1_200 * scale))
    common = dict(
        seed=seed, operations=steps, batch_rate=0.3, reconfigure_rate=0.02
    )
    return [
        ChaosConfig(scheme=MCV, corrupt_weight=0.0, **common),
        ChaosConfig(scheme=NAC, **common),
    ]


def _traced_class(cls, instrument):
    """``cls`` whose instances are instrumented as they are built."""

    class Traced(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            instrument(self)

    Traced.__name__ = cls.__name__
    return Traced


def trace_chaos(tracer, devices):
    """Point ``repro.faults.chaos`` at instrumented classes.  Runs in a
    child process of its own, so nothing needs restoring."""
    def device(built):
        trace_device(tracer, built, "device.reliable")
        devices.append(built)

    for name, instrument in (
        ("VotingProtocol", lambda p: trace_protocol(tracer, p)),
        ("NaiveAvailableCopyProtocol", lambda p: trace_protocol(tracer, p)),
        ("ReliableDevice", device),
        ("MembershipManager", lambda m: tracer.patch(
            m, "step", "membership", gauge=lambda: m.protocol.meter.total)),
        ("HistoryRecorder",
         lambda r: tracer.patch(r, "check", "faults.checker")),
    ):
        setattr(chaos_module, name, _traced_class(
            getattr(chaos_module, name), instrument
        ))
    chaos_module.scrub_replicas = tracer.wrap(
        chaos_module.scrub_replicas, "scrub_replicas", "faults.scrub"
    )
    chaos_module.run_chaos = tracer.wrap(
        chaos_module.run_chaos, "run_chaos", "faults", client=True
    )


def chaos(rep, seed, scale):
    """``run_chaos_campaign(jobs=1)`` over the two cells; an op is one
    client step.  The history checker and the corruption audit of every
    run must come back clean."""
    configs = chaos_configs(seed, scale)
    runner = ParallelRunner(jobs=1, name="chaos")
    devices: list = []
    if rep.tracer:
        trace_chaos(rep.tracer, devices)
    rep.record["gen_s"] = 0.0
    results = []
    with rep.timed():
        for config in configs:
            results.extend(
                run_chaos_campaign(config, CHAOS_RUNS, runner=runner)
            )
            # A chunk is one run, as the runner itself timed it.
            for seconds in runner.stats.task_seconds:
                rep.record["chunk_s"].append(seconds)
                rep.record["chunk_p50_us"].append(
                    seconds / config.operations * 1e6
                )

    steps = sum(r.operations for r in results)
    ok = sum(r.reads_ok + r.writes_ok for r in results)
    refused = sum(r.reads_failed + r.writes_failed for r in results)
    bad = sum(
        len(r.violations) + len(r.unaccounted_corruptions)
        + int(r.reconfig_pending) for r in results
    )
    if bad:
        rep.problem(
            f"{bad} checker violations, unaccounted corruptions or "
            f"view changes left open"
        )
    counted = {
        "msgs": sum(r.messages for r in results),
        "bytes": sum(r.bytes_total for r in results),
        "reliable.retries": sum(r.retries for r in results),
        "reliable.failovers": sum(r.failovers for r in results),
        "view_changes": sum(r.view_changes for r in results),
        "catchup_msgs": sum(r.catchup_messages for r in results),
        "epoch_fences": sum(r.epoch_fences for r in results),
        "injected": sum(r.injected.total_faults for r in results),
        "torn": sum(r.torn_writes for r in results),
        "violations": sum(len(r.violations) for r in results),
    }
    if devices:
        counted["reliable.rounds"] = sum(
            d.fault_stats.read_rounds + d.fault_stats.write_rounds
            for d in devices
        )
    rep.record.update(
        counters=counted, ops=steps, failed=bad, ok=ok - bad,
        ok_of=ok + refused,
        sim={"ops": steps, "ok": ok, "refused": refused,
             "msgs": counted["msgs"], "bytes": counted["bytes"],
             "view_changes": counted["view_changes"]},
    )
    if rep.tracer:
        _check_protocol_seams(rep, counted)
        _trace_summary(rep)


def chaos_exec(seed, scale):
    """The campaign three ways, for the ``exec`` layer: a plain loop over
    the derived seeds, ``ParallelRunner(jobs=1)`` and ``jobs=2``."""
    configs = chaos_configs(seed, scale)

    def plain():
        for config in configs:
            for index in range(CHAOS_RUNS):
                run_chaos(replace(config, seed=derive_seed(
                    config.seed, index, f"chaos:{config.scheme.value}"
                )))

    def campaign(jobs):
        for config in configs:
            run_chaos_campaign(config, CHAOS_RUNS, jobs=jobs)

    timings = {}
    for name, fn in (
        ("plain_s", plain),
        ("jobs1_s", lambda: campaign(1)),
        ("jobs2_s", lambda: campaign(2)),
    ):
        start = clock()
        fn()
        timings[name] = clock() - start
    return timings


# -- the bare scheduler, timed through schedule/run

def scheduler_events_per_s(events=100_000):
    """A rolling window of self-rescheduling timers with a cancellation
    mix -- the loop ``BENCH_kernel.json`` tracked, kept as a layer metric."""
    sim = Simulator()
    state = {"fired": 0}

    def fire(gap):
        state["fired"] += 1
        if state["fired"] + 1_000 <= events:
            sim.schedule(gap, fire, gap)
        if state["fired"] % 4 == 0:
            sim.schedule(gap * 2.0, fire, gap).cancel()

    for index in range(1_000):
        gap = 1.0 + (index % 17) * 0.25
        sim.schedule(gap, fire, gap)
    start = clock()
    sim.run()
    return state["fired"] / (clock() - start)


WORKLOADS = {
    "block_mcv": lambda rep, seed, scale: block(rep, seed, scale, MCV),
    "block_ac": lambda rep, seed, scale: block(rep, seed, scale, AC),
    "block_nac": lambda rep, seed, scale: block(rep, seed, scale, NAC),
    # Span storage makes observed ops three times dearer; a third of the
    # ops keeps the repeat near the others' length.
    "block_mcv_obs": lambda rep, seed, scale: block(
        rep, seed, scale, MCV, observe=True, ops_full=20_000),
    "fs_cached": lambda rep, seed, scale: filesystem(
        rep, seed, scale, stream=False),
    "fs_stream": lambda rep, seed, scale: filesystem(
        rep, seed, scale, stream=True),
    "avail_mc": avail,
    "chaos_reconfig": chaos,
}

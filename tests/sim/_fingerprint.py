"""Behavior fingerprints of the simulator kernel.

The kernel-equivalence suite (``test_kernel_equivalence.py``) pins the
*observable behavior* of the engine->network->protocol->device message
loop: event firing order, simulated timestamps, per-category message
counts, span streams, and chaos-checker verdicts on fixed seeds.  Each
scenario below renders its run into a canonical JSON-lines stream and
hashes it with BLAKE2b; the digests (plus a human-readable summary for
debugging mismatches) are committed as fixtures, so any rewrite of the
hot path must reproduce them bit-identically.

Fingerprints deliberately exclude internals that may change without
changing behavior: object identities, message ids, heap layout, and
wall-clock durations.  Everything they do include -- times, orders,
counts, verdicts -- is part of the kernel's determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from functools import partial
from typing import Any, Dict, List

from repro.core.policy import QuorumPolicy
from repro.device.cluster import ClusterConfig, ReplicatedCluster
from repro.errors import DeviceError
from repro.faults.chaos import ChaosConfig, run_chaos, run_chaos_campaign
from repro.obs.wiring import traced_workload
from repro.sim.engine import Simulator
from repro.types import SchemeName

__all__ = ["SCENARIOS", "fingerprint"]


def _digest(records: List[Any]) -> str:
    """BLAKE2b over the canonical JSON-lines rendering of ``records``."""
    h = hashlib.blake2b(digest_size=16)
    for record in records:
        h.update(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            .encode("utf-8")
        )
        h.update(b"\n")
    return h.hexdigest()


# -- scenario 1: the bare engine ----------------------------------------------

def scheduler_script(seed: int = 2026) -> Dict[str, Any]:
    """A scripted storm of schedules, cancellations and horizon runs.

    Pure engine behavior: ties (FIFO), cancellations (including events
    cancelled behind the horizon), nested scheduling from callbacks, and
    incremental ``run(until=...)`` calls.  The record stream is the
    exact firing order with timestamps.
    """
    rng = random.Random(seed)
    sim = Simulator()
    records: List[Any] = []
    handles = []

    def fire(tag: int) -> None:
        records.append(["fire", tag, sim.now])
        # A third of callbacks schedule follow-ups, some at zero delay
        # (same-instant FIFO), some far beyond the current horizon.
        draw = rng.random()
        if draw < 0.20:
            handles.append(sim.schedule(0.0, fire, tag + 10_000))
        elif draw < 0.35:
            handles.append(
                sim.schedule(rng.choice([0.5, 1.0, 25.0]), fire, tag + 20_000)
            )

    for tag in range(300):
        # Coarse delays force plenty of exact ties.
        delay = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 40.0])
        handles.append(sim.schedule(delay, fire, tag))
    # Cancel a deterministic third of them, some already far in the future.
    for index, handle in enumerate(list(handles)):
        if index % 3 == 0:
            handle.cancel()
    for horizon in (1.0, 3.0, 10.0, 10.0, 60.0):
        sim.run(until=horizon)
        records.append(["horizon", sim.now, sim.pending_events])
    sim.run()
    records.append(["drained", sim.now, sim.pending_events])
    fired = sum(1 for r in records if r[0] == "fire")
    return {
        "digest": _digest(records),
        "summary": {
            "events_fired": fired,
            "final_now": sim.now,
            "pending": sim.pending_events,
        },
    }


# -- scenario 2: the traced simulate loop -------------------------------------

def traced_simulate(
    seed: int = 11, scheme: SchemeName = SchemeName.VOTING
) -> Dict[str, Any]:
    """The canonical traced workload: spans from every layer.

    Captures the full engine->network->protocol->device path with
    tracing ON (the expensive path the rewrite must not perturb): every
    span's name, layer, sim timestamps, outcome and attributes, plus
    the traffic meter's per-category counts and the run's availability.
    """
    run = traced_workload(
        scheme=scheme,
        num_sites=5,
        rho=0.05,
        horizon=400.0,
        seed=seed,
        device_ops=24,
    )
    records: List[Any] = [
        [r.name, r.layer, r.start, r.end, r.outcome, r.attrs]
        for r in run.obs.tracer.spans()
    ]
    meter = run.cluster.meter
    snapshot = meter.snapshot()
    categories = {
        category.value: count
        for category, count in snapshot.by_category.items()
    }
    records.append(["traffic", categories, snapshot.total,
                    snapshot.total_bytes])
    per_op = {
        kind: [meter.messages_for(kind).count,
               meter.messages_for(kind).mean]
        for kind in meter.operation_kinds()
    }
    records.append(["per-op", per_op])
    records.append(["clock", run.cluster.sim.now,
                    run.cluster.availability()])
    workload = run.workload
    counts = {
        kind.value: [workload.attempted[kind], workload.succeeded[kind]]
        for kind in workload.attempted
    }
    records.append(["workload", counts])
    return {
        "digest": _digest(records),
        "summary": {
            "spans": len(run.obs.tracer.spans()),
            "messages": snapshot.total,
            "final_now": run.cluster.sim.now,
            "availability": run.cluster.availability(),
        },
    }


# -- scenario 3: a chaos run (checker verdicts) -------------------------------

_CHAOS_CONFIG = ChaosConfig(
    scheme=SchemeName.VOTING,
    seed=0,  # per-scenario seed substituted below
    num_sites=5,
    num_blocks=16,
    block_size=32,
    operations=250,
    batch_rate=0.2,
)


def _chaos_records(result) -> List[Any]:
    return [[
        result.scheme.value,
        result.seed,
        result.operations,
        [result.injected.corruptions, result.injected.crashes,
         result.injected.mid_write_crashes, result.injected.drops],
        [str(v) for v in result.violations],
        sorted(result.unaccounted_corruptions),
        result.corruptions_detected,
        result.blocks_healed,
        result.sites_fenced,
        [result.reads_ok, result.reads_failed,
         result.writes_ok, result.writes_failed],
        result.torn_writes,
        result.retries,
        result.failovers,
        result.messages,
        dict(sorted(result.history.items())),
        result.view_changes,
        result.final_epoch,
        dict(sorted(result.reconfigurations.items())),
        result.epoch_fences,
        result.reconfig_pending,
        [result.catchup_messages, result.catchup_bytes],
        result.ok,
    ]]


def chaos_run(seed: int = 42, **overrides: Any) -> Dict[str, Any]:
    """One seeded chaos schedule: faults, repairs, checker verdict.

    ``overrides`` replace fields of ``_CHAOS_CONFIG`` (scheme, group
    size, policy ...).  Policy runs additionally pin the hinted-handoff
    and read-repair counters and the staleness witnesses.
    """
    result = run_chaos(replace(_CHAOS_CONFIG, seed=seed, **overrides))
    records = _chaos_records(result)
    if result.policy:
        records.append([
            result.policy,
            result.hints_parked,
            result.hints_replayed,
            result.read_repairs,
            [str(w) for w in result.staleness_witnesses],
        ])
    return {
        "digest": _digest(records),
        "summary": {
            "ok": result.ok,
            "messages": result.messages,
            "reads_ok": result.reads_ok,
            "writes_ok": result.writes_ok,
            "torn_writes": result.torn_writes,
        },
    }


# -- scenario 4: a membership campaign (jobs=1 vs jobs=N) ---------------------

_MEMBERSHIP_CONFIG = ChaosConfig(
    scheme=SchemeName.VOTING,
    seed=7,
    num_sites=5,
    num_blocks=12,
    block_size=32,
    operations=150,
    reconfigure_rate=0.04,
    spare_sites=3,
)


def membership_campaign(
    jobs: int = 1, scheme: SchemeName = SchemeName.VOTING
) -> Dict[str, Any]:
    """Three reconfiguring chaos runs, fanned at ``jobs`` workers.

    The derived-seed contract makes the campaign bit-identical at any
    ``jobs`` value; the suite checks both jobs=1 and jobs=2 against one
    committed digest.
    """
    results = run_chaos_campaign(
        replace(_MEMBERSHIP_CONFIG, scheme=scheme), runs=3, jobs=jobs
    )
    records: List[Any] = []
    for result in results:
        records.extend(_chaos_records(result))
    return {
        "digest": _digest(records),
        "summary": {
            "runs": len(results),
            "all_ok": all(r.ok for r in results),
            "view_changes": sum(r.view_changes for r in results),
            "messages": sum(r.messages for r in results),
        },
    }


# -- scenario 5: failure/repair transitions under a write load ---------------

def _repair_run(
    scheme: SchemeName, track_failures: bool, seed: int, horizon: float
) -> List[Any]:
    """One n = 5, lambda = 0.2, mu = 1 group with a steady write load.

    A write through ``cluster.device()`` every simulated time unit
    keeps the version vectors non-empty, so every repair exchanges
    real vectors and blocks.  After each transition -- once the
    protocol has reacted and the availability tracker has sampled --
    one record holds the sim time, each site's state, was-available
    set and version vector, the meter by category and in bytes, and
    the protocol's availability.
    """
    cluster = ReplicatedCluster(ClusterConfig(
        scheme=scheme, num_sites=5, num_blocks=16, block_size=32,
        failure_rate=0.2, repair_rate=1.0, seed=seed,
        track_failures=track_failures,
    ))
    device = cluster.device()
    rng = random.Random(seed)
    records: List[Any] = []

    def write() -> None:
        block = rng.randrange(16)
        try:
            device.write_block(block, bytes([rng.randrange(256)]) * 32)
            outcome = "ok"
        except DeviceError as exc:
            outcome = type(exc).__name__
        records.append(["write", cluster.sim.now, block, outcome])
        cluster.sim.schedule(1.0, write)

    def sample(kind: str, site_id: int, time: float) -> None:
        meter = cluster.meter
        records.append([
            kind, site_id, time,
            [[s.state.value, sorted(s.was_available),
              sorted(s.version_vector().items())] for s in cluster.sites],
            sorted((c.value, n) for c, n in
                   meter.snapshot().by_category.items()),
            meter.total_bytes,
            cluster.protocol.is_available(),
        ])

    cluster.failures.on_failure(partial(sample, "fail"))
    cluster.failures.on_repair(partial(sample, "repair"))
    cluster.sim.schedule(0.5, write)
    cluster.run_until(horizon)
    records.append([
        "end", cluster.meter.total, cluster.availability(),
        getattr(cluster.protocol, "total_failure_recoveries", 0),
    ])
    return records


def repair_path(seed: int = 14, horizon: float = 300.0) -> Dict[str, Any]:
    """MCV, AC with ``track_failures`` on and off, and NAC through
    failures and repairs, digested transition by transition.

    Seed 14 takes every group through total failures (two for AC), so
    both select arms of Figures 5 and 6 -- repair from an available
    copy, and the comatose wait for a provably current one -- run
    next to voting's lazy rejoin."""
    runs = [
        (SchemeName.VOTING, True),
        (SchemeName.AVAILABLE_COPY, True),
        (SchemeName.AVAILABLE_COPY, False),
        (SchemeName.NAIVE_AVAILABLE_COPY, True),
    ]
    records: List[Any] = []
    summary: Dict[str, Any] = {}
    for scheme, track in runs:
        run = _repair_run(scheme, track, seed, horizon)
        records.append([scheme.value, track])
        records.extend(run)
        transitions = sum(1 for r in run if r[0] in ("fail", "repair"))
        summary[f"{scheme.value}/{track}"] = [transitions, *run[-1][1:]]
    return {"digest": _digest(records), "summary": summary}


#: The sloppy (RF, R, W) point of ``chaos-voting-sloppy``: R = 1 local
#: reads, W = 2 of 3, hinted handoff and read repair both on.
_SLOPPY_POLICY = QuorumPolicy(rf=3, r=1, w=2, allow_sloppy=True)

#: scenario name -> zero-argument callable producing {digest, summary}.
#: Every protocol, the weighted (even-group tie-breaker) quorum path
#: and the count-based policy path each have at least one entry, so a
#: refactor of ``repro.core`` cannot move any of them unnoticed.
SCENARIOS = {
    "scheduler-script": scheduler_script,
    "traced-simulate": traced_simulate,
    "traced-simulate-ac": partial(
        traced_simulate, scheme=SchemeName.AVAILABLE_COPY
    ),
    "chaos-voting": chaos_run,
    "chaos-voting-even": partial(chaos_run, num_sites=4),
    "chaos-voting-sloppy": partial(
        chaos_run, num_sites=3, policy=_SLOPPY_POLICY, batch_rate=0.0
    ),
    "chaos-ac": partial(chaos_run, scheme=SchemeName.AVAILABLE_COPY),
    "chaos-nac": partial(
        chaos_run, scheme=SchemeName.NAIVE_AVAILABLE_COPY
    ),
    "membership-campaign": membership_campaign,
    "membership-campaign-nac": partial(
        membership_campaign, scheme=SchemeName.NAIVE_AVAILABLE_COPY
    ),
    "repair-path": repair_path,
}


def fingerprint(name: str) -> Dict[str, Any]:
    """Compute one scenario's {digest, summary} fingerprint."""
    return SCENARIOS[name]()

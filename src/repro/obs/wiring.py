"""Wire the observability layer onto the existing stack.

Everything here is glue: the tracer plugs into the
:class:`~repro.net.network.Network` (whence the protocols and the scrub
inherit it), and the scattered counter families --
:class:`~repro.net.traffic.TrafficMeter`,
:class:`~repro.device.interface.DeviceStats`,
:class:`~repro.device.reliable.FaultStats`,
:class:`~repro.device.cache.CacheStats` -- register as snapshot sources
on one :class:`~repro.obs.metrics.MetricsRegistry`.

:func:`traced_workload` is the canonical traced run: a simulated
cluster under a Poisson workload plus retried device operations and a
closing scrub, with every layer emitting spans.  The ``metrics`` CLI
subcommand, the ``observability-demo`` experiment and the smoke test in
CI all run through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..types import SchemeName
from .metrics import MetricsRegistry
from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..device.cache import BufferCache
    from ..device.cluster import ReplicatedCluster
    from ..device.reliable import ReliableDevice
    from ..device.scrub import ScrubReport
    from ..net.traffic import TrafficMeter
    from ..workload.runner import WorkloadResult

__all__ = [
    "Observability",
    "observe_cluster",
    "register_traffic_meter",
    "register_device",
    "register_cache",
    "register_protocol",
    "TracedRun",
    "traced_workload",
]


@dataclass
class Observability:
    """One tracer + one registry: a run's whole instrumentation."""

    tracer: Tracer
    registry: MetricsRegistry


# -- legacy stat families as registry sources ---------------------------------

def register_traffic_meter(
    registry: MetricsRegistry,
    meter: "TrafficMeter",
    prefix: str = "traffic",
) -> None:
    """Expose a :class:`TrafficMeter` (totals, categories, per-op means)."""

    def collect():
        values = {
            "total": meter.total,
            "total_bytes": meter.total_bytes,
        }
        snapshot = meter.snapshot()
        for category, count in snapshot.by_category.items():
            values[f"category.{category.value}"] = count
        for kind in meter.operation_kinds():
            stat = meter.messages_for(kind)
            values[f"op.{kind}.count"] = stat.count
            values[f"op.{kind}.mean_messages"] = stat.mean
            values[f"op.{kind}.mean_bytes"] = meter.mean_bytes(kind)
        return values

    registry.register_source(prefix, collect)


def register_device(
    registry: MetricsRegistry,
    device: "ReliableDevice",
    prefix: str = "device",
) -> None:
    """Expose a reliable device's DeviceStats + FaultStats."""

    def collect():
        stats = device.stats
        values = {
            "reads": stats.reads,
            "writes": stats.writes,
            "failed_reads": stats.failed_reads,
            "failed_writes": stats.failed_writes,
            "batch_reads": stats.batch_reads,
            "batch_writes": stats.batch_writes,
        }
        values.update(device.fault_stats.snapshot())
        return values

    registry.register_source(prefix, collect)


def register_cache(
    registry: MetricsRegistry,
    cache: "BufferCache",
    prefix: str = "cache",
) -> None:
    """Expose a buffer cache's hit/miss counters."""

    def collect():
        stats = cache.cache_stats
        return {
            "hits": stats.hits,
            "misses": stats.misses,
            "accesses": stats.accesses,
            "hit_rate": stats.hit_rate,
        }

    registry.register_source(prefix, collect)


def register_protocol(registry, protocol, prefix: str = "protocol") -> None:
    """Expose a protocol's fault-observability counters."""

    def collect():
        return {
            "corruptions_detected": protocol.corruptions_detected,
            "blocks_healed": protocol.blocks_healed,
            "sites_fenced": protocol.sites_fenced,
            "available_sites": len(protocol.available_sites()),
        }

    registry.register_source(prefix, collect)


# -- one-call cluster wiring ---------------------------------------------------

def observe_cluster(
    cluster: "ReplicatedCluster",
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Observability:
    """Attach a tracer + registry to a :class:`ReplicatedCluster`.

    The tracer (fresh by default) is clocked by the cluster's simulator
    and installed on the network, which makes every protocol round,
    transmission and scrub pass emit spans; the registry picks up the
    traffic meter and the protocol's fault counters as sources.
    """
    if tracer is None:
        tracer = Tracer()
    tracer.set_clock(cluster.sim.now_reader())
    if registry is None:
        registry = MetricsRegistry()
    cluster.network.set_tracer(tracer)
    register_traffic_meter(registry, cluster.meter)
    register_protocol(registry, cluster.protocol)
    registry.register_source(
        "cluster",
        lambda: {
            "sim_time": cluster.sim.now,
            "availability": cluster.availability(),
        },
    )
    return Observability(tracer=tracer, registry=registry)


# -- the canonical traced run --------------------------------------------------

@dataclass
class TracedRun:
    """Everything a traced workload run produced."""

    obs: Observability
    cluster: "ReplicatedCluster"
    workload: "WorkloadResult"
    scrub: Optional["ScrubReport"]
    device: "ReliableDevice"


def traced_workload(
    scheme: SchemeName = SchemeName.VOTING,
    num_sites: int = 5,
    rho: float = 0.05,
    horizon: float = 2_000.0,
    seed: int = 0,
    read_write_ratio: float = 2.5,
    op_rate: float = 1.0,
    device_ops: int = 32,
    tracer: Optional[Tracer] = None,
) -> TracedRun:
    """Run a fully observed workload: spans from every layer.

    The run has three phases: a Poisson workload against the protocol
    while sites fail and repair (protocol + net spans, workload
    metrics), a burst of retried :class:`ReliableDevice` operations
    (device spans, retry accounting), and one closing scrub pass (scrub
    spans).  Deterministic per ``seed``.
    """
    from ..device.cluster import ClusterConfig, ReplicatedCluster
    from ..device.reliable import RetryPolicy
    from ..device.scrub import scrub_replicas
    from ..errors import DeviceError, NoAvailableCopyError
    from ..workload.generator import WorkloadSpec
    from ..workload.runner import WorkloadRunner

    cluster = ReplicatedCluster(ClusterConfig(
        scheme=scheme,
        num_sites=num_sites,
        failure_rate=rho,
        repair_rate=1.0,
        seed=seed,
    ))
    obs = observe_cluster(cluster, tracer=tracer)
    runner = WorkloadRunner(
        cluster,
        WorkloadSpec(read_write_ratio=read_write_ratio, op_rate=op_rate),
        metrics=obs.registry,
    )
    workload = runner.run(horizon)

    device = cluster.device(
        retry=RetryPolicy(max_attempts=3, initial_delay=1.0),
    )
    register_device(obs.registry, device)
    payload = b"\x5a" * device.block_size
    for i in range(device_ops):
        block = i % device.num_blocks
        try:
            if i % 3 == 0:
                device.write_block(block, payload)
            else:
                device.read_block(block)
        except DeviceError:
            pass  # outcome lives in the span / failed_* counters

    try:
        scrub = scrub_replicas(cluster.protocol)
    except NoAvailableCopyError:
        scrub = None
    return TracedRun(
        obs=obs,
        cluster=cluster,
        workload=workload,
        scrub=scrub,
        device=device,
    )

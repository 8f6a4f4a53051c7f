"""One-stop construction of a simulated replica group.

:class:`ReplicatedCluster` wires together everything a simulation
experiment or example needs: a discrete-event simulator, a replica group
of sites, a metered network, one of the three consistency protocols, a
Poisson failure/repair process, and a time-weighted availability tracker
evaluating the protocol's availability predicate at every transition --
the quantity Section 4 of the paper derives analytically.

>>> cluster = ReplicatedCluster(ClusterConfig(
...     scheme=SchemeName.NAIVE_AVAILABLE_COPY, num_sites=3,
...     failure_rate=0.05, repair_rate=1.0, seed=7))
>>> device = cluster.device()
>>> device.write_block(0, b"x" * device.block_size)
>>> cluster.run_until(10_000.0)
>>> 0.9 < cluster.availability() <= 1.0
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net.network import Network
from ..net.sizes import SizeModel
from ..net.traffic import TrafficMeter
from ..schemes import build_group
from ..sim.engine import Simulator
from ..sim.failures import FailureRepairProcess, RepairDistribution
from ..sim.rng import RandomStreams
from ..sim.stats import TimeWeightedStat
from ..types import AddressingMode, SchemeName, SiteId
from .block import DEFAULT_BLOCK_SIZE
from .reliable import ReliableDevice, RetryPolicy

__all__ = ["ClusterConfig", "ReplicatedCluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of a simulated replica group.

    ``failure_rate`` and ``repair_rate`` are the paper's lambda and mu;
    their ratio rho = lambda/mu is the parameter every availability curve
    is drawn against.
    """

    scheme: SchemeName
    num_sites: int = 3
    num_blocks: int = 128
    block_size: int = DEFAULT_BLOCK_SIZE
    failure_rate: float = 0.05
    repair_rate: float = 1.0
    addressing: AddressingMode = AddressingMode.MULTICAST
    seed: int = 0
    #: Available copy only: track failures in the was-available sets
    #: (Section 4.2's model) or update them only on writes/repairs.
    track_failures: bool = True
    #: Voting only: refresh stale blocks eagerly on repair (ablation).
    eager_repair: bool = False
    #: Repair-time law; cv=1 is the paper's exponential model.
    repair_distribution: RepairDistribution = field(
        default_factory=RepairDistribution
    )
    #: None reproduces the paper's parallel repair; an integer bounds
    #: concurrent repairs (a shared repair facility).
    repair_capacity: Optional[int] = None
    #: Queue order when the repair capacity binds: fifo | random.
    repair_discipline: str = "fifo"

    @property
    def rho(self) -> float:
        """The failure-to-repair ratio lambda/mu."""
        return self.failure_rate / self.repair_rate


class ReplicatedCluster:
    """A fully wired simulated replica group."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(seed=config.seed)
        self.meter = TrafficMeter()
        self.network = Network(
            mode=config.addressing,
            meter=self.meter,
            size_model=SizeModel(block_bytes=config.block_size),
        )
        self.protocol = build_group(
            config.scheme, config.num_sites, config.num_blocks,
            config.block_size, self.network,
            track_failures=config.track_failures,
            eager_repair=config.eager_repair,
        )
        self.sites = self.protocol.sites
        self.failures = FailureRepairProcess(
            sim=self.sim,
            site_ids=[s.site_id for s in self.sites],
            failure_rate=config.failure_rate,
            repair_rate=config.repair_rate,
            streams=self.streams,
            repair_distribution=config.repair_distribution,
            repair_capacity=config.repair_capacity,
            repair_discipline=config.repair_discipline,
        )
        # Order matters: the protocol reacts to each transition first,
        # then the tracker samples the resulting availability.
        self.protocol.bind(self.failures)
        self._availability = TimeWeightedStat(
            initial_value=1.0, start_time=self.sim.now
        )
        self.failures.on_failure(self._sample_availability)
        self.failures.on_repair(self._sample_availability)
        self._started = False

    # -- simulation control ----------------------------------------------------

    def _sample_availability(self, _site: SiteId, time: float) -> None:
        self._availability.update(
            1.0 if self.protocol.is_available() else 0.0, at_time=time
        )

    def start_failures(self) -> None:
        """Begin the failure/repair processes.  Idempotent."""
        if not self._started:
            self.failures.start()
            self._started = True

    def run_until(self, time: float) -> None:
        """Advance the simulation to ``time`` (starting failures first)."""
        self.start_failures()
        self.sim.run(until=time)
        # extend_to, not finalize: run_until is incremental (callers
        # interleave it with reads of availability()) and must not seal
        # the stat against further observation.
        self._availability.extend_to(self.sim.now)

    def availability(self) -> float:
        """Time-weighted availability observed so far."""
        return self._availability.mean()

    # -- client-facing views ------------------------------------------------------

    def device(
        self,
        origin: Optional[SiteId] = None,
        failover: bool = True,
        retry: Optional[RetryPolicy] = None,
        degrade_to_read_only: bool = False,
    ) -> ReliableDevice:
        """A reliable-device view of the group, attached at ``origin``.

        ``retry`` and ``degrade_to_read_only`` are forwarded to
        :class:`~repro.device.reliable.ReliableDevice`; a retrying
        device gets the cluster's simulator as its backoff clock."""
        return ReliableDevice(
            self.protocol,
            origin=origin,
            failover=failover,
            retry=retry,
            clock=self.sim if retry is not None else None,
            degrade_to_read_only=degrade_to_read_only,
        )

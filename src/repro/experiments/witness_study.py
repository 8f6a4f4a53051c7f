"""Witness extension study: trading data copies for vote-only sites.

Compares voting configurations with the same total number of sites but
different mixes of data copies and witnesses (the paper's reference
[10]): read availability (analytic + simulated), storage cost, and
write traffic.  The headline: a witness buys back most of the
availability a dropped data copy would have provided, at zero storage.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..analysis.witnesses import witness_voting_availability
from ..errors import DeviceError
from ..net.network import Network
from ..schemes import build_group
from ..sim.engine import Simulator
from ..sim.failures import FailureRepairProcess
from ..sim.rng import RandomStreams
from ..sim.stats import TimeWeightedStat
from ..types import SchemeName
from ..workload.generator import WorkloadGenerator, WorkloadSpec
from .report import ExperimentReport, Table

__all__ = ["witness_study", "simulate_witness_group"]


def simulate_witness_group(
    data_copies: int,
    witnesses: int,
    rho: float,
    horizon: float = 100_000.0,
    seed: int = 101,
    write_rate: float = 2.0,
) -> float:
    """Measured read availability of a witness configuration.

    A write-heavy background workload keeps up data copies current (the
    assumption behind the analytic formula); availability is the
    time-weighted fraction during which the protocol can serve reads.
    """
    protocol = build_group(
        SchemeName.VOTING, data_copies + witnesses, 16, 64, Network(),
        witnesses=witnesses,
    )
    sim = Simulator()
    streams = RandomStreams(seed=seed)
    failures = FailureRepairProcess(
        sim=sim,
        site_ids=protocol.site_ids,
        failure_rate=rho,
        repair_rate=1.0,
        streams=streams,
    )
    protocol.bind(failures)
    tracker = TimeWeightedStat(initial_value=1.0)

    def sample(_site, time):
        tracker.update(
            1.0 if protocol.is_available() else 0.0, at_time=time
        )

    failures.on_failure(sample)
    failures.on_repair(sample)

    generator = WorkloadGenerator(
        WorkloadSpec(read_write_ratio=0.0, op_rate=write_rate),
        num_blocks=protocol.num_blocks,
        streams=streams,
        name="witness-writes",
    )
    payload = b"\x44" * protocol.block_size

    def tick():
        data_up = [
            s for s in protocol.sites
            if not s.is_witness and s.is_available
        ]
        if data_up:
            try:
                protocol.write(
                    data_up[0].site_id,
                    generator.next_operation().block,
                    payload,
                )
            except DeviceError:  # quorum loss between check and write
                pass
        sim.schedule(generator.next_interarrival(), tick)

    sim.schedule(generator.next_interarrival(), tick)
    failures.start()
    sim.run(until=horizon)
    tracker.finalize(sim.now)
    return tracker.mean()


def witness_study(
    rho: float = 0.1,
    configurations: Sequence[Tuple[int, int]] = (
        (3, 0), (2, 1), (2, 0), (5, 0), (3, 2), (4, 1),
    ),
    simulate: bool = True,
    horizon: float = 100_000.0,
    seed: Optional[int] = 101,
) -> ExperimentReport:
    """Availability and cost of copy/witness mixes."""
    report = ExperimentReport(
        experiment_id="witness-study",
        title=f"Voting with witnesses (rho={rho:g})",
    )
    columns = ["data copies", "witnesses", "analytic availability",
               "storage (copies)"]
    if simulate:
        columns.insert(3, "simulated")
    table = Table(title="equal-weight majority, tie-break on a data copy",
                  columns=tuple(columns), precision=5)
    for data, wit in configurations:
        row = [data, wit, witness_voting_availability(data, wit, rho)]
        if simulate:
            row.append(
                simulate_witness_group(
                    data, wit, rho, horizon=horizon, seed=seed or 0
                )
            )
        row.append(data)
        table.add_row(*row)
    report.add_table(table)
    report.note(
        "a witness recovers most of the availability of the data copy "
        "it replaces while storing nothing -- e.g. 2 copies + 1 witness "
        "approaches 3 full copies"
    )
    return report

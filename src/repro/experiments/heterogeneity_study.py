"""Heterogeneous-site study: unequal failure rates across the group.

Section 4.1 restricts the paper's analysis to sites with equal failure
and repair rates.  This experiment lifts the restriction with the exact
subset-chain models of :mod:`repro.analysis.heterogeneous` and verifies
them against the simulator running per-site rates.

Headline observations (all pinned by tests):

* one very reliable copy nearly saturates the available-copy schemes'
  availability (the group is down only when *it* is down and the rest
  already were), while voting still needs a majority;
* for even-sized voting groups, the tie-breaking extra weight belongs
  on the most reliable site.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..analysis.heterogeneous import (
    heterogeneous_available_copy_availability,
    heterogeneous_naive_availability,
    heterogeneous_voting_availability,
)
from ..exec import ParallelRunner, Task
from ..net.network import Network
from ..schemes import build_group
from ..sim.engine import Simulator
from ..sim.failures import FailureRepairProcess
from ..sim.rng import RandomStreams
from ..sim.stats import TimeWeightedStat
from ..types import SchemeName
from .report import ExperimentReport, Table

__all__ = ["heterogeneity_study", "simulate_heterogeneous"]

DEFAULT_MIXES: Tuple[Tuple[float, ...], ...] = (
    (0.2, 0.2, 0.2),
    (0.05, 0.2, 0.35),
    (0.01, 0.3, 0.3),
    (0.001, 0.5, 0.5),
)


def simulate_heterogeneous(
    scheme: SchemeName,
    rhos: Sequence[float],
    horizon: float = 150_000.0,
    seed: int = 88,
) -> float:
    """Simulated availability with per-site failure rates (mu = 1)."""
    n = len(rhos)
    sim = Simulator()
    protocol = build_group(scheme, n, 4, 16, Network())
    rates: Dict[int, float] = {i: float(rhos[i]) for i in range(n)}
    process = FailureRepairProcess(
        sim, list(range(n)), failure_rate=rates, repair_rate=1.0,
        streams=RandomStreams(seed=seed),
    )
    protocol.bind(process)
    tracker = TimeWeightedStat(initial_value=1.0)

    def sample(_site, time):
        tracker.update(1.0 if protocol.is_available() else 0.0, time)

    process.on_failure(sample)
    process.on_repair(sample)
    process.start()
    sim.run(until=horizon)
    tracker.finalize(sim.now)
    return tracker.mean()


def _simulate_cell(task: Task) -> float:
    """Pool worker: one simulated (scheme, mix) grid cell.

    The cell seed travels in the payload (every cell intentionally uses
    the caller's fixed seed, as the serial path always did), so jobs=N
    reproduces the serial table bit for bit.
    """
    scheme, mix, horizon, seed = task.payload
    return simulate_heterogeneous(scheme, mix, horizon, seed)


def heterogeneity_study(
    mixes: Sequence[Sequence[float]] = DEFAULT_MIXES,
    simulate: bool = True,
    horizon: float = 150_000.0,
    seed: int = 88,
    jobs: Optional[int] = None,
) -> ExperimentReport:
    """Availability of rate mixes under all three schemes."""
    report = ExperimentReport(
        experiment_id="heterogeneity-study",
        title="Unequal site failure rates (mu = 1 everywhere)",
    )
    columns = ["per-site rhos", "MCV", "AC", "NAC"]
    if simulate:
        columns += ["MCV sim", "AC sim", "NAC sim"]
    table = Table(
        title="exact subset-chain models"
        + (" + simulation" if simulate else ""),
        columns=tuple(columns),
        precision=5,
    )
    clean_mixes = [tuple(float(r) for r in mix) for mix in mixes]
    scheme_order = (
        SchemeName.VOTING,
        SchemeName.AVAILABLE_COPY,
        SchemeName.NAIVE_AVAILABLE_COPY,
    )
    simulated: Dict[Tuple[SchemeName, Tuple[float, ...]], float] = {}
    if simulate:
        cells = [
            (scheme, mix, horizon, seed)
            for mix in clean_mixes
            for scheme in scheme_order
        ]
        runner = ParallelRunner(jobs=jobs, name="heterogeneity")
        results = runner.map(_simulate_cell, cells, namespace="cell")
        simulated = {
            (scheme, mix): value
            for (scheme, mix, _h, _s), value in zip(cells, results)
        }
    for mix in clean_mixes:
        row = [
            "/".join(f"{r:g}" for r in mix),
            heterogeneous_voting_availability(mix),
            heterogeneous_available_copy_availability(mix),
            heterogeneous_naive_availability(mix),
        ]
        if simulate:
            row += [simulated[(scheme, mix)] for scheme in scheme_order]
        table.add_row(*row)
    report.add_table(table)
    report.note(
        "the more the reliability concentrates in one copy, the larger "
        "the available-copy schemes' lead: a single golden copy keeps "
        "them in service, while voting still needs a flaky partner"
    )
    return report

"""Monte-Carlo validation of Section 4 and Section 5 at medium scale.

These runs are longer than unit tests but bounded (~seconds).  The
benchmark harness runs the full-scale versions.
"""

import pytest

from repro.analysis import (
    naive_availability,
    scheme_availability,
    traffic_model,
    voting_availability,
)
from repro.analysis.byte_traffic import script_bytes
from repro.analysis.traffic import message_script
from repro.device import ClusterConfig, ReplicatedCluster
from repro.net import MessageCategory as M
from repro.net.traffic import READ, RECOVERY, WRITE
from repro.types import AddressingMode, SchemeName
from repro.workload import OpKind, WorkloadRunner, WorkloadSpec

from ..conftest import make_cluster

HORIZON = 60_000.0


def run_cluster(scheme, n, rho, seed=101, **kwargs):
    cluster = ReplicatedCluster(
        ClusterConfig(
            scheme=scheme, num_sites=n, num_blocks=16,
            failure_rate=rho, repair_rate=1.0, seed=seed, **kwargs,
        )
    )
    cluster.run_until(HORIZON)
    return cluster


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rho", [0.1, 0.3])
def test_simulated_availability_matches_theory(scheme, n, rho):
    cluster = run_cluster(scheme, n, rho)
    expected = scheme_availability(scheme, n, rho)
    assert cluster.availability() == pytest.approx(expected, abs=0.012)


def test_voting_even_group_matches_odd_formula():
    """A_V(4) == A_V(3): the tie-breaking weight makes the fourth copy
    worthless, in simulation as in equation (1.b)."""
    rho = 0.2
    even = run_cluster(SchemeName.VOTING, 4, rho, seed=7)
    assert even.availability() == pytest.approx(
        voting_availability(3, rho), abs=0.012
    )


def test_naive_two_copies_equal_three_voting_copies():
    """Section 4.3's identity A_NA(2) = A_V(3), in simulation."""
    rho = 0.25
    nac = run_cluster(SchemeName.NAIVE_AVAILABLE_COPY, 2, rho, seed=9)
    assert nac.availability() == pytest.approx(
        naive_availability(2, rho), abs=0.015
    )
    mcv = run_cluster(SchemeName.VOTING, 3, rho, seed=9)
    assert abs(nac.availability() - mcv.availability()) < 0.02


def test_simulated_scheme_ordering_matches_theory():
    """AC >= NAC >> voting with the same number of sites."""
    rho, n, seed = 0.3, 3, 21
    results = {
        scheme: run_cluster(scheme, n, rho, seed=seed).availability()
        for scheme in SchemeName
    }
    assert results[SchemeName.AVAILABLE_COPY] >= (
        results[SchemeName.NAIVE_AVAILABLE_COPY] - 0.005
    )
    assert results[SchemeName.NAIVE_AVAILABLE_COPY] > (
        results[SchemeName.VOTING] + 0.01
    )


@pytest.mark.parametrize("mode", list(AddressingMode))
def test_simulated_traffic_matches_cost_models(scheme, mode):
    n, rho = 4, 0.05
    cluster = ReplicatedCluster(
        ClusterConfig(
            scheme=scheme, num_sites=n, num_blocks=16,
            failure_rate=rho, repair_rate=1.0, addressing=mode, seed=33,
        )
    )
    runner = WorkloadRunner(cluster, WorkloadSpec(op_rate=2.0))
    result = runner.run(20_000.0)
    model = traffic_model(scheme, n, rho, mode=mode)
    assert result.mean_messages(OpKind.WRITE) == pytest.approx(
        model.write, abs=0.25
    )
    assert result.mean_messages(OpKind.READ) == pytest.approx(
        model.read, abs=0.25
    )
    assert cluster.meter.mean_messages("recovery") == pytest.approx(
        model.recovery, abs=0.35
    )


def priced(script, n, u, sizes):
    """A script's messages per category and its bytes."""
    counts = {
        send.category: send.count.at(n, u)
        for sends in script for send in sends
    }
    return (
        {category: count for category, count in counts.items() if count},
        script_bytes(script, n, u, sizes),
    )


@pytest.mark.parametrize("mode", list(AddressingMode))
def test_simulator_sends_exactly_the_script(scheme, mode):
    """A failure-free read, write and recovery on a fresh five-site
    group send what Section 5's script lists: the same messages per
    category and the same bytes, not just the same mean."""
    n = 5
    for op, stale in ((READ, 0), (READ, 1), (WRITE, 0),
                      (RECOVERY, 0), (RECOVERY, 2)):
        cluster = make_cluster(scheme, num_sites=n, addressing=mode)
        protocol = cluster.protocol
        data = bytes(cluster.config.block_size)
        if op == READ and stale:
            # site 0 misses a write; MCV's read then pulls the block
            protocol.on_site_failed(0)
            protocol.write(1, 0, data)
            protocol.on_site_repaired(0)
        elif op == RECOVERY:
            # ``stale`` blocks, written before site 4 fails and again
            # while it is down: both vectors name them, the reply ships
            # them.
            for block in range(stale):
                protocol.write(0, block, data)
            protocol.on_site_failed(4)
            for block in range(stale):
                protocol.write(0, block, data)
        before = cluster.meter.snapshot()
        if op == READ:
            protocol.read(0, 0)
        elif op == WRITE:
            protocol.write(0, 0, data)
        else:
            protocol.on_site_repaired(4)
        spent = cluster.meter.snapshot().delta(before)
        sizes = cluster.network.size_model
        script = message_script(scheme, op, n, mode, stale, vector=stale)
        by_category, total_bytes = priced(script, n, n, sizes)
        if op == RECOVERY and scheme is SchemeName.AVAILABLE_COPY:
            # Section 5 prices a probe reply naming all n sites; AC's
            # survivors name only the n - 1 still up when site 4 failed
            replies = by_category[M.RECOVERY_PROBE_REPLY]
            total_bytes -= replies * sizes.vv_entry_bytes
        assert (spent.by_category, spent.total_bytes) == \
            (by_category, total_bytes), (op, stale)


def test_available_copy_invariants_hold_throughout_a_long_run():
    cluster = ReplicatedCluster(
        ClusterConfig(
            scheme=SchemeName.AVAILABLE_COPY, num_sites=3, num_blocks=8,
            failure_rate=0.4, repair_rate=1.0, seed=55,
        )
    )
    runner = WorkloadRunner(cluster, WorkloadSpec(op_rate=1.0))
    # interleave checks with simulation progress
    for step in range(1, 11):
        runner._cluster.sim.run(until=step * 1_000.0)
        cluster.protocol.check_invariants()
    assert cluster.protocol.total_failure_recoveries >= 0

"""Byte-level traffic model tests (Section 5's sizes remark)."""

import pytest

from repro.analysis import (
    access_cost,
    byte_access_cost,
    byte_traffic_model,
)
from repro.errors import AnalysisError
from repro.net import SizeModel
from repro.schemes import SCHEMES
from repro.types import AddressingMode, SchemeName

N, RHO = 5, 0.05


def test_naive_write_is_exactly_one_block_message():
    sizes = SizeModel(block_bytes=512)
    model = byte_traffic_model(
        SchemeName.NAIVE_AVAILABLE_COPY, N, RHO, size_model=sizes
    )
    assert model.write == 32 + 8 + 512
    assert model.read == 0.0


def test_voting_write_bytes_hand_computed():
    sizes = SizeModel()
    u = SCHEMES[SchemeName.VOTING].participation(N, RHO)
    model = byte_traffic_model(SchemeName.VOTING, N, RHO, size_model=sizes)
    expected = (32 + 8) + (u - 1) * (32 + 8) + (32 + 8 + 512)
    assert model.write == pytest.approx(expected)


def test_available_copy_ack_bytes():
    sizes = SizeModel()
    u = SCHEMES[SchemeName.AVAILABLE_COPY].participation(N, RHO)
    model = byte_traffic_model(
        SchemeName.AVAILABLE_COPY, N, RHO, size_model=sizes
    )
    assert model.write == pytest.approx((32 + 8 + 512) + (u - 1) * 32)


def test_unique_addressing_multiplies_broadcasts():
    sizes = SizeModel()
    multicast = byte_traffic_model(
        SchemeName.NAIVE_AVAILABLE_COPY, N, RHO, size_model=sizes
    )
    unique = byte_traffic_model(
        SchemeName.NAIVE_AVAILABLE_COPY, N, RHO,
        mode=AddressingMode.UNIQUE, size_model=sizes,
    )
    assert unique.write == pytest.approx((N - 1) * multicast.write)


def test_ordering_preserved_in_bytes():
    """Same winners as the message count comparison."""
    for mode in AddressingMode:
        for n in (2, 3, 5, 8):
            nac = byte_access_cost(
                SchemeName.NAIVE_AVAILABLE_COPY, n, RHO, 2.5, mode=mode
            )
            ac = byte_access_cost(
                SchemeName.AVAILABLE_COPY, n, RHO, 2.5, mode=mode
            )
            mcv = byte_access_cost(SchemeName.VOTING, n, RHO, 2.5, mode=mode)
            assert nac <= ac < mcv


@pytest.mark.parametrize("block_bytes", [128, 512, 4096])
@pytest.mark.parametrize("header_bytes", [16, 64])
def test_less_pronounced_but_not_inverted(block_bytes, header_bytes):
    """The paper's remark holds across size-model choices."""
    sizes = SizeModel(block_bytes=block_bytes, header_bytes=header_bytes)
    for n in (3, 5, 8):
        msg_ratio = access_cost(
            SchemeName.VOTING, n, RHO, 2.5
        ) / access_cost(SchemeName.NAIVE_AVAILABLE_COPY, n, RHO, 2.5)
        byte_ratio = byte_access_cost(
            SchemeName.VOTING, n, RHO, 2.5, size_model=sizes
        ) / byte_access_cost(
            SchemeName.NAIVE_AVAILABLE_COPY, n, RHO, 2.5, size_model=sizes
        )
        assert 1.0 < byte_ratio < msg_ratio


def test_recovery_bytes_grow_with_stale_blocks():
    sizes = SizeModel()
    idle = byte_traffic_model(
        SchemeName.AVAILABLE_COPY, N, RHO, size_model=sizes,
        expected_stale_blocks=0.0,
    )
    busy = byte_traffic_model(
        SchemeName.AVAILABLE_COPY, N, RHO, size_model=sizes,
        expected_stale_blocks=10.0,
    )
    assert busy.recovery - idle.recovery == pytest.approx(
        10 * (8 + 512)
    )


def test_stale_read_fraction_adds_block_transfer_bytes():
    sizes = SizeModel()
    base = byte_traffic_model(SchemeName.VOTING, N, RHO, size_model=sizes)
    stale = byte_traffic_model(
        SchemeName.VOTING, N, RHO, size_model=sizes,
        stale_read_fraction=1.0,
    )
    assert stale.read - base.read == pytest.approx(32 + 8 + 512)


def test_simulated_bytes_match_model(scheme):
    from repro.device import ClusterConfig, ReplicatedCluster
    from repro.workload import WorkloadRunner, WorkloadSpec

    cluster = ReplicatedCluster(
        ClusterConfig(
            scheme=scheme, num_sites=4, num_blocks=16,
            failure_rate=RHO, repair_rate=1.0, seed=19,
        )
    )
    runner = WorkloadRunner(cluster, WorkloadSpec(op_rate=2.0))
    runner.run(10_000.0)
    model = byte_traffic_model(scheme, 4, RHO)
    assert cluster.meter.mean_bytes("write") == pytest.approx(
        model.write, rel=0.02
    )
    assert cluster.meter.mean_bytes("read") == pytest.approx(
        model.read, abs=2.0
    )


def test_validation():
    with pytest.raises(AnalysisError):
        byte_traffic_model(SchemeName.VOTING, 0, RHO)
    with pytest.raises(AnalysisError):
        byte_traffic_model(SchemeName.VOTING, N, RHO,
                           stale_read_fraction=2.0)
    model = byte_traffic_model(SchemeName.VOTING, N, RHO)
    with pytest.raises(AnalysisError):
        model.per_access_group(-1)

"""Unit tests for the reliable-device facade."""

import pytest

from repro.errors import (
    DeviceUnavailableError,
    QuorumNotReachedError,
    SiteDownError,
)
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName

from ..conftest import block_of, make_cluster


def test_read_back_what_was_written(scheme):
    cluster = make_cluster(scheme)
    device = cluster.device()
    data = block_of(cluster, b"Z")
    device.write_block(5, data)
    assert device.read_block(5) == data
    assert device.stats.writes == 1
    assert device.stats.reads == 1


def test_geometry_matches_config(scheme):
    cluster = make_cluster(scheme, num_blocks=17)
    device = cluster.device()
    assert device.num_blocks == 17
    assert device.block_size == cluster.protocol.block_size


def test_origin_defaults_to_first_site(scheme):
    cluster = make_cluster(scheme)
    assert cluster.device().origin == 0
    assert cluster.device(origin=2).origin == 2


def test_invalid_origin_rejected(scheme):
    cluster = make_cluster(scheme)
    with pytest.raises(SiteDownError):
        cluster.device(origin=99)


def test_failover_reroutes_around_down_origin(scheme):
    cluster = make_cluster(scheme)
    device = cluster.device(origin=0, failover=True)
    data = block_of(cluster, b"Q")
    device.write_block(0, data)
    cluster.protocol.on_site_failed(0)
    # the preferred origin is down; another site serves the request
    assert device.read_block(0) == data
    device.write_block(1, data)


def test_no_failover_surfaces_site_down(scheme):
    cluster = make_cluster(scheme)
    device = cluster.device(origin=0, failover=False)
    cluster.protocol.on_site_failed(0)
    with pytest.raises(SiteDownError):
        device.read_block(0)
    assert device.stats.failed_reads == 1


def test_total_failure_surfaces_unavailable(scheme):
    cluster = make_cluster(scheme)
    device = cluster.device()
    for site_id in cluster.protocol.site_ids:
        cluster.protocol.on_site_failed(site_id)
    with pytest.raises(DeviceUnavailableError):
        device.write_block(0, block_of(cluster, b"x"))
    assert device.stats.failed_writes == 1


def test_voting_needs_majority_not_just_one():
    cluster = make_cluster(SchemeName.VOTING, num_sites=3)
    device = cluster.device(origin=0)
    cluster.protocol.on_site_failed(1)
    device.write_block(0, block_of(cluster, b"m"))  # 2 of 3 still a quorum
    cluster.protocol.on_site_failed(2)
    with pytest.raises(QuorumNotReachedError):
        device.write_block(0, block_of(cluster, b"m"))


def test_available_copy_serves_with_single_survivor():
    for scheme in (SchemeName.AVAILABLE_COPY,
                   SchemeName.NAIVE_AVAILABLE_COPY):
        cluster = make_cluster(scheme, num_sites=3)
        device = cluster.device(origin=2)
        cluster.protocol.on_site_failed(0)
        cluster.protocol.on_site_failed(1)
        data = block_of(cluster, b"s")
        device.write_block(0, data)
        assert device.read_block(0) == data


def test_failover_skips_witness_sites():
    """A witness cannot serve clients; failover must step over it."""
    from repro.device import ReliableDevice

    protocol = build_group(
        SchemeName.VOTING, 3, 16, 64, Network(), witnesses=1
    )
    device = ReliableDevice(protocol, origin=0, failover=True)
    data = b"\x21" * device.block_size
    device.write_block(0, data)
    protocol.on_site_failed(0)
    # remaining available sites are {1 (data), 2 (witness)}; failover
    # must pick the data site even though the witness is "available"
    assert device.read_block(0) == data
    device.write_block(1, data)


def test_filesystem_over_witness_group():
    from repro.device import ReliableDevice
    from repro.fs import FileSystem

    protocol = build_group(
        SchemeName.VOTING, 3, 256, 512, Network(), witnesses=1
    )
    fs = FileSystem.format(ReliableDevice(protocol))
    fs.create("/f")
    fs.write_file("/f", b"witnessed")
    protocol.on_site_failed(1)
    assert fs.read_file("/f") == b"witnessed"


class TestFailoverEdges:
    """Origin-down and all-down behaviour on both operation paths."""

    def test_no_failover_write_surfaces_site_down(self, scheme):
        cluster = make_cluster(scheme)
        device = cluster.device(origin=0, failover=False)
        cluster.protocol.on_site_failed(0)
        with pytest.raises(SiteDownError):
            device.write_block(0, block_of(cluster, b"w"))
        assert device.stats.failed_writes == 1

    def test_no_failover_read_surfaces_site_down(self, scheme):
        cluster = make_cluster(scheme)
        device = cluster.device(origin=0, failover=False)
        cluster.protocol.on_site_failed(0)
        with pytest.raises(SiteDownError):
            device.read_block(0)
        assert device.stats.failed_reads == 1

    def test_all_sites_down_read_surfaces_unavailable(self, scheme):
        cluster = make_cluster(scheme)
        device = cluster.device()
        for site_id in cluster.protocol.site_ids:
            cluster.protocol.on_site_failed(site_id)
        with pytest.raises(DeviceUnavailableError):
            device.read_block(0)
        assert device.stats.failed_reads == 1

    def test_all_sites_down_write_surfaces_unavailable(self, scheme):
        cluster = make_cluster(scheme)
        device = cluster.device()
        for site_id in cluster.protocol.site_ids:
            cluster.protocol.on_site_failed(site_id)
        with pytest.raises(DeviceUnavailableError):
            device.write_block(0, block_of(cluster, b"x"))
        assert device.stats.failed_writes == 1

    def test_failover_is_counted(self, scheme):
        cluster = make_cluster(scheme)
        device = cluster.device(origin=0)
        device.write_block(0, block_of(cluster, b"f"))
        assert device.fault_stats.failovers == 0
        cluster.protocol.on_site_failed(0)
        device.read_block(0)
        assert device.fault_stats.failovers == 1


class TestRetryPolicy:
    def test_delay_sequence_is_capped_exponential(self):
        from repro.device import RetryPolicy

        policy = RetryPolicy(max_attempts=5, initial_delay=1.0,
                             backoff_factor=3.0, max_delay=10.0)
        assert list(policy.delays()) == [1.0, 3.0, 9.0, 10.0]

    def test_validation(self):
        from repro.device import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(initial_delay=5.0, max_delay=1.0)

    def test_retry_outwaits_a_repair(self, scheme):
        """The backoff clock advances simulated time past a repair."""
        from repro.device import RetryPolicy

        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        device = cluster.device(
            retry=RetryPolicy(max_attempts=3, initial_delay=5.0)
        )
        data = block_of(cluster, b"r")
        device.write_block(0, data)
        for site_id in protocol.site_ids:
            protocol.on_site_failed(site_id)
        for site_id in protocol.site_ids:
            cluster.sim.schedule(
                3.0, lambda s=site_id: protocol.on_site_repaired(s)
            )
        assert device.read_block(0) == data
        assert device.fault_stats.retries == 1

    def test_retry_budget_exhausts(self, scheme):
        from repro.device import RetryPolicy

        cluster = make_cluster(scheme)
        device = cluster.device(retry=RetryPolicy(max_attempts=3,
                                                  initial_delay=0.0))
        for site_id in cluster.protocol.site_ids:
            cluster.protocol.on_site_failed(site_id)
        with pytest.raises(DeviceUnavailableError):
            device.read_block(0)
        assert device.fault_stats.retries == 2  # 3 attempts = 2 retries

    def test_raising_backoff_clock_keeps_retry_count(self, scheme):
        """A backoff that raises must not lose the retry it decided.

        The retry is counted the moment the policy grants another
        attempt; a clock that explodes mid-backoff (simulator horizon,
        injected fault) surfaces its error without erasing that fact.
        """
        from repro.device import RetryPolicy
        from repro.device.reliable import ReliableDevice

        class ExplodingClock:
            now = 0.0

            def run(self, until):
                raise RuntimeError("clock fault during backoff")

        cluster = make_cluster(scheme)
        for site_id in cluster.protocol.site_ids:
            cluster.protocol.on_site_failed(site_id)
        device = ReliableDevice(
            cluster.protocol,
            retry=RetryPolicy(max_attempts=3, initial_delay=1.0),
            clock=ExplodingClock(),
        )
        with pytest.raises(RuntimeError, match="clock fault"):
            device.read_block(0)
        assert device.fault_stats.retries == 1

    def test_no_retry_by_default(self, scheme):
        cluster = make_cluster(scheme)
        device = cluster.device()
        for site_id in cluster.protocol.site_ids:
            cluster.protocol.on_site_failed(site_id)
        with pytest.raises(DeviceUnavailableError):
            device.read_block(0)
        assert device.fault_stats.retries == 0


class TestDegradedMode:
    def test_write_failure_degrades_to_read_only(self, scheme):
        from repro.errors import ReadOnlyDeviceError

        cluster = make_cluster(scheme, num_sites=3)
        protocol = cluster.protocol
        device = cluster.device(origin=0, degrade_to_read_only=True)
        data = block_of(cluster, b"d")
        device.write_block(0, data)
        for site_id in protocol.site_ids:
            protocol.on_site_failed(site_id)
        with pytest.raises(DeviceUnavailableError):
            device.write_block(1, data)
        assert device.degraded
        # repaired or not, the device now refuses writes...
        for site_id in protocol.site_ids:
            protocol.on_site_repaired(site_id)
        with pytest.raises(ReadOnlyDeviceError):
            device.write_block(1, data)
        assert device.fault_stats.degraded_writes_rejected == 1
        # ...but keeps serving reads
        assert device.read_block(0) == data
        device.reset_degraded()
        device.write_block(1, data)

    def test_reads_never_degrade(self, scheme):
        cluster = make_cluster(scheme)
        device = cluster.device(degrade_to_read_only=True)
        for site_id in cluster.protocol.site_ids:
            cluster.protocol.on_site_failed(site_id)
        with pytest.raises(DeviceUnavailableError):
            device.read_block(0)
        assert not device.degraded


def test_write_exposes_assigned_version(scheme):
    cluster = make_cluster(scheme)
    device = cluster.device()
    assert device.last_write_version is None
    device.write_block(3, block_of(cluster, b"v"))
    assert device.last_write_version == 1
    device.write_block(3, block_of(cluster, b"w"))
    assert device.last_write_version == 2

"""Behavioural tests for the available-copy scheme (Figure 5)."""

import pytest

from repro.core import AvailableCopyProtocol
from repro.device import Site
from repro.errors import NoAvailableCopyError, SiteDownError
from repro.net import Network
from repro.types import AddressingMode, SchemeName, SiteState

BLOCK_SIZE = 16
NUM_BLOCKS = 8


def make_group(n=3, mode=AddressingMode.MULTICAST, track_failures=True):
    sites = [Site(i, NUM_BLOCKS, BLOCK_SIZE) for i in range(n)]
    network = Network(mode=mode)
    protocol = AvailableCopyProtocol(
        sites, network, track_failures=track_failures
    )
    return protocol, network.meter


def fill(byte):
    return bytes([byte]) * BLOCK_SIZE


class TestBasicOperation:
    def test_write_reaches_every_available_copy(self):
        protocol, _ = make_group()
        protocol.write(0, 2, fill(9))
        for site in protocol.sites:
            assert site.read_block(2) == fill(9)
            assert site.block_version(2) == 1

    def test_scheme_tag(self):
        protocol, _ = make_group()
        assert protocol.scheme is SchemeName.AVAILABLE_COPY

    def test_read_is_local_and_free(self):
        protocol, meter = make_group()
        protocol.write(0, 0, fill(1))
        before = meter.total
        assert protocol.read(2, 0) == fill(1)
        assert meter.total == before

    def test_single_survivor_still_serves(self):
        protocol, _ = make_group(3)
        protocol.on_site_failed(0)
        protocol.on_site_failed(1)
        protocol.write(2, 0, fill(3))
        assert protocol.read(2, 0) == fill(3)
        assert protocol.is_available()

    def test_write_skips_failed_sites(self):
        protocol, _ = make_group(3)
        protocol.on_site_failed(1)
        protocol.write(0, 0, fill(5))
        assert protocol.site(1).block_version(0) == 0
        assert protocol.site(2).block_version(0) == 1

    def test_invariants_hold_after_writes(self):
        protocol, _ = make_group()
        protocol.write(0, 0, fill(1))
        protocol.write(1, 1, fill(2))
        protocol.check_invariants()
        assert protocol.consistency_report() == {}


class TestSimpleRepair:
    def test_repairing_site_refreshes_only_stale_blocks(self):
        protocol, _ = make_group(3)
        protocol.write(0, 0, fill(1))
        protocol.write(0, 1, fill(2))
        protocol.on_site_failed(2)
        protocol.write(0, 1, fill(3))  # block 1 changes while 2 is down
        protocol.on_site_repaired(2)
        assert protocol.site(2).state is SiteState.AVAILABLE
        assert protocol.site(2).read_block(1) == fill(3)
        assert protocol.site(2).block_version(0) == 1
        protocol.check_invariants()

    def test_repair_traffic_is_probe_plus_vv_exchange(self):
        protocol, meter = make_group(3)
        protocol.write(0, 0, fill(1))
        protocol.on_site_failed(2)
        before = meter.total
        protocol.on_site_repaired(2)
        # probe (1) + 2 replies + vv request + vv reply = 5 = U_A + 2
        assert meter.total - before == 5
        assert meter.operations("recovery") == 1
        assert meter.mean_messages("recovery") == 5.0

    def test_unique_addressing_repair_costs_n_plus_u(self):
        protocol, meter = make_group(3, mode=AddressingMode.UNIQUE)
        protocol.on_site_failed(2)
        before = meter.total
        protocol.on_site_repaired(2)
        # 2 probes + 2 replies + vv request + vv reply = 6 = n + U_A
        assert meter.total - before == 6

    def test_write_after_repair_hits_everyone(self):
        protocol, _ = make_group(3)
        protocol.on_site_failed(1)
        protocol.on_site_repaired(1)
        protocol.write(0, 0, fill(7))
        assert protocol.site(1).read_block(0) == fill(7)


class TestTotalFailure:
    def test_group_recovers_when_last_failed_site_returns(self):
        protocol, _ = make_group(3)
        protocol.write(0, 0, fill(1))
        protocol.on_site_failed(1)
        protocol.write(0, 0, fill(2))
        protocol.on_site_failed(2)
        protocol.write(0, 0, fill(3))
        protocol.on_site_failed(0)  # 0 failed LAST, holds fill(3)
        assert not protocol.is_available()
        # the other sites come back first: they must stay comatose
        protocol.on_site_repaired(1)
        assert protocol.site(1).state is SiteState.COMATOSE
        assert not protocol.is_available()
        with pytest.raises(SiteDownError):
            protocol.read(1, 0)
        protocol.on_site_repaired(2)
        assert not protocol.is_available()
        # the last site to fail returns: everyone recovers from it
        protocol.on_site_repaired(0)
        assert protocol.is_available()
        for site in protocol.sites:
            assert site.state is SiteState.AVAILABLE
            assert site.read_block(0) == fill(3)
        assert protocol.total_failure_recoveries == 1
        protocol.check_invariants()

    def test_last_failed_site_alone_restores_service(self):
        """The tracked scheme's whole advantage over naive (Figure 7's
        mu transition out of every S' state)."""
        protocol, _ = make_group(3)
        protocol.write(0, 0, fill(1))
        protocol.on_site_failed(0)
        protocol.on_site_failed(1)
        protocol.write(2, 0, fill(2))
        protocol.on_site_failed(2)  # total failure; 2 failed last
        protocol.on_site_repaired(2)
        # nobody else is back, yet the group is in service again
        assert protocol.is_available()
        assert protocol.read(2, 0) == fill(2)
        protocol.write(2, 0, fill(3))

    def test_write_during_total_failure_raises(self):
        protocol, _ = make_group(2)
        protocol.on_site_failed(0)
        protocol.on_site_failed(1)
        protocol.on_site_repaired(0)  # wrong site first (1 failed last)
        with pytest.raises(NoAvailableCopyError):
            protocol.write(0, 0, fill(1))

    def test_comatose_site_failing_again_is_tolerated(self):
        protocol, _ = make_group(3)
        protocol.write(0, 0, fill(1))
        for s in (1, 2, 0):
            protocol.on_site_failed(s)
        protocol.on_site_repaired(1)
        assert protocol.site(1).state is SiteState.COMATOSE
        protocol.on_site_failed(1)  # comatose copy dies again
        assert protocol.site(1).state is SiteState.FAILED
        protocol.on_site_repaired(0)  # last-failed returns
        assert protocol.is_available()
        protocol.on_site_repaired(1)
        assert protocol.site(1).state is SiteState.AVAILABLE
        protocol.check_invariants()

    def test_interleaved_total_failures(self):
        protocol, _ = make_group(2)
        protocol.write(0, 0, fill(1))
        for _round in range(3):
            protocol.on_site_failed(0)
            protocol.on_site_failed(1)
            protocol.on_site_repaired(0)
            protocol.on_site_repaired(1)  # 1 failed last
            assert protocol.is_available()
            protocol.write(0, 0, fill(2))
            protocol.check_invariants()


class TestLazyWasAvailable:
    """track_failures=False: W updated only on writes and repairs."""

    def test_recent_writes_keep_recovery_fast(self):
        protocol, _ = make_group(3, track_failures=False)
        protocol.write(0, 0, fill(1))
        protocol.on_site_failed(0)
        protocol.write(1, 0, fill(2))  # W_1 = W_2 = {1, 2}
        protocol.on_site_failed(1)
        protocol.write(2, 0, fill(3))  # W_2 = {2}
        protocol.on_site_failed(2)
        protocol.on_site_repaired(2)
        # W_2 = {2}: its closure is satisfied immediately
        assert protocol.is_available()
        assert protocol.read(2, 0) == fill(3)

    def test_stale_sets_degenerate_to_waiting_for_everyone(self):
        protocol, _ = make_group(3, track_failures=False)
        protocol.write(0, 0, fill(1))  # W = {0,1,2} everywhere
        # no further writes: the sets stay stale
        protocol.on_site_failed(0)
        protocol.on_site_failed(1)
        protocol.on_site_failed(2)  # 2 failed last
        protocol.on_site_repaired(2)
        # W_2 still {0,1,2}: cannot prove itself current
        assert not protocol.is_available()
        protocol.on_site_repaired(0)
        assert not protocol.is_available()
        protocol.on_site_repaired(1)
        assert protocol.is_available()  # everyone back: closure satisfied
        for site in protocol.sites:
            assert site.read_block(0) == fill(1)

    def test_repair_exchanges_was_available_sets(self):
        protocol, _ = make_group(3, track_failures=False)
        protocol.write(0, 0, fill(1))
        protocol.on_site_failed(2)
        protocol.write(0, 0, fill(2))  # W_0 = W_1 = {0, 1}
        assert protocol.site(0).was_available == {0, 1}
        protocol.on_site_repaired(2)
        # Figure 5's tail: both parties now record the union + {2}
        assert 2 in protocol.site(2).was_available
        source_w = protocol.site(0).was_available | \
            protocol.site(1).was_available
        assert 2 in source_w


class TestMessageAccounting:
    def test_multicast_write_costs_u(self):
        protocol, meter = make_group(3)
        before = meter.total
        protocol.write(0, 0, fill(1))
        assert meter.total - before == 3  # broadcast + 2 acks

    def test_multicast_write_with_one_down_costs_less(self):
        protocol, meter = make_group(3)
        protocol.on_site_failed(2)
        before = meter.total
        protocol.write(0, 0, fill(1))
        assert meter.total - before == 2  # broadcast + 1 ack

    def test_unique_write_costs_n_plus_u_minus_2(self):
        protocol, meter = make_group(3, mode=AddressingMode.UNIQUE)
        before = meter.total
        protocol.write(0, 0, fill(1))
        assert meter.total - before == 4  # 2 sends + 2 acks

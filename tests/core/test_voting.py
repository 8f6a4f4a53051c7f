"""Behavioural tests for majority consensus voting (Figures 3-4)."""

import pytest

from repro.core import QuorumSpec, VotingProtocol
from repro.device import Site
from repro.errors import QuorumNotReachedError, SiteDownError
from repro.net import MessageCategory, Network
from repro.types import AddressingMode, SchemeName, SiteState

from ..conftest import make_cluster

BLOCK_SIZE = 16
NUM_BLOCKS = 8


def make_group(n=3, mode=AddressingMode.MULTICAST, **kwargs):
    spec = QuorumSpec.majority(n)
    sites = [
        Site(i, NUM_BLOCKS, BLOCK_SIZE, weight=spec.weight_of(i))
        for i in range(n)
    ]
    network = Network(mode=mode)
    protocol = VotingProtocol(sites, network, spec=spec, **kwargs)
    return protocol, network.meter


def fill(byte):
    return bytes([byte]) * BLOCK_SIZE


class TestBasicOperation:
    def test_write_then_read(self):
        protocol, _ = make_group()
        protocol.write(0, 3, fill(7))
        assert protocol.read(1, 3) == fill(7)

    def test_scheme_tag(self):
        protocol, _ = make_group()
        assert protocol.scheme is SchemeName.VOTING

    def test_write_installs_same_version_everywhere(self):
        protocol, _ = make_group()
        protocol.write(0, 0, fill(1))
        protocol.write(1, 0, fill(2))
        versions = {s.block_version(0) for s in protocol.sites}
        assert versions == {2}

    def test_unwritten_block_reads_zeros(self):
        protocol, _ = make_group()
        assert protocol.read(0, 5) == bytes(BLOCK_SIZE)


class TestQuorumEnforcement:
    def test_write_fails_without_majority(self):
        protocol, _ = make_group(3)
        protocol.on_site_failed(1)
        protocol.write(0, 0, fill(1))  # 2 of 3 is still a majority
        protocol.on_site_failed(2)
        with pytest.raises(QuorumNotReachedError):
            protocol.write(0, 0, fill(2))

    def test_read_fails_without_majority(self):
        protocol, _ = make_group(3)
        protocol.on_site_failed(1)
        protocol.on_site_failed(2)
        with pytest.raises(QuorumNotReachedError):
            protocol.read(0, 0)

    def test_even_group_tie_break(self):
        protocol, _ = make_group(4)
        protocol.on_site_failed(2)
        protocol.on_site_failed(3)
        # sites {0, 1} hold the tie-breaking weight: quorum
        protocol.write(0, 0, fill(9))
        protocol.on_site_repaired(2)
        protocol.on_site_repaired(3)
        protocol.on_site_failed(0)
        protocol.on_site_failed(1)
        # sites {2, 3} do not: no quorum
        with pytest.raises(QuorumNotReachedError):
            protocol.write(2, 0, fill(9))

    def test_failed_origin_rejected(self):
        protocol, _ = make_group(3)
        protocol.on_site_failed(0)
        with pytest.raises(SiteDownError):
            protocol.read(0, 0)

    def test_availability_predicate_tracks_quorum(self):
        protocol, _ = make_group(5)
        assert protocol.is_available()
        for site in (0, 1):
            protocol.on_site_failed(site)
        assert protocol.is_available()  # 3 of 5
        protocol.on_site_failed(2)
        assert not protocol.is_available()
        protocol.on_site_repaired(0)
        assert protocol.is_available()


class TestLazyRecovery:
    def test_rejoined_site_serves_latest_data_via_lazy_repair(self):
        protocol, _ = make_group(3)
        protocol.write(0, 4, fill(1))
        protocol.on_site_failed(1)
        protocol.write(0, 4, fill(2))  # site 1 misses this
        protocol.on_site_repaired(1)
        assert protocol.site(1).block_version(4) == 1  # still stale
        assert protocol.read(1, 4) == fill(2)  # repaired lazily
        assert protocol.lazy_repairs == 1
        assert protocol.site(1).block_version(4) == 2

    def test_second_read_needs_no_transfer(self):
        protocol, meter = make_group(3)
        protocol.write(0, 4, fill(1))
        protocol.on_site_failed(1)
        protocol.write(0, 4, fill(2))
        protocol.on_site_repaired(1)
        protocol.read(1, 4)
        before = meter.category_count(MessageCategory.BLOCK_TRANSFER)
        protocol.read(1, 4)
        assert meter.category_count(MessageCategory.BLOCK_TRANSFER) == before

    def test_write_repairs_stale_quorum_members(self):
        protocol, _ = make_group(3)
        protocol.on_site_failed(2)
        protocol.write(0, 1, fill(5))
        protocol.on_site_repaired(2)
        # site 2 is stale until the next write touches the block
        protocol.write(1, 1, fill(6))
        assert protocol.site(2).read_block(1) == fill(6)
        assert protocol.site(2).block_version(1) == 2

    def test_repair_incurs_no_traffic(self):
        protocol, meter = make_group(3)
        protocol.write(0, 0, fill(1))
        protocol.on_site_failed(1)
        protocol.write(0, 0, fill(2))
        before = meter.total
        protocol.on_site_repaired(1)
        assert meter.total == before
        assert meter.operations("recovery") == 0

    def test_version_resumes_from_quorum_max_after_missed_writes(self):
        protocol, _ = make_group(3)
        for value in (1, 2, 3):
            protocol.write(0, 0, fill(value))
        protocol.on_site_failed(0)
        # the stale-free majority continues
        protocol.write(1, 0, fill(4))
        protocol.on_site_repaired(0)
        protocol.write(0, 0, fill(5))
        assert protocol.site(1).block_version(0) == 5
        assert protocol.read(2, 0) == fill(5)


class TestMessageAccounting:
    def test_multicast_read_costs_u(self):
        protocol, meter = make_group(3)
        protocol.write(0, 0, fill(1))
        before = meter.total
        protocol.read(0, 0)
        assert meter.total - before == 3  # 1 request + 2 replies

    def test_multicast_read_with_stale_local_costs_u_plus_one(self):
        protocol, meter = make_group(3)
        protocol.write(0, 0, fill(1))
        protocol.on_site_failed(1)
        protocol.write(0, 0, fill(2))
        protocol.on_site_repaired(1)
        before = meter.total
        protocol.read(1, 0)
        assert meter.total - before == 4  # quorum + block transfer

    def test_multicast_write_costs_one_plus_u(self):
        protocol, meter = make_group(3)
        before = meter.total
        protocol.write(0, 0, fill(1))
        assert meter.total - before == 4  # 1 + 2 replies + 1 update

    def test_unique_write_costs_n_plus_2u_minus_3(self):
        protocol, meter = make_group(3, mode=AddressingMode.UNIQUE)
        before = meter.total
        protocol.write(0, 0, fill(1))
        # (n-1) requests + (U-1) replies + (U-1) updates = 2+2+2
        assert meter.total - before == 6

    def test_unique_read_costs_n_plus_u_minus_2(self):
        protocol, meter = make_group(3, mode=AddressingMode.UNIQUE)
        protocol.write(0, 0, fill(1))
        before = meter.total
        protocol.read(0, 0)
        assert meter.total - before == 4  # 2 requests + 2 replies

    def test_write_with_one_site_down(self):
        protocol, meter = make_group(3)
        protocol.on_site_failed(2)
        before = meter.total
        protocol.write(0, 0, fill(1))
        # 1 request + 1 reply + 1 update broadcast
        assert meter.total - before == 3

    def test_failed_ops_still_cost_the_vote_phase(self):
        protocol, meter = make_group(3)
        protocol.on_site_failed(1)
        protocol.on_site_failed(2)
        before = meter.total
        with pytest.raises(QuorumNotReachedError):
            protocol.write(0, 0, fill(1))
        assert meter.total - before == 1  # the lonely vote request


class TestEagerRepairAblation:
    def test_eager_repair_refreshes_on_recovery(self):
        protocol, meter = make_group(3, eager_repair=True)
        protocol.write(0, 0, fill(1))
        protocol.write(0, 1, fill(2))
        protocol.on_site_failed(2)
        protocol.write(0, 0, fill(3))
        before = meter.total
        protocol.on_site_repaired(2)
        assert meter.total > before  # recovery traffic exists now
        assert protocol.site(2).read_block(0) == fill(3)
        assert meter.operations("recovery") == 1

    def test_eager_reply_is_priced_as_what_it_carries(self):
        """The eager refresh is Figure 5's version-vector exchange: its
        reply ships the source's vector and every stale block, and
        costs what available copy's identical exchange costs."""
        reply = MessageCategory.VERSION_VECTOR_REPLY

        def repair_reply_bytes(scheme, **kwargs):
            cluster = make_cluster(scheme, num_sites=5, **kwargs)
            protocol = cluster.protocol
            protocol.on_site_failed(4)
            for block in range(3):
                protocol.write(0, block, bytes(cluster.config.block_size))
            before = cluster.meter.category_bytes(reply)
            protocol.on_site_repaired(4)
            return cluster.meter.category_bytes(reply) - before

        eager = repair_reply_bytes(SchemeName.VOTING, eager_repair=True)
        assert eager == 32 + 3 * 8 + 3 * (8 + 512)
        assert eager == repair_reply_bytes(SchemeName.AVAILABLE_COPY)

    def test_eager_repair_with_no_peers_is_silent(self):
        protocol, meter = make_group(3, eager_repair=True)
        for s in (0, 1, 2):
            protocol.on_site_failed(s)
        before = meter.total
        protocol.on_site_repaired(0)
        assert meter.total == before


class TestConstruction:
    def test_weight_mismatch_rejected(self):
        sites = [Site(i, NUM_BLOCKS, BLOCK_SIZE, weight=1.0) for i in range(4)]
        with pytest.raises(ValueError):
            VotingProtocol(sites, Network(), spec=QuorumSpec.majority(4))

    def test_spec_size_mismatch_rejected(self):
        sites = [Site(i, NUM_BLOCKS, BLOCK_SIZE) for i in range(3)]
        with pytest.raises(ValueError):
            VotingProtocol(sites, Network(), spec=QuorumSpec.majority(5))

    def test_repair_returns_site_to_available(self):
        protocol, _ = make_group(3)
        protocol.on_site_failed(1)
        assert protocol.site(1).state is SiteState.FAILED
        protocol.on_site_repaired(1)
        assert protocol.site(1).state is SiteState.AVAILABLE

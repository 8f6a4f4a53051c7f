"""Self-healing reads and write fencing under injected faults."""

import pytest

from repro.errors import CorruptBlockError, QuorumNotReachedError
from repro.faults import FaultInjector
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName, SiteState

BLOCK_SIZE = 16
NUM_BLOCKS = 8


def make_group(scheme, n=3):
    return build_group(scheme, n, NUM_BLOCKS, BLOCK_SIZE, Network())


def fill(byte):
    return bytes([byte]) * BLOCK_SIZE


def corrupt(protocol, site_id, block):
    store = protocol.site(site_id).store
    data = bytearray(store.read(block))
    data[0] ^= 0xFF
    store.inject_corruption(block, bytes(data))


class TestSelfHealingReads:
    @pytest.mark.parametrize("scheme", list(SchemeName))
    def test_read_heals_corrupt_origin_copy(self, scheme):
        protocol = make_group(scheme)
        protocol.write(0, 2, fill(7))
        corrupt(protocol, 0, 2)
        assert protocol.read(0, 2) == fill(7)  # healed transparently
        assert protocol.site(0).store.verify(2)
        assert protocol.corruptions_detected == 1
        assert protocol.blocks_healed == 1

    @pytest.mark.parametrize("scheme", list(SchemeName))
    def test_read_skips_corrupt_peer_and_heals_from_next(self, scheme):
        protocol = make_group(scheme)
        protocol.write(0, 2, fill(9))
        corrupt(protocol, 0, 2)
        corrupt(protocol, 1, 2)
        assert protocol.read(0, 2) == fill(9)
        assert protocol.corruptions_detected >= 2

    @pytest.mark.parametrize("scheme", list(SchemeName))
    def test_read_raises_when_every_copy_is_corrupt(self, scheme):
        protocol = make_group(scheme)
        protocol.write(0, 2, fill(3))
        for site in protocol.sites:
            corrupt(protocol, site.site_id, 2)
        with pytest.raises(CorruptBlockError):
            protocol.read(0, 2)

    @pytest.mark.parametrize("scheme", list(SchemeName))
    def test_heal_is_inert_on_clean_reads(self, scheme):
        protocol = make_group(scheme)
        protocol.write(0, 1, fill(5))
        protocol.read(1, 1)
        assert protocol.corruptions_detected == 0
        assert protocol.blocks_healed == 0


class TestWriteFencing:
    """Available-copy schemes evict sites that miss a write fan-out."""

    @pytest.mark.parametrize(
        "scheme",
        [SchemeName.AVAILABLE_COPY, SchemeName.NAIVE_AVAILABLE_COPY],
    )
    def test_missed_update_fences_the_silent_site(self, scheme):
        protocol = make_group(scheme)
        injector = FaultInjector(protocol).attach()
        injector.drop_deliveries(2, count=1)
        protocol.write(0, 0, fill(1))
        assert protocol.site(2).state is SiteState.FAILED
        assert protocol.sites_fenced == 1
        # the fenced site rejoins through the ordinary repair procedure
        protocol.on_site_repaired(2)
        assert protocol.site(2).state is SiteState.AVAILABLE
        assert protocol.site(2).read_block(0) == fill(1)

    @pytest.mark.parametrize(
        "scheme",
        [SchemeName.AVAILABLE_COPY, SchemeName.NAIVE_AVAILABLE_COPY],
    )
    def test_no_fencing_on_the_fault_free_path(self, scheme):
        protocol = make_group(scheme)
        protocol.write(0, 0, fill(2))
        protocol.on_site_failed(2)
        protocol.write(0, 1, fill(3))  # a failed site is not "silent"
        assert protocol.sites_fenced == 0

    def test_voting_drop_below_quorum_fails_the_write(self):
        protocol = make_group(SchemeName.VOTING)
        injector = FaultInjector(protocol).attach()
        # drop the update to both non-origin quorum members: what
        # applied (the origin alone) is below the write quorum
        injector.drop_deliveries(1, count=1)
        injector.drop_deliveries(2, count=1)
        with pytest.raises(QuorumNotReachedError):
            protocol.write(0, 0, fill(4))
        # the origin did not apply the write either
        assert protocol.site(0).block_version(0) == 0

    def test_voting_drop_with_quorum_left_still_commits(self):
        protocol = make_group(SchemeName.VOTING)
        injector = FaultInjector(protocol).attach()
        injector.drop_deliveries(2, count=1)
        protocol.write(0, 0, fill(5))  # origin + site 1 = majority
        assert protocol.site(0).block_version(0) == 1
        assert protocol.site(1).block_version(0) == 1
        assert protocol.site(2).block_version(0) == 0
        # quorum intersection keeps reads correct from anywhere
        assert protocol.read(2, 0) == fill(5)

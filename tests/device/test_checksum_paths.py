"""Every way a block reaches stable storage records the CRC of what it
stored.

A fan-out computes each block's checksum once, from the bytes every
replica stores, and the stores take it as given
(:meth:`~repro.device.block.BlockStore.apply`).  A checksum stamped from
anything but those bytes would make the next read of an intact copy
raise, or -- worse -- be written into a site image as the stored CRC.
So after writes through each store path, every entry of every store
that holds data must carry ``crc32(data)``.
"""

import zlib

import pytest

from repro.core import QuorumPolicy
from repro.device import Site
from repro.membership import MembershipManager
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName, SiteState

BLOCK_SIZE = 16
NUM_BLOCKS = 8


def fill(value):
    return bytes([value]) * BLOCK_SIZE


def group(scheme=SchemeName.VOTING, n=3, **options):
    return build_group(scheme, n, NUM_BLOCKS, BLOCK_SIZE, Network(), **options)


def assert_checksums(sites, **expected):
    """Every stored block's checksum is the CRC of its data; ``expected``
    maps ``site<i>`` to the ``{block: data}`` that site must hold."""
    held = 0
    for site in sites:
        for index, _version, data, checksum in site.store.entries():
            if data is not None:
                assert checksum == zlib.crc32(data), (site.site_id, index)
                held += 1
    assert held
    by_id = {f"site{s.site_id}": s for s in sites}
    for name, blocks in expected.items():
        for index, data in blocks.items():
            assert by_id[name].store.read(index) == data


class TestFanOuts:
    @pytest.mark.parametrize("witnesses", [0, 1], ids=["data", "witness"])
    def test_voting_single_and_batch_writes(self, witnesses):
        protocol = group(witnesses=witnesses)
        protocol.write(0, 1, fill(1))
        protocol.write_batch(0, {2: fill(2), 5: fill(5)})
        written = {1: fill(1), 2: fill(2), 5: fill(5)}
        assert_checksums(protocol.sites, site0=written, site1=written)
        if witnesses:
            witness = protocol.site(2)
            assert witness.block_version(5) == 1
            assert witness.store.blocks_written == 0

    @pytest.mark.parametrize(
        "scheme",
        [SchemeName.AVAILABLE_COPY, SchemeName.NAIVE_AVAILABLE_COPY],
        ids=["ac", "nac"],
    )
    def test_available_copy_fan_outs(self, scheme):
        protocol = group(scheme)
        protocol.write(1, 0, fill(7))
        protocol.write_batch(0, {3: fill(3), 6: fill(6)})
        written = {0: fill(7), 3: fill(3), 6: fill(6)}
        assert_checksums(
            protocol.sites, site0=written, site1=written, site2=written
        )


class TestRepairPaths:
    def test_stale_batch_read_transfer(self):
        protocol = group()
        protocol.write_batch(0, {b: fill(1) for b in range(4)})
        protocol.on_site_failed(2)
        newer = {b: fill(10 + b) for b in range(4)}
        protocol.write_batch(0, newer)
        protocol.on_site_repaired(2)
        assert protocol.read_batch(2, [3, 1, 0, 2]) == newer
        assert protocol.lazy_repairs == 4
        assert_checksums(protocol.sites, site2=newer)

    def test_hint_replay_under_sloppy_policy(self):
        protocol = group(policy=QuorumPolicy(3, 1, 1, allow_sloppy=True))
        protocol.on_site_failed(2)
        protocol.write(0, 4, fill(8))
        protocol.on_site_repaired(2)
        assert protocol.hints_replayed == 1
        assert_checksums(protocol.sites, site2={4: fill(8)})

    def test_read_repair_under_sloppy_policy(self):
        protocol = group(policy=QuorumPolicy(
            3, 2, 1, allow_sloppy=True, hinted_handoff=False,
        ))
        protocol.write(0, 6, fill(1))
        protocol.on_site_failed(2)
        protocol.write(0, 6, fill(2))
        protocol.site(2).set_state(SiteState.AVAILABLE)
        assert protocol.read(0, 6) == fill(2)
        assert protocol.read_repairs >= 1
        assert_checksums(protocol.sites, site2={6: fill(2)})

    def test_voting_eager_refresh(self):
        protocol = group(eager_repair=True)
        protocol.write(0, 0, fill(1))
        protocol.on_site_failed(2)
        protocol.write_batch(0, {0: fill(2), 7: fill(7)})
        protocol.on_site_repaired(2)
        assert_checksums(protocol.sites, site2={0: fill(2), 7: fill(7)})

    def test_available_copy_vector_exchange_repair(self):
        protocol = group(SchemeName.AVAILABLE_COPY)
        protocol.write(0, 0, fill(1))
        protocol.on_site_failed(2)
        protocol.write_batch(0, {0: fill(2), 5: fill(5)})
        protocol.on_site_repaired(2)
        assert protocol.site(2).is_available
        assert_checksums(protocol.sites, site2={0: fill(2), 5: fill(5)})

    def test_joiner_state_transfer(self):
        protocol = group(SchemeName.AVAILABLE_COPY, n=4)
        for block in range(NUM_BLOCKS):
            protocol.write(0, block, fill(block + 1))
        manager = MembershipManager(protocol, catchup_blocks=2)
        joiner = Site(9, NUM_BLOCKS, BLOCK_SIZE)
        manager.open_add(joiner)
        assert not manager.step()  # one chunk moved, not yet caught up
        assert joiner.state is SiteState.COMATOSE
        assert joiner.store.blocks_written == 2
        assert_checksums([joiner], site9={0: fill(1), 1: fill(2)})
        assert manager.finalize()
        assert_checksums(
            [joiner], site9={b: fill(b + 1) for b in range(NUM_BLOCKS)}
        )

"""Voting with witnesses: protocol behaviour."""

import pytest

from repro.errors import (
    NoCurrentDataCopyError,
    QuorumNotReachedError,
    SiteDownError,
)
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName

BLOCK_SIZE = 64


def witness_group(data_copies, witnesses):
    """A voting group whose last ``witnesses`` sites are vote-only."""
    return build_group(
        SchemeName.VOTING, data_copies + witnesses, 16, BLOCK_SIZE,
        Network(), witnesses=witnesses,
    )


def fill(byte):
    return bytes([byte]) * BLOCK_SIZE


def test_witness_group_serves_reads_and_writes():
    protocol = witness_group(data_copies=2, witnesses=1)
    protocol.write(0, 0, fill(1))
    assert protocol.read(1, 0) == fill(1)


def test_witness_stores_versions_but_no_data():
    protocol = witness_group(data_copies=2, witnesses=1)
    protocol.write(0, 3, fill(9))
    witness = protocol.site(2)
    assert witness.is_witness
    assert witness.block_version(3) == 1
    assert witness.read_block(3) == bytes(BLOCK_SIZE)  # no contents


def test_witness_vote_sustains_the_quorum():
    """2 copies + 1 witness survives one data-copy failure, like 3
    copies -- the configuration's whole point."""
    protocol = witness_group(data_copies=2, witnesses=1)
    protocol.write(0, 0, fill(1))
    protocol.on_site_failed(1)  # one data copy down
    protocol.write(0, 0, fill(2))  # copy 0 + witness = quorum
    assert protocol.read(0, 0) == fill(2)
    # copy 1 returns and refreshes lazily while copy 0 is still up...
    protocol.on_site_repaired(1)
    assert protocol.read(1, 0) == fill(2)
    # ...after which it can carry the group with the witness alone
    protocol.on_site_failed(0)
    assert protocol.read(1, 0) == fill(2)
    protocol.write(1, 0, fill(3))
    assert protocol.read(1, 0) == fill(3)


def test_witness_cannot_serve_clients():
    protocol = witness_group(data_copies=2, witnesses=1)
    with pytest.raises(SiteDownError):
        protocol.read(2, 0)
    with pytest.raises(SiteDownError):
        protocol.write(2, 0, fill(1))


def test_read_fails_when_only_witness_attests_current_version():
    protocol = witness_group(data_copies=2, witnesses=1)
    protocol.write(0, 0, fill(1))
    protocol.on_site_failed(1)
    protocol.write(0, 0, fill(2))  # copy 1 misses v2
    protocol.on_site_failed(0)     # now only copy 1 (stale) + witness up
    protocol.on_site_repaired(1)
    with pytest.raises(NoCurrentDataCopyError):
        protocol.read(1, 0)


def test_full_block_write_succeeds_without_current_copy():
    """The block-level benefit: a write needs no current data copy."""
    protocol = witness_group(data_copies=2, witnesses=1)
    protocol.write(0, 0, fill(1))
    protocol.on_site_failed(1)
    protocol.write(0, 0, fill(2))
    protocol.on_site_failed(0)
    protocol.on_site_repaired(1)
    # reads are stuck (previous test) but a write goes through...
    protocol.write(1, 0, fill(3))
    # ...and versions move past the witness's attestation
    assert protocol.site(1).block_version(0) == 3
    assert protocol.read(1, 0) == fill(3)
    # the repaired writer later syncs lazily
    protocol.on_site_repaired(0)
    assert protocol.read(0, 0) == fill(3)


def test_availability_requires_a_data_copy():
    protocol = witness_group(data_copies=1, witnesses=2)
    assert protocol.is_available()
    protocol.on_site_failed(0)  # the only data copy
    # witnesses still form a vote quorum, but nothing can be read
    assert not protocol.is_available()
    protocol.on_site_repaired(0)
    assert protocol.is_available()


def test_all_witness_group_rejected():
    from repro.core import QuorumSpec, VotingProtocol
    from repro.device import Site

    sites = [
        Site(i, 8, BLOCK_SIZE, weight=w, is_witness=True)
        for i, w in enumerate(QuorumSpec.majority(2).weights)
    ]
    with pytest.raises(ValueError):
        VotingProtocol(sites, Network(), spec=QuorumSpec.majority(2))


def test_quorum_still_enforced_with_witnesses():
    protocol = witness_group(data_copies=2, witnesses=1)
    protocol.on_site_failed(1)
    protocol.on_site_failed(2)
    # copy 0 alone: weight 1.5 of 3.5, no quorum
    with pytest.raises(QuorumNotReachedError):
        protocol.write(0, 0, fill(1))


def test_witness_write_traffic_unchanged():
    """Witnesses receive the same broadcast; transmission counts match
    the all-copies formula."""
    protocol = witness_group(data_copies=2, witnesses=1)
    before = protocol.network.meter.total
    protocol.write(0, 0, fill(1))
    assert protocol.network.meter.total - before == 4  # 1 + (U-1=2) + 1 update

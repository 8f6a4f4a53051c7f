"""Pool hygiene under exceptions (the protocol fast path's freelists).

The steady-state loops borrow a :class:`~repro.core.round.QuorumRound`
per operation.  Every borrow must be matched by a release *even when
the operation raises* -- a ``finally`` dropped during a refactor would
leak one pooled object per failing operation and quietly re-grow the
allocation rate the fast path removed.  These tests drive 1,000 failing
operations through the pool and assert the freelist neither grows nor
shrinks.
"""

import pytest

from repro.core import QuorumPolicy, QuorumSpec, VotingProtocol
from repro.core.available_copy import AvailableCopyProtocol
from repro.device import Site
from repro.errors import (
    NoCurrentDataCopyError,
    QuorumNotReachedError,
    SiteDownError,
)
from repro.net import Network
from repro.types import SiteState

BLOCK_SIZE = 16
NUM_BLOCKS = 8
FAILING_OPS = 1_000


def make_voting(n=5):
    spec = QuorumSpec.majority(n)
    sites = [
        Site(i, NUM_BLOCKS, BLOCK_SIZE, weight=spec.weight_of(i))
        for i in range(n)
    ]
    return VotingProtocol(sites, Network(), spec=spec)


class TestRoundPool:
    def test_failing_reads_return_rounds_to_pool(self):
        protocol = make_voting()
        # Warm the pool, then sink the group below quorum so every
        # subsequent operation raises mid-round.
        protocol.write(0, 1, b"\x01" * BLOCK_SIZE)
        for down in (2, 3, 4):
            protocol.site(down).set_state(SiteState.FAILED)
        baseline = len(protocol._round_pool)
        assert baseline >= 1
        for _ in range(FAILING_OPS):
            with pytest.raises(QuorumNotReachedError):
                protocol.read(0, 1)
            with pytest.raises(QuorumNotReachedError):
                protocol.write(0, 1, b"\x02" * BLOCK_SIZE)
        assert len(protocol._round_pool) == baseline

    def test_failing_batch_ops_return_rounds_to_pool(self):
        protocol = make_voting()
        protocol.write_batch(0, {1: b"\x01" * BLOCK_SIZE})
        for down in (2, 3, 4):
            protocol.site(down).set_state(SiteState.FAILED)
        baseline = len(protocol._round_pool)
        for _ in range(FAILING_OPS):
            with pytest.raises(QuorumNotReachedError):
                protocol.read_batch(0, [1, 2])
            with pytest.raises(QuorumNotReachedError):
                protocol.write_batch(0, {1: b"\x03" * BLOCK_SIZE})
        assert len(protocol._round_pool) == baseline

    def test_failing_local_read_heals_return_rounds_to_pool(self):
        # R = 1 serves reads locally and borrows a round only to heal a
        # corrupt copy; with every peer down the heal fails mid-round.
        sites = [Site(i, NUM_BLOCKS, BLOCK_SIZE) for i in range(3)]
        protocol = VotingProtocol(
            sites, Network(), policy=QuorumPolicy(3, 1, 3),
        )
        protocol.write(0, 1, b"\x01" * BLOCK_SIZE)
        protocol.site(0).store.inject_corruption(1, b"\xff" * BLOCK_SIZE)
        for down in (1, 2):
            protocol.site(down).set_state(SiteState.FAILED)
        baseline = len(protocol._round_pool)
        for _ in range(FAILING_OPS):
            with pytest.raises(NoCurrentDataCopyError):
                protocol.read(0, 1)
            with pytest.raises(NoCurrentDataCopyError):
                protocol.read_batch(0, [1, 2])
        assert len(protocol._round_pool) == baseline

    def test_available_copy_failing_ops_return_rounds(self):
        sites = [Site(i, NUM_BLOCKS, BLOCK_SIZE) for i in range(3)]
        protocol = AvailableCopyProtocol(sites, Network())
        protocol.write(0, 1, b"\x01" * BLOCK_SIZE)
        baseline = len(protocol._round_pool)
        # A down origin rejects before any round is borrowed: the
        # failing path must leave the freelist exactly alone (neither
        # draining it nor double-releasing into it).
        for site in protocol.sites:
            site.set_state(SiteState.FAILED)
        for _ in range(FAILING_OPS):
            with pytest.raises(SiteDownError):
                protocol.write(0, 1, b"\x02" * BLOCK_SIZE)
        assert len(protocol._round_pool) == baseline

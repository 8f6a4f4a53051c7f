"""Batched multi-block operations on the three consistency protocols.

The batched pipeline's contract: observably equivalent to the
sequential path per block, but with the consistency machinery amortized
-- one vote-collection round and one scatter-gather fan-out per batch.
"""

import pytest

from repro.errors import QuorumNotReachedError, SiteDownError
from repro.faults import HistoryRecorder
from repro.net.message import MessageCategory
from repro.types import SchemeName

from ..conftest import block_of, make_cluster


def batch_of(cluster, tags):
    """``{block: full-block payload}`` from ``{block: fill byte}``."""
    return {b: block_of(cluster, bytes([t])) for b, t in tags.items()}


class TestEquivalenceWithSequential:
    """Batched results must be byte- and version-identical to loops."""

    def test_write_batch_then_read_batch_roundtrips(self, scheme):
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        updates = batch_of(cluster, {b: b + 1 for b in range(6)})
        versions = protocol.write_batch(0, updates)
        assert versions == {b: 1 for b in range(6)}
        assert protocol.read_batch(0, list(range(6))) == updates

    def test_batch_matches_sequential_final_state(self, scheme):
        batched = make_cluster(scheme)
        sequential = make_cluster(scheme)
        updates = batch_of(batched, {0: 9, 3: 7, 5: 1})
        batched.protocol.write_batch(0, updates)
        for block in sorted(updates):
            sequential.protocol.write(0, block, updates[block])
        for a, b in zip(batched.protocol.sites, sequential.protocol.sites):
            assert a.version_vector() == b.version_vector()
            for block in updates:
                assert a.store.read(block) == b.store.read(block)

    def test_versions_advance_per_block(self, scheme):
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        protocol.write(0, 2, block_of(cluster, b"x"))
        protocol.write(0, 2, block_of(cluster, b"y"))
        versions = protocol.write_batch(0, batch_of(cluster, {1: 3, 2: 4}))
        assert versions == {1: 1, 2: 3}

    def test_duplicate_and_empty_batches(self, scheme):
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        data = block_of(cluster, b"d")
        protocol.write_batch(0, {4: data})
        assert protocol.read_batch(0, [4, 4, 4]) == {4: data}
        assert protocol.read_batch(0, []) == {}
        assert protocol.write_batch(0, {}) == {}


class TestSingleRoundAmortization:
    """One version-collection round / one fan-out per batch."""

    def test_voting_batch_read_is_one_round(self):
        cluster = make_cluster(SchemeName.VOTING)
        protocol = cluster.protocol
        protocol.write_batch(0, batch_of(cluster, {b: 1 for b in range(8)}))
        before = protocol.meter.total
        protocol.read_batch(0, list(range(8)))
        batched = protocol.meter.total - before
        before = protocol.meter.total
        for b in range(8):
            protocol.read(0, b)
        sequential = protocol.meter.total - before
        # one broadcast + (n_sites - 1) replies vs. that per block
        assert batched == 3
        assert sequential == 8 * batched

    def test_voting_batch_write_is_one_round_plus_one_fanout(self):
        cluster = make_cluster(SchemeName.VOTING)
        protocol = cluster.protocol
        updates = batch_of(cluster, {b: 2 for b in range(8)})
        before = protocol.meter.total
        protocol.write_batch(0, updates)
        batched = protocol.meter.total - before
        before = protocol.meter.total
        for b in sorted(updates):
            protocol.write(0, b, updates[b])
        sequential = protocol.meter.total - before
        assert batched == 4  # votes (1+2) + one batched update fan-out
        assert sequential == 8 * batched

    def test_naive_batch_write_is_one_message(self):
        cluster = make_cluster(SchemeName.NAIVE_AVAILABLE_COPY)
        protocol = cluster.protocol
        before = protocol.meter.total
        protocol.write_batch(0, batch_of(cluster, {b: 5 for b in range(8)}))
        assert protocol.meter.total - before == 1

    def test_available_copy_batch_reads_stay_free(self):
        cluster = make_cluster(SchemeName.AVAILABLE_COPY)
        protocol = cluster.protocol
        protocol.write_batch(0, batch_of(cluster, {b: 6 for b in range(8)}))
        before = protocol.meter.total
        protocol.read_batch(0, list(range(8)))
        assert protocol.meter.total == before

    def test_batch_traffic_metered_under_batch_kinds(self, scheme):
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        protocol.write_batch(0, batch_of(cluster, {0: 1, 1: 2}))
        protocol.read_batch(0, [0, 1])
        meter = protocol.meter
        # batched traffic must not skew the paper's per-op read/write means
        assert meter.messages_for("read").count == 0
        assert meter.messages_for("write").count == 0
        assert meter.messages_for("batch_write").count == 1
        assert meter.messages_for("batch_read").count == 1


class TestQuorumAndFencingSemantics:
    """Per-block guarantees survive batching."""

    def test_voting_batch_needs_quorum(self):
        cluster = make_cluster(SchemeName.VOTING)
        protocol = cluster.protocol
        protocol.on_site_failed(1)
        protocol.on_site_failed(2)
        with pytest.raises(QuorumNotReachedError):
            protocol.write_batch(0, batch_of(cluster, {0: 1, 1: 1}))
        with pytest.raises(QuorumNotReachedError):
            protocol.read_batch(0, [0, 1])

    def test_voting_batch_write_repairs_stale_quorum_members(self):
        cluster = make_cluster(SchemeName.VOTING)
        protocol = cluster.protocol
        protocol.write_batch(0, batch_of(cluster, {b: 1 for b in range(4)}))
        protocol.on_site_failed(2)
        protocol.write_batch(0, batch_of(cluster, {b: 2 for b in range(4)}))
        protocol.on_site_repaired(2)
        updates = batch_of(cluster, {b: 3 for b in range(4)})
        protocol.write_batch(0, updates)
        for b in range(4):
            assert protocol.site(2).store.read(b) == updates[b]

    def test_voting_batch_read_lazily_repairs_stale_origin(self):
        cluster = make_cluster(SchemeName.VOTING)
        protocol = cluster.protocol
        protocol.write_batch(0, batch_of(cluster, {b: 1 for b in range(4)}))
        protocol.on_site_failed(2)
        updates = batch_of(cluster, {b: 2 for b in range(4)})
        protocol.write_batch(0, updates)
        protocol.on_site_repaired(2)
        before = protocol.lazy_repairs
        assert protocol.read_batch(2, [0, 1, 2, 3]) == updates
        assert protocol.lazy_repairs == before + 4

    def test_batch_refresh_uses_scatter_gather_transfers(self):
        cluster = make_cluster(SchemeName.VOTING)
        protocol = cluster.protocol
        protocol.write_batch(0, batch_of(cluster, {b: 1 for b in range(4)}))
        protocol.on_site_failed(2)
        protocol.write_batch(0, batch_of(cluster, {b: 2 for b in range(4)}))
        protocol.on_site_repaired(2)
        seen = []
        original = protocol.network.unicast_oneway

        def spy(**kwargs):
            seen.append(kwargs["category"])
            return original(**kwargs)

        protocol.network.unicast_oneway = spy
        protocol.read_batch(2, [0, 1, 2, 3])
        assert seen == [MessageCategory.BATCH_BLOCK_TRANSFER]

    def test_available_copy_batch_fences_silent_members(self):
        cluster = make_cluster(SchemeName.AVAILABLE_COPY)
        protocol = cluster.protocol
        from repro.faults import FaultInjector

        injector = FaultInjector(protocol).attach()
        injector.drop_deliveries(2, count=1)
        protocol.write_batch(0, batch_of(cluster, {0: 1, 1: 1}))
        assert protocol.sites_fenced == 1
        # a batch drop fences once, not once per block
        assert protocol.site(2).state.value == "failed"

    def test_naive_batch_fences_by_delivery_receipt(self):
        cluster = make_cluster(SchemeName.NAIVE_AVAILABLE_COPY)
        protocol = cluster.protocol
        from repro.faults import FaultInjector

        injector = FaultInjector(protocol).attach()
        injector.drop_deliveries(1, count=1)
        protocol.write_batch(0, batch_of(cluster, {0: 1, 1: 1}))
        assert protocol.sites_fenced == 1


class TestTornBatches:
    """A mid-fan-out origin crash tears every block individually."""

    def test_mid_batch_crash_tears_each_block(self, scheme):
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        recorder = HistoryRecorder()
        protocol.recorder = recorder
        from repro.faults import FaultInjector

        injector = FaultInjector(protocol, recorder=recorder).attach()
        injector.arm_mid_write_crash(0, survivors=1)
        updates = batch_of(cluster, {b: 7 for b in range(3)})
        with pytest.raises(SiteDownError):
            protocol.write_batch(0, updates)
        assert recorder.count("torn_write") == 3

    def test_batch_corruption_heals_per_block(self, scheme):
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        updates = batch_of(cluster, {b: 9 for b in range(3)})
        protocol.write_batch(0, updates)
        store = protocol.site(0).store
        bad = bytearray(store.read(1))
        bad[0] ^= 0xFF
        store.inject_corruption(1, bytes(bad))
        assert protocol.read_batch(0, [0, 1, 2]) == updates
        assert protocol.corruptions_detected == 1
        assert protocol.blocks_healed == 1


class TestBatchReadByRequestPosition:
    """A batch read in non-ascending order: every per-block decision
    (best holder, fallback, read-repair targets) reads the votes of the
    block it is about, not of the block at its sorted position."""

    SIZE = 16

    def _group(self):
        from repro.core import QuorumPolicy
        from repro.net import Network
        from repro.schemes import build_group

        protocol = build_group(
            SchemeName.VOTING, 4, 8, self.SIZE, Network(),
            policy=QuorumPolicy(4, 4, 3),
        )
        sites = protocol.sites
        # block -> the version each site holds; the origin (site 0) is
        # stale on all three, and block 3's best holder differs from
        # block 0's.
        layout = {
            3: (1, 1, 2, 2),
            0: (1, 3, 1, 3),
            2: (1, 1, 2, 1),
        }
        for block, versions in layout.items():
            for site, version in zip(sites, versions):
                site.write_block(block, self.fill(block, version), version)
        # Site 2, block 3's best holder, holds a rotten copy of it.
        sites[2].store.inject_corruption(3, b"\xff" * self.SIZE)
        return protocol

    def fill(self, block, version):
        return bytes([16 * block + version]) * self.SIZE

    def test_stale_read_in_request_order(self):
        protocol = self._group()
        sent = []
        original = protocol.network.unicast_oneway

        def spy(**kwargs):
            payload = kwargs["payload"]
            blocks = (
                sorted(payload) if type(payload) is dict else [payload[0]]
            )
            sent.append((
                kwargs["category"], kwargs["src"], kwargs["dst"], blocks,
            ))
            return original(**kwargs)

        protocol.network.unicast_oneway = spy
        assert protocol.read_batch(0, [3, 0, 2]) == {
            3: self.fill(3, 2), 0: self.fill(0, 3), 2: self.fill(2, 2),
        }
        transfers = [m for m in sent if m[0] is not MessageCategory.READ_REPAIR]
        assert transfers == [
            (MessageCategory.BATCH_BLOCK_TRANSFER, 1, 0, [0]),
            (MessageCategory.BATCH_BLOCK_TRANSFER, 2, 0, [2]),
            (MessageCategory.BLOCK_TRANSFER, 3, 0, [3]),
        ]
        assert protocol.lazy_repairs == 3
        store = protocol.site(2).store
        assert store.quarantined_blocks() == [3]
        assert store.version(3) == 2
        # The fallback tried site 2 again before site 3: both count.
        assert protocol.corruptions_detected == 2
        pushes = [m[1:] for m in sent if m[0] is MessageCategory.READ_REPAIR]
        assert pushes == [(0, 1, [3]), (0, 2, [0]), (0, 1, [2]), (0, 3, [2])]
        assert protocol.read_repairs == 4
        for site_id, block, version in ((1, 3, 2), (2, 0, 3), (1, 2, 2),
                                        (3, 2, 2)):
            site = protocol.site(site_id)
            assert site.read_block(block) == self.fill(block, version)

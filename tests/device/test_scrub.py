"""Replica scrubbing (audit + anti-entropy repair)."""

import pytest

from repro.device.scrub import audit_replicas, scrub_replicas
from repro.errors import NoAvailableCopyError
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName

from ..conftest import block_of, make_cluster


def test_fresh_group_is_clean(scheme):
    cluster = make_cluster(scheme)
    cluster.protocol.write(0, 0, block_of(cluster, b"a"))
    report = audit_replicas(cluster.protocol)
    assert report.clean
    assert report.sites_audited == 3
    assert "clean" in report.summary()


def test_audit_finds_stale_voting_copies():
    cluster = make_cluster(SchemeName.VOTING)
    protocol = cluster.protocol
    protocol.write(0, 0, block_of(cluster, b"1"))
    protocol.write(0, 1, block_of(cluster, b"1"))
    protocol.on_site_failed(2)
    protocol.write(0, 0, block_of(cluster, b"2"))
    protocol.write(0, 1, block_of(cluster, b"2"))
    protocol.on_site_repaired(2)
    report = audit_replicas(protocol)
    assert not report.clean
    assert report.stale == {2: [0, 1]}
    assert "2 stale block copies" in report.summary()


def test_scrub_repairs_stale_copies():
    cluster = make_cluster(SchemeName.VOTING)
    protocol = cluster.protocol
    protocol.write(0, 0, block_of(cluster, b"1"))
    protocol.on_site_failed(2)
    protocol.write(0, 0, block_of(cluster, b"2"))
    protocol.on_site_repaired(2)
    report = scrub_replicas(protocol)
    assert report.blocks_repaired == 1
    assert protocol.site(2).read_block(0) == block_of(cluster, b"2")
    # a second pass is clean and lazy repair is no longer needed
    assert audit_replicas(protocol).clean
    before = protocol.lazy_repairs
    protocol.read(2, 0)
    assert protocol.lazy_repairs == before


def test_scrub_cost_is_metered():
    cluster = make_cluster(SchemeName.VOTING)
    protocol = cluster.protocol
    protocol.write(0, 0, block_of(cluster, b"1"))
    protocol.on_site_failed(1)
    protocol.write(0, 0, block_of(cluster, b"2"))
    protocol.on_site_repaired(1)
    report = scrub_replicas(protocol)
    # audit: 1 broadcast + 2 replies; repair: 1 block transfer
    assert report.messages == 4


def test_audit_skips_unreachable_sites():
    cluster = make_cluster(SchemeName.VOTING)
    protocol = cluster.protocol
    protocol.write(0, 0, block_of(cluster, b"1"))
    protocol.on_site_failed(2)
    report = audit_replicas(protocol)
    assert report.sites_audited == 2
    assert report.clean  # the stale site is down, not lagging


def test_available_copy_groups_always_audit_clean_under_churn(scheme):
    if scheme is SchemeName.VOTING:
        pytest.skip("voting intentionally tolerates stale copies")
    cluster = make_cluster(scheme)
    protocol = cluster.protocol
    protocol.write(0, 0, block_of(cluster, b"1"))
    protocol.on_site_failed(1)
    protocol.write(0, 0, block_of(cluster, b"2"))
    protocol.on_site_repaired(1)  # AC repairs on recovery
    assert audit_replicas(protocol).clean


def test_scrub_with_witnesses_ignores_them():
    protocol = build_group(
        SchemeName.VOTING, 3, 16, 64, Network(), witnesses=1
    )
    protocol.write(0, 0, b"\x01" * protocol.block_size)
    report = audit_replicas(protocol)
    assert report.clean  # the witness's missing data is not staleness


def test_scrub_requires_a_data_site():
    cluster = make_cluster(SchemeName.VOTING)
    for s in (0, 1, 2):
        cluster.protocol.on_site_failed(s)
    with pytest.raises(NoAvailableCopyError):
        audit_replicas(cluster.protocol)


class TestIntegrityScrub:
    """Checksum auditing and healing (piggybacked on the vector sweep)."""

    def _corrupt(self, cluster, site_id, block):
        store = cluster.protocol.site(site_id).store
        data = bytearray(store.read(block))
        data[0] ^= 0xFF
        store.inject_corruption(block, bytes(data))

    def test_audit_reports_corrupt_copies(self, scheme):
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        protocol.write(0, 3, block_of(cluster, b"c"))
        self._corrupt(cluster, 1, 3)
        report = audit_replicas(protocol)
        assert not report.clean
        assert report.corrupt == {1: [3]}
        assert "1 corrupt block copies" in report.summary()
        assert protocol.corruptions_detected == 1

    def test_audit_costs_no_extra_transmissions(self, scheme):
        """The corruption list rides on the version-vector replies."""
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        protocol.write(0, 0, block_of(cluster, b"m"))
        clean = audit_replicas(protocol)
        self._corrupt(cluster, 1, 0)
        dirty = audit_replicas(protocol)
        assert dirty.messages == clean.messages

    def test_scrub_heals_corrupt_copy_from_peer(self, scheme):
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        data = block_of(cluster, b"h")
        protocol.write(0, 2, data)
        self._corrupt(cluster, 1, 2)
        report = scrub_replicas(protocol)
        assert report.blocks_healed == 1
        assert protocol.blocks_healed == 1
        assert protocol.site(1).store.verify(2)
        assert protocol.site(1).store.read(2) == data
        assert "1 healed" in report.summary()

    def test_scrub_quarantines_when_no_intact_copy_exists(self, scheme):
        from repro.errors import CorruptBlockError

        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        protocol.write(0, 1, block_of(cluster, b"q"))
        for site in protocol.sites:
            self._corrupt(cluster, site.site_id, 1)
        scrub_replicas(protocol)
        for site in protocol.sites:
            assert site.store.is_quarantined(1)
            with pytest.raises(CorruptBlockError):
                site.store.read(1)

    def test_scrub_of_clean_group_reports_clean(self, scheme):
        cluster = make_cluster(scheme)
        protocol = cluster.protocol
        protocol.write(0, 0, block_of(cluster, b"k"))
        report = scrub_replicas(protocol)
        assert report.clean
        assert report.blocks_healed == 0

"""Properties every consistency protocol must share."""

import pytest

from repro.core.protocol import ReplicationProtocol
from repro.device import Site
from repro.errors import SiteDownError
from repro.net import Network

from ..conftest import block_of, make_cluster


def test_write_then_read_from_every_origin(scheme):
    cluster = make_cluster(scheme, num_sites=4)
    protocol = cluster.protocol
    data = block_of(cluster, b"R")
    protocol.write(0, 7, data)
    for origin in protocol.site_ids:
        assert protocol.read(origin, 7) == data


def test_sequential_writes_last_value_wins(scheme):
    cluster = make_cluster(scheme)
    protocol = cluster.protocol
    for i in range(5):
        protocol.write(i % 3, 0, block_of(cluster, bytes([i + 1])))
    assert protocol.read(0, 0) == block_of(cluster, bytes([5]))


def test_distinct_blocks_are_independent(scheme):
    cluster = make_cluster(scheme)
    protocol = cluster.protocol
    a, b = block_of(cluster, b"a"), block_of(cluster, b"b")
    protocol.write(0, 1, a)
    protocol.write(0, 2, b)
    assert protocol.read(1, 1) == a
    assert protocol.read(1, 2) == b


def test_unknown_origin_raises(scheme):
    cluster = make_cluster(scheme)
    with pytest.raises(SiteDownError):
        cluster.protocol.read(42, 0)


def test_failed_origin_raises(scheme):
    cluster = make_cluster(scheme)
    cluster.protocol.on_site_failed(1)
    with pytest.raises(SiteDownError):
        cluster.protocol.write(1, 0, block_of(cluster, b"x"))


def test_single_site_group_operates(scheme):
    cluster = make_cluster(scheme, num_sites=1)
    protocol = cluster.protocol
    data = block_of(cluster, b"1")
    protocol.write(0, 0, data)
    assert protocol.read(0, 0) == data
    assert protocol.is_available()
    protocol.on_site_failed(0)
    assert not protocol.is_available()
    protocol.on_site_repaired(0)
    assert protocol.is_available()
    assert protocol.read(0, 0) == data


def test_consistency_report_empty_after_normal_operation(scheme):
    cluster = make_cluster(scheme)
    protocol = cluster.protocol
    for i in range(4):
        protocol.write(0, i, block_of(cluster, bytes([i + 1])))
    assert protocol.consistency_report() == {}


def test_structure_properties(scheme):
    cluster = make_cluster(scheme, num_sites=4, num_blocks=16)
    protocol = cluster.protocol
    assert protocol.num_sites == 4
    assert protocol.site_ids == [0, 1, 2, 3]
    assert protocol.num_blocks == 16
    assert len(protocol.available_sites()) == 4
    assert protocol.comatose_sites() == []


class _Dummy(ReplicationProtocol):
    """Minimal concrete protocol for constructor validation tests."""

    scheme = None  # type: ignore[assignment]

    def read(self, origin, block):  # pragma: no cover
        raise NotImplementedError

    def write(self, origin, block, data):  # pragma: no cover
        raise NotImplementedError

    def read_batch(self, origin, blocks):  # pragma: no cover
        raise NotImplementedError

    def write_batch(self, origin, updates):  # pragma: no cover
        raise NotImplementedError

    def is_available(self):  # pragma: no cover
        return True

    def on_site_failed(self, site_id):  # pragma: no cover
        pass

    def on_site_repaired(self, site_id):  # pragma: no cover
        pass


def test_empty_group_rejected():
    with pytest.raises(ValueError):
        _Dummy([], Network())


def test_duplicate_site_ids_rejected():
    sites = [Site(0, 4, 16), Site(0, 4, 16)]
    with pytest.raises(ValueError):
        _Dummy(sites, Network())


def test_mismatched_geometry_rejected():
    sites = [Site(0, 4, 16), Site(1, 8, 16)]
    with pytest.raises(ValueError):
        _Dummy(sites, Network())

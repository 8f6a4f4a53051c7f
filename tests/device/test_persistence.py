"""Stable-storage serialisation and power-cycle recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.device import Site
from repro.device.persistence import dump_site, load_site
from repro.errors import CorruptBlockError, DeviceError


def make_site():
    site = Site(site_id=2, num_blocks=8, block_size=16, weight=1.5)
    site.write_block(0, b"0" * 16, version=3)
    site.write_block(5, b"5" * 16, version=7)
    site.was_available = frozenset({0, 1, 2})
    return site


def make_full_site():
    """A site with something in every section of the image."""
    site = make_site()
    site.write_block(6, b"6" * 16, version=2)
    site.store.quarantine(6)
    site.store.set_version(3, 4)
    site.store.inject_corruption(5, b"r" * 16)
    site.set_epoch(3)
    site.hints.append((1, 4, b"h" * 16, 9))
    return site


def durable_fields(site):
    """Every durable field, the store through its public accessors."""
    store = site.store
    fields = {name: getattr(site, name) for name in Site.DURABLE}
    fields["_store"] = (
        store.num_blocks, store.block_size, store.version_vector(),
        list(store.written_blocks()),
        [store.checksum(i) for i in range(store.num_blocks)],
        [store.verify(i) for i in range(store.num_blocks)],
        store.quarantined_blocks(),
    )
    return fields


def test_store_round_trip():
    restored = load_site(dump_site(make_site()))
    store = restored.store
    assert store.num_blocks == 8
    assert store.read(0) == b"0" * 16
    assert store.version(5) == 7
    assert store.read(3) == bytes(16)  # unwritten stays zero


def test_site_round_trip():
    original = make_site()
    restored = load_site(dump_site(original))
    assert restored.site_id == 2
    assert restored.weight == 1.5
    assert not restored.is_witness
    assert restored.read_block(5) == b"5" * 16
    assert restored.block_version(0) == 3
    assert restored.was_available == {0, 1, 2}


def test_every_durable_field_survives():
    original = make_full_site()
    restored = load_site(dump_site(original))
    assert durable_fields(restored) == durable_fields(original)
    assert restored.epoch == 3
    assert restored.hints == [(1, 4, b"h" * 16, 9)]


def test_witness_flag_survives():
    site = Site(site_id=0, num_blocks=4, block_size=8, is_witness=True)
    site.store.set_version(1, 9)
    restored = load_site(dump_site(site))
    assert restored.is_witness
    assert restored.block_version(1) == 9


def test_bit_rot_survives_the_image():
    # The image carries the CRC recorded at write time: re-checksumming
    # the rotten bytes on load would launder them into clean data.
    site = make_site()
    site.store.inject_corruption(5, b"r" * 16)
    restored = load_site(dump_site(site))
    assert not restored.store.verify(5)
    with pytest.raises(CorruptBlockError):
        restored.read_block(5)
    assert restored.store.version(5) == 7
    assert restored.read_block(0) == b"0" * 16


def test_bad_magic_rejected():
    with pytest.raises(DeviceError):
        load_site(b"garbage")


_IMAGE = dump_site(make_full_site())


@pytest.mark.parametrize(
    "blob",
    [_IMAGE[:cut] for cut in range(len(_IMAGE))] + [_IMAGE + b"\0"],
    ids=[f"prefix-{cut}" for cut in range(len(_IMAGE))] + ["extra-byte"],
)
def test_truncated_image_rejected(blob):
    with pytest.raises(DeviceError):
        load_site(blob)


def test_image_is_deterministic():
    assert dump_site(make_site()) == dump_site(make_site())


def test_power_cycle_recovery(scheme):
    """Destroy a site object entirely; rebuild it from its serialised
    stable storage; the protocol must recover it like any repair."""
    from repro.core import (
        AvailableCopyProtocol,
        NaiveAvailableCopyProtocol,
        QuorumSpec,
        VotingProtocol,
    )
    from repro.net import Network
    from repro.types import SchemeName, SiteState

    def build(sites):
        network = Network()
        if scheme is SchemeName.VOTING:
            return VotingProtocol(
                sites, network, spec=QuorumSpec.majority(3)
            )
        if scheme is SchemeName.AVAILABLE_COPY:
            return AvailableCopyProtocol(sites, network)
        return NaiveAvailableCopyProtocol(sites, network)

    weights = (
        QuorumSpec.majority(3).weights
        if scheme is SchemeName.VOTING
        else (1.0, 1.0, 1.0)
    )
    sites = [Site(i, 8, 16, weight=weights[i]) for i in range(3)]
    protocol = build(sites)
    protocol.write(0, 0, b"A" * 16)
    protocol.on_site_failed(2)
    image = dump_site(protocol.site(2))  # stable storage at crash time
    protocol.write(0, 0, b"B" * 16)  # progress while 2 is dead

    # "replace the machine": rebuild the whole group, site 2 from its
    # image, sites 0 and 1 from their (still live) stable storage
    rebuilt = [
        load_site(dump_site(protocol.site(0))),
        load_site(dump_site(protocol.site(1))),
        load_site(image),
    ]
    protocol2 = build(rebuilt)
    # the rebuilt site 2 is stale; mark it failed and run recovery
    protocol2.site(2).set_state(SiteState.FAILED)
    protocol2.on_site_repaired(2)
    assert protocol2.read(2, 0) == b"B" * 16
    assert protocol2.consistency_report() == {}


def test_quarantined_blocks_survive_round_trip():
    site = make_site()
    site.store.quarantine(5)
    store = load_site(dump_site(site)).store
    assert store.is_quarantined(5)
    assert store.version(5) == 7
    with pytest.raises(CorruptBlockError):
        store.read(5)
    # intact entries are untouched
    assert store.read(0) == b"0" * 16


def test_site_round_trip_preserves_quarantine():
    site = make_site()
    site.store.quarantine(0)
    rebuilt = load_site(dump_site(site))
    assert rebuilt.store.is_quarantined(0)
    assert rebuilt.store.version(0) == 3
    assert rebuilt.store.read(5) == b"5" * 16


# -- property: the image is lossless and canonical ----------------------------

_BLOCKS, _SIZE = 6, 8
_ids = st.integers(min_value=0, max_value=9)
_blocks = st.integers(min_value=0, max_value=_BLOCKS - 1)
_versions = st.integers(min_value=0, max_value=2**40)
_payload = st.binary(min_size=_SIZE, max_size=_SIZE)
_steps = st.lists(st.tuples(
    st.sampled_from(["write", "version", "quarantine", "rot"]),
    _blocks, _versions, _payload,
), max_size=16)


@st.composite
def random_sites(draw):
    site = Site(
        draw(_ids), _BLOCKS, _SIZE,
        weight=draw(st.floats(min_value=1e-3, max_value=1e3)),
        is_witness=draw(st.booleans()),
    )
    store = site.store
    for kind, index, version, data in draw(_steps):
        if kind == "write":
            site.write_block(index, data, version)
        elif kind == "version":  # a witness's version-only entry
            store.set_version(index, version)
        elif kind == "quarantine":
            store.quarantine(index, version)
        elif store.checksum(index) is not None:
            store.inject_corruption(index, data)
    site.set_epoch(draw(st.integers(min_value=0, max_value=2**63)))
    site.was_available = frozenset(draw(st.sets(_ids)))
    site.hints = draw(st.lists(st.tuples(_ids, _blocks, _payload, _versions)))
    return site


@settings(max_examples=200)
@given(random_sites())
def test_image_round_trip_is_exact(site):
    image = dump_site(site)
    restored = load_site(image)
    assert durable_fields(restored) == durable_fields(site)
    assert dump_site(restored) == image

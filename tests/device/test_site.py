"""Unit tests for replica sites."""

import pytest

from repro.device import Site
from repro.types import SiteState


def test_initial_state_available():
    site = Site(site_id=0, num_blocks=4)
    assert site.state is SiteState.AVAILABLE
    assert site.is_available
    assert site.is_reachable


def test_crash_preserves_stable_storage():
    site = Site(site_id=1, num_blocks=4, block_size=4)
    site.write_block(2, b"data", version=7)
    site.was_available = frozenset({0, 1})
    site.set_epoch(4)
    site.hints.append((0, 2, b"hint", 9))
    site.crash()
    assert site.state is SiteState.FAILED
    assert not site.is_reachable
    assert site.failures == 1
    # stable storage survives
    assert site.read_block(2) == b"data"
    assert site.block_version(2) == 7
    assert site.was_available == {0, 1}
    assert site.epoch == 4
    assert site.hints == [(0, 2, b"hint", 9)]


def test_comatose_is_reachable_but_not_available():
    site = Site(site_id=0, num_blocks=4)
    site.set_state(SiteState.COMATOSE)
    assert site.is_reachable
    assert not site.is_available


def test_was_available_defaults_to_self():
    site = Site(site_id=3, num_blocks=4)
    assert site.was_available == frozenset({3})


def test_was_available_is_immutable():
    # A frozenset: readers share it, and no one can change it behind
    # the site's back, so neither side needs a defensive copy.
    site = Site(site_id=0, num_blocks=4)
    site.was_available = frozenset({0, 1, 2})
    with pytest.raises(AttributeError):
        site.was_available.add(99)
    assert site.was_available == {0, 1, 2}


def test_fields_are_declared_once():
    site = Site(site_id=0, num_blocks=4)
    assert set(Site.__slots__) == set(Site.DURABLE) | set(Site.VOLATILE)
    assert not set(Site.DURABLE) & set(Site.VOLATILE)
    with pytest.raises(AttributeError):
        site.meta = {}
    with pytest.raises(AttributeError):
        site.epoch = 3  # the epoch's one writer is set_epoch


def test_version_total():
    site = Site(site_id=0, num_blocks=4, block_size=4)
    site.write_block(0, b"aaaa", version=2)
    site.write_block(1, b"bbbb", version=5)
    assert site.version_total() == 7


def test_weight_must_be_positive():
    with pytest.raises(ValueError):
        Site(site_id=0, num_blocks=4, weight=0.0)
    with pytest.raises(ValueError):
        Site(site_id=0, num_blocks=4, weight=-1.0)

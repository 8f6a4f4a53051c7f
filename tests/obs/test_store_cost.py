"""What a write fan-out costs the stores, counted rather than timed.

A fan-out hands each replica all of its blocks in one store call
(:meth:`~repro.device.block.BlockStore.apply`) and computes each
block's checksum once, however many replicas store it.  Both are exact
counts, so they gate tier-1 where a timing could not: a path that goes
back to one store call per block, or one checksum per replica, moves
them.
"""

import pytest

import repro.core.protocol as protocol_module
from repro.net import Network
from repro.schemes import build_group
from repro.types import SchemeName

SITES = 5
BLOCKS = 8
BLOCK_SIZE = 64


def _counted_group(scheme, monkeypatch):
    """A five-site group whose store calls and fan-out checksums are
    counted: ``calls[site_id]`` and ``crcs[0]``."""
    protocol = build_group(scheme, SITES, 32, BLOCK_SIZE, Network())
    calls = {site.site_id: 0 for site in protocol.sites}

    def counting(site_id, method):
        def call(*args, **kwargs):
            calls[site_id] += 1
            return method(*args, **kwargs)
        return call

    for site in protocol.sites:
        site.apply = counting(site.site_id, site.apply)
        site.write_block = counting(site.site_id, site.write_block)
    crcs = [0]
    crc32 = protocol_module.crc32

    def counting_crc(data):
        crcs[0] += 1
        return crc32(data)

    monkeypatch.setattr(protocol_module, "crc32", counting_crc)
    return protocol, calls, crcs


@pytest.mark.parametrize("scheme", list(SchemeName), ids=lambda s: s.short)
def test_batch_write_is_one_store_call_per_replica(scheme, monkeypatch):
    protocol, calls, crcs = _counted_group(scheme, monkeypatch)
    batch = {b: bytes([b + 1]) * BLOCK_SIZE for b in range(BLOCKS)}
    protocol.write_batch(0, batch)
    assert calls == {site_id: 1 for site_id in range(SITES)}
    assert crcs == [BLOCKS]


@pytest.mark.parametrize("scheme", list(SchemeName), ids=lambda s: s.short)
def test_single_write_is_one_store_call_per_replica(scheme, monkeypatch):
    protocol, calls, crcs = _counted_group(scheme, monkeypatch)
    protocol.write(0, 3, b"x" * BLOCK_SIZE)
    assert calls == {site_id: 1 for site_id in range(SITES)}
    assert crcs == [1]

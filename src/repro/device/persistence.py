"""The stable-storage image of a site.

The protocols assume that what a site keeps on *stable storage*
survives a fail-stop crash.  :attr:`Site.DURABLE
<repro.device.site.Site.DURABLE>` declares those fields; this module
writes exactly them to bytes and reads them back, so a test can destroy
the Python object entirely -- or send every crash through the image --
and prove the protocols still recover from nothing but stable storage.

Layout, format v2 (struct-packed, little endian, no pickle, so it is
stable across runs and interpreter versions):

==========  ============================================================
magic       ``RBDS\\x02``
header      site id, blocks, block size (u32 each), weight (f64),
            witness (u8), epoch (u64), then the counts of the four
            sections below (u32 each)
W           the was-available set, ascending site ids (u32)
hints       in stash order: owner, block (u32), version (u64), data
entries     ascending block: block (u32), version (u64), has-data (u8);
            a data entry follows with its *stored* CRC32 (u32) and data
quarantine  ascending quarantined block indexes (u32)
==========  ============================================================

The CRC is the one recorded at write time, so bit rot survives the
image: a rotten copy reloads rotten, not laundered into clean data.  A
malformed image -- short, with trailing bytes, or with values no site
can hold -- raises :class:`~repro.errors.DeviceError`.
"""

from __future__ import annotations

import struct
from typing import Iterator, List

from ..errors import DeviceError
from .site import Hint, Site

__all__ = ["dump_site", "load_site"]

_MAGIC = b"RBDS\x02"
# site id, blocks, block size, weight, witness, epoch, and the counts of
# W, hints, entries and quarantined blocks
_HEADER = struct.Struct("<IIIdBQIIII")
_ID = struct.Struct("<I")
_HINT = struct.Struct("<IIQ")  # owner, block, version
_ENTRY = struct.Struct("<IQB")  # block, version, has-data


def dump_site(site: Site) -> bytes:
    """Serialise a site's durable fields to a portable byte image."""
    store = site.store
    entries = list(store.entries())
    quarantined = store.quarantined_blocks()
    parts = [_MAGIC, _HEADER.pack(
        site.site_id, store.num_blocks, store.block_size, site.weight,
        site.is_witness, site.epoch, len(site.was_available),
        len(site.hints), len(entries), len(quarantined),
    )]
    parts.extend(_ID.pack(member) for member in sorted(site.was_available))
    for owner, block, data, version in site.hints:
        parts += (_HINT.pack(owner, block, version), data)
    for index, version, data, checksum in entries:
        parts.append(_ENTRY.pack(index, version, data is not None))
        if data is not None:
            parts += (_ID.pack(checksum), data)
    parts.extend(_ID.pack(index) for index in quarantined)
    return b"".join(parts)


def load_site(blob: bytes) -> Site:
    """Rebuild a site from :func:`dump_site` output.

    The restored site is in the AVAILABLE state -- the caller (normally
    a recovery procedure in a test) decides what protocol state the
    freshly powered-on process should enter.
    """
    if not blob.startswith(_MAGIC):
        raise DeviceError("not a site image (bad magic)")
    try:
        return _load(blob)
    except (struct.error, ValueError) as exc:
        raise DeviceError(f"malformed site image: {exc}") from exc


def _load(blob: bytes) -> Site:
    reader = _Reader(blob, len(_MAGIC))
    (site_id, num_blocks, block_size, weight, witness, epoch, wa_count,
     hint_count, entry_count, quarantine_count) = reader.take(_HEADER)
    if witness > 1:
        raise DeviceError(f"bad witness flag {witness} in site image")
    site = Site(site_id, num_blocks, block_size, weight, bool(witness))
    site.set_epoch(epoch)
    site.was_available = frozenset(reader.ids(wa_count))
    hints: List[Hint] = []
    for _ in range(hint_count):
        owner, block, version = reader.take(_HINT)
        hints.append((owner, block, reader.data(block_size), version))
    site.hints = hints
    entries = []
    for _ in range(entry_count):
        index, version, has_data = reader.take(_ENTRY)
        if has_data > 1:
            raise DeviceError(f"bad data flag {has_data} in site image")
        data = checksum = None
        if has_data:
            (checksum,) = reader.take(_ID)
            data = reader.data(block_size)
        entries.append((index, version, data, checksum))
    site.store.restore(entries, list(reader.ids(quarantine_count)))
    if reader.offset != len(blob):
        raise DeviceError(
            f"{len(blob) - reader.offset} trailing bytes in site image"
        )
    return site


class _Reader:
    """A cursor over an image; a short read raises ``struct.error``."""

    def __init__(self, blob: bytes, offset: int) -> None:
        self.blob = blob
        self.offset = offset

    def take(self, fmt: struct.Struct) -> tuple:
        values = fmt.unpack_from(self.blob, self.offset)
        self.offset += fmt.size
        return values

    def ids(self, count: int) -> Iterator[int]:
        for _ in range(count):
            yield self.take(_ID)[0]

    def data(self, size: int) -> bytes:
        data = self.blob[self.offset:self.offset + size]
        if len(data) != size:
            raise DeviceError("truncated block payload in site image")
        self.offset += size
        return data

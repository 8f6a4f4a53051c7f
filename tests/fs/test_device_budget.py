"""What one data-path call costs in device calls, exactly.

On a replicated device every one of these calls is a quorum round, so
the numbers below are the file system's share of the protocol's
traffic (``tests/integration/test_fs_traffic_gate.py`` prices them in
messages).  A count that rises here is a per-block loop that crept back
into :mod:`repro.fs`.
"""

import random

import pytest

from repro.device import LocalBlockDevice
from repro.fs import FileSystem

BS = 512
BITS_PER_BITMAP_BLOCK = BS * 8


class LoggingDevice(LocalBlockDevice):
    """Keeps every write it is handed, one entry per call."""

    def __init__(self, num_blocks):
        super().__init__(num_blocks=num_blocks, block_size=BS)
        self.log = []

    def write_block(self, index, data):
        self.log.append({index: data})
        super().write_block(index, data)

    def write_blocks(self, writes):
        self.log.append(dict(writes))
        super().write_blocks(writes)


def _calls(stats):
    """(read calls, write calls): a batch is one call."""
    return (
        stats.reads - stats.batch_read_blocks + stats.batch_reads,
        stats.writes - stats.batch_write_blocks + stats.batch_writes,
    )


def _spent(device, call):
    """Device calls ``call`` makes, and the writes among them."""
    reads, writes = _calls(device.stats)
    logged = len(device.log)
    call()
    reads_after, writes_after = _calls(device.stats)
    return reads_after - reads, writes_after - writes, device.log[logged:]


def _fs_with_file(blocks, lowest_free=None):
    """A file system whose ``/f`` holds ``blocks`` blocks; with
    ``lowest_free``, everything below that block is claimed first."""
    device = LoggingDevice(num_blocks=8192)
    fs = FileSystem.format(device, num_inodes=16)
    if lowest_free is not None:
        fs._bitmap.allocate(lowest_free - fs.superblock.data_start)
    fs.create("/f")
    rng = random.Random(blocks)
    for at in range(0, blocks, 8):
        fs.write_file("/f", rng.randbytes(min(8, blocks - at) * BS), at * BS)
    return fs, device


@pytest.mark.parametrize(
    "lowest_free, bitmap_flushes",
    # the root directory's block and the 17 of /f come first: the run
    # of eight starts four short of the second bitmap block
    [(None, 1), (BITS_PER_BITMAP_BLOCK - 1 - 17 - 4, 2)],
    ids=["one bitmap block", "straddling two"],
)
def test_allocating_write_in_the_indirect_range(lowest_free, bitmap_flushes):
    fs, device = _fs_with_file(16, lowest_free)
    sb = fs.superblock
    data = random.Random(1).randbytes(8 * BS)
    _reads, writes, log = _spent(
        device, lambda: fs.write_file("/f", data, 16 * BS)
    )
    # bitmap, the eight blocks as one batch, indirect table, inode
    assert writes == bitmap_flushes + 3
    assert [len(entry) for entry in log] == [1] * bitmap_flushes + [8, 1, 1]
    bitmap, (table,), (inode,) = log[:bitmap_flushes], log[-2], log[-1]
    for entry in bitmap:
        (block,) = entry
        assert sb.bitmap_start <= block < sb.inode_start
    assert table >= sb.data_start
    assert sb.inode_start <= inode < sb.data_start
    zero = bytes(BS)
    assert all(payload != zero for entry in log for payload in entry.values())
    assert fs.read_file("/f", 16 * BS, 8 * BS) == data


def test_in_place_overwrite_is_one_write():
    fs, device = _fs_with_file(24)
    data = random.Random(2).randbytes(8 * BS)
    _reads, writes, log = _spent(
        device, lambda: fs.write_file("/f", data, 12 * BS)
    )
    assert writes == 1 and len(log[0]) == 8


def test_read_is_the_table_and_one_batch():
    fs, device = _fs_with_file(24)
    resolve_reads, _writes, _log = _spent(device, lambda: fs.exists("/f"))
    before = device.stats.snapshot()
    reads, writes, _log = _spent(
        device, lambda: fs.read_file("/f", 12 * BS, 8 * BS)
    )
    assert writes == 0
    assert reads - resolve_reads == 2
    assert device.stats.batch_reads - before.batch_reads == 2  # a directory, the data
    assert device.stats.batch_read_blocks - before.batch_read_blocks == 1 + 8


def test_unlink_flushes_each_bitmap_block_once():
    blocks = 128
    # the file's blocks lie on both sides of a bitmap-block boundary
    fs, device = _fs_with_file(blocks, BITS_PER_BITMAP_BLOCK - 64)
    sb = fs.superblock
    free_before = fs.free_blocks()
    _reads, _writes, log = _spent(device, lambda: fs.unlink("/f"))
    flushed = [
        block
        for entry in log
        for block in entry
        if sb.bitmap_start <= block < sb.inode_start
    ]
    assert sorted(flushed) == [sb.bitmap_start, sb.bitmap_start + 1]
    assert fs.free_blocks() == free_before + blocks + 1  # and the table


def test_format_reserves_the_metadata_region_in_one_flush():
    device = LoggingDevice(num_blocks=8192)
    sb = FileSystem.format(device, num_inodes=256).superblock
    assert sb.data_start == 35  # all inside the first bitmap block
    writes = [block for entry in device.log for block in entry]
    # zeroed, then flushed with the reservation; the second only zeroed
    assert writes.count(sb.bitmap_start) == 2
    assert writes.count(sb.bitmap_start + 1) == 1

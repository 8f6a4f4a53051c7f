"""What one file-system call costs in device calls, exactly.

On a replicated device every one of these calls is a quorum round, so
the numbers below are the file system's share of the protocol's
traffic (``tests/integration/test_fs_traffic_gate.py`` prices them in
messages).  A count that rises here is a per-block loop that crept back
into :mod:`repro.fs`.
"""

import random

import pytest

from repro.fs import FileSystem
from repro.fs.layout import DIRENT_SIZE, INODE_SIZE

from .conftest import BS, RecordingDevice

BITS_PER_BITMAP_BLOCK = BS * 8


def _regions(sb, calls):
    """Which region each of ``calls`` (reads or writes, every one
    inside one region) went to."""
    return [
        "bitmap" if min(blocks) < sb.inode_start
        else "inode" if min(blocks) < sb.data_start
        else "data"
        for blocks in calls
    ]


def _kinds(device, call):
    """The kind of every device call ``call`` makes, in order: ``"r"``
    / ``"w"`` single-block, ``"rb"`` / ``"wb"`` batch."""
    start = len(device.log)
    call()
    return [op for op, _blocks in device.log[start:]]


def _fs_with_file(blocks, lowest_free=None):
    """A file system whose ``/f`` holds ``blocks`` blocks; with
    ``lowest_free``, everything below that block is claimed first."""
    device = RecordingDevice(num_blocks=8192)
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
    _reads, log = device.spent(lambda: fs.write_file("/f", data, 16 * BS))
    # bitmap, the eight blocks as one batch, indirect table, inode
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
    _reads, writes = device.spent(lambda: fs.write_file("/f", data, 12 * BS))
    assert [len(entry) for entry in writes] == [8]


def test_write_inside_one_block_reads_that_block_once():
    fs, device = _fs_with_file(4)
    reads, writes = device.spent(lambda: fs.write_file("/f", b"x" * 40, BS + 7))
    (block,) = writes[0]
    # the block both partial ends lie in -- named once; the inode is in core
    assert reads == [[block]]
    assert len(writes) == 1


# The transfer is one device call either way; which one follows from
# how many blocks the byte range maps to, and from nothing else.  /f
# holds four blocks, and its inode is in core: no call reads it.
ONE_BLOCK_OR_A_BATCH = {
    "read inside one block": (
        lambda fs: fs.read_file("/f", BS + 7, 40), ["r"]),
    "read of one whole block": (
        lambda fs: fs.read_file("/f", BS, BS), ["r"]),
    "read across two blocks": (
        lambda fs: fs.read_file("/f", BS + 7, BS), ["rb"]),
    # the edge block is read, patched and written back
    "write inside one block": (
        lambda fs: fs.write_file("/f", b"x" * 40, BS + 7), ["r", "w"]),
    # wholly covered: nothing of the old block survives, so no edge read
    "whole-block overwrite": (
        lambda fs: fs.write_file("/f", b"x" * BS, BS), ["w"]),
    "fresh block past the end": (
        lambda fs: fs.write_file("/f", b"x" * 40, 4 * BS + 7),
        # bitmap, the block, the inode into its in-core table block
        ["w", "w", "w"]),
    "two blocks, both ends partial": (
        lambda fs: fs.write_file("/f", b"x" * BS, BS + 7), ["rb", "wb"]),
    "two blocks, one end partial": (
        lambda fs: fs.write_file("/f", b"x" * (BS + 7), BS), ["r", "wb"]),
}


@pytest.mark.parametrize("case", ONE_BLOCK_OR_A_BATCH)
def test_one_block_moves_with_the_single_block_call(case):
    call, kinds = ONE_BLOCK_OR_A_BATCH[case]
    fs, device = _fs_with_file(4)
    before = device.stats.snapshot()
    assert _kinds(device, lambda: call(fs)) == kinds
    # DeviceStats sees a batch exactly where the log does
    assert device.stats.batch_reads - before.batch_reads == kinds.count("rb")
    assert device.stats.batch_writes - before.batch_writes == kinds.count("wb")
    for op, blocks in device.log[-len(kinds):]:
        assert (len(blocks) > 1) == (op in ("rb", "wb")), (op, blocks)


def test_a_hole_is_read_without_the_device():
    fs, device = _fs_with_file(0)
    fs.write_file("/f", b"tail", 3 * BS)  # blocks 0 to 2 stay unmapped
    for offset, size in ((BS + 7, 40), (0, 3 * BS)):
        start = len(device.log)
        assert fs.read_file("/f", offset, size) == bytes(size)
        assert device.log[start:] == [], (offset, size)


def test_a_sparse_range_that_maps_to_one_block_is_a_single_block_read():
    fs, device = _fs_with_file(0)
    fs.write_file("/f", b"tail", 3 * BS)  # blocks 0 to 2 stay unmapped
    # four file blocks, one device block: it is the mapped count that
    # selects the call, not the span of the range
    batches = device.stats.batch_reads
    assert _kinds(device, lambda: fs.read_file("/f")) == ["r"]
    assert device.stats.batch_reads == batches
    assert fs.read_file("/f") == bytes(3 * BS) + b"tail"


def test_read_is_the_table_and_one_batch():
    fs, device = _fs_with_file(24)
    sb = fs.superblock
    reads, writes = device.spent(lambda: fs.read_file("/f", 12 * BS, 8 * BS))
    # /f is warm since its create: no directory scan, no inode read
    assert _regions(sb, reads) == ["data", "data"]
    assert [len(blocks) for blocks in reads] == [1, 8]  # table, batch
    assert writes == []


def test_resolution_is_cold_once_per_name():
    fs, device = _fs_with_file(1)
    sb = fs.superblock
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.create("/a/b/f")

    cold = FileSystem.mount(device)
    reads, _writes = device.spent(lambda: cold.exists("/a/b/f"))
    # the root's inode, whose table block holds the other three, then
    # per component the directory's data -- one block each here, so a
    # single-block read
    assert _regions(sb, reads) == ["inode"] + ["data"] * 3
    assert [op for op, _blocks in device.log[-4:]] == ["r"] * 4
    reads, _writes = device.spent(lambda: cold.exists("/a/b/f"))
    assert reads == []
    # a name that is not there is looked for on the device every time
    for _again in range(2):
        reads, _writes = device.spent(lambda: cold.exists("/a/b/ghost"))
        assert _regions(sb, reads) == ["data"]


def test_a_directory_past_one_block_is_still_one_scan():
    device = RecordingDevice(num_blocks=8192)
    fs = FileSystem.format(device, num_inodes=64)
    fs.mkdir("/d")
    last = BS // DIRENT_SIZE  # the entry that starts /d's second block
    for number in range(last + 1):
        fs.create(f"/d/f{number}")

    cold = FileSystem.mount(device)
    made = _kinds(device, lambda: cold.exists(f"/d/f{last}"))
    # root inode and block, both blocks of /d (whose inode shares the
    # root's table block), the file's inode (in a table block of its own)
    assert made == ["r", "r", "rb", "r"]
    assert len(device.log[-2][1]) == 2


def test_a_name_is_warm_from_the_call_that_made_it():
    fs, device = _fs_with_file(1)
    fs.mkdir("/a")
    fs.create("/a/f")
    fs.rename("/a", "/z")
    fs.rename("/z/f", "/z/g")
    for path in ("/z", "/z/g"):
        reads, _writes = device.spent(lambda: fs.stat(path))
        assert reads == [], path


@pytest.mark.parametrize("blocks", [0, 3, 24])
def test_unlink_writes_slot_then_inode_then_bitmap(blocks):
    fs, device = _fs_with_file(blocks)
    sb = fs.superblock
    number = fs.stat("/f").inode
    _reads, writes = device.spent(lambda: fs.unlink("/f"))
    # an empty file owns no block: there is no bit to clear
    assert _regions(sb, writes) == ["data", "inode", "bitmap"][: 3 if blocks else 2]
    (slots,), (table,) = writes[0].values(), writes[1].values()
    assert slots[:DIRENT_SIZE] == bytes(DIRENT_SIZE)
    at = number * INODE_SIZE
    assert table[at : at + INODE_SIZE] == bytes(INODE_SIZE)  # type FREE, no pointer


def test_rmdir_writes_slot_then_inode_then_bitmap():
    fs, device = _fs_with_file(1)
    sb = fs.superblock
    fs.mkdir("/d")
    fs.create("/d/x")
    fs.unlink("/d/x")  # /d keeps the block its one entry lived in
    _reads, writes = device.spent(lambda: fs.rmdir("/d"))
    assert _regions(sb, writes) == ["data", "inode", "bitmap"]
    assert not fs.exists("/d")


def test_unlink_flushes_each_bitmap_block_once():
    blocks = 128
    # the file's blocks lie on both sides of a bitmap-block boundary
    fs, device = _fs_with_file(blocks, BITS_PER_BITMAP_BLOCK - 64)
    sb = fs.superblock
    free_before = fs.free_blocks()
    _reads, writes = device.spent(lambda: fs.unlink("/f"))
    assert _regions(sb, writes) == ["data", "inode", "bitmap", "bitmap"]
    assert [block for entry in writes[2:] for block in entry] == [
        sb.bitmap_start, sb.bitmap_start + 1,
    ]
    assert fs.free_blocks() == free_before + blocks + 1  # and the table


def test_format_reserves_the_metadata_region_in_one_flush():
    device = RecordingDevice(num_blocks=8192)
    _reads, log = device.spent(
        lambda: FileSystem.format(device, num_inodes=256)
    )
    sb = FileSystem.mount(device).superblock
    assert sb.data_start == 35  # all inside the first bitmap block
    writes = [block for entry in log for block in entry]
    # zeroed, then flushed with the reservation; the second only zeroed
    assert writes.count(sb.bitmap_start) == 2
    assert writes.count(sb.bitmap_start + 1) == 1

"""Inode records and the inode table."""

import pytest

from repro.device import LocalBlockDevice
from repro.errors import FSFormatError, NoSpaceFSError
from repro.fs import FileType, Inode, InodeTable, NUM_DIRECT, SuperBlock
from repro.fs.layout import INODE_SIZE


def make_table(num_inodes=8):
    device = LocalBlockDevice(num_blocks=64, block_size=512)
    sb = SuperBlock.compute(64, 512, num_inodes=num_inodes)
    return InodeTable(device, sb), sb


def test_pack_unpack_round_trip():
    inode = Inode(
        number=3,
        file_type=FileType.REGULAR,
        links=1,
        size=12345,
        direct=[7, 8, 9] + [0] * (NUM_DIRECT - 3),
        indirect=42,
    )
    packed = inode.pack()
    assert len(packed) == INODE_SIZE
    restored = Inode.unpack(3, packed)
    assert restored == inode


def test_fresh_table_is_all_free():
    table, sb = make_table()
    for number in range(sb.num_inodes):
        assert table.read(number).is_free
    assert table.used_count() == 0


def test_allocate_initialises_inode():
    table, _ = make_table()
    inode = table.allocate(FileType.DIRECTORY)
    assert inode.number == 0
    assert inode.is_directory
    assert inode.links == 1
    assert inode.size == 0
    assert inode.direct == [0] * NUM_DIRECT
    assert table.used_count() == 1


def test_allocate_lowest_free_number():
    table, _ = make_table()
    a = table.allocate(FileType.REGULAR)
    b = table.allocate(FileType.REGULAR)
    table.free(table.read(a.number))
    c = table.allocate(FileType.REGULAR)
    assert (a.number, b.number, c.number) == (0, 1, 0)


def test_exhaustion_raises():
    table, sb = make_table(num_inodes=8)
    for _ in range(sb.num_inodes):
        table.allocate(FileType.REGULAR)
    with pytest.raises(NoSpaceFSError):
        table.allocate(FileType.REGULAR)


def test_write_persists_fields():
    table, _ = make_table()
    inode = table.allocate(FileType.REGULAR)
    inode.size = 999
    inode.direct[0] = 33
    table.write(inode)
    reloaded = table.read(inode.number)
    assert reloaded.size == 999
    assert reloaded.direct[0] == 33


def test_out_of_range_inode_rejected():
    table, sb = make_table()
    with pytest.raises(FSFormatError):
        table.read(sb.num_inodes)
    with pytest.raises(FSFormatError):
        table.read(-1)


def test_type_predicates():
    assert Inode(0, FileType.REGULAR).is_regular
    assert Inode(0, FileType.DIRECTORY).is_directory
    assert Inode(0, FileType.FREE).is_free


def test_scans_read_each_table_block_once():
    # 20 inodes at 8 to a block: the third table block is part padding
    table, sb = make_table(num_inodes=20)
    stats = table._device.stats
    for _ in range(sb.num_inodes):
        before = stats.reads
        inode = table.allocate(FileType.REGULAR)
        # a block is read when a scan first reaches it, then kept in core
        assert stats.reads - before == (inode.number % 8 == 0)
    before = stats.reads
    assert table.used_count() == sb.num_inodes
    assert stats.reads == before
    # a fresh table -- fsck's -- asks the device
    assert InodeTable(table._device, sb).used_count() == sb.num_inodes
    assert stats.reads - before == sb.inode_blocks == 3
    with pytest.raises(NoSpaceFSError):
        table.allocate(FileType.REGULAR)

"""What a one-block write leaves behind when the device fails it.

``test_crash_prefixes.py`` enumerates the write prefixes of multi-block
calls; the cases here are the ones a transfer inside one block adds,
and the in-core inodes.  A refused write must hand back the block it
allocated, through the single-block device call exactly as through the
batch call.  And a write that is *in doubt* -- it landed, then raised,
which a replicated device does when it loses its quorum after the
fan-out -- must leave neither the buffer cache nor the mount's inode
table answering for the device.
"""

import random

import pytest

from repro.device import DeviceDriverStub, LocalBlockDevice
from repro.errors import DeviceError
from repro.fs import FileSystem
from repro.fs.check import check_filesystem
from repro.fs.layout import INODE_SIZE

from .conftest import BS, RecordingDevice


@pytest.mark.parametrize("stay_down", [False, True], ids=["transient", "crash"])
@pytest.mark.parametrize("k", [1, 2, 3], ids=["bitmap", "data", "inode"])
def test_a_refused_one_block_append_leaks_nothing(k, stay_down):
    device = RecordingDevice(num_blocks=256)
    fs = FileSystem.format(device, num_inodes=16)
    fs.create("/f")
    old = random.Random(0).randbytes(700)
    fs.write_file("/f", old)
    free = fs.free_blocks()

    device.fail_at, device.stay_down = device.write_calls + k, stay_down
    with pytest.raises(DeviceError):
        fs.write_file("/f", b"n" * 100, 2 * BS + 7)  # one block, a fresh one
    device.fail_at = None

    # the inode goes last: every prefix leaves the file as it was
    views = [FileSystem.mount(device)] if stay_down else [
        FileSystem.mount(device), fs,
    ]
    for view in views:
        report = check_filesystem(view)
        assert not report.errors and not report.corrupt, report.errors
        assert view.read_file("/f") == old
        if not stay_down:
            assert not report.warnings, report.warnings
            assert view.free_blocks() == free


@pytest.mark.parametrize(
    "size", [40, 3 * BS], ids=["one block", "an extent"]
)
def test_an_in_doubt_write_is_read_back_from_the_device(size):
    device = RecordingDevice(num_blocks=256)
    fs = FileSystem.format(DeviceDriverStub(device, cache_blocks=64), 16)
    fs.create("/f")
    old = random.Random(1).randbytes(6 * BS)
    fs.write_file("/f", old)
    assert fs.read_file("/f") == old  # every block of /f is in the cache

    device.in_doubt, device.fail_at = True, device.write_calls + 1
    with pytest.raises(DeviceError):
        fs.write_file("/f", b"n" * size, BS + 7)
    device.fail_at = None

    # it landed: a mount with no cache in between is what the device
    # holds, and the mount that made the write must say the same
    on_device = FileSystem.mount(device).read_file("/f")
    assert on_device == old[: BS + 7] + b"n" * size + old[BS + 7 + size :]
    assert fs.read_file("/f") == on_device


def _agree(fs, device, *paths):
    """The mount that made the calls and a fresh mount read ``paths``
    alike, and fsck passes both."""
    fresh = FileSystem.mount(device)
    for path in paths:
        assert fs.stat(path) == fresh.stat(path), path
        assert fs.read_file(path) == fresh.read_file(path), path
    for view in (fs, fresh):
        report = check_filesystem(view)
        assert not report.errors and not report.corrupt, report.errors


@pytest.mark.parametrize("in_doubt", [False, True], ids=["refused", "in doubt"])
def test_a_failed_inode_write_leaves_the_mount_agreeing(in_doubt):
    device = RecordingDevice(num_blocks=256)
    fs = FileSystem.format(device, num_inodes=16)
    fs.create("/f")
    fs.write_file("/f", b"o" * 100)

    # in place and growing: the data write, then the inode write
    device.in_doubt, device.fail_at = in_doubt, device.write_calls + 2
    with pytest.raises(DeviceError):
        fs.write_file("/f", b"n" * 50, 100)
    device.fail_at = None

    assert fs.stat("/f").size == (150 if in_doubt else 100)
    _agree(fs, device, "/f")


def test_a_neighbour_in_doubt_is_settled_by_the_next_table_write():
    device = RecordingDevice(num_blocks=256)
    fs = FileSystem.format(device, num_inodes=16)
    fs.create("/a")
    fs.create("/b")
    sb = fs.superblock
    numbers = fs.stat("/a").inode, fs.stat("/b").inode
    assert {n * INODE_SIZE // BS for n in numbers} == {0}  # one table block

    # /a's fresh block: bitmap, data, then the inode write, in doubt
    device.in_doubt, device.fail_at = True, device.write_calls + 3
    with pytest.raises(DeviceError):
        fs.write_file("/a", b"a" * 40)
    device.fail_at = None
    _agree(fs, device, "/a", "/b")

    _reads, writes = device.spent(lambda: fs.write_file("/b", b"b" * 40))
    assert sb.inode_start in writes[-1]  # the table block, /a's record too
    _agree(fs, device, "/a", "/b")
    assert fs.read_file("/a") == b"a" * 40
    assert fs.read_file("/b") == b"b" * 40


def test_fsck_of_a_warm_mount_reads_the_inode_table_from_the_device():
    device = RecordingDevice(num_blocks=256)
    fs = FileSystem.format(device, num_inodes=16)
    fs.create("/f")
    fs.write_file("/f", b"warm")
    sb = fs.superblock
    assert sb.data_start - sb.inode_start == 2
    # the device's table says /f's inode is free; the mount's core does not
    table = bytearray(device.read_block(sb.inode_start))
    at = fs.stat("/f").inode * INODE_SIZE
    table[at : at + INODE_SIZE] = bytes(INODE_SIZE)
    LocalBlockDevice.write_block(device, sb.inode_start, bytes(table))
    assert fs.read_file("/f") == b"warm"

    start = len(device.log)
    report = check_filesystem(fs)
    read = {
        block for op, blocks in device.log[start:] if op[0] == "r"
        for block in blocks
    }
    assert set(range(sb.inode_start, sb.data_start)) <= read
    assert any("free inode" in error for error in report.errors)

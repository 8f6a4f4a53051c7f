"""What a one-block write leaves behind when the device fails it.

``test_crash_prefixes.py`` enumerates the write prefixes of multi-block
calls; the two cases here are the ones a transfer inside one block
adds.  A refused write must hand back the block it allocated, through
the single-block device call exactly as through the batch call.  And a
write that is *in doubt* -- it landed, then raised, which a replicated
device does when it loses its quorum after the fan-out -- must not
leave the buffer cache answering for the device.
"""

import random

import pytest

from repro.device import DeviceDriverStub
from repro.errors import DeviceError
from repro.fs import FileSystem
from repro.fs.check import check_filesystem

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

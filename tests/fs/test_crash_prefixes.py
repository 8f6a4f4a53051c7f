"""Every write prefix of a data-path call leaves a consistent file system.

The device refuses the *k*-th write of the call under test, for every
*k* the call makes -- once only (a transient ``DeviceError``: the file
system goes on to its clean-up) and from then on (a client crash: nothing
after the prefix reaches the device).  Either way a fresh mount of what
is on the device must pass fsck, and every file must read as what it
held before the call or what the call was writing.
"""

import random

import pytest

from repro.device import LocalBlockDevice
from repro.errors import DeviceError
from repro.fs import FileSystem
from repro.fs.check import check_filesystem

BS = 512


class FailingDevice(LocalBlockDevice):
    """Counts write calls and refuses the ``fail_at``-th -- and, with
    ``stay_down``, every one after it."""

    def __init__(self, num_blocks):
        super().__init__(num_blocks=num_blocks, block_size=BS)
        self.write_calls = 0
        self.fail_at = None
        self.stay_down = False

    def _admit(self):
        self.write_calls += 1
        if self.fail_at is not None and (
            self.write_calls == self.fail_at
            or (self.stay_down and self.write_calls > self.fail_at)
        ):
            raise DeviceError(f"injected at write {self.write_calls}")

    def write_block(self, index, data):
        self._admit()
        super().write_block(index, data)

    def write_blocks(self, writes):
        self._admit()
        super().write_blocks(writes)


def _bytes(seed, size):
    return random.Random(seed).randbytes(size)


def _overlay(old, offset, data):
    """``old`` after writing ``data`` at ``offset``."""
    grown = old + bytes(max(0, offset + len(data) - len(old)))
    return grown[:offset] + data + grown[offset + len(data):]


#: name -> (size of /target before, the call, /target after given before)
SCENARIOS = {
    # blocks 6-7 exist, 8-9 are new direct blocks, then the indirect
    # block itself and 10-13 behind it
    "allocating write, direct into indirect": (
        8 * BS,
        lambda fs: fs.write_file("/target", _bytes(2, 8 * BS), 6 * BS),
        lambda old: _overlay(old, 6 * BS, _bytes(2, 8 * BS)),
    ),
    # the table exists already: the pointer write goes live before the
    # inode write
    "allocating write, inside the indirect range": (
        16 * BS,
        lambda fs: fs.write_file("/target", _bytes(3, 8 * BS), 16 * BS),
        lambda old: _overlay(old, 16 * BS, _bytes(3, 8 * BS)),
    ),
    "in-place overwrite": (
        14 * BS,
        lambda fs: fs.write_file("/target", _bytes(4, 8 * BS + 40), 3 * BS + 7),
        lambda old: _overlay(old, 3 * BS + 7, _bytes(4, 8 * BS + 40)),
    ),
    # fills the tail of block 1 and spills into a new block 2
    "partial-block append": (
        700,
        lambda fs: fs.write_file("/target", _bytes(5, 500), 700),
        lambda old: _overlay(old, 700, _bytes(5, 500)),
    ),
    "truncate": (
        20 * BS,
        lambda fs: fs.truncate("/target"),
        lambda old: b"",
    ),
}


def _prepared(size):
    device = FailingDevice(num_blocks=256)
    fs = FileSystem.format(device, num_inodes=16)
    before = {"/bystander": _bytes(0, 3 * BS + 11), "/target": _bytes(1, size)}
    for path, data in before.items():
        fs.create(path)
        fs.write_file(path, data)
    return device, fs, before


def _writes_of(size, call):
    device, fs, _before = _prepared(size)
    start = device.write_calls
    call(fs)
    return device.write_calls - start


def _prefixes():
    for name, (size, call, _after) in SCENARIOS.items():
        for k in range(1, _writes_of(size, call) + 1):
            for stay_down in (False, True):
                yield pytest.param(
                    name, k, stay_down,
                    id=f"{name}-{k}-{'crash' if stay_down else 'transient'}",
                )


@pytest.mark.parametrize("name, k, stay_down", _prefixes())
def test_every_write_prefix_is_consistent(name, k, stay_down):
    size, call, after = SCENARIOS[name]
    device, fs, before = _prepared(size)
    old, new = before["/target"], after(before["/target"])
    device.fail_at, device.stay_down = device.write_calls + k, stay_down
    with pytest.raises(DeviceError):
        call(fs)
    device.fail_at = None

    views = [FileSystem.mount(device)]
    if not stay_down:
        views.append(fs)  # a survivor's memory must agree with the device
    for view in views:
        report = check_filesystem(view)
        assert not report.errors and not report.corrupt, report.errors
        if not stay_down and name != "truncate":
            # the failed write's allocation was handed back
            assert not report.warnings, report.warnings
        assert view.read_file("/bystander") == before["/bystander"]
        got = view.read_file("/target")
        assert len(got) in (len(old), len(new))
        for at, byte in enumerate(got):
            assert byte in (old[at : at + 1] + new[at : at + 1]), (
                f"byte {at} is neither the old nor the new content"
            )


@pytest.mark.parametrize("name", SCENARIOS)
def test_the_call_itself_completes(name):
    """The enumeration above only means something if, unfailed, each
    scenario does what its model says."""
    size, call, after = SCENARIOS[name]
    device, fs, before = _prepared(size)
    call(fs)
    assert fs.read_file("/target") == after(before["/target"])
    report = check_filesystem(FileSystem.mount(device))
    assert report.ok and not report.warnings

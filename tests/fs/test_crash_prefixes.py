"""Every write prefix of a call leaves a consistent file system.

The device refuses the *k*-th write of the call under test, for every
*k* the call makes -- once only (a transient ``DeviceError``: the file
system goes on to its clean-up) and from then on (a client crash: nothing
after the prefix reaches the device).  A data-path call also meets the
write that is in doubt: it lands, then raises once, what a replicated
device does when a write loses its quorum after the fan-out.  For a
data-path call a fresh mount of what is on the device, and the mount
that survived, must pass fsck in every case and read alike, and every
file must read as what it held before the call or what the call was
writing.  For a namespace call the assertion is agreement: the mount
that survived a transient refusal -- bitmap and name cache in memory --
and a fresh mount must tell the same story about the device.
"""

import random

import pytest

from repro.errors import DeviceError
from repro.fs import FileSystem
from repro.fs.check import check_filesystem

from .conftest import BS, RecordingDevice, outcome


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
    device = RecordingDevice(num_blocks=256)
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
            for mode in ("transient", "crash", "in-doubt"):
                yield pytest.param(name, k, mode, id=f"{name}-{k}-{mode}")


@pytest.mark.parametrize("name, k, mode", _prefixes())
def test_every_write_prefix_is_consistent(name, k, mode):
    size, call, after = SCENARIOS[name]
    device, fs, before = _prepared(size)
    old, new = before["/target"], after(before["/target"])
    device.fail_at = device.write_calls + k
    device.stay_down, device.in_doubt = mode == "crash", mode == "in-doubt"
    with pytest.raises(DeviceError):
        call(fs)
    device.fail_at = None

    views = [FileSystem.mount(device)]
    if mode != "crash":
        views.append(fs)  # a survivor's memory must agree with the device
    for view in views:
        report = check_filesystem(view)
        assert not report.errors and not report.corrupt, report.errors
        if mode == "transient" and name != "truncate":
            # the failed write's allocation was handed back; a write in
            # doubt may leave bits set that only the device holds
            assert not report.warnings, report.warnings
        assert view.read_file("/bystander") == before["/bystander"]
        got = view.read_file("/target")
        assert got == views[0].read_file("/target")
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


# -- namespace calls ---------------------------------------------------------

#: Every name a scenario below creates, removes or moves, and their parents.
NAMES = [
    "/d/f", "/d/new", "/d/sub", "/d/sub/x", "/d/empty",
    "/e/g", "/e/moved", "/e/moved/x",
]
PARENTS = ["/d", "/e"]

NAMESPACE_SCENARIOS = {
    "create": lambda fs: fs.create("/d/new"),
    "mkdir": lambda fs: fs.mkdir("/d/new"),
    "unlink": lambda fs: fs.unlink("/d/f"),
    "rmdir": lambda fs: fs.rmdir("/d/empty"),
    "rename file": lambda fs: fs.rename("/d/f", "/e/g"),
    "rename directory": lambda fs: fs.rename("/d/sub", "/e/moved"),
}


#: The one licensed disagreement.  The bitmap flush is the last write
#: of ``unlink`` and ``rmdir``; refused, the freed bits stay cleared in
#: the survivor's bitmap and ride out with its next flush of that
#: bitmap block, so only the device still shows the leak.
BITS_FREED_IN_MEMORY_ONLY = {("unlink", 3), ("rmdir", 3)}


def _tree():
    """A two-level tree with every entry warm in the mount's name cache."""
    device = RecordingDevice(num_blocks=256)
    fs = FileSystem.format(device, num_inodes=16)
    contents = {
        "/bystander": _bytes(0, 3 * BS + 11),
        "/d/f": _bytes(1, 12 * BS),  # into the indirect range
        "/d/sub/x": _bytes(2, 700),
    }
    for path in ("/d", "/e", "/d/sub", "/d/empty"):
        fs.mkdir(path)
    for path, data in contents.items():
        fs.create(path)
        fs.write_file(path, data)
    fs.create("/d/empty/was")  # /d/empty owns a block for rmdir to free
    fs.unlink("/d/empty/was")
    for path in NAMES:
        fs.exists(path)
    return device, fs, contents


def _namespace_prefixes():
    for name, call in NAMESPACE_SCENARIOS.items():
        device, fs, _contents = _tree()
        _reads, writes = device.spent(lambda: call(fs))
        for k in range(1, len(writes) + 1):
            for stay_down in (False, True):
                yield pytest.param(
                    name, k, stay_down,
                    id=f"{name}-{k}-{'crash' if stay_down else 'transient'}",
                )


def _story(view):
    """Everything a client or fsck can learn from ``view`` about the
    names the scenarios touch."""
    report = check_filesystem(view)
    return {
        "exists": {path: view.exists(path) for path in NAMES},
        "listdir": {path: view.listdir(path) for path in PARENTS},
        "bytes": {
            path: outcome(lambda: view.read_file(path)) for path in NAMES
        },
        "errors": report.errors,
        "corrupt": report.corrupt,
        "leaks": report.warnings,
    }


@pytest.mark.parametrize("name, k, stay_down", _namespace_prefixes())
def test_every_namespace_write_prefix_is_seen_alike(name, k, stay_down):
    device, fs, contents = _tree()
    device.fail_at, device.stay_down = device.write_calls + k, stay_down
    with pytest.raises(DeviceError):
        NAMESPACE_SCENARIOS[name](fs)
    device.fail_at = None

    fresh = FileSystem.mount(device)
    on_device = _story(fresh)
    assert not on_device["corrupt"]
    if not stay_down:
        survivor = _story(fs)
        if (name, k) in BITS_FREED_IN_MEMORY_ONLY:
            assert on_device["leaks"] and not survivor.pop("leaks")
            del on_device["leaks"]
        assert survivor == on_device
    assert fresh.read_file("/bystander") == contents["/bystander"]
    if name.startswith("rename"):
        # inserted before removed: reachable under both names, never lost
        old, new = ("/d/f", "/e/g") if name == "rename file" else (
            "/d/sub/x", "/e/moved/x"
        )
        held = contents[old]
        assert held in (on_device["bytes"][old], on_device["bytes"][new])


@pytest.mark.parametrize("name", NAMESPACE_SCENARIOS)
def test_the_namespace_call_itself_completes(name):
    device, fs, _contents = _tree()
    before = _story(fs)
    NAMESPACE_SCENARIOS[name](fs)
    after = _story(fs)
    assert after != before and after == _story(FileSystem.mount(device))
    for story in (before, after):
        assert not (story["errors"] or story["corrupt"] or story["leaks"])

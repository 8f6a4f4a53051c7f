"""Directory entry management."""

import pytest

from repro.device import LocalBlockDevice
from repro.errors import DeviceError, FileExistsFSError, FileNotFoundFSError
from repro.fs import DirEntry, Directory, FileSystem
from repro.fs.layout import DIRENT_SIZE

from .conftest import RecordingDevice


def make_root():
    device = LocalBlockDevice(num_blocks=128, block_size=512)
    fs = FileSystem.format(device)
    root_inode = fs._resolve("/")
    return fs, Directory(fs, root_inode)


def test_dirent_pack_unpack():
    entry = DirEntry(name="hello.txt", inode_number=7)
    packed = entry.pack()
    assert len(packed) == DIRENT_SIZE
    assert DirEntry.unpack(packed) == entry


def test_dirent_free_slot_is_none():
    assert DirEntry.unpack(bytes(DIRENT_SIZE)) is None


def test_add_and_lookup():
    _fs, root = make_root()
    root.add("alpha", 3)
    root.add("beta", 4)
    assert root.lookup("alpha").inode_number == 3
    assert root.lookup("beta").inode_number == 4
    assert [e.name for e in root.entries()] == ["alpha", "beta"]


def test_duplicate_add_rejected():
    _fs, root = make_root()
    root.add("x", 1)
    with pytest.raises(FileExistsFSError):
        root.add("x", 2)


def test_lookup_missing_raises():
    _fs, root = make_root()
    with pytest.raises(FileNotFoundFSError):
        root.lookup("ghost")


def test_remove_and_slot_reuse():
    _fs, root = make_root()
    root.add("a", 1)
    root.add("b", 2)
    removed = root.remove("a")
    assert removed.inode_number == 1
    assert not root.contains("a")
    # new entry reuses the freed slot: directory size does not grow
    size_before = root.inode.size
    root.add("c", 3)
    assert root.inode.size == size_before
    assert root.lookup("c").inode_number == 3


def test_remove_missing_raises():
    _fs, root = make_root()
    with pytest.raises(FileNotFoundFSError):
        root.remove("ghost")


def test_is_empty():
    _fs, root = make_root()
    assert root.is_empty()
    root.add("f", 1)
    assert not root.is_empty()
    root.remove("f")
    assert root.is_empty()


def test_many_entries_span_blocks():
    _fs, root = make_root()
    # 512-byte blocks hold 16 entries: add enough to need 3 blocks
    names = [f"file{i:03d}" for i in range(40)]
    for i, name in enumerate(names):
        root.add(name, i + 1)
    assert [e.name for e in root.entries()] == names
    assert root.lookup("file037").inode_number == 38


def test_a_refused_write_leaves_the_name_to_the_device():
    device = RecordingDevice(num_blocks=128)
    fs = FileSystem.format(device)
    root = Directory(fs, fs._resolve("/"))
    root.add("kept", 5)
    assert (0, "kept") in fs._names

    device.fail_at = device.write_calls + 1
    with pytest.raises(DeviceError):
        root.add("new", 6)
    assert (0, "new") not in fs._names
    device.fail_at = device.write_calls + 1
    with pytest.raises(DeviceError):
        root.remove("kept")
    # forgotten before the write, whatever became of it: the device decides
    assert (0, "kept") not in fs._names
    assert root.lookup("kept").inode_number == 5
    assert fs._names == {(0, "kept"): 5}

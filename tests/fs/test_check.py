"""fsck-style consistency checking."""

import pytest

from repro.device import LocalBlockDevice
from repro.fs import FileSystem, FileType
from repro.fs.check import check_filesystem
from repro.fs.filesystem import ROOT_INODE


@pytest.fixture
def fs():
    filesystem = FileSystem.format(LocalBlockDevice(num_blocks=256))
    filesystem.mkdir("/d")
    filesystem.create("/d/file")
    filesystem.write_file("/d/file", b"x" * 3000)
    filesystem.create("/top")
    return filesystem


def test_clean_filesystem_passes(fs):
    report = check_filesystem(fs)
    assert report.ok, report.errors
    assert report.warnings == []
    assert report.inodes_reachable == 4  # root, /d, /d/file, /top
    assert "clean" in report.summary()


def test_busy_filesystem_stays_clean(fs):
    for i in range(10):
        fs.create(f"/f{i}")
        fs.write_file(f"/f{i}", bytes(100 * i))
    for i in range(0, 10, 2):
        fs.unlink(f"/f{i}")
    fs.rename("/d/file", "/moved")
    assert check_filesystem(fs).ok


def test_detects_entry_to_free_inode(fs):
    root = fs._resolve("/")
    from repro.fs.directory import Directory

    Directory(fs, root).add("ghost", 15)  # inode 15 was never allocated
    report = check_filesystem(fs)
    assert not report.ok
    assert any("free inode" in e for e in report.errors)


def test_detects_double_referenced_block(fs):
    victim = fs._resolve("/d/file")
    thief = fs._resolve("/top")
    thief.direct[0] = victim.direct[0]
    thief.size = 10
    fs._inodes.write(thief)
    report = check_filesystem(fs)
    assert any("already referenced" in e for e in report.errors)


def test_detects_block_free_in_bitmap(fs):
    inode = fs._resolve("/d/file")
    fs._bitmap.free(inode.direct[0])
    report = check_filesystem(fs)
    assert any("free in the bitmap" in e for e in report.errors)


def test_detects_orphan_inode(fs):
    orphan = fs._inodes.allocate(FileType.REGULAR)
    report = check_filesystem(fs)
    assert any(
        f"inode {orphan.number}" in e and "unreachable" in e
        for e in report.errors
    )


def test_detects_leaked_block_as_warning(fs):
    fs._bitmap.allocate(1)  # claimed but never attached to an inode
    report = check_filesystem(fs)
    assert report.ok  # leak is a warning, not corruption
    assert any("referenced by no inode" in w for w in report.warnings)


def test_detects_corrupt_root():
    device = LocalBlockDevice(num_blocks=128)
    fs = FileSystem.format(device)
    root = fs._inodes.read(ROOT_INODE)
    root.file_type = FileType.REGULAR
    fs._inodes.write(root)
    report = check_filesystem(fs)
    assert not report.ok


def test_detects_duplicate_directory_entries(fs):
    # two names pointing at the same directory inode = reached twice
    target = fs._resolve("/d")
    from repro.fs.directory import Directory

    Directory(fs, fs._resolve("/")).add("alias", target.number)
    report = check_filesystem(fs)
    assert any("reached twice" in e for e in report.errors)


def test_replicated_device_with_failures_stays_clean(scheme):
    from ..conftest import make_cluster

    cluster = make_cluster(scheme, num_sites=3, num_blocks=256)
    protocol = cluster.protocol
    fs = FileSystem.format(cluster.device())
    fs.mkdir("/a")
    protocol.on_site_failed(1)
    fs.create("/a/f")
    fs.write_file("/a/f", b"y" * 2000)
    protocol.on_site_repaired(1)
    protocol.on_site_failed(0)
    fs.rename("/a/f", "/f")
    fs.rmdir("/a")
    protocol.on_site_repaired(0)
    report = check_filesystem(fs)
    assert report.ok, report.errors


class TestCorruptBlocks:
    """Checksum failures surface in the distinct ``corrupt`` category."""

    def test_corrupt_data_block_is_reported(self, fs):
        block = fs._resolve("/d/file").direct[0]
        data = bytearray(fs.device.read_block(block))
        data[0] ^= 0xFF
        fs.device.store.inject_corruption(block, bytes(data))
        report = check_filesystem(fs)
        assert not report.ok
        assert report.errors == []  # the *metadata* is still intact
        assert any(f"data block {block}" in c for c in report.corrupt)
        assert "corrupt block(s)" in report.summary()

    def test_corrupt_directory_block_is_reported(self, fs):
        block = fs._resolve("/d").direct[0]
        data = bytearray(fs.device.read_block(block))
        data[0] ^= 0xFF
        fs.device.store.inject_corruption(block, bytes(data))
        report = check_filesystem(fs)
        assert not report.ok
        assert any("unreadable" in c or "checksum" in c
                   for c in report.corrupt)

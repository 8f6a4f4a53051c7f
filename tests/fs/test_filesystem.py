"""End-to-end file-system behaviour on a local device."""

import pytest

from repro.device import LocalBlockDevice
from repro.errors import (
    DirectoryNotEmptyFSError,
    FileExistsFSError,
    FileNotFoundFSError,
    FileTooLargeFSError,
    FSFormatError,
    InvalidPathFSError,
    IsADirectoryFSError,
    NoSpaceFSError,
    NotADirectoryFSError,
)
from repro.fs import FileSystem, FileType, NUM_DIRECT


def make_fs(num_blocks=512, block_size=512, **kwargs):
    device = LocalBlockDevice(num_blocks=num_blocks, block_size=block_size)
    return FileSystem.format(device, **kwargs), device


class TestFormatAndMount:
    def test_fresh_fs_has_empty_root(self):
        fs, _ = make_fs()
        assert fs.listdir("/") == []
        assert fs.stat("/").file_type is FileType.DIRECTORY

    def test_mount_sees_formatted_data(self):
        fs, device = make_fs()
        fs.create("/file")
        fs.write_file("/file", b"persisted")
        remounted = FileSystem.mount(device)
        assert remounted.read_file("/file") == b"persisted"
        assert remounted.listdir("/") == ["file"]

    def test_mount_unformatted_device_rejected(self):
        device = LocalBlockDevice(num_blocks=64, block_size=512)
        with pytest.raises(FSFormatError):
            FileSystem.mount(device)

    def test_mount_shares_allocation_state(self):
        fs, device = make_fs()
        fs.create("/a")
        fs.write_file("/a", b"x" * 2000)
        remounted = FileSystem.mount(device)
        assert remounted.free_blocks() == fs.free_blocks()


class TestFileData:
    def test_write_and_read_whole_file(self):
        fs, _ = make_fs()
        fs.create("/data")
        payload = b"The quick brown fox jumps over the lazy dog"
        fs.write_file("/data", payload)
        assert fs.read_file("/data") == payload
        assert fs.stat("/data").size == len(payload)

    def test_multi_block_file(self):
        fs, _ = make_fs()
        fs.create("/big")
        payload = bytes(range(256)) * 10  # 2560 bytes = 5 blocks
        fs.write_file("/big", payload)
        assert fs.read_file("/big") == payload

    def test_indirect_blocks_exercised(self):
        fs, _ = make_fs(num_blocks=1024)
        fs.create("/huge")
        # > NUM_DIRECT blocks forces the single-indirect path
        payload = b"\x5a" * ((NUM_DIRECT + 20) * 512)
        fs.write_file("/huge", payload)
        assert fs.read_file("/huge") == payload
        assert fs.stat("/huge").blocks > NUM_DIRECT

    def test_offset_write_and_partial_read(self):
        fs, _ = make_fs()
        fs.create("/f")
        fs.write_file("/f", b"AAAABBBB")
        fs.write_file("/f", b"xx", offset=2)
        assert fs.read_file("/f") == b"AAxxBBBB"
        assert fs.read_file("/f", offset=4, size=2) == b"BB"

    def test_sparse_file_reads_zeros_in_hole(self):
        fs, _ = make_fs()
        fs.create("/sparse")
        fs.write_file("/sparse", b"end", offset=3 * 512)
        data = fs.read_file("/sparse")
        assert data[: 3 * 512] == bytes(3 * 512)
        assert data[3 * 512 :] == b"end"
        # the hole consumed no data blocks
        assert fs.stat("/sparse").blocks == 1

    def test_read_past_eof_is_clipped(self):
        fs, _ = make_fs()
        fs.create("/f")
        fs.write_file("/f", b"abc")
        assert fs.read_file("/f", offset=1, size=100) == b"bc"
        assert fs.read_file("/f", offset=10) == b""

    def test_file_too_large_rejected(self):
        fs, _ = make_fs(num_blocks=1024)
        fs.create("/f")
        with pytest.raises(FileTooLargeFSError):
            fs.write_file("/f", b"x", offset=fs.max_file_size())

    def test_max_file_size_exactly_fits(self):
        fs, _ = make_fs(num_blocks=512)
        fs.create("/f")
        # cannot allocate the whole max size on this small device; write
        # the last byte of the largest allowed offset range instead
        fs.write_file("/f", b"z", offset=fs.max_file_size() - 1)
        assert fs.stat("/f").size == fs.max_file_size()

    def test_truncate_frees_blocks(self):
        fs, _ = make_fs()
        fs.create("/f")
        free_before = fs.free_blocks()
        fs.write_file("/f", b"x" * 5000)
        fs.truncate("/f")
        assert fs.free_blocks() == free_before
        assert fs.read_file("/f") == b""
        assert fs.stat("/f").size == 0

    def test_out_of_space_raises(self):
        fs, _ = make_fs(num_blocks=32)
        fs.create("/f")
        with pytest.raises(NoSpaceFSError):
            fs.write_file("/f", b"x" * (40 * 512))


class TestNamespace:
    def test_nested_directories(self):
        fs, _ = make_fs()
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.create("/a/b/c.txt")
        assert fs.listdir("/a") == ["b"]
        assert fs.listdir("/a/b") == ["c.txt"]
        assert fs.exists("/a/b/c.txt")
        assert not fs.exists("/a/b/d.txt")

    def test_walk(self):
        fs, _ = make_fs()
        fs.mkdir("/x")
        fs.create("/x/1")
        fs.create("/top")
        assert fs.walk() == ["/top", "/x", "/x/1"]

    def test_create_duplicate_rejected(self):
        fs, _ = make_fs()
        fs.create("/f")
        with pytest.raises(FileExistsFSError):
            fs.create("/f")
        with pytest.raises(FileExistsFSError):
            fs.mkdir("/f")

    def test_missing_parent_rejected(self):
        fs, _ = make_fs()
        with pytest.raises(FileNotFoundFSError):
            fs.create("/nope/f")

    def test_file_as_directory_component_rejected(self):
        fs, _ = make_fs()
        fs.create("/plain")
        with pytest.raises(NotADirectoryFSError):
            fs.create("/plain/child")
        with pytest.raises(NotADirectoryFSError):
            fs.listdir("/plain")

    def test_exists_is_a_predicate_below_a_regular_file(self):
        fs, _ = make_fs()
        fs.create("/plain")
        assert not fs.exists("/plain/child")
        # every other call says why, and open(create=True) from create
        for call in (fs.stat, fs.read_file, fs.unlink, fs.mkdir):
            with pytest.raises(NotADirectoryFSError):
                call("/plain/child")
        with pytest.raises(NotADirectoryFSError):
            fs.open("/plain/child", create=True)

    def test_a_warm_path_is_still_validated(self):
        fs, _ = make_fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        assert fs.exists("/d/f")
        for bad in ("d/f", "/d/./f", "/d/../d/f", "/d/" + "n" * 28):
            with pytest.raises(InvalidPathFSError):
                fs.read_file(bad)

    def test_unlink_frees_everything(self):
        fs, _ = make_fs()
        # prime the root directory so its own entry block is allocated
        fs.create("/placeholder")
        free_before = fs.free_blocks()
        fs.create("/f")
        fs.write_file("/f", b"x" * ((NUM_DIRECT + 5) * 512))
        fs.unlink("/f")
        assert fs.free_blocks() == free_before
        assert not fs.exists("/f")

    def test_unlink_directory_rejected(self):
        fs, _ = make_fs()
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryFSError):
            fs.unlink("/d")

    def test_rmdir_empty_only(self):
        fs, _ = make_fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(DirectoryNotEmptyFSError):
            fs.rmdir("/d")
        fs.unlink("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rmdir_regular_file_rejected(self):
        fs, _ = make_fs()
        fs.create("/f")
        with pytest.raises(NotADirectoryFSError):
            fs.rmdir("/f")

    def test_directory_data_ops_rejected(self):
        fs, _ = make_fs()
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryFSError):
            fs.read_file("/d")
        with pytest.raises(IsADirectoryFSError):
            fs.write_file("/d", b"x")
        with pytest.raises(IsADirectoryFSError):
            fs.truncate("/d")

    def test_inode_reuse_after_unlink(self):
        fs, _ = make_fs(num_inodes=16)
        for _ in range(40):  # far more create/unlink cycles than inodes
            fs.create("/tmp")
            fs.unlink("/tmp")

    def test_deep_nesting(self):
        fs, _ = make_fs()
        path = ""
        for depth in range(8):
            path += f"/d{depth}"
            fs.mkdir(path)
        fs.create(path + "/leaf")
        assert fs.exists(path + "/leaf")

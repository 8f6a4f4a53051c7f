"""The block file system.

A small UNIX-like file system written strictly against the abstract
:class:`~repro.device.interface.BlockDevice`: superblock, free-block
bitmap, inode table with direct + single-indirect block pointers,
directories, absolute-path namespace operations, and whole-file or
offset-based data access.

Its role in the reproduction is architectural, not novel: Section 2 of
the paper argues that replicating *below* the device interface leaves
"the operating system kernel and the file system unchanged".  This file
system never imports anything from :mod:`repro.core`; the integration
tests mount it on a :class:`~repro.device.local.LocalBlockDevice` and on
a :class:`~repro.device.reliable.ReliableDevice` (with live failure
injection) and run the identical workload on both.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..device.interface import BlockDevice
from ..errors import (
    DeviceError,
    DirectoryNotEmptyFSError,
    FileExistsFSError,
    FileNotFoundFSError,
    FileTooLargeFSError,
    InvalidPathFSError,
    IsADirectoryFSError,
    NotADirectoryFSError,
)
from .bitmap import BlockBitmap
from .directory import Directory
from .inode import FileType, Inode, InodeTable, NO_BLOCK, NUM_DIRECT
from .layout import SuperBlock
from .path import parent_and_name, split_path

__all__ = ["FileSystem", "FileStat"]

ROOT_INODE = 0

_POINTER = struct.Struct("<I")


@dataclass(frozen=True)
class FileStat:
    """Metadata returned by :meth:`FileSystem.stat`."""

    inode: int
    file_type: FileType
    size: int
    blocks: int

    @property
    def is_directory(self) -> bool:
        return self.file_type is FileType.DIRECTORY


class FileSystem:
    """A mounted block file system.

    A mount keeps three things in memory between calls: the free-block
    bitmap; a name cache, ``(directory inode number, name) -> inode
    number`` for every directory entry it has looked up or added and
    not removed since (:mod:`repro.fs.directory` keeps it coherent);
    and in-core inodes, every inode it has read or written
    (:class:`~repro.fs.inode.InodeTable` keeps them coherent).  All
    three assume this mount is the device's only writer -- the paper's
    single-client model, which the buffer cache below assumes too.
    Directory listings and file data are read from the device on every
    call.
    """

    def __init__(self, device: BlockDevice, superblock: SuperBlock) -> None:
        self._device = device
        self._sb = superblock
        self._bitmap = BlockBitmap(device, superblock)
        self._bitmap.load()
        self._inodes = InodeTable(device, superblock)
        self._table = struct.Struct(f"<{self._pointers_per_block}I")
        self._names: Dict[Tuple[int, str], int] = {}

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def format(
        cls,
        device: BlockDevice,
        num_inodes: Optional[int] = None,
    ) -> "FileSystem":
        """Create a fresh file system on ``device`` and mount it."""
        if num_inodes is None:
            num_inodes = max(16, device.num_blocks // 8)
        sb = SuperBlock.compute(
            num_blocks=device.num_blocks,
            block_size=device.block_size,
            num_inodes=num_inodes,
        )
        device.write_block(0, sb.pack())
        # Zero the bitmap and inode table regions.
        zero = bytes(device.block_size)
        for i in range(sb.bitmap_start, sb.data_start):
            device.write_block(i, zero)
        fs = cls(device, sb)
        fs._bitmap.mark_allocated(0, sb.data_start)
        # The root directory.
        root = fs._inodes.read(ROOT_INODE)
        root.file_type = FileType.DIRECTORY
        root.links = 1
        fs._inodes.write(root)
        return fs

    @classmethod
    def mount(cls, device: BlockDevice) -> "FileSystem":
        """Mount an already-formatted device."""
        sb = SuperBlock.unpack(device.read_block(0))
        return cls(device, sb)

    @property
    def device(self) -> BlockDevice:
        return self._device

    @property
    def superblock(self) -> SuperBlock:
        return self._sb

    def free_blocks(self) -> int:
        """Unallocated data blocks remaining."""
        return self._bitmap.free_count()

    # -- block mapping ------------------------------------------------------------

    @property
    def _pointers_per_block(self) -> int:
        return self._sb.block_size // _POINTER.size

    def max_file_size(self) -> int:
        """Largest file the inode geometry can map."""
        return (NUM_DIRECT + self._pointers_per_block) * self._sb.block_size

    def _read_table(self, inode: Inode) -> List[int]:
        """The pointers in ``inode``'s indirect block -- all
        ``NO_BLOCK`` when it has none."""
        if inode.indirect == NO_BLOCK:
            return [NO_BLOCK] * self._pointers_per_block
        return list(
            self._table.unpack(self._device.read_block(inode.indirect))
        )

    def _map_range(
        self, inode: Inode, first: int, count: int, allocate: bool = False
    ) -> Tuple[List[int], List[int], Optional[List[int]]]:
        """Map file blocks ``[first, first + count)`` to device blocks
        in one pass: one read of the indirect table, and with
        ``allocate`` one bitmap allocation for every block the run
        lacks (the indirect block included).

        Returns ``(blocks, fresh, table)``.  ``blocks[i]`` backs file
        block ``first + i``; without ``allocate`` a hole is ``NO_BLOCK``
        (it reads as zeros -- sparse files work).  ``fresh`` are the
        blocks this call allocated: flushed to the bitmap, holding
        whatever they held before, and referenced only in memory --
        ``inode`` is updated, and ``table`` is the indirect block's new
        pointer list when that changed (else ``None``).  Writing data,
        table and inode, in that order, is the caller's job.
        """
        stop = first + count
        if stop > NUM_DIRECT + self._pointers_per_block:
            raise FileTooLargeFSError(
                f"file block {stop - 1} beyond maximum "
                f"({self.max_file_size()} bytes)"
            )
        pointers = list(inode.direct)
        if stop > NUM_DIRECT:
            pointers += self._read_table(inode)
        blocks = pointers[first:stop]
        if not allocate or NO_BLOCK not in blocks:
            return blocks, [], None
        # Lowest block first in file order, the indirect block just
        # before the first block it maps: the layout block-at-a-time
        # allocation produces.
        holes = [
            file_block
            for file_block in range(first, stop)
            if pointers[file_block] == NO_BLOCK
        ]
        new_table = stop > NUM_DIRECT and inode.indirect == NO_BLOCK
        fresh = self._bitmap.allocate(len(holes) + new_table)
        supply = iter(fresh)
        for file_block in holes:
            if file_block >= NUM_DIRECT and inode.indirect == NO_BLOCK:
                inode.indirect = next(supply)
            pointers[file_block] = next(supply)
        inode.direct = pointers[:NUM_DIRECT]
        table = pointers[NUM_DIRECT:] if holes[-1] >= NUM_DIRECT else None
        return pointers[first:stop], fresh, table

    # -- file data ---------------------------------------------------------------

    def _read_file_data(self, inode: Inode, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset``, clipped to the file size.

        Beyond the indirect-table read of :meth:`_map_range`, the whole
        transfer is one device call for its mapped blocks -- on a
        replicated device, one quorum round:
        :meth:`~repro.device.interface.BlockDevice.read_block` when
        the range maps to one block (a batch of one has nothing to
        amortise and costs every layer below its containers), one
        batched :meth:`~repro.device.interface.BlockDevice.read_blocks`
        otherwise.
        """
        if offset >= inode.size or size <= 0:
            return b""
        size = min(size, inode.size - offset)
        bs = self._sb.block_size
        first = offset // bs
        last = (offset + size - 1) // bs
        blocks, _fresh, _table = self._map_range(
            inode, first, last - first + 1
        )
        skip = offset - first * bs
        if first == last:
            (block,) = blocks
            if block == NO_BLOCK:
                return bytes(size)
            return self._device.read_block(block)[skip : skip + size]
        wanted = [block for block in blocks if block != NO_BLOCK]
        if len(wanted) > 1:
            contents = self._device.read_blocks(wanted)
        else:  # all holes but one, or all holes
            contents = {
                block: self._device.read_block(block) for block in wanted
            }
        hole = bytes(bs)
        data = b"".join(
            hole if block == NO_BLOCK else contents[block] for block in blocks
        )
        return data[skip : skip + size]

    def _write_file_data(
        self, inode: Inode, offset: int, data: bytes
    ) -> None:
        """Write ``data`` at ``offset``, growing the file as needed.

        Device writes, in this order and each at most once per call:
        the bitmap blocks covering newly allocated blocks, the data in
        one write, the indirect table if a pointer in it changed, the
        inode if a pointer in it or the size changed.  So a prefix of
        the call never leaves a pointer on the device to a block that
        is free or not yet written; it can only leak blocks, and a call
        that fails hands back those the device's inode does not reach
        (:meth:`_release`).  A fresh block is never zero-filled on the
        device: the write covers it in full, the uncovered part of an
        edge block as zeros.

        The data write, and before it the read of the existing edge
        blocks a partial end needs, is the single-block device call
        when it names one block and the batch call when it names more
        (see :meth:`_read_file_data`).
        """
        end = offset + len(data)
        if end > self.max_file_size():
            raise FileTooLargeFSError(
                f"write to offset {end} exceeds maximum "
                f"file size {self.max_file_size()}"
            )
        on_device = inode.pack()
        fresh: List[int] = []
        try:
            if data:
                bs = self._sb.block_size
                first = offset // bs
                last = (end - 1) // bs
                blocks, fresh, table = self._map_range(
                    inode, first, last - first + 1, allocate=True
                )
                # Pad the transfer to whole blocks with what surrounds
                # it: an existing edge block's bytes, zeros in a fresh one.
                lead = offset - first * bs
                trail = (last + 1) * bs - end
                edges = list(dict.fromkeys(
                    block
                    for block, partial in ((blocks[0], lead), (blocks[-1], trail))
                    if partial and block not in fresh
                ))
                if len(edges) == 2:
                    current = self._device.read_blocks(edges)
                else:
                    current = {
                        edge: self._device.read_block(edge) for edge in edges
                    }
                padded = b"".join((
                    current.get(blocks[0], bytes(bs))[:lead],
                    data,
                    current.get(blocks[-1], bytes(bs))[bs - trail :],
                ))
                if first == last:
                    self._device.write_block(blocks[0], padded)
                else:
                    self._device.write_blocks({
                        block: padded[i * bs : (i + 1) * bs]
                        for i, block in enumerate(blocks)
                    })
                if table is not None:
                    self._device.write_block(
                        inode.indirect, self._table.pack(*table)
                    )
            inode.size = max(inode.size, end)
            if inode.pack() != on_device:
                self._inodes.write(inode)
        except DeviceError:
            if fresh:
                self._release(inode.number, fresh)
            raise

    def _release(self, number: int, fresh: List[int]) -> None:
        """Hand back the blocks a failed call allocated that the
        device's copy of inode ``number`` does not reach: its direct
        pointers, its indirect block and that block's table.

        A write that raised may have landed, so what the device holds
        is re-read -- through the inode table, which forgot the record
        if it was the inode write that raised.  If the re-read raises
        too, nothing is released: a leak, which fsck reports as a
        warning, where a guess could free a block a pointer on the
        device names.  Best effort likewise if the bitmap flush is
        refused.
        """
        try:
            held = self._inodes.read(number)
            reached = set(held.direct)
            reached.add(held.indirect)
            reached.update(self._read_table(held))
            self._bitmap.free(*[b for b in fresh if b not in reached])
        except DeviceError:
            pass

    def _truncate(self, inode: Inode, free: bool = False) -> None:
        """Free every data block of ``inode`` and zero its size; with
        ``free``, release the inode too, in the same write of its record.

        The cleared inode is written first and the bitmap second, so a
        prefix leaks blocks but never leaves a pointer to a free one.
        """
        blocks = [block for block in inode.direct if block != NO_BLOCK]
        if inode.indirect != NO_BLOCK:
            blocks += [b for b in self._read_table(inode) if b != NO_BLOCK]
            blocks.append(inode.indirect)
        if free:
            self._inodes.free(inode)
        else:
            inode.direct = [NO_BLOCK] * NUM_DIRECT
            inode.indirect = NO_BLOCK
            inode.size = 0
            self._inodes.write(inode)
        self._bitmap.free(*blocks)

    # -- path resolution -------------------------------------------------------------

    def _walk(self, components: List[str]) -> List[int]:
        """The inode numbers from the root down ``components``, root
        first.  A name in the cache costs one probe; any other is read
        from its directory on the device (which remembers it if found).
        """
        trail = [ROOT_INODE]
        for name in components:
            child = self._names.get((trail[-1], name))
            if child is None:
                inode = self._inodes.read(trail[-1])
                if not inode.is_directory:
                    raise NotADirectoryFSError(
                        f"component before {name!r} is not a directory"
                    )
                child = Directory(self, inode).lookup(name).inode_number
            trail.append(child)
        return trail

    def _resolve(self, path: str) -> Inode:
        """Walk an absolute path to its inode."""
        return self._inodes.read(self._walk(split_path(path))[-1])

    def _resolve_parent(self, path: str) -> tuple:
        """Resolve the parent directory of ``path``; returns (dir, name)."""
        parents, name = parent_and_name(path)
        inode = self._inodes.read(self._walk(parents)[-1])
        if not inode.is_directory:
            raise NotADirectoryFSError(f"parent of {name!r} is not a directory")
        return Directory(self, inode), name

    # -- namespace operations ------------------------------------------------------------

    def exists(self, path: str) -> bool:
        """Whether ``path`` resolves."""
        try:
            self._resolve(path)
            return True
        except (FileNotFoundFSError, NotADirectoryFSError):
            return False

    def stat(self, path: str) -> FileStat:
        """Metadata for ``path``."""
        inode = self._resolve(path)
        pointers = inode.direct + [inode.indirect]
        if inode.indirect != NO_BLOCK:
            pointers += self._read_table(inode)
        return FileStat(
            inode=inode.number,
            file_type=inode.file_type,
            size=inode.size,
            blocks=len(pointers) - pointers.count(NO_BLOCK),
        )

    def create(self, path: str) -> None:
        """Create an empty regular file."""
        directory, name = self._resolve_parent(path)
        if directory.contains(name):
            raise FileExistsFSError(f"{path!r} already exists")
        inode = self._inodes.allocate(FileType.REGULAR)
        directory.add(name, inode.number)

    def mkdir(self, path: str) -> None:
        """Create an empty directory."""
        directory, name = self._resolve_parent(path)
        if directory.contains(name):
            raise FileExistsFSError(f"{path!r} already exists")
        inode = self._inodes.allocate(FileType.DIRECTORY)
        directory.add(name, inode.number)

    def listdir(self, path: str) -> List[str]:
        """Names inside a directory, sorted."""
        inode = self._resolve(path)
        if not inode.is_directory:
            raise NotADirectoryFSError(f"{path!r} is not a directory")
        return sorted(e.name for e in Directory(self, inode).entries())

    def unlink(self, path: str) -> None:
        """Remove a regular file, freeing its blocks."""
        directory, name = self._resolve_parent(path)
        entry = directory.lookup(name)
        inode = self._inodes.read(entry.inode_number)
        if inode.is_directory:
            raise IsADirectoryFSError(f"{path!r} is a directory; use rmdir")
        directory.remove(name)
        self._truncate(inode, free=True)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        directory, name = self._resolve_parent(path)
        entry = directory.lookup(name)
        inode = self._inodes.read(entry.inode_number)
        if not inode.is_directory:
            raise NotADirectoryFSError(f"{path!r} is not a directory")
        if not Directory(self, inode).is_empty():
            raise DirectoryNotEmptyFSError(f"{path!r} is not empty")
        directory.remove(name)
        self._truncate(inode, free=True)

    # -- file data API ------------------------------------------------------------

    def write_file(self, path: str, data: bytes, offset: int = 0) -> None:
        """Write ``data`` into a regular file at ``offset``."""
        inode = self._resolve(path)
        if inode.is_directory:
            raise IsADirectoryFSError(f"{path!r} is a directory")
        self._write_file_data(inode, offset, data)

    def read_file(
        self, path: str, offset: int = 0, size: Optional[int] = None
    ) -> bytes:
        """Read from a regular file (whole file by default)."""
        inode = self._resolve(path)
        if inode.is_directory:
            raise IsADirectoryFSError(f"{path!r} is a directory")
        if size is None:
            size = inode.size - offset
        return self._read_file_data(inode, offset, size)

    def truncate(self, path: str) -> None:
        """Discard a regular file's contents."""
        inode = self._resolve(path)
        if inode.is_directory:
            raise IsADirectoryFSError(f"{path!r} is a directory")
        self._truncate(inode)

    def open(self, path: str, create: bool = False):
        """An open :class:`~repro.fs.file.File` handle on a regular file.

        With ``create=True`` the file is created if absent (like mode
        ``a+``); otherwise a missing path raises.
        """
        from .file import File

        if create and not self.exists(path):
            self.create(path)
        inode = self._resolve(path)
        if inode.is_directory:
            raise IsADirectoryFSError(f"{path!r} is a directory")
        return File(self, path)

    def rename(self, old_path: str, new_path: str) -> None:
        """Move a file or directory to a new name/parent.

        The destination must not exist.  Moving a directory underneath
        itself is rejected (it would orphan the subtree).
        """
        old_dir, old_name = self._resolve_parent(old_path)
        entry = old_dir.lookup(old_name)
        moved = self._inodes.read(entry.inode_number)
        # reject /a -> /a/b/c: resolving the new parent may not pass
        # through the directory being moved
        if moved.is_directory and moved.number in self._walk(
            parent_and_name(new_path)[0]
        ):
            raise InvalidPathFSError(f"cannot move {old_path!r} into itself")
        new_dir, new_name = self._resolve_parent(new_path)
        if new_dir.contains(new_name):
            raise FileExistsFSError(f"{new_path!r} already exists")
        # insert first, then remove: a crash between the two leaves the
        # entry reachable under both names rather than lost
        new_dir.add(new_name, entry.inode_number)
        # re-open the source directory in case it is the same directory
        # object whose data just changed
        old_dir, old_name = self._resolve_parent(old_path)
        old_dir.remove(old_name)

    # -- whole-tree helpers (tests, examples) ------------------------------------

    def walk(self, path: str = "/") -> List[str]:
        """Every path under ``path`` (directories and files), sorted."""
        inode = self._resolve(path)
        if not inode.is_directory:
            return [path]
        results: List[str] = []
        base = path.rstrip("/")
        for name in self.listdir(path):
            child = f"{base}/{name}"
            results.append(child)
            if self.stat(child).is_directory:
                results.extend(self.walk(child))
        return sorted(results)

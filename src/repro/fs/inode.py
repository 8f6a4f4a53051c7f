"""Inodes and the on-device inode table.

Each inode is a fixed 64-byte record: file type, link count, size, ten
direct block pointers and one single-indirect pointer.  With 512-byte
blocks that maps files up to ``(10 + 128) * 512 = 70,656`` bytes -- ample
for the workloads here while keeping the block-mapping logic honest
(the indirect path is exercised by tests and examples).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from ..device.interface import BlockDevice
from ..errors import FSFormatError, NoSpaceFSError
from .layout import INODE_SIZE, SuperBlock

__all__ = ["FileType", "Inode", "InodeTable", "NUM_DIRECT"]

#: Direct block pointers per inode.
NUM_DIRECT = 10

#: Sentinel for "no block assigned".
NO_BLOCK = 0

_INODE = struct.Struct("<HHIQ" + "I" * NUM_DIRECT + "I")
assert _INODE.size <= INODE_SIZE
_MODE = struct.Struct("<H")


class FileType(enum.IntEnum):
    """Type tag stored in the inode's mode field."""

    FREE = 0
    REGULAR = 1
    DIRECTORY = 2


@dataclass
class Inode:
    """An in-memory inode, serialisable to its 64-byte record."""

    number: int
    file_type: FileType = FileType.FREE
    links: int = 0
    size: int = 0
    direct: List[int] = field(default_factory=lambda: [NO_BLOCK] * NUM_DIRECT)
    indirect: int = NO_BLOCK

    @property
    def is_free(self) -> bool:
        return self.file_type is FileType.FREE

    @property
    def is_directory(self) -> bool:
        return self.file_type is FileType.DIRECTORY

    @property
    def is_regular(self) -> bool:
        return self.file_type is FileType.REGULAR

    def pack(self) -> bytes:
        raw = _INODE.pack(
            int(self.file_type),
            self.links,
            0,  # reserved
            self.size,
            *self.direct,
            self.indirect,
        )
        return raw + bytes(INODE_SIZE - len(raw))

    @classmethod
    def unpack(cls, number: int, data: bytes) -> "Inode":
        fields = _INODE.unpack(data[: _INODE.size])
        return cls(
            number=number,
            file_type=FileType(fields[0]),
            links=fields[1],
            size=fields[3],
            direct=list(fields[4 : 4 + NUM_DIRECT]),
            indirect=fields[4 + NUM_DIRECT],
        )


def _is_free(data: bytes, offset: int) -> bool:
    """Whether the inode record at ``offset`` of a table block is free."""
    return _MODE.unpack_from(data, offset)[0] == FileType.FREE


class InodeTable:
    """Reads, writes, allocates and frees inodes on the device."""

    def __init__(self, device: BlockDevice, superblock: SuperBlock) -> None:
        self._device = device
        self._sb = superblock
        self._per_block = superblock.block_size // INODE_SIZE

    def _locate(self, number: int) -> tuple:
        if not 0 <= number < self._sb.num_inodes:
            raise FSFormatError(
                f"inode {number} out of range [0, {self._sb.num_inodes})"
            )
        block = self._sb.inode_start + number // self._per_block
        offset = (number % self._per_block) * INODE_SIZE
        return block, offset

    def read(self, number: int) -> Inode:
        """Load inode ``number`` from the device."""
        block, offset = self._locate(number)
        data = self._device.read_block(block)
        return Inode.unpack(number, data[offset : offset + INODE_SIZE])

    def write(self, inode: Inode) -> None:
        """Store ``inode`` back to the device (read-modify-write)."""
        block, offset = self._locate(inode.number)
        data = bytearray(self._device.read_block(block))
        data[offset : offset + INODE_SIZE] = inode.pack()
        self._device.write_block(block, bytes(data))

    def _records(self) -> Iterator[Tuple[int, int, bytearray, int]]:
        """``(number, table block, its contents, offset of the record)``
        for every inode in number order; each table block is read once."""
        loaded, data = None, bytearray()
        for number in range(self._sb.num_inodes):
            block, offset = self._locate(number)
            if block != loaded:
                loaded = block
                data = bytearray(self._device.read_block(block))
            yield number, block, data, offset

    def allocate(self, file_type: FileType) -> Inode:
        """Claim the lowest-numbered free inode."""
        for number, block, data, offset in self._records():
            if _is_free(data, offset):
                inode = Inode(number=number, file_type=file_type, links=1)
                data[offset : offset + INODE_SIZE] = inode.pack()
                self._device.write_block(block, bytes(data))
                return inode
        raise NoSpaceFSError("no free inodes")

    def free(self, inode: Inode) -> None:
        """Release an inode: one write of its record, cleared.  The
        caller frees the blocks it pointed at afterwards."""
        inode.file_type = FileType.FREE
        inode.links = 0
        inode.size = 0
        inode.direct = [NO_BLOCK] * NUM_DIRECT
        inode.indirect = NO_BLOCK
        self.write(inode)

    def used_count(self) -> int:
        """Number of allocated inodes."""
        return sum(
            1
            for _number, _block, data, offset in self._records()
            if not _is_free(data, offset)
        )

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
from typing import Dict, Iterator, List, Tuple

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

    def copy(self) -> "Inode":
        """An independent copy (the pointer list is not shared)."""
        return Inode(
            self.number, self.file_type, self.links, self.size,
            self.direct[:], self.indirect,
        )

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
    """Reads, writes, allocates and frees inodes, keeping them in core.

    The table holds the image of every inode-table block this mount has
    read or written, and the decoded record of every inode in it a
    caller has asked for; ``num_inodes`` bounds both.  It follows the
    buffer cache's coherence rule (DESIGN §6):

    * A table block's in-core records are the image this mount last
      read from that block, or last wrote to it successfully.
    * A write first drops the block's image and records, and enters
      the new image only after the device call returns: a refused or
      in-doubt write leaves them absent, and the next read asks the
      device.
    * A write modifies the block's image, so after it succeeds every
      record of the block equals the written image -- a neighbour's
      torn record can never differ between the mount and the device.

    :meth:`read` hands out a copy: a caller changes the table only
    through :meth:`write`.  A fresh table reads the device, which is
    how fsck audits it.
    """

    def __init__(self, device: BlockDevice, superblock: SuperBlock) -> None:
        self._device = device
        self._sb = superblock
        self._per_block = superblock.block_size // INODE_SIZE
        self._images: Dict[int, bytes] = {}
        self._core: Dict[int, Inode] = {}

    def _locate(self, number: int) -> tuple:
        if not 0 <= number < self._sb.num_inodes:
            raise FSFormatError(
                f"inode {number} out of range [0, {self._sb.num_inodes})"
            )
        block = self._sb.inode_start + number // self._per_block
        offset = (number % self._per_block) * INODE_SIZE
        return block, offset

    def _image(self, block: int) -> bytes:
        """Table block ``block`` as this mount last saw it, read from
        the device when it is not in core."""
        image = self._images.get(block)
        if image is None:
            image = self._images[block] = bytes(self._device.read_block(block))
        return image

    def read(self, number: int) -> Inode:
        """Inode ``number``, from core or else from its table block."""
        inode = self._core.get(number)
        if inode is None:
            block, offset = self._locate(number)
            record = self._image(block)[offset : offset + INODE_SIZE]
            inode = self._core[number] = Inode.unpack(number, record)
        return inode.copy()

    def write(self, inode: Inode) -> None:
        """Store ``inode`` back to the device (read-modify-write of its
        table block's image)."""
        block, offset = self._locate(inode.number)
        image = self._image(block)
        image = image[:offset] + inode.pack() + image[offset + INODE_SIZE :]
        del self._images[block]
        first = (block - self._sb.inode_start) * self._per_block
        for number in range(first, first + self._per_block):
            self._core.pop(number, None)
        self._device.write_block(block, image)
        self._images[block] = image
        self._core[inode.number] = inode.copy()

    def _records(self) -> Iterator[Tuple[int, bytes, int]]:
        """``(number, its table block's image, offset of the record)``
        for every inode in number order."""
        for number in range(self._sb.num_inodes):
            block, offset = self._locate(number)
            yield number, self._image(block), offset

    def allocate(self, file_type: FileType) -> Inode:
        """Claim the lowest-numbered free inode."""
        for number, image, offset in self._records():
            if _is_free(image, offset):
                inode = Inode(number=number, file_type=file_type, links=1)
                self.write(inode)
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
            for _number, image, offset in self._records()
            if not _is_free(image, offset)
        )

"""Directory contents: fixed-size entries inside a directory file.

A directory is an ordinary file (owned by a DIRECTORY inode) whose data
is an array of 32-byte entries: 4-byte inode number, 1-byte name length,
27 name bytes.  A zero name length marks a free slot, so removal never
rewrites the whole directory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..errors import FileExistsFSError, FileNotFoundFSError
from .layout import DIRENT_SIZE, NAME_MAX
from .inode import Inode

__all__ = ["DirEntry", "Directory"]

_HEADER = struct.Struct("<IB")
#: Where, inside a slot, the name-length byte and the name itself sit.
_LENGTH_AT, _NAME_AT = _HEADER.size - 1, _HEADER.size


@dataclass(frozen=True)
class DirEntry:
    """One (name -> inode) mapping inside a directory."""

    name: str
    inode_number: int

    def pack(self) -> bytes:
        encoded = self.name.encode("utf-8")
        if not 0 < len(encoded) <= NAME_MAX:
            raise ValueError(f"bad directory name {self.name!r}")
        raw = _HEADER.pack(self.inode_number, len(encoded)) + encoded
        return raw + bytes(DIRENT_SIZE - len(raw))

    @staticmethod
    def unpack(data: bytes) -> Optional["DirEntry"]:
        """Parse one slot; ``None`` for a free slot."""
        inode_number, name_length = _HEADER.unpack(data[: _HEADER.size])
        if name_length == 0:
            return None
        name = data[_HEADER.size : _HEADER.size + name_length].decode("utf-8")
        return DirEntry(name=name, inode_number=inode_number)


class Directory:
    """Entry-level operations over one directory inode.

    The class holds no state beyond references: every call reads or
    writes the directory's data on the device -- a scan is one device
    read, single-block while the directory fits one block, one batch
    past that.  What a mount remembers
    between calls is its name cache (see
    :class:`~repro.fs.filesystem.FileSystem`), and the namespace
    changes only here, so this is where it is kept coherent: a scan
    that finds a name enters it, :meth:`add` enters the new name after
    its device write returned, :meth:`remove` drops the name before it
    writes -- a refused or in-doubt write leaves the name absent, and
    the next lookup goes to the device.  Nothing is cached negatively,
    and :meth:`entries` never consults the cache, so listings and fsck
    see the device.
    """

    def __init__(self, fs, inode: Inode) -> None:
        self._fs = fs
        self._inode = inode

    @property
    def inode(self) -> Inode:
        return self._inode

    # -- iteration ---------------------------------------------------------

    def _slots(self) -> Iterator[tuple]:
        """Yield (slot_index, entry-or-None) for every slot."""
        data = self._fs._read_file_data(self._inode, 0, self._inode.size)
        for slot in range(len(data) // DIRENT_SIZE):
            raw = data[slot * DIRENT_SIZE : (slot + 1) * DIRENT_SIZE]
            yield slot, DirEntry.unpack(raw)

    def entries(self) -> List[DirEntry]:
        """All live entries, in slot order."""
        return [entry for _slot, entry in self._slots() if entry is not None]

    def is_empty(self) -> bool:
        return not self.entries()

    # -- lookup / mutation ------------------------------------------------------

    def lookup(self, name: str) -> DirEntry:
        """Find ``name`` or raise :class:`FileNotFoundFSError`."""
        # Compares raw slots and parses only the one that matches: a
        # cold path runs this once per component.
        encoded = name.encode("utf-8")
        length = len(encoded)
        data = self._fs._read_file_data(self._inode, 0, self._inode.size)
        if length:  # a zero name length marks a free slot
            for slot in range(0, len(data) - DIRENT_SIZE + 1, DIRENT_SIZE):
                at = slot + _NAME_AT
                if (
                    data[slot + _LENGTH_AT] == length
                    and data[at : at + length] == encoded
                ):
                    number = _HEADER.unpack_from(data, slot)[0]
                    self._fs._names[self._inode.number, name] = number
                    return DirEntry(name, number)
        raise FileNotFoundFSError(f"no entry {name!r}")

    def contains(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except FileNotFoundFSError:
            return False

    def add(self, name: str, inode_number: int) -> None:
        """Insert an entry, reusing the first free slot."""
        free_slot: Optional[int] = None
        for slot, entry in self._slots():
            if entry is None:
                if free_slot is None:
                    free_slot = slot
            elif entry.name == name:
                raise FileExistsFSError(f"entry {name!r} already exists")
        packed = DirEntry(name=name, inode_number=inode_number).pack()
        if free_slot is None:
            free_slot = self._inode.size // DIRENT_SIZE
        self._fs._write_file_data(
            self._inode, free_slot * DIRENT_SIZE, packed
        )
        self._fs._names[self._inode.number, name] = inode_number

    def remove(self, name: str) -> DirEntry:
        """Delete an entry, returning what it pointed at."""
        self._fs._names.pop((self._inode.number, name), None)
        for slot, entry in self._slots():
            if entry is not None and entry.name == name:
                self._fs._write_file_data(
                    self._inode, slot * DIRENT_SIZE, bytes(DIRENT_SIZE)
                )
                return entry
        raise FileNotFoundFSError(f"no entry {name!r}")

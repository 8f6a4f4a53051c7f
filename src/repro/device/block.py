"""Versioned block storage -- one site's copy of the reliable device.

A :class:`BlockStore` is the stable storage of a single replica server:
an array of fixed-size blocks, each carrying the version number the
consistency protocols compare.  Storage is sparse; blocks never written
read back as zeros, like a freshly initialised disk.

Every write also records a CRC32 of the block contents.  Reads verify
it, so silent corruption (bit rot, torn sectors -- failure modes the
paper's fail-stop model excludes) surfaces as a
:class:`~repro.errors.CorruptBlockError` instead of wrong data.  A
detected-bad copy can be *quarantined*: its contents are dropped while
its version number is kept, so the staleness machinery of the
consistency protocols treats it as a copy in need of repair rather than
silently serving zeros.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.version import VersionVector
from ..errors import BlockOutOfRangeError, BlockSizeError, CorruptBlockError
from ..types import BlockIndex, VersionNumber

__all__ = ["BlockStore", "DEFAULT_BLOCK_SIZE"]

#: Default block size, matching classic UNIX file system blocks.
DEFAULT_BLOCK_SIZE = 512

#: One stored block: ``(index, version, data, checksum)``; ``data`` and
#: ``checksum`` are ``None`` for a version-only entry.
Entry = Tuple[BlockIndex, VersionNumber, Optional[bytes], Optional[int]]


class BlockStore:
    """Sparse array of versioned fixed-size blocks.

    Parameters
    ----------
    num_blocks:
        Capacity of the device in blocks.
    block_size:
        Size of each block in bytes.
    """

    def __init__(
        self, num_blocks: int, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self._num_blocks = int(num_blocks)
        self._block_size = int(block_size)
        self._data: Dict[BlockIndex, bytes] = {}
        self._versions = VersionVector()
        self._vget = self._versions.getter()
        self._sums: Dict[BlockIndex, int] = {}
        self._quarantined: Set[BlockIndex] = set()
        self._zero = bytes(self._block_size)

    # -- geometry -----------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def block_size(self) -> int:
        return self._block_size

    def check_index(self, index: BlockIndex) -> None:
        """Raise :class:`BlockOutOfRangeError` for a bad index."""
        if not 0 <= index < self._num_blocks:
            raise BlockOutOfRangeError(index, self._num_blocks)

    # -- block access -------------------------------------------------------

    def read(self, index: BlockIndex) -> bytes:
        """Contents of block ``index`` (zeros if never written).

        Raises :class:`~repro.errors.CorruptBlockError` when the stored
        data fails checksum verification or the block is quarantined.
        """
        if not 0 <= index < self._num_blocks:
            raise BlockOutOfRangeError(index, self._num_blocks)
        data = self._data.get(index)
        if data is None:
            if index in self._quarantined:
                raise CorruptBlockError(index, detail="copy quarantined")
            return self._zero
        if zlib.crc32(data) != self._sums.get(index):
            raise CorruptBlockError(index)
        return data

    def write(
        self, index: BlockIndex, data: bytes, version: VersionNumber
    ) -> None:
        """Store ``data`` as block ``index`` at the given version: an
        :meth:`apply` of one update, checksummed here."""
        self.apply(((index, data, version, zlib.crc32(data)),))

    def apply(
        self, updates: Iterable[Tuple[BlockIndex, bytes, VersionNumber, int]]
    ) -> None:
        """Store ``(index, data, version, checksum)`` updates in order.

        The store's one write path.  The caller (the consistency
        protocol) owns version assignment and computes each checksum
        once per fan-out, from the same bytes every replica stores; the
        store enforces geometry, keeps its own copy of the data and
        clears any quarantine on the block.
        """
        n, size = self._num_blocks, self._block_size
        stored, sums, quarantined = self._data, self._sums, self._quarantined
        set_version = self._versions.set
        for index, data, version, checksum in updates:
            if not 0 <= index < n:
                raise BlockOutOfRangeError(index, n)
            if len(data) != size:
                raise BlockSizeError(len(data), size)
            stored[index] = bytes(data)
            sums[index] = checksum
            quarantined.discard(index)
            set_version(index, version)

    def set_version(self, index: BlockIndex, version: VersionNumber) -> None:
        """Record a version without storing data (witness replicas).

        Witness sites participate in voting with version numbers only;
        they never hold block contents.
        """
        self.check_index(index)
        if version < 0:
            raise ValueError(f"negative version {version}")
        self._versions.set(index, version)

    # -- integrity ----------------------------------------------------------

    def checksum(self, index: BlockIndex) -> Optional[int]:
        """The CRC32 recorded for block ``index`` (None if no data)."""
        self.check_index(index)
        return self._sums.get(index)

    def verify(self, index: BlockIndex) -> bool:
        """Whether block ``index`` would read back without error."""
        self.check_index(index)
        data = self._data.get(index)
        if data is None:
            return index not in self._quarantined
        return zlib.crc32(data) == self._sums.get(index)

    def corrupt_blocks(self) -> List[BlockIndex]:
        """Indexes whose copy needs repair (bad checksum or quarantined)."""
        return sorted(
            index
            for index in set(self._data) | self._quarantined
            if not self.verify(index)
        )

    def intact_blocks(self) -> List[BlockIndex]:
        """Indexes holding written data that verifies, sorted.

        The written blocks :meth:`verify` accepts, in one pass over the
        store with one checksum per block.
        """
        return sorted([
            index for index, data in self._data.items()
            if zlib.crc32(data) == self._sums[index]
        ])

    def quarantine(
        self, index: BlockIndex, version: Optional[VersionNumber] = None
    ) -> None:
        """Drop a detected-bad copy but remember it existed.

        The contents and checksum are discarded; the version number is
        kept (optionally raised to ``version``, for repairs that learn a
        current version they cannot fetch).  Reads of a quarantined
        block raise :class:`~repro.errors.CorruptBlockError` until a
        write repairs it -- never silently serve zeros for data that
        did exist.
        """
        self.check_index(index)
        self._data.pop(index, None)
        self._sums.pop(index, None)
        self._quarantined.add(index)
        if version is not None:
            self._versions.bump(index, version)

    def is_quarantined(self, index: BlockIndex) -> bool:
        self.check_index(index)
        return index in self._quarantined

    def quarantined_blocks(self) -> List[BlockIndex]:
        """Quarantined indexes, sorted."""
        return sorted(self._quarantined)

    def inject_corruption(self, index: BlockIndex, data: bytes) -> None:
        """Overwrite stored contents *without* updating the checksum.

        Models bit rot on stable storage; only meaningful for blocks
        that hold data.  Test/fault-injection hook -- protocols never
        call this.
        """
        self.check_index(index)
        if index not in self._data:
            raise ValueError(
                f"block {index} holds no data to corrupt"
            )
        if len(data) != self._block_size:
            raise BlockSizeError(len(data), self._block_size)
        self._data[index] = bytes(data)

    def version(self, index: BlockIndex) -> VersionNumber:
        """Version number of block ``index`` (0 if never written).

        The hottest probe in the simulator (every vote answers through
        it), so the bounds check is inlined and the lookup goes through
        the vector's flattened getter.
        """
        if not 0 <= index < self._num_blocks:
            raise BlockOutOfRangeError(index, self._num_blocks)
        return self._vget(index, 0)

    def version_vector(self) -> VersionVector:
        """A *copy* of the store's full version vector."""
        return self._versions.copy()

    def version_total(self) -> int:
        """``version_vector().total()``, summed in place (no copy)."""
        return self._versions.total()

    def entries(self) -> Iterator[Entry]:
        """Every versioned or written block as an :data:`Entry`, sorted.

        The checksum is the one recorded when the data was written --
        not one computed now, so a rotten copy stays rotten.  With
        :meth:`quarantined_blocks` this is the whole store;
        :meth:`restore` takes both back.
        """
        for index in sorted(set(self._versions.blocks()) | set(self._data)):
            yield (index, self._vget(index, 0), self._data.get(index),
                   self._sums.get(index))

    def restore(
        self, entries: Iterable[Entry], quarantined: Iterable[BlockIndex]
    ) -> None:
        """Replace the whole store with :meth:`entries`-shaped contents.

        Loads in place (the version dict is cleared, never rebound, so
        bound accessors stay valid), taking each checksum as given.
        This is the one path a site image fills a store through.
        """
        self._data.clear()
        self._sums.clear()
        self._quarantined.clear()
        self._versions.clear()
        for index, version, data, checksum in entries:
            self.check_index(index)
            self._versions.set(index, version)
            if data is not None:
                if len(data) != self._block_size:
                    raise BlockSizeError(len(data), self._block_size)
                self._data[index] = bytes(data)
                self._sums[index] = checksum
        for index in quarantined:
            self.check_index(index)
            if index in self._data:
                raise ValueError(f"quarantined block {index} holds data")
            self._quarantined.add(index)

    def written_blocks(self) -> Iterator[Tuple[BlockIndex, bytes, int]]:
        """(index, data, version) for every explicitly written block."""
        for index in sorted(self._data):
            yield index, self._data[index], self._versions.get(index)

    @property
    def blocks_written(self) -> int:
        """How many distinct blocks have ever been written."""
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockStore(num_blocks={self._num_blocks}, "
            f"block_size={self._block_size}, written={len(self._data)})"
        )
